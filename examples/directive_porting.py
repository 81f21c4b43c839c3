#!/usr/bin/env python
"""The directive-porting workflow: annotate once, translate, census, lower.

Walks through the paper's Section 5 methodology as a library user would:

1. inspect the offloaded ``pflux_`` kernel registry and its pragmas
   (Figures 2/3);
2. translate the OpenACC annotation to OpenMP automatically (the
   Table 4 <-> Table 5 mapping);
3. produce the directive census — the "8 lines, ~2% of the routine"
   productivity claim;
4. lower one kernel with each facility compiler and compare the plans —
   where the performance-portability differences are born.

Run:  python examples/directive_porting.py
"""

from __future__ import annotations

from repro.core.offload import PFLUX_SOURCE_LINES, build_pflux_registry
from repro.directives.translate import translate_kernel_acc_to_omp
from repro.machines.site import ALL_SITES
from repro.utils.tables import Table


def main() -> None:
    registry = build_pflux_registry(513, vector_length=32)

    # --- 1. the annotated kernels ------------------------------------------
    print("Offloaded pflux_ kernels and their OpenACC annotations:\n")
    for kernel in registry:
        nest = kernel.nest
        print(f"  {kernel.name:12s} [{kernel.complexity:7s}] "
              f"{nest.total_iterations:>12,d} iterations, "
              f"{nest.total_flops / 1e6:10.1f} MFLOP")
        for d in kernel.acc_directives:
            print(f"      {d.to_pragma()}")
    print()

    # --- 2. automatic ACC -> OMP translation --------------------------------
    # The whole annotation set at once: the reduction the OpenACC form
    # declares on the inner loop is hoisted onto ``teams distribute`` too,
    # as Table 5 writes it.
    print("OpenACC -> OpenMP translation of the O(N^3) kernel:\n")
    acc = registry.get("boundary_lr").acc_directives
    for d in acc:
        print(f"  {d.to_pragma()}")
    for d in translate_kernel_acc_to_omp(acc):
        print(f"    -> {d.to_pragma()}")
    print()

    # --- 3. the census -------------------------------------------------------
    for model, label in (("openacc", "Table 4"), ("openmp", "Table 5")):
        total = registry.directive_line_count(model)
        print(f"{label}: {total} {model} directive lines "
              f"({100 * total / PFLUX_SOURCE_LINES:.1f}% of the {PFLUX_SOURCE_LINES}-line routine)")
        for pragma, count, pct in registry.census_table(model):
            print(f"    {count} x {pragma}")
    print()

    # --- 4. lowering by each facility compiler -------------------------------
    kernel = registry.get("boundary_lr")
    t = Table(
        ["site", "model", "teams", "threads/team", "traffic", "bw eff", "occupancy-aware"],
        title="How each compiler lowers the Figure 2/3 kernel (513x513)",
    )
    for site in ALL_SITES():
        for model in site.models:
            plan = site.compiler.lower(kernel, model, site.gpu)
            t.add_row(
                [
                    site.name,
                    model,
                    plan.teams,
                    plan.threads_per_team,
                    f"{plan.traffic_factor:.2f}x",
                    f"{plan.bandwidth_efficiency:.2f}",
                    "yes" if plan.occupancy_sensitive else "NO (serialised)",
                ]
            )
    print(t.render())
    print(
        "\nThe CCE OpenACC row is the whole story of Table 6: 3.9x the\n"
        "traffic and a lowering that cannot convert parallelism into\n"
        "bandwidth -> saturation at 257x257 while everyone else scales."
    )


if __name__ == "__main__":
    main()
