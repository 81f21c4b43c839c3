#!/usr/bin/env python
"""Reproduce the paper's full performance-portability study.

Sweeps OpenACC and OpenMP builds of the offloaded ``pflux_`` over
65^2 ... 513^2 grids on modeled Perlmutter (A100/NVHPC), Frontier
(MI250X GCD/CCE) and Sunspot (PVC stack/oneAPI) nodes, and prints every
table and figure of the evaluation section with the paper's published
numbers alongside.

Run:  python examples/portability_study.py
"""

from __future__ import annotations

from repro.core.report import (
    fig1_report,
    fig4_report,
    fig5_report,
    fig6_report,
    fig7_report,
    table1_report,
    table2_report,
    table4_5_report,
    table6_report,
    table7_report,
)
from repro.core.study import PortabilityStudy
from repro.machines.site import ALL_SITES


def main() -> None:
    study = PortabilityStudy(ALL_SITES())
    print("Machines under study:")
    for site in study.sites:
        print(
            f"  {site.name:10s}: {site.cpu.name} + {site.devices_per_node} x "
            f"{site.gpu.name} ({site.compiler.name} {site.compiler.version}); "
            f"break-even {site.acceleration_threshold:.1f}x"
        )
    print()

    t4, t5 = table4_5_report()
    for table in (
        table1_report(study),
        table2_report(study),
        t4,
        t5,
        table6_report(study),
        table7_report(study),
        fig1_report(study),
        fig4_report(),
        fig5_report(study),
        fig6_report(study),
        fig7_report(study),
    ):
        print(table.render())
        print()

    print("Legend: '*' in Figure 7 marks configurations clearing the node")
    print("throughput break-even threshold of Section 4 (16x / 8x / 8.7x).")


if __name__ == "__main__":
    main()
