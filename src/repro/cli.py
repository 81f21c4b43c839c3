"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``study``
    Regenerate the paper's tables and figures (model vs paper).
``fit``
    Reconstruct a synthetic time slice and optionally write a g-file.
``census``
    Print the directive census (Tables 4/5).
``sites``
    Describe the modeled machines.
``analyze``
    Run the portability linter — the directive rules over the registered
    ``pflux_`` kernels (``--sarif`` exports CI annotations).
``trace``
    Run one traced workload and write a Chrome-trace JSON (plus an
    optional JSONL record stream).
``operators``
    Compare the structured edge-flux operators against the dense
    ground truth at one grid size; ``--check`` turns the printed
    max-abs-error into a bounded drift gate (the nightly 257^2 step).
``pfleet``
    Shard a multi-slice reconstruction across worker processes through
    the :mod:`repro.parallel` scheduler; optionally write the merged
    per-worker Chrome trace and compare against the serial engine.
``serve``
    Stream concurrent synthetic shot streams through the real-time
    reconstruction service (:mod:`repro.serve`): per-slice deadlines,
    warm-started Picard solves, backpressure and ``serve.*`` metrics;
    ``--check`` turns the run into the serve-smoke CI gate.

``census``, ``sites``, ``analyze`` and ``operators`` accept ``--json``
and share one emitter (:mod:`repro.utils.jsonio`) so their
machine-readable output has a single formatting contract.

Exit codes: 0 success; 1 failed ``--check`` gate (``operators`` drift,
``serve`` smoke); 2 environment/usage error (missing analysis baseline,
unwritable output path) or a :class:`~repro.errors.ReproError` out of
the command, which :func:`main` prints as one ``error:`` line; 4
quarantined parallel jobs.  argparse itself exits 2 on unknown
commands/flags.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser", "DEFAULT_BASELINE"]

#: Baseline file ``repro analyze`` picks up from the working directory
#: when ``--baseline``/``--no-baseline`` are not given.
DEFAULT_BASELINE = "analysis-baseline.json"


def _add_problem_options(
    p: argparse.ArgumentParser,
    method_help: str,
    *,
    scenario_default: str | None = None,
    scenario_help: str | None = None,
) -> None:
    """``--scenario`` (given a default or a help text) / ``--grid`` /
    ``--boundary-method``: the problem a command reconstructs."""
    # Both choice lists come from import-light modules (no numpy, no efit
    # tables), so an unknown value fails argparse-style: exit 2, full list.
    from repro.edge_methods import DEFAULT_EDGE_METHOD, EDGE_METHODS
    from repro.scenarios import scenario_names

    if scenario_default is not None:
        scenario_help = f"registered machine/shot scenario (default {scenario_default})"
    if scenario_help is not None:
        p.add_argument(
            "--scenario", choices=scenario_names(), default=scenario_default,
            help=scenario_help,
        )
    p.add_argument("--grid", type=int, default=65, help="grid size (default 65)")
    p.add_argument(
        "--boundary-method", choices=EDGE_METHODS, default=DEFAULT_EDGE_METHOD,
        help=f"{method_help} (default {DEFAULT_EDGE_METHOD})",
    )


def _edge_operator(args, grid):
    """The edge operator ``--boundary-method`` names on ``grid``: the
    process-wide cached one, which every solver and engine of the command
    is handed."""
    from repro.efit.operators import cached_edge_operator
    from repro.efit.tables import cached_boundary_tables

    return cached_edge_operator(cached_boundary_tables(grid), args.boundary_method)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing and docs)."""
    from repro.edge_methods import EDGE_METHODS
    from repro.scenarios import DEFAULT_SCENARIO, scenario_names

    scenarios = scenario_names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EFIT GPU performance-portability study, reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", help="regenerate the paper's tables and figures")
    p_study.set_defaults(func=_cmd_study)
    p_study.add_argument(
        "--artifact",
        choices=["all", "table1", "table2", "table4", "table5", "table6", "table7",
                 "fig1", "fig4", "fig5", "fig6", "fig7"],
        default="all",
        help="which artifact to print (default: all)",
    )
    p_study.add_argument(
        "--grids",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="grid sizes to sweep (default: 65 129 257 513)",
    )

    p_fit = sub.add_parser("fit", help="reconstruct a synthetic time slice")
    p_fit.set_defaults(func=_cmd_fit)
    _add_problem_options(
        p_fit,
        "edge-flux operator representation",
        scenario_default=DEFAULT_SCENARIO,
    )
    p_fit.add_argument("--noise", type=float, default=1e-3, help="measurement noise")
    p_fit.add_argument("--geqdsk", metavar="PATH", default=None,
                       help="write the result as a g-EQDSK file")
    p_fit.add_argument("--afile", metavar="PATH", default=None,
                       help="write the scalar results as an a-file")

    p_census = sub.add_parser("census", help="print the directive census (Tables 4/5)")
    p_census.set_defaults(func=_cmd_census)
    p_census.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    p_sites = sub.add_parser("sites", help="describe the modeled machines")
    p_sites.set_defaults(func=_cmd_sites)
    p_sites.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_an = sub.add_parser(
        "analyze",
        help="run the portability linter over the registered kernels",
    )
    p_an.set_defaults(func=_cmd_analyze)
    p_an.add_argument("--json", action="store_true", help="emit findings as JSON")
    p_an.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write a SARIF 2.1.0 log here (CI annotation artifact)",
    )
    p_an.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not only errors",
    )
    p_an.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=f"suppression baseline file (default: {DEFAULT_BASELINE} when present)",
    )
    p_an.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file, report every finding",
    )
    p_an.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    p_an.add_argument(
        "--grid", type=int, default=65,
        help="grid size the directive registry is priced at (default 65)",
    )
    p_an.add_argument(
        "--max-traffic-ratio",
        type=float,
        default=2.0,
        help="excess-traffic threshold as modeled/streaming bytes (default 2.0)",
    )

    p_tr = sub.add_parser(
        "trace",
        help="run one traced workload and write a Chrome trace",
    )
    p_tr.set_defaults(func=_cmd_trace)
    p_tr.add_argument(
        "case",
        choices=["g186610", "solovev", "batch", "offload"],
        help="workload: serial reconstruction (g186610/solovev), the "
        "batched engine, or the modeled GPU pflux_",
    )
    p_tr.add_argument("--grid", type=int, default=65, help="grid size (default 65)")
    p_tr.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="Chrome-trace output file (default trace.json)",
    )
    p_tr.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also write the flat JSONL record stream here",
    )

    p_pf = sub.add_parser(
        "pfleet",
        help="shard a multi-slice reconstruction across worker processes",
    )
    p_pf.set_defaults(func=_cmd_pfleet)
    p_pf.add_argument(
        "case", nargs="?", choices=scenarios, default=None,
        help="scenario to reconstruct (positional form; default g186610)",
    )
    _add_problem_options(
        p_pf,
        "edge-flux operator the fleet stages in its table arena",
        scenario_help="registered machine/shot scenario (same registry as the "
        "positional case; giving both conflicting forms is an error)",
    )
    p_pf.add_argument("--workers", type=int, default=2, help="worker processes (default 2)")
    p_pf.add_argument("--slices", type=int, default=16, help="time slices (default 16)")
    p_pf.add_argument(
        "--batch", type=int, default=4,
        help="slices per job — the serial engine's batch_size (default 4)",
    )
    p_pf.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-job timeout in seconds (default 120)",
    )
    p_pf.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per crashed/timed-out job (default 2)",
    )
    p_pf.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the merged per-worker Chrome trace here",
    )
    p_pf.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the aggregated metrics snapshot here",
    )
    p_pf.add_argument(
        "--compare-serial", action="store_true",
        help="also run the serial BatchFitEngine and report speedup + equality",
    )
    p_pf.add_argument(
        "--allow-failures", action="store_true",
        help="report quarantined jobs instead of aborting on them (still exits 4)",
    )

    p_sv = sub.add_parser(
        "serve",
        help="stream concurrent shot streams through the real-time service",
    )
    p_sv.set_defaults(func=_cmd_serve)
    _add_problem_options(
        p_sv,
        "edge-flux operator of the shared engine, applied by every "
        "stream's solves",
        scenario_default=DEFAULT_SCENARIO,
    )
    p_sv.add_argument(
        "--streams", type=int, default=4,
        help="concurrent shot streams (default 4)",
    )
    p_sv.add_argument(
        "--slices", type=int, default=8,
        help="frames per stream (default 8)",
    )
    p_sv.add_argument(
        "--deadline-ms", type=float, default=1000.0,
        help="per-slice solve budget in milliseconds; 0 disables "
        "deadline enforcement (default 1000)",
    )
    p_sv.add_argument(
        "--queue-depth", type=int, default=None,
        help="bounded per-stream frame queue; overflow sheds the oldest "
        "frame (default: slices, so the offline replay never sheds)",
    )
    p_sv.add_argument(
        "--no-warm-start", action="store_true",
        help="solve every slice cold (A/B baseline for the warm savings)",
    )
    p_sv.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the serve.* metrics snapshot (with summary) here",
    )
    p_sv.add_argument(
        "--compare-serial", action="store_true",
        help="re-run every stream through the serial solver with the same "
        "warm-start chaining and require bit-identical results",
    )
    p_sv.add_argument(
        "--check", action="store_true",
        help="exit 1 unless zero deadline misses and positive "
        "warm-start iteration savings (the serve-smoke CI gate)",
    )

    p_op = sub.add_parser(
        "operators",
        help="compare structured edge operators against the dense ground truth",
    )
    p_op.set_defaults(func=_cmd_operators)
    p_op.add_argument("--grid", type=int, default=65, help="grid size (default 65)")
    p_op.add_argument(
        "--method",
        choices=EDGE_METHODS,
        action="append",
        default=None,
        metavar="NAME",
        help="structured method to compare (repeatable; default: all of them)",
    )
    p_op.add_argument(
        "--vectors", type=int, default=4,
        help="random current vectors per comparison (default 4)",
    )
    p_op.add_argument(
        "--check", action="store_true",
        help="exit 1 when any method's relative error exceeds its bound",
    )
    p_op.add_argument(
        "--bound", type=float, default=1e-10,
        help="relative-error bound against dense (default 1e-10)",
    )
    p_op.add_argument("--json", action="store_true", help="emit results as JSON")

    sub.add_parser("version", help="print the package version").set_defaults(
        func=_cmd_version
    )
    return parser


def _cmd_study(args) -> int:
    from repro.core import report
    from repro.core.study import PortabilityStudy
    from repro.machines.site import ALL_SITES

    kwargs = {}
    if args.grids:
        kwargs["grid_sizes"] = tuple(sorted(set(args.grids)))
    study = PortabilityStudy(ALL_SITES(), **kwargs)
    makers = {
        "table1": lambda: report.table1_report(study),
        "table2": lambda: report.table2_report(study),
        "table4": lambda: report.table4_5_report()[0],
        "table5": lambda: report.table4_5_report()[1],
        "table6": lambda: report.table6_report(study),
        "table7": lambda: report.table7_report(study),
        "fig1": lambda: report.fig1_report(study),
        "fig4": lambda: report.fig4_report(),
        "fig5": lambda: report.fig5_report(study),
        "fig6": lambda: report.fig6_report(study),
        "fig7": lambda: report.fig7_report(study),
    }
    names = list(makers) if args.artifact == "all" else [args.artifact]
    for name in names:
        print(makers[name]().render())
        print()
    return 0


def _cmd_fit(args) -> int:
    import numpy as np

    from repro.efit import EfitSolver
    from repro.scenarios import get_scenario

    sc = get_scenario(args.scenario)
    shot = sc.make_shot(args.grid, noise=args.noise)
    solver = EfitSolver.for_scenario(
        sc, shot=shot, pflux_impl=_edge_operator(args, shot.grid)
    )
    result = solver.fit(shot.measurements)
    err = float(np.abs(result.psi - shot.truth.psi).max() / np.ptp(shot.truth.psi))
    print(f"scenario: {sc.name} ({sc.description})")
    print(f"converged: {result.converged} after {result.iterations} iterations")
    print(f"chi^2 = {result.chi2:.1f} over {shot.measurements.n_measurements} measurements")
    print(f"Ip = {result.ip / 1e6:.4f} MA; flux error vs truth = {err:.2e}")
    b = result.boundary
    print(f"axis: R = {b.r_axis:.3f} m, Z = {b.z_axis:+.4f} m ({b.boundary_type})")
    expected = f"{sc.boundary_type}, {sc.n_xpoints} X-point(s)"
    if b.boundary_type != sc.boundary_type:
        print(f"warning: expected topology {expected}", file=sys.stderr)
    if args.geqdsk:
        from repro.efit.output import geqdsk_from_fit, write_geqdsk

        eq = geqdsk_from_fit(shot, result)
        write_geqdsk(eq, args.geqdsk)
        print(f"wrote {args.geqdsk}")
    if args.afile:
        from repro.efit.afile import afile_from_fit, write_afile

        write_afile(afile_from_fit(shot, result), args.afile)
        print(f"wrote {args.afile}")
    return 0


def _cmd_census(args) -> int:
    from repro.core.report import table4_5_report

    t4, t5 = table4_5_report()
    if args.json:
        from repro.utils.jsonio import dump_json, table_to_dict

        dump_json({"table4": table_to_dict(t4), "table5": table_to_dict(t5)}, sys.stdout)
        return 0
    print(t4.render())
    print()
    print(t5.render())
    return 0


def _cmd_sites(args) -> int:
    from repro.machines.site import ALL_SITES

    sites = ALL_SITES()
    if args.json:
        from repro.utils.jsonio import dump_json

        payload = [
            {
                "name": site.name,
                "facility": site.facility,
                "cpu": site.cpu.name,
                "gpu": site.gpu.name,
                "gpu_vendor": site.gpu.vendor,
                "devices_per_node": site.devices_per_node,
                "unified_memory": site.gpu.unified_memory,
                "compiler": f"{site.compiler.name} {site.compiler.version}",
                "models": list(site.models),
                "acceleration_threshold": site.acceleration_threshold,
            }
            for site in sites
        ]
        dump_json(payload, sys.stdout)
        return 0
    for site in sites:
        gpu = site.gpu
        print(f"{site.name} ({site.facility})")
        print(f"  host : {site.cpu.name}, {site.cpu.cores_per_node} cores/node")
        print(
            f"  gpu  : {site.devices_per_node} x {gpu.name} "
            f"({gpu.peak_fp64_gflops / 1000:.1f} TF FP64, {gpu.hbm_bw_gbs:.0f} GB/s HBM)"
        )
        print(f"  build: {site.compiler.name} {site.compiler.version}; "
              f"models: {', '.join(site.models)}")
        print(f"  break-even: {site.acceleration_threshold:.1f}x per device")
    return 0


def _cmd_analyze(args) -> int:
    from pathlib import Path

    from repro.analysis import Baseline
    from repro.analysis.engine import AnalysisConfig, analyze_repo
    from repro.errors import AnalysisError

    config = AnalysisConfig(grid=args.grid, max_traffic_ratio=args.max_traffic_ratio)
    report = analyze_repo(config)

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    if args.write_baseline:
        # Regeneration preserves curated reasons for surviving entries
        # and prunes the stale ones.
        previous = None
        if baseline_path.exists():
            try:
                previous = Baseline.load(baseline_path)
            except AnalysisError:
                previous = None  # damaged file: regenerate from scratch
        try:
            Baseline.from_findings(report.findings, previous=previous).save(baseline_path)
        except OSError as exc:
            print(f"error: cannot write baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(report.findings)} suppression(s) to {baseline_path}")
        return 0
    if not args.no_baseline and (args.baseline or baseline_path.exists()):
        report.apply_baseline(Baseline.load(baseline_path))
        for fp, reason in sorted(report.stale_suppressions.items()):
            note = f" ({reason})" if reason else ""
            print(
                f"warning: stale baseline suppression matches nothing: "
                f"{fp}{note} — regenerate with --write-baseline",
                file=sys.stderr,
            )

    if args.sarif:
        from repro.analysis.sarif import write_sarif

        try:
            write_sarif(report, args.sarif)
        except OSError as exc:
            print(f"error: cannot write {args.sarif}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote SARIF log {args.sarif}", file=sys.stderr)

    if args.json:
        from repro.utils.jsonio import dump_json

        dump_json(report.to_dict(), sys.stdout)
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def _cmd_trace(args) -> int:
    from repro.obs import (
        TraceHooks,
        TraceRecorder,
        chrome_trace,
        region_totals,
        write_chrome_trace,
        write_jsonl,
    )

    recorder = TraceRecorder()
    hooks = TraceHooks(recorder)
    profiler_totals: dict[str, float] = {}

    if args.case == "offload":
        from repro.compilers.flags import parse_flags
        from repro.core.offload import PfluxOffloadModel
        from repro.machines.site import perlmutter

        site = perlmutter()
        model = site.models[0]
        build = site.compiler.configure(
            parse_flags(site.flags(model)), site.env, site.gpu
        )
        offload = PfluxOffloadModel(args.grid, args.grid, build, hooks=hooks)
        offload.invoke()  # staging pass
        offload.invoke()  # steady state
        label = f"{site.name}-{model}@{args.grid}x{args.grid}"
    elif args.case == "batch":
        from repro.batch import BatchFitEngine, synthetic_slice_sequence
        from repro.efit.measurements import synthetic_shot_186610

        shot = synthetic_shot_186610(args.grid)
        slices = synthetic_slice_sequence(shot, 8, seed=3)
        engine = BatchFitEngine(
            shot.machine, shot.diagnostics, shot.grid, batch_size=8, hooks=hooks
        )
        results = engine.fit_many(slices).results
        profiler_totals = dict(engine.solver.profiler.report().totals)
        iterations = [r.iterations for r in results]
        label = (
            f"{shot.label} x{len(slices)} slices: {min(iterations)}-{max(iterations)} "
            f"iterations from the {_seed_kinds(recorder)} seed, "
            f"contraction {max(r.contraction for r in results):.2f} at worst"
        )
    else:
        from repro.efit.fitting import EfitSolver
        from repro.scenarios import get_scenario

        shot = get_scenario(args.case).make_shot(args.grid)
        solver = EfitSolver(shot.machine, shot.diagnostics, shot.grid, hooks=hooks)
        result = solver.fit(shot.measurements)
        profiler_totals = dict(solver.profiler.report().totals)
        label = (
            f"{shot.label}: {result.iterations} iterations "
            f"(contraction {result.contraction:.2f} per iterate) from the "
            f"{_seed_kinds(recorder)} seed, chi^2 {result.chi2:.1f}"
        )

    try:
        write_chrome_trace(recorder, args.out, process_name=f"repro:{args.case}")
        if args.jsonl:
            write_jsonl(recorder, args.jsonl)
    except OSError as exc:
        print(f"error: cannot write trace: {exc}", file=sys.stderr)
        return 2

    n_spans = len([r for r in recorder.records if hasattr(r, "duration")])
    n_events = len(list(recorder.events()))
    print(f"{label}")
    print(f"wrote {args.out}: {n_spans} spans, {n_events} events")
    if args.jsonl:
        print(f"wrote {args.jsonl}")
    category = "kernel" if args.case == "offload" else "region"
    trace_totals = region_totals(chrome_trace(recorder), category=category)
    if trace_totals:
        print(f"exclusive totals by {category} [s]:")
        for name in sorted(trace_totals, key=trace_totals.get, reverse=True):
            line = f"  {name:<14} {trace_totals[name]:12.6f}"
            if name in profiler_totals and profiler_totals[name] > 0:
                ratio = trace_totals[name] / profiler_totals[name]
                line += f"   (profiler {profiler_totals[name]:.6f}, x{ratio:.4f})"
            print(line)
    return 0


def _seed_kinds(recorder) -> str:
    """The ``seed`` of every ``start_fit`` event, counted: ``measured``
    when all agree, else e.g. ``7 measured, 1 filament``."""
    from collections import Counter

    kinds = Counter(e.attributes["seed"] for e in recorder.events() if e.name == "start_fit")
    if len(kinds) == 1:
        return next(iter(kinds))
    return ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))


def _cmd_operators(args) -> int:
    import numpy as np

    from repro.efit.grid import RZGrid
    from repro.efit.operators import EDGE_METHODS, build_edge_operator
    from repro.efit.tables import cached_boundary_tables

    if args.grid < 5 or args.vectors < 1:
        print("error: --grid must be >= 5 and --vectors >= 1", file=sys.stderr)
        return 2
    methods = tuple(dict.fromkeys(args.method)) if args.method else EDGE_METHODS
    grid = RZGrid(args.grid, args.grid)
    tables = cached_boundary_tables(grid)
    dense = build_edge_operator(tables, "dense")
    rng = np.random.default_rng(7)
    x = rng.normal(size=(grid.size, args.vectors))
    ref = dense.apply(x)
    scale = float(np.max(np.abs(ref)))
    rows = []
    for method in methods:
        op = build_edge_operator(tables, method)
        err = float(np.max(np.abs(op.apply(x) - ref)))
        rel = err / scale
        rows.append(
            {
                "method": method,
                "variant": op.variant_tag,
                "nbytes": op.nbytes,
                "compression": dense.nbytes / op.nbytes if op.nbytes else 0.0,
                "max_abs_error": err,
                "rel_error": rel,
                "bound": args.bound,
                "ok": rel <= args.bound,
            }
        )
    if args.json:
        from repro.utils.jsonio import dump_json

        dump_json(
            {
                "grid": args.grid,
                "dense_nbytes": dense.nbytes,
                "vectors": args.vectors,
                "methods": rows,
            },
            sys.stdout,
        )
    else:
        print(
            f"edge operators @ {args.grid}x{args.grid}: dense matrix "
            f"{dense.nbytes / 1e6:.1f} MB, {args.vectors} probe vector(s)"
        )
        for row in rows:
            verdict = "ok  " if row["ok"] else "FAIL"
            print(
                f"{verdict} {row['method']:<14} {row['nbytes'] / 1e6:8.1f} MB "
                f"(x{row['compression']:.1f} smaller)  "
                f"max-abs-error {row['max_abs_error']:.3e}  "
                f"rel {row['rel_error']:.3e}  (bound {row['bound']:.1e})"
            )
    failed = [row["method"] for row in rows if not row["ok"]]
    if failed and args.check:
        print(
            f"operator drift check: FAIL ({', '.join(failed)} beyond bound)",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print(f"operator drift check: ok ({len(rows)} method(s))")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    import numpy as np

    from repro.batch import BatchFitEngine, synthetic_slice_sequence
    from repro.scenarios import get_scenario
    from repro.serve import Frame, ReconstructionService, ServeConfig, ServeMetrics

    if args.streams < 1 or args.slices < 1 or args.grid < 17:
        print(
            "error: --streams and --slices must be >= 1, --grid >= 17",
            file=sys.stderr,
        )
        return 2
    if args.deadline_ms < 0:
        print("error: --deadline-ms must be >= 0", file=sys.stderr)
        return 2
    # 0 turns the deadline off; NaN or infinity is ServeConfig's error.
    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms != 0 else None
    config = ServeConfig(
        deadline_s=deadline_s,
        queue_depth=args.queue_depth if args.queue_depth else args.slices,
        max_streams=args.streams,
        warm_start=not args.no_warm_start,
    )
    sc = get_scenario(args.scenario)
    shot = sc.make_shot(args.grid)
    engine = BatchFitEngine.for_scenario(
        sc, shot=shot, edge_operator=_edge_operator(args, shot.grid)
    )
    metrics = ServeMetrics()
    service = ReconstructionService(engine, config=config, metrics=metrics)
    # One synthetic measurement sequence per stream (distinct noise
    # seeds): K shots' worth of frames replayed concurrently.
    frames = {
        f"{sc.name}-{k}": synthetic_slice_sequence(
            shot, args.slices, seed=3 + k
        )
        for k in range(args.streams)
    }
    print(
        f"serve {sc.name}@{args.grid}x{args.grid}: {args.streams} stream(s) x "
        f"{args.slices} slice(s), deadline "
        f"{'off' if deadline_s is None else f'{1e3 * deadline_s:.0f} ms'}, "
        f"warm start {'off' if args.no_warm_start else 'on'}"
    )

    async def replay():
        async with service as svc:
            for sid in frames:
                await svc.open_stream(sid)
            # Interleave submissions across streams (round-robin), the
            # arrival order a multi-shot acquisition system produces.
            for i in range(args.slices):
                for sid, slices in frames.items():
                    await svc.submit(
                        sid, Frame(stream_id=sid, index=i, measurements=slices[i])
                    )
            return await svc.stop()

    summaries = asyncio.run(replay())

    for sid, summary in summaries.items():
        iters = ",".join(str(r.iterations) for r in summary.reports)
        print(
            f"  {sid}: {len(summary.reports)} slice(s), iterations [{iters}], "
            f"{summary.warm_slices} warm, {summary.deadline_misses} deadline "
            f"miss(es), {summary.frames_shed} shed"
        )
    s = metrics.summary()
    print(
        f"latency p50/p95/p99: {1e3 * s['latency_p50_s']:.1f} / "
        f"{1e3 * s['latency_p95_s']:.1f} / {1e3 * s['latency_p99_s']:.1f} ms; "
        f"deadline misses: {s['deadline_misses']:.0f}/{s['slices']:.0f}; "
        f"frames shed: {s['frames_shed']:.0f}"
    )
    print(
        f"iterations to converge: cold {s['cold_iterations_mean']:.1f} "
        f"({s['cold_slices']} slice(s)) vs warm {s['warm_iterations_mean']:.1f} "
        f"({s['warm_slices']} slice(s)) -> savings "
        f"{s['warm_iteration_savings']:.1f} iteration(s)/slice"
    )

    if args.metrics_out:
        from repro.utils.jsonio import dump_json

        try:
            with open(args.metrics_out, "w") as fh:
                dump_json(metrics.to_dict(), fh)
        except OSError as exc:
            print(f"error: cannot write {args.metrics_out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote metrics {args.metrics_out}")

    if args.compare_serial:
        # Replay every solved frame through the plain serial solver with
        # the chain its stream kept: a converged slice seeds the next
        # solved one, a shed frame never reached the solver, and a
        # failed or unconverged one resets the chain.  Every slice that
        # ran to convergence under its deadline must be bit-identical.
        solver = engine.solver
        compared = mismatched = 0
        for sid, summary in summaries.items():
            failed = [f.index for f in summary.failures]
            prev_psi, prev_index = None, -1
            for report in summary.reports:
                if any(prev_index < i < report.index for i in failed):
                    prev_psi = None
                serial = solver.fit(
                    frames[sid][report.index],
                    psi_initial=None if args.no_warm_start else prev_psi,
                    require_convergence=False,
                )
                prev_index = report.index
                prev_psi = serial.psi if report.converged else None
                if report.converged:
                    compared += 1
                    if not (
                        np.array_equal(serial.psi, report.result.psi)
                        and serial.chi2 == report.result.chi2
                    ):
                        mismatched += 1
        print(
            f"serial comparison: {compared} converged slice(s) compared, "
            f"{mismatched} mismatch(es)"
        )
        if mismatched:
            print("error: served results diverged from the serial solver",
                  file=sys.stderr)
            return 4

    if args.check:
        savings_ok = args.no_warm_start or s["warm_iteration_savings"] > 0.0
        if s["deadline_misses"] or not savings_ok:
            print(
                "serve check: FAIL "
                f"({s['deadline_misses']:.0f} deadline miss(es), "
                f"savings {s['warm_iteration_savings']:.1f})",
                file=sys.stderr,
            )
            return 1
        print(
            f"serve check: ok (0 misses across {s['slices']:.0f} slices, "
            f"warm savings {s['warm_iteration_savings']:.1f} iteration(s)/slice)"
        )
    return 0


def _cmd_pfleet(args) -> int:
    import numpy as np

    from repro.batch import BatchFitEngine, synthetic_slice_sequence
    from repro.errors import JobQuarantinedError
    from repro.obs import TraceHooks, TraceRecorder
    from repro.parallel import ParallelFitEngine, SchedulerConfig
    from repro.parallel.merge import write_merged_chrome_trace
    from repro.scenarios import DEFAULT_SCENARIO, get_scenario
    from repro.utils.jsonio import dump_json

    if args.workers < 1 or args.slices < 1 or args.batch < 1:
        print("error: --workers, --slices and --batch must be >= 1", file=sys.stderr)
        return 2
    if args.case and args.scenario and args.case != args.scenario:
        print(
            f"error: conflicting scenarios {args.case!r} (positional) and "
            f"{args.scenario!r} (--scenario)",
            file=sys.stderr,
        )
        return 2
    config = SchedulerConfig(
        workers=args.workers,
        timeout_seconds=args.timeout,
        max_retries=args.max_retries,
    )
    sc = get_scenario(args.scenario or args.case or DEFAULT_SCENARIO)
    shot = sc.make_shot(args.grid)
    slices = synthetic_slice_sequence(shot, args.slices, seed=3)
    recorder = TraceRecorder()
    hooks = TraceHooks(recorder)
    print(
        f"pfleet {sc.name}@{args.grid}x{args.grid}: {args.slices} slices "
        f"across {args.workers} worker(s), {args.batch} slices/job"
    )
    failures = ()
    edge_operator = _edge_operator(args, shot.grid)
    with ParallelFitEngine.for_scenario(
        sc,
        shot=shot,
        batch_size=args.batch,
        edge_operator=edge_operator,
        hooks=hooks,
        config=config,
    ) as engine:
        arena_mb = engine.arena_nbytes / 1e6
        print(f"table arena: {engine.arena} ({arena_mb:.1f} MB mapped)")
        try:
            result = engine.fit_many(slices, allow_failures=args.allow_failures)
        except JobQuarantinedError as exc:
            for f in exc.failures:
                print(
                    f"quarantined job {f.index}: {f.reason} after "
                    f"{f.attempts} attempt(s)",
                    file=sys.stderr,
                )
            print(f"error: {exc}", file=sys.stderr)
            return 4
        failures = result.failures
        print(result.stats.summary())
        counters = engine.scheduler.counters
        print(
            f"scheduler: {counters.completed} completed, {counters.retries} retries, "
            f"{counters.crashes} crashes, {counters.timeouts} timeouts, "
            f"{counters.quarantined} quarantined, "
            f"{counters.worker_restarts} worker restart(s)"
        )
        for report in result.worker_reports:
            print(
                f"  worker {report.worker} (pid {report.pid}): "
                f"{report.jobs_done} job(s), {len(report.records)} trace record(s), "
                f"start {report.metrics['metrics']['init_seconds']:.3f} s"
            )
        if args.trace_out:
            try:
                write_merged_chrome_trace(
                    result.worker_reports, args.trace_out, parent=recorder
                )
            except OSError as exc:
                print(f"error: cannot write {args.trace_out}: {exc}", file=sys.stderr)
                return 2
            print(f"wrote merged trace {args.trace_out}")
        if args.metrics_out:
            try:
                with open(args.metrics_out, "w") as fh:
                    dump_json(engine.merged_metrics(), fh)
            except OSError as exc:
                print(f"error: cannot write {args.metrics_out}: {exc}", file=sys.stderr)
                return 2
            print(f"wrote merged metrics {args.metrics_out}")
        if args.compare_serial:
            serial = BatchFitEngine.for_scenario(
                sc, shot=shot, batch_size=args.batch, edge_operator=edge_operator
            )
            serial_result = serial.fit_many(slices)
            identical = len(result.results) == len(serial_result.results) and all(
                np.array_equal(a.psi, b.psi) and a.chi2 == b.chi2
                for a, b in zip(result.results, serial_result.results)
            )
            speedup = serial_result.stats.wall_seconds / result.wall_seconds
            print(
                f"serial engine: {serial_result.stats.wall_seconds:.3f} s -> "
                f"speedup x{speedup:.2f}, bit-identical: {identical}"
            )
            if not identical:
                print("error: parallel merge diverged from serial", file=sys.stderr)
                return 4
    if failures:
        for f in failures:
            print(
                f"quarantined job {f.index}: {f.reason} after {f.attempts} attempt(s)",
                file=sys.stderr,
            )
        return 4
    return 0


def _cmd_version(args) -> int:
    from repro.version import __version__

    print(__version__)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv`` (default: process args) and run the
    sub-command; a :class:`ReproError` it raises is one ``error:`` line
    on stderr and exit code 2."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
