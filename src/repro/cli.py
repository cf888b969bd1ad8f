"""Command-line interface for the reproduction harness.

Usage::

    python -m repro.cli table1  [--scale 0.08]
    python -m repro.cli spmv    --matrix consph [--kernel spaden] [--gpu L40]
    python -m repro.cli figures [--scale 0.08] [--gpu L40]
    python -m repro.cli probe
    python -m repro.cli formats --matrix cant
    python -m repro.cli verify  --matrix consph [--fault bitmap-bit-flip]
    python -m repro.cli analyze [--kernels spaden,csr-scalar] [--no-lint]
                                [--concurrency] [--paths src/repro/engine]
    python -m repro.cli report  --matrix consph [--batch 8] [--simulate]
                                [--fault bitmap-bit-flip] [--sanitize]
                                [--jsonl run_report.jsonl] [--prometheus metrics.txt]
    python -m repro.cli chaos   [--seed 0] [--requests 48] [--batch 8]
                                [--probabilities 0,0.5,0.9] [--out BENCH_chaos.json]
    python -m repro.cli plan    --matrix consph [--gpu L40] [--simulate]
    python -m repro.cli plan-bench [--sweep 64,32,16,8,4,2,1] [--gpu L40]
                                [--tolerance 0.15] [--out BENCH_plan.json]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_table1(args) -> int:
    from repro.matrices import generate_matrix, get_spec, matrix_names
    from repro.perf.report import format_table

    rows = []
    for name in matrix_names():
        g = generate_matrix(name, scale=args.scale)
        spec = get_spec(name)
        rows.append(
            {
                "Matrix": name,
                "nrow": g.nrows,
                "nnz": g.nnz,
                "Bnrow": g.bitbsr.block_rows_count,
                "Bnnz": g.block_nnz,
                "nnz/blk": round(g.nnz / g.block_nnz, 1),
                "paper nnz/blk": round(spec.mean_block_nnz, 1),
            }
        )
    print(format_table(rows, title=f"Table 1 analogs (scale={args.scale})"))
    return 0


def _served_kernel(preferred: str, degradation_log) -> str:
    """The kernel that actually served the run.

    Each :class:`~repro.exec.DegradationEvent` names the kernel it fell
    back *to*; following the log from the preferred kernel lands on the
    one whose operand is in the cache.  (A run that degraded to, say,
    ``csr-scalar`` cached its operand under *that* key — introspecting
    the preferred kernel's key would silently miss.)
    """
    served = preferred
    for event in degradation_log:
        if event.fallback is not None:
            served = event.fallback
    return served


def _cmd_spmv(args) -> int:
    from repro.engine import SpMVEngine, matrix_fingerprint
    from repro.exec import ExecutionMode, execute
    from repro.gpu.spec import get_gpu
    from repro.kernels import get_kernel
    from repro.matrices import generate_matrix
    from repro.perf import estimate_time
    from repro.perf.metrics import gflops

    g = generate_matrix(args.matrix, scale=args.scale)
    x = g.dense_vector()
    # served through the engine: caching + graceful degradation for free
    engine = SpMVEngine(args.kernel)
    y = engine.spmv(g.csr, x)
    for event in engine.stats.degradation_log:
        print(f"degraded: {event}")
    # introspect side-effect-free: peek() counts no hit/miss and leaves
    # LRU recency alone, and the key is the kernel that actually served
    # the request (after any degradation), not the one we asked for
    served_by = _served_kernel(args.kernel, engine.stats.degradation_log)
    kernel = get_kernel(served_by)
    operand = engine.cache.peek((served_by, matrix_fingerprint(g.csr)))
    # PROFILED mode: the numeric run plus the exact analytic counters
    profiled = execute(kernel, operand if operand is not None else g.csr, x,
                       mode=ExecutionMode.PROFILED)
    prepared, profile = profiled.operand, profiled.profile
    tb = estimate_time(profile, get_gpu(args.gpu))
    print(f"{args.matrix} (scale={args.scale}): nnz={g.nnz:,}, blocks={g.block_nnz:,}")
    print(f"kernel: {kernel.label}  format bytes: {prepared.device_bytes:,} ({prepared.bytes_per_nnz:.2f} B/nnz)")
    print(f"y[:4] = {y[:4]}")
    print(
        f"modeled on {args.gpu}: {tb.total * 1e6:.1f} us "
        f"({gflops(g.nnz, tb.total):.1f} GFLOPS, {tb.bound}-bound)"
    )
    print(f"DRAM {profile.dram_bytes:,} B, transactions {profile.transactions:,}, MMAs {profile.stats.mma_ops:,}")
    return 0


def _cmd_figures(args) -> int:
    from repro.bench import EVALUATED_METHODS, load_suite, modeled_times, profile_suite
    from repro.kernels import get_kernel
    from repro.perf.metrics import gflops, speedup_table
    from repro.perf.report import format_table

    suite = load_suite(args.scale)
    profiles = profile_suite(suite, EVALUATED_METHODS, args.scale)
    times = modeled_times(profiles, args.gpu)
    rows = []
    for name, per_method in times.items():
        row = {"Matrix": name}
        for method in EVALUATED_METHODS:
            row[get_kernel(method).label] = round(gflops(suite[name].nnz, per_method[method]), 1)
        rows.append(row)
    print(format_table(rows, title=f"Figure 6 — GFLOPS on {args.gpu} (scale={args.scale})"))
    print()
    geomeans = speedup_table(times, "spaden")
    print(format_table(
        [{"vs": get_kernel(m).label, "speedup": round(v, 2)} for m, v in sorted(geomeans.items())],
        title="Spaden geomean speedups (Figure 7)",
    ))
    return 0


def _cmd_probe(args) -> int:
    from repro.core.reverse_engineering import probe_fragment_layout
    from repro.gpu.fragment import FragmentKind

    for kind in FragmentKind:
        layout = probe_fragment_layout(kind)
        print(f"{kind.value}: portion registers = {layout.portion_registers}")
    return 0


def _cmd_formats(args) -> int:
    from repro.formats import available_formats, convert, format_footprint
    from repro.matrices import generate_matrix
    from repro.perf.report import format_table

    g = generate_matrix(args.matrix, scale=args.scale)
    coo = g.csr.tocoo()
    rows = []
    for fmt in available_formats():
        report = format_footprint(convert(coo, fmt))
        rows.append({"format": fmt, "bytes": report.total_bytes, "B/nnz": round(report.bytes_per_nnz, 2)})
    print(format_table(rows, title=f"{args.matrix} across formats (scale={args.scale})"))
    return 0


def _cmd_verify(args) -> int:
    from repro.errors import FormatError, LayoutError
    from repro.exec import execute_chain
    from repro.formats import available_formats, convert
    from repro.formats.base import SparseMatrix
    from repro.gpu.fragment import verify_lane_mapping
    from repro.matrices import generate_matrix
    from repro.robustness import corrupt, get_fault, inject_lane_fault

    g = generate_matrix(args.matrix, scale=args.scale)
    coo = g.csr.tocoo()

    print(f"deep-verifying {args.matrix} (scale={args.scale}, nnz={g.nnz:,})")
    failures = 0
    for fmt in available_formats():
        try:
            convert(coo, fmt).verify(deep=True)
            print(f"  {fmt:<14} ok")
        except FormatError as exc:
            failures += 1
            print(f"  {fmt:<14} FAIL {type(exc).__name__}: {exc}")
    try:
        verify_lane_mapping()
        print(f"  {'lane mapping':<14} ok")
    except LayoutError as exc:
        failures += 1
        print(f"  {'lane mapping':<14} FAIL {exc}")

    if args.fault is None:
        return 1 if failures else 0

    model = get_fault(args.fault)
    print(f"\ninjecting fault {model.name!r}: {model.description}")
    if model.formats:
        fmt = model.formats[-1] if "bitbsr" not in model.formats else "bitbsr"
        victim, report = corrupt(convert(coo, fmt), model.name, seed=args.seed)
        print(f"  corrupted {fmt} at {report.coord}: {report.detail}")
        try:
            victim.verify(deep=True)
            print("  verifier MISSED the corruption")
            return 1
        except model.detected_by as exc:
            print(f"  detected: {type(exc).__name__}: {exc}")

    x = g.dense_vector()
    ref = g.csr.matvec(x)

    fired = []

    def hook(kernel_name, prepared):
        # one corruption event: the first applicable kernel's operand is
        # damaged; fallbacks re-prepare from the pristine CSR
        data = prepared.data
        if fired or not isinstance(data, SparseMatrix):
            return
        if data.format_name in model.formats:
            prepared.data, _ = corrupt(data, model.name, seed=args.seed)
            fired.append(kernel_name)

    print("\ndispatching with graceful degradation:")
    if model.formats:
        result = execute_chain(g.csr, x, deep_verify=True, faults=(hook,))
    else:
        with inject_lane_fault(seed=args.seed):
            result = execute_chain(g.csr, x, deep_verify=True)
    for event in result.events:
        print(f"  {event}")
    err = float(np.abs(result.y - ref).max())
    print(f"  served by {result.kernel!r} after {len(result.events)} fallback(s); max |y - ref| = {err:.3g}")
    return 0 if np.allclose(result.y, ref, rtol=1e-3, atol=1e-2) else 1


def _cmd_analyze(args) -> int:
    """Static lint + concurrency audit + dynamic sanitizer, one verdict.

    Every enabled prong reports its unwaived findings; the exit status
    is nonzero iff *any* prong failed, so CI can gate on any subset
    (``--no-lint`` / ``--no-sanitize`` / ``--concurrency``) and trust
    the status the same way.
    """
    from repro.analysis import format_findings, lint_paths, sanitize_kernel, small_suite
    from repro.errors import SanitizerError
    from repro.kernels import available_kernels
    from repro.perf.report import format_table

    failures: list[str] = []

    if not args.no_lint:
        import repro

        paths = args.paths or [repro.__path__[0]]
        findings = lint_paths(paths)
        if findings:
            failures.append(f"lint ({len(findings)} finding(s))")
            print(f"lint: {len(findings)} finding(s)")
            print(format_findings(findings))
        else:
            print(f"lint: clean ({', '.join(str(p) for p in paths)})")

    if args.concurrency:
        import repro
        from repro.analysis import audit_paths, audit_package

        if args.paths:
            findings = audit_paths(args.paths)
            audited = ", ".join(str(p) for p in args.paths)
        else:
            from pathlib import Path

            from repro.analysis.concurrency import AUDITED_PACKAGES

            findings = audit_package(Path(repro.__path__[0]))
            audited = ", ".join(AUDITED_PACKAGES)
        if findings:
            failures.append(f"concurrency ({len(findings)} finding(s))")
            print(f"concurrency: {len(findings)} finding(s)")
            print(format_findings(findings))
        else:
            print(f"concurrency: clean ({audited})")

    if not args.no_sanitize:
        names = available_kernels() if args.kernels == "all" else [
            k.strip() for k in args.kernels.split(",") if k.strip()
        ]
        suite = small_suite(seed=args.seed)
        rows = []
        violations = 0
        for name in names:
            for matrix, (csr, x) in suite.items():
                try:
                    result = sanitize_kernel(name, csr, x)
                except SanitizerError as exc:
                    violations += 1
                    print(f"sanitizer: {name} on {matrix}: {type(exc).__name__}: {exc}")
                    continue
                # a numerically wrong kernel is a sanitizer failure even
                # when the SIMT checks pass — same bound the tier-1
                # sanitizer tests enforce
                accurate = result.max_error <= args.max_error
                if not result.clean or not accurate:
                    violations += 1
                report = result.report
                rows.append(
                    {
                        "kernel": name,
                        "matrix": matrix,
                        "simulated": "yes" if result.simulated else "no",
                        "max |err|": f"{result.max_error:.2e}",
                        "races": len(report.races),
                        "ownership": len(report.ownership_violations),
                        "load eff": f"{report.load_efficiency:.0%}",
                        "verdict": "clean" if result.clean and accurate else "VIOLATION",
                    }
                )
        if rows:
            print()
            print(format_table(rows, title="SIMT sanitizer (small-matrix suite)"))
        if violations:
            failures.append(f"sanitizer ({violations} violation(s))")

    if failures:
        print(f"\nanalyze: FAILED — {'; '.join(failures)}")
        return 1
    return 0


def _cmd_report(args) -> int:
    """Run a small sample workload and print the merged RunReport.

    The workload exercises every silo the report folds: an engine batch
    (engine + cache + kernel counters, spans through the exec seam),
    optionally the simulator (merged ExecutionStats), optionally a
    fault-injected dispatch (degradation events) and a sanitizer sweep
    (findings).  ``--jsonl`` additionally writes the JSON-lines export
    and verifies the round trip parses back equal.
    """
    import numpy as np

    from repro.engine import SpMVEngine
    from repro.matrices import generate_matrix
    from repro.obs import RunReport, format_run_report, reset_observability, to_prometheus

    reset_observability()  # scope the report to this run

    g = generate_matrix(args.matrix, scale=args.scale)
    planner = None
    if args.planner:
        from repro.plan import StructurePlanner

        planner = StructurePlanner(args.gpu)
    engine = SpMVEngine(args.kernel, planner=planner)
    rng = np.random.default_rng(args.seed)
    vectors = [
        rng.standard_normal(g.csr.ncols).astype(np.float32) for _ in range(args.batch)
    ]
    engine.spmv_many([(g.csr, x) for x in vectors], simulate=args.simulate)
    # a warm repeat so the cache section shows hits next to misses
    engine.spmv(g.csr, vectors[0], simulate=args.simulate)

    events = list(engine.stats.degradation_log)
    if args.fault:
        from repro.exec import execute_chain
        from repro.formats.base import SparseMatrix
        from repro.robustness import corrupt, get_fault, inject_lane_fault

        model = get_fault(args.fault)
        x = g.dense_vector()
        if model.formats:
            fired = []

            def hook(kernel_name, prepared):
                data = prepared.data
                if fired or not isinstance(data, SparseMatrix):
                    return
                if data.format_name in model.formats:
                    prepared.data, _ = corrupt(data, model.name, seed=args.seed)
                    fired.append(kernel_name)

            dispatched = execute_chain(g.csr, x, deep_verify=True, faults=(hook,))
        else:
            with inject_lane_fault(seed=args.seed):
                dispatched = execute_chain(g.csr, x, deep_verify=True)
        events.extend(dispatched.events)

    sanitizer_report = None
    if args.sanitize:
        from repro.analysis import sanitize_kernel, small_suite

        suite = small_suite(seed=args.seed)
        csr, x = next(iter(suite.values()))
        sanitizer_report = sanitize_kernel(
            args.kernel, csr, x, halt_on_violation=False
        ).report

    from repro.obs import build_run_report

    report = build_run_report(
        meta={
            "command": "report",
            "matrix": args.matrix,
            "scale": args.scale,
            "kernel": args.kernel,
            "batch": args.batch,
            "simulate": bool(args.simulate),
            "fault": args.fault,
        },
        engine=engine,
        events=events,
        sanitizer_report=sanitizer_report,
    )
    print(format_run_report(report))

    failed = False
    if args.jsonl:
        count = report.write_jsonl(args.jsonl)
        restored = RunReport.load_jsonl(args.jsonl)
        if restored == report:
            print(f"[jsonl {args.jsonl}: {count} events, round-trip ok]")
        else:
            print(f"[jsonl {args.jsonl}: ROUND-TRIP MISMATCH]")
            failed = True
    if args.prometheus:
        from pathlib import Path

        text = to_prometheus()
        Path(args.prometheus).write_text(text)
        print(f"[prometheus {args.prometheus}: {len(text.splitlines())} lines]")
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    """Replay a seeded fault campaign against a resilient engine.

    Exit status is the campaign verdict: nonzero if any request was
    lost (queued but neither answered nor errored) or any served ``y``
    disagreed with the CSR reference — the two things the resilience
    layer is never allowed to trade away.
    """
    from repro.bench import append_trajectory
    from repro.bench.chaos import bench_chaos, format_chaos_report
    from repro.obs import reset_observability

    reset_observability()  # scope the folded report to this campaign

    probabilities = tuple(
        float(p.strip()) for p in args.probabilities.split(",") if p.strip()
    )
    result = bench_chaos(
        args.nrows,
        args.ncols or args.nrows,
        args.density,
        kernel=args.kernel,
        requests=args.requests,
        batch=args.batch,
        probabilities=probabilities,
        stall_fraction=args.stall_fraction,
        deadline_seconds=args.deadline,
        seed=args.seed,
    )
    print(format_chaos_report(result))
    if args.out:
        length = append_trajectory(args.out, result, "campaign")
        print(f"[chaos trajectory {args.out}: {length} campaign(s)]")
    return 1 if result.lost or result.incorrect else 0


def _cmd_plan(args) -> int:
    """Profile one matrix and print its ranked execution plan."""
    from repro.matrices import generate_matrix
    from repro.plan import StructurePlanner

    g = generate_matrix(args.matrix, scale=args.scale)
    planner = StructurePlanner(
        args.gpu, mode="simulated" if args.simulate else "numeric"
    )
    plan = planner.plan(g.csr)
    print(plan.explain())
    if args.json:
        import json

        print(json.dumps(plan.as_dict(), indent=2))
    return 0


def _cmd_plan_bench(args) -> int:
    """Run the Fig. 9-style planner crossover sweep.

    Exit status is the tolerance verdict: nonzero if the planner's
    first pick is slower than the static chain's first pick beyond
    ``--tolerance`` at any sweep point (ground truth = exact measured
    counters through the roofline model).
    """
    from repro.bench import append_trajectory
    from repro.bench.plan import bench_plan_crossover, format_plan_report

    sweep = tuple(int(p.strip()) for p in args.sweep.split(",") if p.strip())
    result = bench_plan_crossover(
        sweep,
        nrows=args.nrows,
        ncols=args.ncols or args.nrows,
        nnz_target=args.nnz,
        gpu=args.gpu,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    print(format_plan_report(result))
    if args.out:
        length = append_trajectory(args.out, result, "bench")
        print(f"[plan trajectory {args.out}: {length} sweep(s)]")
    return 0 if result.within_tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="print the Table 1 dataset analogs")
    p.add_argument("--scale", type=float, default=0.08)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("spmv", help="run one kernel on one matrix")
    p.add_argument("--matrix", default="consph")
    p.add_argument("--kernel", default="spaden")
    p.add_argument("--gpu", default="L40")
    p.add_argument("--scale", type=float, default=0.08)
    p.set_defaults(func=_cmd_spmv)

    p = sub.add_parser("figures", help="reproduce Figures 6/7 series")
    p.add_argument("--gpu", default="L40")
    p.add_argument("--scale", type=float, default=0.08)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("probe", help="run the §3 reverse-engineering probe")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("formats", help="compare format footprints")
    p.add_argument("--matrix", default="cant")
    p.add_argument("--scale", type=float, default=0.08)
    p.set_defaults(func=_cmd_formats)

    p = sub.add_parser(
        "verify",
        help="deep-verify every format; optionally inject a named fault "
        "and demonstrate detection + graceful degradation",
    )
    p.add_argument("--matrix", default="consph")
    p.add_argument("--scale", type=float, default=0.08)
    p.add_argument("--fault", default=None, help="fault model to inject (see repro.robustness)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "analyze",
        help="static kernel lint + thread-safety audit + dynamic SIMT "
        "sanitizer over the registered kernels on small matrices",
    )
    p.add_argument("--paths", nargs="*", default=None, help="files/dirs to analyze (default: the repro package)")
    p.add_argument("--kernels", default="all", help="comma-separated kernel names, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-lint", action="store_true", help="skip the static lint pass")
    p.add_argument("--no-sanitize", action="store_true", help="skip the dynamic sanitizer pass")
    p.add_argument(
        "--concurrency",
        action="store_true",
        help="run the static thread-safety audit over the serving packages",
    )
    p.add_argument(
        "--max-error",
        type=float,
        default=1e-4,
        help="sanitizer numeric-accuracy gate: max |y - ref| allowed",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "report",
        help="run a sample engine workload and print the merged RunReport "
        "(kernel + cache + engine stats, degradations, span timings)",
    )
    p.add_argument("--matrix", default="consph")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--kernel", default="spaden")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simulate", action="store_true", help="route batches through the simulator")
    p.add_argument(
        "--planner",
        action="store_true",
        help="drive the workload through a StructurePlanner (planner "
        "decisions appear in the report's metrics)",
    )
    p.add_argument("--gpu", default="L40", help="cost-model target for --planner")
    p.add_argument("--fault", default=None, help="also dispatch once with this fault injected")
    p.add_argument("--sanitize", action="store_true", help="fold a sanitizer sweep into the report")
    p.add_argument("--jsonl", default=None, help="write the JSON-lines export and verify round trip")
    p.add_argument("--prometheus", default=None, help="write the Prometheus text exposition")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "chaos",
        help="replay a seeded fault campaign against a resilient engine "
        "(deadlines + retries + circuit breakers) and report outcome "
        "rates, breaker transitions and recovery latency",
    )
    p.add_argument("--nrows", type=int, default=160)
    p.add_argument("--ncols", type=int, default=0, help="defaults to --nrows")
    p.add_argument("--density", type=float, default=0.03)
    p.add_argument("--kernel", default="spaden")
    p.add_argument("--requests", type=int, default=48, help="requests per sweep point")
    p.add_argument("--batch", type=int, default=8, help="requests per spmv_many round")
    p.add_argument(
        "--probabilities",
        default="0,0.5,0.9",
        help="comma-separated fault probabilities to sweep",
    )
    p.add_argument(
        "--stall-fraction",
        type=float,
        default=0.15,
        help="fraction of faults that stall the clock instead of corrupting",
    )
    p.add_argument("--deadline", type=float, default=8.0, help="virtual seconds per batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        default=None,
        help="append the campaign to a BENCH_chaos.json trajectory",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "plan",
        help="profile one matrix's sparsity structure and print the "
        "planner's ranked, capability-filtered execution plan",
    )
    p.add_argument("--matrix", default="consph")
    p.add_argument("--scale", type=float, default=0.08)
    p.add_argument("--gpu", default="L40")
    p.add_argument(
        "--simulate",
        action="store_true",
        help="plan for a simulation campaign (drops kernels that cannot simulate)",
    )
    p.add_argument("--json", action="store_true", help="also print the plan document as JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "plan-bench",
        help="sweep block density (Fig. 9 axis) and verify the planner's "
        "pick is never slower than the static chain's beyond tolerance",
    )
    p.add_argument("--sweep", default="64,32,16,8,4,2,1", help="comma-separated nnz-per-block points")
    p.add_argument("--nrows", type=int, default=512)
    p.add_argument("--ncols", type=int, default=0, help="defaults to --nrows")
    p.add_argument("--nnz", type=int, default=4096, help="target nnz per sweep matrix")
    p.add_argument("--gpu", default="L40")
    p.add_argument("--tolerance", type=float, default=0.15, help="max allowed planner-vs-static slowdown")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        default=None,
        help="append the sweep to a BENCH_plan.json trajectory",
    )
    p.set_defaults(func=_cmd_plan_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
