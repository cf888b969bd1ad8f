"""End-to-end benchmark of the host serving plane, from serve to kernel.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--record LABEL]

One workload runs in this process.  Several workloads (all four when
none is named) each run in a fresh interpreter, so peak RSS and every
cache start clean.  ``--trace`` measures half the time untraced and half
with timing wrappers around each layer's entry points, and prints the
per-layer metrics instead of the end-to-end ones.  ``--record LABEL``
runs each workload untraced and traced and appends one entry per
workload to ``results/BENCH_e2e.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 1
when any output failed its check, 2 when the checkout has no
``src/repro`` or ``BENCHMARK.json``, and 3 when the generated inputs no
longer match the digest recorded in ``spec.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Modules that import repro are imported inside functions: run as a
# script, ``src`` is only on the path once _bootstrap() has run.

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".e2e_out"
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT_DRIFT = 3


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in load_json(ROOT / "BENCHMARK.json")[section]}


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- one workload, in this process ------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from benchmarks.e2e import inputs as inp

    spec = load_json(HERE / "spec.json")
    params = spec["workloads"][name]
    inp.check_canary(spec["canary"])
    inputs = inp.build_inputs(params, seed)
    reference = inp.Reference(inputs, spec["check"]["row_tolerance"])
    print(
        f"inputs: {len(inputs.matrices)} matrices, {inputs.nnz} nnz, "
        f"digest {inputs.digest}"
    )
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if trace:
            result = _traced(name, params, inputs, reference, seconds, seed, Path(tmp))
        else:
            result = _untraced(spec, params, inputs, reference, seconds, seed, Path(tmp))
    return result


def _setup_once(params, inputs, store_dir):
    from benchmarks.e2e import workloads as wl

    start = time.perf_counter()
    state = wl.setup(params, inputs, store_dir)
    return time.perf_counter() - start, state


def _untraced(spec, params, inputs, reference, seconds, seed, tmp) -> dict:
    from benchmarks.e2e import inputs as inp
    from benchmarks.e2e import workloads as wl

    setup_times, state = [], None
    for i in range(spec["setup_repeats"]):
        if state is not None:
            state.close()
        elapsed, state = _setup_once(params, inputs, tmp / f"store{i}")
        setup_times.append(elapsed)
    try:
        m = wl.measure(params, inputs, reference, state, seconds, seed)
    finally:
        state.close()
    metrics = {
        "setup_s": float(np.median(setup_times)),
        "p50_ms": _percentile(m.latencies_ms, 50),
        "vectors_per_s": m.vectors_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Tails are recorded but not bounded: on a shared 2-core host their
    # seed-to-seed spread exceeds any bound the benchmark may set (README).
    detail = dict(
        m.detail,
        latency_samples=len(m.latencies_ms),
        p90_ms=_percentile(m.latencies_ms, 90),
        p99_ms=_percentile(m.latencies_ms, 99),
        rates=m.rates,
        setup_s=setup_times,
    )
    context = inp.device_context(inputs)
    return _result(metrics, "end_to_end", m.attempted, m.failed, detail, context)


def _traced(name, params, inputs, reference, seconds, seed, tmp) -> dict:
    from repro.obs import reset_observability

    from benchmarks.e2e import inputs as inp
    from benchmarks.e2e import tracing
    from benchmarks.e2e import workloads as wl

    _, state = _setup_once(params, inputs, tmp / "untraced")
    try:
        base = wl.measure(params, inputs, reference, state, seconds / 2, seed)
    finally:
        state.close()

    reset_observability()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(params, inputs, tmp / "traced")
        try:
            traced = wl.measure(params, inputs, reference, state, seconds / 2, seed, tracer)
        finally:
            state.close()
    finally:
        tracer.uninstall()

    context = inp.device_context(inputs)
    scipy_seconds = defaultdict(list)
    for row in context:
        scipy_seconds[(tuple(row["shape"]), row["nnz"])].append(1e-6 * row["scipy_us_per_vector"])
    metrics, detail = tracing.layer_metrics(
        tracer.spans, {key: float(np.median(v)) for key, v in scipy_seconds.items()}
    )
    metrics.update(_counter_metrics(state.engine))
    iterations = traced.detail.get("iterations", [])
    metrics.update(
        {
            "kernels.mma_ops": float(np.median([row["mma_ops"] for row in context])),
            "kernels.dram_bytes": float(np.median([row["dram_bytes"] for row in context])),
            "apps.iterations": float(np.median(iterations)) if iterations else 0.0,
            "load.late_share": traced.detail.get("late_share", 0.0),
            "trace.overhead_share": (
                tracing.share(base.vectors_per_s, traced.vectors_per_s) - 1.0
            ),
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_path)
    detail.update(
        traced.detail,
        traced_window_s=traced.window_s,
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return _result(
        metrics,
        "per_layer",
        base.attempted + traced.attempted,
        base.failed + traced.failed,
        detail,
        context,
    )


def _counter_metrics(engine) -> dict:
    """Per-layer metrics read from the program's own counters."""
    from repro.obs import get_registry

    from benchmarks.e2e.tracing import share

    registry = get_registry()
    causes: dict[str, float] = defaultdict(float)
    batches = registry.get("serve_batches_total")
    for labels, value in batches.labeled() if batches is not None else ():
        causes[labels["cause"]] += value
    sizes = registry.get("serve_batch_size")
    size_series = list(sizes.series().values()) if sizes is not None else []
    size_count = sum(s["count"] for s in size_series)
    store = engine.store.stats
    cache = engine.cache.stats
    return {
        "serve.batch_size.mean": share(sum(s["sum"] for s in size_series), size_count),
        "serve.flush_max_wait_share": share(causes["max-wait"], sum(causes.values())),
        "engine.prepare_calls": engine.stats.prepare_calls,
        "engine.cache.hit_ratio": cache.hit_rate,
        "engine.cache.evictions": cache.evictions,
        "engine.cache.resident_mb": engine.cache.resident_bytes / 2**20,
        "persist.hit_ratio": share(store.hits, store.hits + store.misses),
        "exec.degradations": engine.stats.degradations,
    }


def _result(metrics, section, attempted, failed, detail, context) -> dict:
    units = metric_units(section)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"computed metrics differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(units))}"
        )
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
        "detail": dict(detail, context=context),
    }


def print_result(result: dict) -> None:
    detail = result["detail"]
    print("context: matrix nnz scipy_us_per_vector mma_ops dram_bytes")
    for row in detail["context"]:
        print(
            f"context: {row['matrix']} {row['nnz']} {row['scipy_us_per_vector']:.1f} "
            f"{row['mma_ops']} {row['dram_bytes']}"
        )
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    if "latency_samples" in detail:
        print(
            f"latency: {detail['latency_samples']} samples, p90 {detail['p90_ms']:.2f} ms, "
            f"p99 {detail['p99_ms']:.2f} ms; throughput from {len(detail['rates'])} parts"
        )
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    print("detail: " + json.dumps(detail, default=str))
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)


# -- several workloads, one child process each ------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload in a fresh interpreter; returns (status, result)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    lines = []
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            print(f"[{workload}] {line}", end="", flush=True)
            lines.append(line)
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        detail = [ln for ln in lines if ln.startswith("detail: ")]
        result["detail"] = json.loads(detail[-1][len("detail: "):]) if detail else {}
    return proc.returncode, result


def run_many(workloads, seed, seconds, trace, record) -> int:
    from benchmarks.e2e import trajectory

    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    passes = [False, True] if record else [trace]
    for workload in workloads:
        results = {}
        for traced in passes:
            code, result = run_child(workload, seed, seconds, traced)
            status = max(status, code)
            if result is None:
                combined["correct"] = False
                continue
            results[traced] = result
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}:{name}"] = metric
        if record and len(results) == 2:
            length = trajectory.append(
                trajectory.DEFAULT_PATH,
                trajectory.entry(record, workload, seed, seconds, results[False], results[True]),
            )
            print(f"recorded {workload} in {trajectory.DEFAULT_PATH.name} ({length} entries)")
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    spec = load_json(HERE / "spec.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    workloads = args.workload or list(spec["workloads"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if len(workloads) > 1 or args.record:
        return run_many(workloads, args.seed, args.seconds, bool(args.trace), args.record)

    from benchmarks.e2e.inputs import InputDriftError

    try:
        result = run_workload(workloads[0], args.seed, args.seconds, bool(args.trace))
    except InputDriftError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return EXIT_INPUT_DRIFT
    print_result(result)
    return 0 if result["correct"] else EXIT_FAILED


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and this package by name."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    # run as a script, this directory heads sys.path; import the package by name
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
