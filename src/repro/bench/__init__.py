"""Shared benchmark harness: suite loading, profile caching, reporting."""

from repro.bench.load import zipf_weights
from repro.bench.plan import (
    PlanBenchResult,
    PlanCrossoverPoint,
    bench_plan_crossover,
    block_sweep_csr,
    format_plan_report,
)
from repro.bench.harness import (
    EVALUATED_METHODS,
    FIG8_METHODS,
    bench_scale,
    load_suite,
    modeled_times,
    profile_suite,
    prune_bench_cache,
)
from repro.bench.trajectory import append_trajectory

__all__ = [
    "EVALUATED_METHODS",
    "FIG8_METHODS",
    "PlanBenchResult",
    "PlanCrossoverPoint",
    "append_trajectory",
    "bench_plan_crossover",
    "bench_scale",
    "block_sweep_csr",
    "format_plan_report",
    "load_suite",
    "zipf_weights",
    "modeled_times",
    "profile_suite",
    "prune_bench_cache",
]
