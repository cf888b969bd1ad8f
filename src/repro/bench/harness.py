"""Benchmark harness shared by every table/figure reproduction.

Scale control
    ``REPRO_SCALE`` (default 0.08) shrinks every Table-1 analog
    proportionally so the suite runs in minutes; set ``REPRO_SCALE=1``
    to regenerate the paper's full-size dataset.  Structure-derived
    results (Table 1 ratios, Fig. 9a, Fig. 10b) are scale-invariant;
    modeled runtimes (Figs. 6-8) sharpen as scale grows because the
    fixed launch/occupancy terms stop dominating.

Caching
    Kernel profiles are pure functions of (matrix name, scale, kernel),
    so they are memoized on disk under ``.bench_cache/`` next to the
    working directory.  Delete the directory to force recomputation.
"""

from __future__ import annotations

import os
import pickle
import warnings
from pathlib import Path

from repro.gpu.spec import get_gpu
from repro.kernels.base import KernelProfile
from repro.matrices import GeneratedMatrix, generate_matrix, in_scope_names
from repro.perf import estimate_time

__all__ = [
    "EVALUATED_METHODS",
    "FIG8_METHODS",
    "bench_scale",
    "prune_bench_cache",
    "load_suite",
    "profile_suite",
    "modeled_times",
]

#: The six methods of Figs. 6-7.
EVALUATED_METHODS: tuple[str, ...] = (
    "spaden",
    "cusparse-csr",
    "cusparse-bsr",
    "lightspmv",
    "gunrock",
    "dasp",
)

#: The Fig. 8 breakdown set.
FIG8_METHODS: tuple[str, ...] = ("spaden", "spaden-no-tc", "cusparse-bsr", "csr-warp16")

_CACHE_DIR = Path(os.environ.get("REPRO_BENCH_CACHE", ".bench_cache"))

#: Bump whenever :class:`KernelProfile` / :class:`ExecutionStats` change
#: shape, so caches written by an older build are discarded instead of
#: deserializing into objects missing the new fields — or when the
#: generated suite itself changes (version 4: default matrix seeds no
#: longer depend on the per-process string-hash salt).
_CACHE_VERSION = 4


def bench_scale() -> float:
    """Scale factor for the Table-1 analogs (env ``REPRO_SCALE``)."""
    return float(os.environ.get("REPRO_SCALE", "0.08"))


def load_suite(
    scale: float | None = None, names: list[str] | None = None
) -> dict[str, GeneratedMatrix]:
    """Generate (deterministically) the evaluation matrices."""
    scale = bench_scale() if scale is None else scale
    names = in_scope_names() if names is None else names
    return {name: generate_matrix(name, scale=scale) for name in names}


def _load_cached(path: Path) -> KernelProfile | None:
    """Deserialize one cache entry defensively.

    Any anomaly — truncated/corrupt bytes, a payload from a different
    build (version mismatch), or an unexpected object shape — is
    reported as a :class:`UserWarning` and treated as a miss; the entry
    is deleted and the profile recomputed.  A damaged cache must never
    crash a benchmark run.
    """
    try:
        payload = pickle.loads(path.read_bytes())
    except Exception as exc:
        warnings.warn(
            f"discarding corrupt bench cache entry {path.name}: "
            f"{type(exc).__name__}: {exc}",
            stacklevel=3,
        )
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != _CACHE_VERSION
        or not isinstance(payload.get("profile"), KernelProfile)
    ):
        got = payload.get("version") if isinstance(payload, dict) else type(payload).__name__
        warnings.warn(
            f"discarding stale bench cache entry {path.name} "
            f"(cache version {got!r}, expected {_CACHE_VERSION})",
            stacklevel=3,
        )
        return None
    return payload["profile"]


def prune_bench_cache() -> int:
    """Delete unreadable or stale entries from the cache; returns count.

    Safe to call when the directory does not exist.  Used by the
    benchmark suite's session setup so a cache poisoned by an aborted
    write or an older build heals itself.
    """
    removed = 0
    if not _CACHE_DIR.is_dir():
        return removed
    for path in sorted(_CACHE_DIR.glob("*.pkl")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stale = _load_cached(path) is None
        if stale:
            path.unlink(missing_ok=True)
            removed += 1
    return removed


def _count_profile_cache(result: str) -> None:
    from repro.obs import get_registry

    get_registry().counter(
        "bench_profile_cache_total",
        "On-disk bench profile memoization lookups, by outcome.",
        labels=("result",),
    ).inc(result=result)


def _cached_profile(matrix: GeneratedMatrix, method: str, scale: float) -> KernelProfile:
    key = f"{matrix.name}-{scale}-{method}.pkl"
    path = _CACHE_DIR / key
    if path.exists():
        profile = _load_cached(path)
        if profile is not None:
            _count_profile_cache("hit")
            return profile
        path.unlink(missing_ok=True)
    from repro.exec import ExecutionMode, execute
    from repro.exec.middleware import stage_span

    _count_profile_cache("miss")
    with stage_span("bench.profile", matrix=matrix.name, method=method, scale=scale):
        result = execute(method, matrix.csr, matrix.dense_vector(), mode=ExecutionMode.PROFILED)
    profile = result.profile
    _CACHE_DIR.mkdir(exist_ok=True)
    path.write_bytes(pickle.dumps({"version": _CACHE_VERSION, "profile": profile}))
    return profile


def profile_suite(
    suite: dict[str, GeneratedMatrix],
    methods: tuple[str, ...] = EVALUATED_METHODS,
    scale: float | None = None,
) -> dict[str, dict[str, KernelProfile]]:
    """Per-matrix, per-method execution profiles (disk-cached)."""
    scale = bench_scale() if scale is None else scale
    return {
        name: {m: _cached_profile(matrix, m, scale) for m in methods}
        for name, matrix in suite.items()
    }


def modeled_times(
    profiles: dict[str, dict[str, KernelProfile]],
    gpu_name: str,
) -> dict[str, dict[str, float]]:
    """Modeled runtimes (seconds) for every (matrix, method) pair."""
    gpu = get_gpu(gpu_name)
    return {
        name: {m: estimate_time(p, gpu).total for m, p in per_method.items()}
        for name, per_method in profiles.items()
    }
