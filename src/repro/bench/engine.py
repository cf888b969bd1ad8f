"""Engine benchmark: amortized vs cold per-vector SpMV cost.

The paper times one ``y = Ax`` per kernel launch; this harness measures
the serving-path win the :class:`~repro.engine.SpMVEngine` adds on top —
one bitBSR conversion (``prepare``) reused across a same-matrix micro-batch,
plus the operand cache turning repeat traffic into hits.

Three measurements per configuration:

* **cold**: ``prepare + run`` from scratch for every vector (what an
  application without the engine pays per request);
* **batched**: one ``engine.spmv_many`` over the same vectors — the
  prepare cost is paid once and the numeric path is vectorized;
* **cache-hit curve**: hit rate after each of ``rounds`` single-vector
  requests against one engine instance.

Results are plain wall-clock dicts (no :class:`KernelProfile` involved),
so they bypass the ``.bench_cache`` on-disk memoization entirely and the
bench cache version is unaffected.

Each run also folds its observability state — engine / cache / kernel
counters, degradation events, the span timeline — into a
:class:`~repro.obs.RunReport` carried on the result, which
:func:`~repro.bench.append_trajectory` appends to the ``BENCH_obs.json``
trajectory artifact CI uploads, so perf regressions are trackable
across PRs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.engine import SpMVEngine
from repro.exec.middleware import stage_span
from repro.formats.csr import CSRMatrix
from repro.kernels.base import get_kernel
from repro.matrices.random import random_coo

__all__ = [
    "EngineBenchResult",
    "bench_engine",
    "format_report",
]


@dataclass(frozen=True)
class EngineBenchResult:
    """Wall-clock comparison of cold vs engine-batched SpMV serving."""

    kernel: str
    nrows: int
    ncols: int
    nnz: int
    batch: int
    #: Total seconds for ``batch`` cold ``prepare + run`` round trips.
    cold_seconds: float
    #: Total seconds for one ``spmv_many`` over the same ``batch`` vectors.
    batched_seconds: float
    #: Batched results match per-vector ``run`` bit for bit.
    bitwise_equal: bool
    #: Cache hit rate after each warm round of single-vector requests.
    hit_curve: tuple[float, ...]
    #: The run's merged observability document
    #: (:meth:`~repro.obs.RunReport.as_dict` form).
    run_report: dict = field(default_factory=dict)

    @property
    def cold_per_vector(self) -> float:
        return self.cold_seconds / self.batch

    @property
    def amortized_per_vector(self) -> float:
        return self.batched_seconds / self.batch

    @property
    def speedup(self) -> float:
        """Cold-to-amortized per-vector time ratio (higher is better)."""
        return self.cold_per_vector / max(self.amortized_per_vector, 1e-12)

    def as_dict(self) -> dict:
        out = asdict(self)
        out["hit_curve"] = list(self.hit_curve)
        out.update(
            cold_per_vector=self.cold_per_vector,
            amortized_per_vector=self.amortized_per_vector,
            speedup=self.speedup,
        )
        return out


def bench_engine(
    nrows: int = 2048,
    ncols: int = 2048,
    density: float = 0.004,
    *,
    batch: int = 32,
    rounds: int = 8,
    kernel: str = "spaden",
    seed: int = 0,
) -> EngineBenchResult:
    """Time ``batch`` cold calls against one engine micro-batch.

    The cold path re-prepares the operand per vector, mirroring an
    application that issues one uncached :func:`repro.exec.execute` per
    request.  The batched path issues the same requests through one
    :meth:`~repro.engine.SpMVEngine.spmv_many`.  Results are compared
    bitwise; the returned :class:`EngineBenchResult` carries both totals
    and the cache-hit curve of ``rounds`` follow-up warm requests.
    """
    from repro.exec import execute

    csr = CSRMatrix.from_coo(random_coo(nrows, ncols, density, seed=seed))
    rng = np.random.default_rng(seed + 1)
    vectors = [rng.standard_normal(ncols).astype(np.float32) for _ in range(batch)]
    kern = get_kernel(kernel)

    with stage_span("bench.engine.cold", kernel=kernel, batch=batch):
        start = time.perf_counter()
        cold_results = []
        for x in vectors:
            cold_results.append(execute(kern, csr, x).y)
        cold_seconds = time.perf_counter() - start

    engine = SpMVEngine(kernel)
    with stage_span("bench.engine.batched", kernel=kernel, batch=batch):
        start = time.perf_counter()
        batched_results = engine.spmv_many([(csr, x) for x in vectors])
        batched_seconds = time.perf_counter() - start

    bitwise_equal = all(
        np.array_equal(cold, warm) for cold, warm in zip(cold_results, batched_results)
    )

    with stage_span("bench.engine.warm", kernel=kernel, rounds=rounds):
        hit_curve = []
        for i in range(rounds):
            engine.spmv(csr, vectors[i % batch])
            hit_curve.append(engine.cache.stats.hit_rate)

    report = engine.run_report(
        meta={
            "source": "bench_engine",
            "nrows": nrows,
            "ncols": ncols,
            "density": density,
            "batch": batch,
            "rounds": rounds,
            "seed": seed,
        }
    )
    return EngineBenchResult(
        kernel=kernel,
        nrows=nrows,
        ncols=ncols,
        nnz=csr.nnz,
        batch=batch,
        cold_seconds=cold_seconds,
        batched_seconds=batched_seconds,
        bitwise_equal=bitwise_equal,
        hit_curve=tuple(hit_curve),
        run_report=report.as_dict(),
    )


def format_report(result: EngineBenchResult) -> str:
    """Human-readable summary of one :func:`bench_engine` run."""
    lines = [
        f"engine bench — {result.kernel} on {result.nrows}x{result.ncols}, "
        f"nnz={result.nnz}, batch={result.batch}",
        f"  cold      : {result.cold_seconds * 1e3:9.3f} ms total, "
        f"{result.cold_per_vector * 1e6:9.1f} us/vector",
        f"  batched   : {result.batched_seconds * 1e3:9.3f} ms total, "
        f"{result.amortized_per_vector * 1e6:9.1f} us/vector",
        f"  speedup   : {result.speedup:6.2f}x amortized over cold",
        f"  bitwise   : {'equal' if result.bitwise_equal else 'MISMATCH'}",
        "  hit curve : " + " ".join(f"{r:.2f}" for r in result.hit_curve),
    ]
    report = result.run_report
    if report:
        spans = report.get("spans", [])
        degradations = len(report.get("degradation_events", []))
        lines.append(
            f"  obs       : {len(spans)} spans, {degradations} degradation(s), "
            f"{len(report.get('metrics', {}).get('metrics', []))} metrics"
        )
    return "\n".join(lines)
