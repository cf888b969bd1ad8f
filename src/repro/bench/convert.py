"""Conversion-pipeline benchmark: cold / warm / persistent-warm prepare.

Fig. 10a of the paper measures the CSR -> bitBSR conversion tax — the
one-time cost every new tenant pays.  This harness measures the two
ways this codebase kills it:

* **direct conversion** — :meth:`~repro.formats.bitbsr.BitBSRMatrix.from_csr`
  (one-pass, no COO materialization) timed against the classic
  ``from_coo(csr.tocoo())`` route, with a bitwise identity check over
  every storage array;
* **the cache hierarchy** — one matrix served three ways:

  - *cold*: a fresh engine over an empty store directory (pays one
    ``prepare``, spills it to disk),
  - *warm*: a repeat request on the same engine (in-memory operand
    cache hit, zero new ``prepare`` calls),
  - *persistent-warm*: a **fresh engine and fresh store instance** over
    the same directory — modeling a process restart — which must serve
    from disk with *zero* conversions, proven by counters and a
    bitwise comparison of all three results.

:func:`~repro.bench.append_trajectory` appends each run to the
``BENCH_convert.json`` trajectory artifact CI uploads.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.engine import SpMVEngine
from repro.exec.middleware import stage_span
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices.random import random_coo
from repro.persist import OperandStore

__all__ = [
    "ConvertBenchResult",
    "bench_convert",
    "format_convert_report",
]

#: Storage arrays compared for the from_csr / from_coo identity check.
_BITBSR_ARRAYS = ("block_row_pointers", "block_cols", "bitmaps", "values")


@dataclass(frozen=True)
class ConvertBenchResult:
    """One cold/warm/persistent-warm conversion measurement."""

    kernel: str
    nrows: int
    ncols: int
    nnz: int
    rounds: int
    #: Best (min) single-conversion seconds over ``rounds`` direct
    #: ``from_csr`` calls — min-of-N is the noise-robust microbench
    #: statistic (the direct route does strictly less work, so its
    #: floor sits below the COO route's floor even when means overlap).
    direct_seconds: float
    #: Best single-conversion seconds over ``rounds``
    #: ``from_coo(csr.tocoo())`` calls.
    via_coo_seconds: float
    #: Every bitBSR storage array identical between the two routes.
    bitwise_identical: bool
    #: Cold-engine ``prepare`` calls (must be exactly 1) and their cost.
    cold_prepare_calls: int
    cold_prepare_seconds: float
    #: New ``prepare`` calls for the warm repeat on the same engine (0).
    warm_prepare_calls: int
    #: ``prepare`` calls for the restarted engine (0 = served from disk).
    persistent_warm_prepare_calls: int
    #: The restarted engine's store counters (hits must cover the load).
    persist: dict = field(default_factory=dict)
    #: Cold, warm and persistent-warm ``y`` all bitwise-equal.
    results_bitwise_equal: bool = False
    #: The run's merged observability document.
    run_report: dict = field(default_factory=dict)

    @property
    def direct_per_conversion(self) -> float:
        return self.direct_seconds

    @property
    def via_coo_per_conversion(self) -> float:
        return self.via_coo_seconds

    @property
    def direct_speedup(self) -> float:
        """via-COO over direct conversion time (>1 = direct is faster)."""
        return self.via_coo_seconds / max(self.direct_seconds, 1e-12)

    @property
    def passed(self) -> bool:
        """The verdict CI gates on: identity, equality, zero re-converts."""
        return (
            self.bitwise_identical
            and self.results_bitwise_equal
            and self.cold_prepare_calls == 1
            and self.warm_prepare_calls == 0
            and self.persistent_warm_prepare_calls == 0
            and self.persist.get("hits", 0) >= 1
        )

    def as_dict(self) -> dict:
        out = asdict(self)
        out.update(
            direct_per_conversion=self.direct_per_conversion,
            via_coo_per_conversion=self.via_coo_per_conversion,
            direct_speedup=self.direct_speedup,
            passed=self.passed,
        )
        return out


def _bitwise_identical(a: BitBSRMatrix, b: BitBSRMatrix) -> bool:
    if a.shape != b.shape:
        return False
    for name in _BITBSR_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    return True


def bench_convert(
    nrows: int = 1024,
    ncols: int = 1024,
    density: float = 0.02,
    *,
    rounds: int = 5,
    kernel: str = "spaden",
    seed: int = 0,
    store_dir: str | Path | None = None,
) -> ConvertBenchResult:
    """Measure direct-vs-COO conversion and the three-tier prepare path.

    ``store_dir`` is the persistent store's directory (a throwaway
    temporary directory by default); the bench always starts it empty
    so the cold phase is honestly cold.
    """
    csr = CSRMatrix.from_coo(random_coo(nrows, ncols, density, seed=seed))
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(ncols).astype(np.float32)

    # one untimed warm-up of each route, then interleaved timed rounds
    # (interleaving cancels drift; min-of-N cancels scheduler noise)
    direct = BitBSRMatrix.from_csr(csr)
    via_coo = BitBSRMatrix.from_coo(csr.tocoo())
    direct_times: list[float] = []
    via_coo_times: list[float] = []
    with stage_span("bench.convert.conversion", kernel=kernel, rounds=rounds):
        for _ in range(rounds):
            start = time.perf_counter()
            direct = BitBSRMatrix.from_csr(csr)
            direct_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            via_coo = BitBSRMatrix.from_coo(csr.tocoo())
            via_coo_times.append(time.perf_counter() - start)
    direct_seconds = min(direct_times)
    via_coo_seconds = min(via_coo_times)

    bitwise_identical = _bitwise_identical(direct, via_coo)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(store_dir) if store_dir is not None else Path(tmp)
        # cold: fresh engine, empty store — one prepare, spilled to disk
        cold_engine = SpMVEngine(
            kernel, store=OperandStore(root, name="convert-bench-cold")
        )
        with stage_span("bench.convert.cold", kernel=kernel):
            y_cold = cold_engine.spmv(csr, x)
        cold_calls = cold_engine.stats.prepare_calls
        cold_seconds = cold_engine.stats.prepare_seconds

        # warm: same engine, in-memory cache hit — zero new prepares
        with stage_span("bench.convert.warm", kernel=kernel):
            y_warm = cold_engine.spmv(csr, x)
        warm_calls = cold_engine.stats.prepare_calls - cold_calls

        # persistent-warm: fresh engine *and* fresh store over the same
        # directory — a process restart — served from disk, zero converts
        restarted = SpMVEngine(
            kernel, store=OperandStore(root, name="convert-bench-restart")
        )
        with stage_span("bench.convert.persistent_warm", kernel=kernel):
            y_persistent = restarted.spmv(csr, x)
        persistent_calls = restarted.stats.prepare_calls
        persist_stats = restarted.store.stats.as_dict()

    results_bitwise_equal = np.array_equal(y_cold, y_warm) and np.array_equal(
        y_cold, y_persistent
    )

    report = restarted.run_report(
        meta={
            "source": "bench_convert",
            "nrows": nrows,
            "ncols": ncols,
            "density": density,
            "rounds": rounds,
            "seed": seed,
        }
    )
    return ConvertBenchResult(
        kernel=kernel,
        nrows=nrows,
        ncols=ncols,
        nnz=csr.nnz,
        rounds=rounds,
        direct_seconds=direct_seconds,
        via_coo_seconds=via_coo_seconds,
        bitwise_identical=bitwise_identical,
        cold_prepare_calls=cold_calls,
        cold_prepare_seconds=cold_seconds,
        warm_prepare_calls=warm_calls,
        persistent_warm_prepare_calls=persistent_calls,
        persist=persist_stats,
        results_bitwise_equal=results_bitwise_equal,
        run_report=report.as_dict(),
    )


def format_convert_report(result: ConvertBenchResult) -> str:
    """Human-readable summary of one :func:`bench_convert` run."""
    persist = result.persist
    lines = [
        f"convert bench — {result.kernel} on {result.nrows}x{result.ncols}, "
        f"nnz={result.nnz}, rounds={result.rounds}",
        f"  direct (from_csr) : {result.direct_per_conversion * 1e3:9.3f} ms/conversion",
        f"  via COO           : {result.via_coo_per_conversion * 1e3:9.3f} ms/conversion "
        f"({result.direct_speedup:.2f}x slower than direct)",
        f"  bitwise identity  : {'equal' if result.bitwise_identical else 'MISMATCH'}",
        f"  cold              : {result.cold_prepare_calls} prepare(s), "
        f"{result.cold_prepare_seconds * 1e3:.3f} ms",
        f"  warm              : {result.warm_prepare_calls} new prepare(s)",
        f"  persistent-warm   : {result.persistent_warm_prepare_calls} prepare(s) "
        f"after restart ({persist.get('hits', 0)} disk hit(s))",
        f"  results           : "
        f"{'bitwise-equal across all tiers' if result.results_bitwise_equal else 'MISMATCH'}",
        f"  verdict           : {'PASS' if result.passed else 'FAIL'}",
    ]
    report = result.run_report
    if report:
        spans = report.get("spans", [])
        lines.append(
            f"  obs               : {len(spans)} spans, "
            f"{len(report.get('metrics', {}).get('metrics', []))} metrics"
        )
    return "\n".join(lines)
