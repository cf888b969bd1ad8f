"""Threaded stress tests for the hardened serving seams.

The static auditor (:mod:`repro.analysis.concurrency`) proves the lock
*contracts* hold lexically; these tests prove the locks do what the
contracts claim under real contention: N threads hammering one shared
engine (with metrics and a breaker board installed) must produce results
bitwise-equal to the serial run, counters that reconcile exactly, and no
lost or double-counted cache events.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import SpMVEngine, matrix_fingerprint
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.obs import get_registry, get_span_log, reset_observability
from repro.resilience import BreakerBoard, ResiliencePolicy

from tests.conftest import make_random_dense

N_THREADS = 8
PER_THREAD = 6


@pytest.fixture(autouse=True)
def _scoped_observability():
    reset_observability()
    yield
    reset_observability()


def _csr(rng, nrows=48, ncols=40, density=0.12) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, density))
    )


def _matrices(rng, count=3):
    return [_csr(rng, nrows=40 + 8 * i) for i in range(count)]


def _engine() -> SpMVEngine:
    return SpMVEngine(
        "spaden",
        resilience=ResiliencePolicy(breakers=BreakerBoard()),
    )


def _cache_event_total(cache_name: str) -> dict[str, float]:
    metric = get_registry().get("operand_cache_events_total")
    if metric is None:
        return {}
    totals: dict[str, float] = {}
    for labels, value in metric.labeled():
        if labels["cache"] == cache_name:
            totals[labels["event"]] = totals.get(labels["event"], 0) + value
    return totals


class TestThreadedSpmv:
    def test_results_bitwise_equal_to_serial(self, rng):
        matrices = _matrices(rng)
        # one (matrix, x) workload per thread slot, reused across runs
        work = [
            (matrices[i % len(matrices)], rng.standard_normal(matrices[i % len(matrices)].ncols).astype(np.float32))
            for i in range(N_THREADS * PER_THREAD)
        ]

        serial = [_engine().spmv(csr, x) for csr, x in work]

        engine = _engine()
        barrier = threading.Barrier(N_THREADS)

        def worker(slot: int):
            barrier.wait()  # maximize overlap
            out = []
            for j in range(PER_THREAD):
                csr, x = work[slot * PER_THREAD + j]
                out.append(engine.spmv(csr, x))
            return out

        with ThreadPoolExecutor(N_THREADS) as pool:
            threaded = [y for chunk in pool.map(worker, range(N_THREADS)) for y in chunk]

        for expected, got in zip(serial, threaded):
            assert got.dtype == np.float32
            assert np.array_equal(expected, got)

    def test_counters_reconcile_exactly(self, rng):
        matrices = _matrices(rng)
        engine = _engine()
        barrier = threading.Barrier(N_THREADS)

        def worker(slot: int):
            barrier.wait()
            for j in range(PER_THREAD):
                csr = matrices[(slot + j) % len(matrices)]
                x = np.ones(csr.ncols, np.float32)
                engine.spmv(csr, x)

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(worker, range(N_THREADS)))

        total = N_THREADS * PER_THREAD
        stats, cache = engine.stats, engine.cache.stats
        assert stats.requests == total
        assert stats.batches == total
        # every lookup is a hit or a miss, none dropped under the race
        assert cache.hits + cache.misses == cache.lookups == total
        # each miss triggered exactly one prepare (and vice versa)
        assert stats.prepare_calls == cache.misses
        # nothing was evicted/rejected, so every distinct operand stayed
        assert cache.evictions == cache.rejected == cache.invalidations == 0
        assert len(engine.cache) == len(matrices)
        assert stats.degradations == 0

    def test_no_lost_or_double_counted_cache_events(self, rng):
        matrices = _matrices(rng)
        engine = _engine()

        def worker(slot: int):
            for j in range(PER_THREAD):
                csr = matrices[(slot * 3 + j) % len(matrices)]
                engine.spmv(csr, np.ones(csr.ncols, np.float32))

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(worker, range(N_THREADS)))

        # the metrics mirror and the lock-guarded stats must agree 1:1
        events = _cache_event_total(engine.cache.name)
        cache = engine.cache.stats
        assert events.get("hit", 0) == cache.hits
        assert events.get("miss", 0) == cache.misses
        assert events.get("eviction", 0) == cache.evictions
        assert events.get("rejected", 0) == cache.rejected
        requests = get_registry().get("engine_requests_total")
        assert requests is not None
        assert requests.value(kernel="spaden") == engine.stats.requests

    def test_breaker_board_stays_closed_under_healthy_traffic(self, rng):
        matrices = _matrices(rng)
        engine = _engine()

        def worker(slot: int):
            for j in range(PER_THREAD):
                csr = matrices[j % len(matrices)]
                engine.spmv(csr, np.ones(csr.ncols, np.float32))

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(worker, range(N_THREADS)))

        board = engine.resilience.breakers
        assert board.transitions() == []
        assert all(state == "closed" for state in board.states().values())


class TestThreadedObservability:
    def test_span_log_keeps_every_thread_batch(self, rng):
        matrices = _matrices(rng)
        engine = _engine()

        def worker(slot: int):
            for j in range(PER_THREAD):
                csr = matrices[j % len(matrices)]
                engine.spmv(csr, np.ones(csr.ncols, np.float32))

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(worker, range(N_THREADS)))

        batches = get_span_log().by_name("engine.batch")
        assert len(batches) == N_THREADS * PER_THREAD
        # parent links stay intra-thread: every batch span is a root
        assert all(s.parent_id is None for s in batches)
        ids = [s.span_id for s in get_span_log().spans()]
        assert len(ids) == len(set(ids))  # no duplicated span ids

    def test_single_threaded_counters_unchanged_by_the_locks(self, rng):
        # the no-lock fast path contract: one thread, same numbers as ever
        csr = _csr(rng)
        engine = _engine()
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(5)]
        ys = engine.spmv_many([(csr, x) for x in xs])
        again = engine.spmv(csr, xs[0])
        assert np.array_equal(again, ys[0])
        assert engine.stats.requests == 6
        assert engine.stats.batches == 2
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 1
        assert engine.cache.resident_bytes > 0
        assert (("spaden", matrix_fingerprint(csr)) in engine.cache)


class TestThreadedFirstTouch:
    def test_racing_first_runs_are_bitwise_equal_to_serial(self, rng):
        """Four threads make a warmed operand's first numeric run at once.

        Each may decode the run view, but none may see a partial one, so
        every result must equal a serial run byte for byte.
        """
        csr = _csr(rng, nrows=512, ncols=512, density=0.05)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(4)]
        serial = [_engine().spmv(csr, x) for x in xs]

        engine = _engine()
        operand = engine.warm(csr)
        assert operand.data.values.flags.writeable  # warmed, never run
        barrier = threading.Barrier(len(xs))

        def first_touch(x):
            barrier.wait(timeout=30)
            return engine.spmv(csr, x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(xs)) as pool:
                futures = [pool.submit(first_touch, x) for x in xs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)

        for expected, got in zip(serial, threaded):
            assert got.tobytes() == expected.tobytes()
        assert engine.stats.prepare_calls == 1
        assert not operand.data.values.flags.writeable  # the view exists now
