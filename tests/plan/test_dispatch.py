"""Planner wiring through the dispatch consumers: engine, chain walker, serve."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.exec import execute_chain
from repro.plan import StructurePlanner
from repro.serve import ServeFrontend
from repro.serve.policy import FlushPolicy
from repro.bench.plan import block_sweep_csr


class CountingPlanner(StructurePlanner):
    """StructurePlanner that counts plan() calls (co-caching probe)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plan_calls = 0

    def plan(self, csr, *, fingerprint=None):
        self.plan_calls += 1
        return super().plan(csr, fingerprint=fingerprint)


@pytest.fixture
def problem():
    csr = block_sweep_csr(32, nrows=128, ncols=128, nnz_target=512, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(csr.ncols).astype(np.float32)
    return csr, x


class TestEnginePlanner:
    def test_results_stay_correct(self, problem):
        csr, x = problem
        engine = SpMVEngine(planner=StructurePlanner("L40"))
        y = engine.spmv(csr, x)
        assert np.allclose(y, csr.matvec(x), rtol=1e-3, atol=1e-2)

    def test_plan_cached_next_to_operand(self, problem):
        csr, x = problem
        planner = CountingPlanner("L40")
        engine = SpMVEngine(planner=planner)
        engine.spmv(csr, x)
        engine.spmv(csr, x)
        engine.spmv_many([(csr, x), (csr, x)])
        # one plan for one matrix content, however many requests
        assert planner.plan_calls == 1

    def test_invalidation_drops_plan_with_operand(self, problem):
        csr, x = problem
        planner = CountingPlanner("L40")
        engine = SpMVEngine(planner=planner)
        engine.spmv(csr, x)
        assert planner.plan_calls == 1
        from repro.engine import matrix_fingerprint

        fingerprint = matrix_fingerprint(csr)
        engine._invalidate_operand(engine.kernel_name, fingerprint)
        engine.spmv(csr, x)
        assert planner.plan_calls == 2

    def test_latency_feedback_reaches_planner(self, problem):
        csr, x = problem
        planner = StructurePlanner("L40")
        engine = SpMVEngine(planner=planner)
        engine.spmv(csr, x)
        observed = planner.observed()
        assert observed, "engine must feed run latency back to the planner"
        (kernel, (seconds, count)), = observed.items()
        assert count == 1 and seconds >= 0


class TestRobustnessPlanner:
    """Plans walked by the verified dispatch entry point, ``execute_chain``."""

    def test_dispatch_accepts_planner(self, problem):
        csr, x = problem
        plan = StructurePlanner("L40").plan(csr)
        result = execute_chain(csr, x, plan, deep_verify=True)
        assert np.allclose(result.y, csr.matvec(x), rtol=1e-3, atol=1e-2)
        assert not result.degraded

    def test_planner_order_drives_attempts(self, problem):
        csr, x = problem
        planner = StructurePlanner("L40", candidates=("csr-scalar",))
        result = execute_chain(csr, x, planner.plan(csr), deep_verify=True)
        assert result.kernel == "csr-scalar"
        assert result.attempts == ["csr-scalar"]


class TestServePlanner:
    def test_plan_hints_specialize_flush_policy(self):
        dense = block_sweep_csr(64, nrows=128, ncols=128, nnz_target=1024, seed=8)
        sparse = block_sweep_csr(1, nrows=128, ncols=128, nnz_target=256, seed=8)
        with ServeFrontend(planner=StructurePlanner("L40")) as frontend:
            frontend.register_matrix("dense", dense)
            frontend.register_matrix("sparse", sparse)
            dense_policy = frontend._policies["dense"]
            sparse_policy = frontend._policies["sparse"]
        assert dense_policy.max_batch == 64
        assert sparse_policy.max_batch == 16
        assert sparse_policy.max_wait_seconds < dense_policy.max_wait_seconds

    def test_no_planner_keeps_default_policy(self):
        csr = block_sweep_csr(8, nrows=64, ncols=64, nnz_target=128, seed=9)
        policy = FlushPolicy(max_batch=5, max_wait_seconds=0.002)
        with ServeFrontend(flush_policy=policy) as frontend:
            frontend.register_matrix("m", csr)
            assert frontend._policies["m"] == policy

    def test_batches_walk_the_engine_planner(self, problem):
        csr, x = problem
        planner = StructurePlanner("L40")
        with ServeFrontend(SpMVEngine(planner=planner)) as frontend:
            frontend.register_matrix("m", csr)
            tickets = [frontend.submit("m", x, tenant=t) for t in ("a", "b")]
            ys = [ticket.result(timeout=30) for ticket in tickets]
        reference = SpMVEngine(planner=StructurePlanner("L40")).spmv(csr, x)
        assert all(np.array_equal(y, reference) for y in ys)
        # every batch ran on the engine's own planner and fed it back
        assert planner.observed()


class TestFlushPolicyHints:
    def test_with_hints_applies_both(self):
        policy = FlushPolicy().with_hints(max_batch=64, max_wait_seconds=0.02)
        assert policy.max_batch == 64
        assert policy.max_wait_seconds == pytest.approx(0.02)

    def test_none_hints_keep_fields(self):
        base = FlushPolicy(max_batch=7, max_wait_seconds=0.003)
        assert base.with_hints() is base
        assert base.with_hints(max_batch=None).max_batch == 7

    def test_hints_revalidate(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            FlushPolicy().with_hints(max_batch=0)
