"""Planner wiring through the dispatch consumers: engine, chain walker, serve."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SpMVEngine, matrix_fingerprint
from repro.exec import execute_chain
from repro.obs import get_registry
from repro.plan import StructurePlanner
from repro.serve import ServeFrontend
from repro.bench.plan import block_sweep_csr


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

    def test_one_plan_per_matrix_content(self, problem):
        csr, x = problem
        decisions = get_registry().counter(
            "planner_decisions_total", "", labels=("planner", "kernel")
        )
        before = sum(decisions.series().values())
        planner = StructurePlanner("L40")
        engine = SpMVEngine(planner=planner)
        engine.spmv(csr, x)
        plan = planner.plan(csr)
        engine.spmv_many([(csr, x), (csr, x)])
        # dropping a poisoned operand leaves the plan alone: a plan
        # depends on the matrix content, not on how a run went
        engine._invalidate_operand(engine.kernel_name, matrix_fingerprint(csr))
        engine.spmv(csr, x)
        assert planner.plan(csr) is plan
        assert sum(decisions.series().values()) - before == 1


class TestRobustnessPlanner:
    """Plans walked by the verified dispatch entry point, ``execute_chain``."""

    def test_dispatch_accepts_planner(self, problem):
        csr, x = problem
        plan = StructurePlanner("L40").plan(csr)
        result = execute_chain(csr, x, plan, deep_verify=True)
        assert np.allclose(result.y, csr.matvec(x), rtol=1e-3, atol=1e-2)
        assert not result.degraded

    def test_planner_order_drives_attempts(self):
        # a hypersparse matrix, where the plan departs from the static
        # chain's spaden-first order
        csr = block_sweep_csr(1, nrows=128, ncols=128, nnz_target=256, seed=8)
        x = np.ones(csr.ncols, dtype=np.float32)
        plan = StructurePlanner("L40").plan(csr)
        assert plan.kernels[0] == "csr-scalar"
        result = execute_chain(csr, x, plan, deep_verify=True)
        assert result.kernel == "csr-scalar"
        assert result.attempts == ["csr-scalar"]


class TestServePlanner:
    def test_batches_walk_the_engine_planner(self, problem):
        csr, x = problem
        planner = StructurePlanner("L40")
        with ServeFrontend(SpMVEngine(planner=planner)) as frontend:
            frontend.register_matrix("m", csr)
            tickets = [frontend.submit("m", x, tenant=t) for t in ("a", "b")]
            ys = [ticket.result(timeout=30) for ticket in tickets]
        reference = SpMVEngine(planner=StructurePlanner("L40")).spmv(csr, x)
        assert all(np.array_equal(y, reference) for y in ys)
        # every batch walked the engine's planner, which planned the
        # matrix once
        assert len(planner._plans) == 1
