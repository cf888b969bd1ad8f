"""Planner tests: ranking, capability filters, the plan memo, thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.errors import PlanError
from repro.exec import default_chain
from repro.obs import get_registry, reset_observability
from repro.perf.plan_model import kernel_menu
from repro.plan import ExecutionPlan, StaticPlanner, StructurePlanner
from repro.bench.plan import block_sweep_csr


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_observability()
    yield
    reset_observability()


def _counter(name, labels):
    return get_registry().counter(name, "", labels=tuple(labels)).value(**labels)


@pytest.fixture(scope="module")
def dense_csr():
    return block_sweep_csr(64, seed=3)


@pytest.fixture(scope="module")
def hypersparse_csr():
    return block_sweep_csr(1, seed=3)


class TestStaticPlanner:
    def test_emits_registry_chain(self, dense_csr):
        plan = StaticPlanner().plan(dense_csr)
        assert plan.kernels == default_chain()
        assert plan.planner == "static"
        assert plan.ranking == ()

    def test_explicit_chain(self, dense_csr):
        plan = StaticPlanner(("csr-scalar", "spaden")).plan(dense_csr)
        assert plan.kernels == ("csr-scalar", "spaden")

    def test_empty_chain_rejected(self, dense_csr):
        with pytest.raises(PlanError):
            StaticPlanner(()).plan(dense_csr)

    def test_reads_the_registry_once(self, dense_csr, monkeypatch):
        from repro.perf import plan_model

        builds = []
        menu = plan_model.kernel_menu
        monkeypatch.setattr(
            plan_model, "kernel_menu", lambda: builds.append(1) or menu()
        )
        planner = StaticPlanner()
        plans = [planner.plan(dense_csr) for _ in range(5)]
        assert len(builds) == 1
        assert all(plan.kernels == planner.chain == default_chain() for plan in plans)


class TestStructurePlannerRanking:
    def test_dense_blocks_keep_spaden_first(self, dense_csr):
        plan = StructurePlanner("L40").plan(dense_csr)
        assert plan.kernels[0] == "spaden"
        # the plan reorders the chain, never shortens it
        assert sorted(plan.kernels) == sorted(default_chain())

    def test_hypersparse_promotes_scalar(self, hypersparse_csr):
        plan = StructurePlanner("L40").plan(hypersparse_csr)
        assert plan.kernels[0] == "csr-scalar"

    def test_mixed_density_sweep_crossover(self):
        picks = {
            per_block: StructurePlanner("L40").plan(
                block_sweep_csr(per_block, seed=0)
            ).kernels[0]
            for per_block in (64, 32, 16, 8, 4, 2, 1)
        }
        for per_block in (64, 32, 16, 8):
            assert picks[per_block] == "spaden", picks
        for per_block in (4, 2, 1):
            assert picks[per_block] == "csr-scalar", picks

    def test_ranking_carries_evidence(self, dense_csr):
        plan = StructurePlanner("L40").plan(dense_csr)
        assert [entry.name for entry in plan.ranking] == list(plan.kernels)
        assert all(entry.predicted_seconds > 0 for entry in plan.ranking)
        assert plan.ranking[0].score == pytest.approx(1.0)
        assert plan.profile is not None and plan.profile.nnz == dense_csr.nnz

    def test_explain_mentions_every_kernel(self, dense_csr):
        text = StructurePlanner("L40").plan(dense_csr).explain()
        for name in default_chain():
            assert name in text
        assert "structure:" in text

    def test_plan_walks_like_a_chain(self, dense_csr):
        plan = StructurePlanner("L40").plan(dense_csr)
        assert isinstance(plan, ExecutionPlan)
        assert tuple(plan.kernels) == plan.kernels  # duck-type contract


class TestCapabilityFilter:
    def test_simulated_mode_drops_non_simulating_kernels(self, dense_csr):
        plan = StructurePlanner("L40", mode="simulated").plan(dense_csr)
        assert "cusparse-csr" not in plan.kernels
        assert set(plan.kernels) == {"spaden", "spaden-no-tc", "csr-scalar"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlanError):
            StructurePlanner("L40", mode="quantum")

    def test_filter_that_empties_pool_rejected(self, monkeypatch):
        menu = {
            name: traits
            for name, traits in kernel_menu().items()
            if not traits.simulate
        }
        assert menu  # cusparse-csr cannot simulate
        monkeypatch.setattr("repro.plan.planner.kernel_menu", lambda: menu)
        with pytest.raises(PlanError):
            StructurePlanner("L40", mode="simulated")


class TestPlanMemo:
    def test_plan_is_memoized(self, dense_csr):
        planner = StructurePlanner("L40")
        assert planner.plan(dense_csr) is planner.plan(dense_csr)

    def test_host_time_never_reaches_a_ranking(self):
        csr = block_sweep_csr(32, nrows=128, ncols=128, nnz_target=512, seed=6)
        x = np.random.default_rng(7).standard_normal(csr.ncols).astype(np.float32)
        planner = StructurePlanner("L40")
        engine = SpMVEngine(planner=planner)
        for _ in range(5):
            engine.spmv(csr, x)
        assert planner.plan(csr) == StructurePlanner("L40").plan(csr)


class TestPlannerMetrics:
    def test_decisions_counted(self, dense_csr):
        planner = StructurePlanner("L40")
        planner.plan(dense_csr)
        assert (
            _counter(
                "planner_decisions_total",
                {"planner": "structure", "kernel": "spaden"},
            )
            == 1
        )


class TestThreadSafety:
    def test_concurrent_plan(self, dense_csr, hypersparse_csr):
        planner = StructurePlanner("L40")
        matrices = [dense_csr, hypersparse_csr]
        errors = []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                barrier.wait()
                for i in range(40):
                    plan = planner.plan(matrices[(index + i) % 2])
                    assert sorted(plan.kernels) == sorted(default_chain())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # the memo holds exactly the two distinct matrices' plans, each
        # counted once however many threads raced to compute it
        assert len(planner._plans) == 2
        for kernel in ("spaden", "csr-scalar"):
            assert (
                _counter(
                    "planner_decisions_total",
                    {"planner": "structure", "kernel": kernel},
                )
                == 1
            )
