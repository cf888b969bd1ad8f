"""Planner-off parity: no planner and StaticPlanner are the same path.

The refactor's safety contract: executing through an
:class:`~repro.plan.ExecutionPlan` that carries the static chain must be
*bitwise indistinguishable* from executing through the plain name tuple
— numeric results, simulator counters and degradation events all
field-identical — across every kernel in the fallback chain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.exec import ExecutionMode, default_chain, execute_chain
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.base import get_kernel
from repro.plan import StaticPlanner
from repro.robustness import corrupt, get_fault

from tests.conftest import make_random_dense


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(77)
    dense = make_random_dense(rng, 72, 80, density=0.12)
    csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense))
    x = rng.standard_normal(80).astype(np.float32)
    return csr, x


def _simulating_kernels():
    return [
        name
        for name in default_chain()
        if get_kernel(name).capabilities.simulate
    ]


class TestChainWalkerParity:
    @pytest.mark.parametrize("kernel", default_chain())
    def test_numeric_bitwise_per_kernel(self, problem, kernel):
        csr, x = problem
        bare = execute_chain(csr, x, (kernel,))
        planned = execute_chain(csr, x, StaticPlanner((kernel,)).plan(csr))
        assert np.array_equal(bare.y, planned.y)
        assert bare.kernel == planned.kernel == kernel
        assert bare.attempts == planned.attempts
        assert bare.events == planned.events == []

    def test_full_chain_default_vs_static_plan(self, problem):
        csr, x = problem
        bare = execute_chain(csr, x)  # chain=None -> registry default
        planned = execute_chain(csr, x, StaticPlanner().plan(csr))
        assert np.array_equal(bare.y, planned.y)
        assert bare.kernel == planned.kernel
        assert bare.attempts == planned.attempts

    @pytest.mark.parametrize("kernel", default_chain())
    def test_simulated_counters_identical(self, problem, kernel):
        if kernel not in _simulating_kernels():
            pytest.skip(f"{kernel} has no simulator")
        csr, x = problem
        bare = execute_chain(
            csr, x, (kernel,), mode=ExecutionMode.SIMULATED, check_overflow=True
        )
        planned = execute_chain(
            csr,
            x,
            StaticPlanner((kernel,)).plan(csr),
            mode=ExecutionMode.SIMULATED,
            check_overflow=True,
        )
        assert np.array_equal(bare.y, planned.y)
        # ExecutionStats is a dataclass: field-wise equality covers every
        # counter (loads, stores, mma_ops, warp_instructions, ...)
        assert bare.stats == planned.stats


class TestEngineParity:
    def test_spmv_bitwise(self, problem):
        csr, x = problem
        plain = SpMVEngine()
        planned = SpMVEngine(planner=StaticPlanner())
        assert np.array_equal(plain.spmv(csr, x), planned.spmv(csr, x))
        assert plain.stats.degradation_log == planned.stats.degradation_log

    def test_spmv_many_bitwise_and_counters(self, problem):
        csr, x = problem
        rng = np.random.default_rng(5)
        requests = [
            (csr, rng.standard_normal(csr.ncols).astype(np.float32))
            for _ in range(6)
        ]
        plain = SpMVEngine()
        planned = SpMVEngine(planner=StaticPlanner())
        for a, b in zip(plain.spmv_many(requests), planned.spmv_many(requests)):
            assert np.array_equal(a, b)
        assert plain.stats.batches == planned.stats.batches
        assert plain.stats.requests == planned.stats.requests
        assert plain.cache.stats.as_dict() == planned.cache.stats.as_dict()

    def test_simulated_batch_counters_identical(self, problem):
        csr, x = problem
        plain = SpMVEngine()
        planned = SpMVEngine(planner=StaticPlanner())
        a = plain.spmv(csr, x, simulate=True)
        b = planned.spmv(csr, x, simulate=True)
        assert np.array_equal(a, b)
        assert plain.stats.execution == planned.stats.execution

    def test_run_report_names_planner_only_when_configured(self, problem):
        csr, x = problem
        plain = SpMVEngine()
        planned = SpMVEngine(planner=StaticPlanner())
        plain.spmv(csr, x)
        planned.spmv(csr, x)
        assert "planner" not in plain.run_report().meta
        assert planned.run_report().meta["planner"] == "static"


class TestDegradationParity:
    def _corrupting_hook(self):
        model = get_fault("bitmap-bit-flip")
        fired = []

        def hook(kernel_name, prepared):
            if fired:
                return
            data = prepared.data
            if isinstance(data, SparseMatrix) and data.format_name in model.formats:
                prepared.data, _ = corrupt(data, "bitmap-bit-flip", seed=11)
                fired.append(kernel_name)

        return hook

    def test_degradation_events_field_identical(self, problem):
        csr, x = problem
        bare = execute_chain(
            csr, x, deep_verify=True, faults=(self._corrupting_hook(),)
        )
        planned = execute_chain(
            csr,
            x,
            StaticPlanner().plan(csr),
            deep_verify=True,
            faults=(self._corrupting_hook(),),
        )
        assert bare.degraded and planned.degraded
        assert np.array_equal(bare.y, planned.y)
        assert bare.kernel == planned.kernel
        assert bare.attempts == planned.attempts
        # DegradationEvent is a dataclass: == compares kernel, stage,
        # cause, detail and fallback per event
        assert bare.events == planned.events
