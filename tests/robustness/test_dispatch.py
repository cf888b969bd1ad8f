"""Graceful-degradation dispatch tests, through :func:`repro.exec.execute_chain`.

The contract: injecting *any* registered fault into an SpMV run yields
a correct ``y`` through the fallback chain — degraded, logged, never
crashed.  ``deep_verify=True`` runs the deep format verifiers on every
attempt, so corruption surfaces at the verify stage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelError
from repro.exec import ExecutionMode, default_chain, execute_chain
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.robustness import (
    available_faults,
    corrupt,
    get_fault,
    inject_lane_fault,
)

from tests.conftest import make_random_dense


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(2024)
    dense = make_random_dense(rng, 72, 80, density=0.1)
    csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense))
    x = rng.standard_normal(dense.shape[1]).astype(np.float32)
    return csr, x, dense.astype(np.float64) @ x.astype(np.float64)


def _close(y, ref):
    return np.allclose(y, ref, rtol=1e-3, atol=1e-2)


def _hook_for(fault_name, seed=9, once=True):
    """Corrupt the first prepared operand the fault applies to.

    ``once`` models a single corruption event: later kernels re-prepare
    from the pristine CSR and see healthy data, which is exactly the
    scenario the fallback chain exists for.
    """
    model = get_fault(fault_name)
    fired = []

    def hook(kernel_name, prepared):
        if once and fired:
            return
        data = prepared.data
        if isinstance(data, SparseMatrix) and data.format_name in model.formats:
            prepared.data, _ = corrupt(data, fault_name, seed=seed)
            fired.append(kernel_name)

    return hook


def test_clean_dispatch_uses_primary(problem):
    csr, x, ref = problem
    result = execute_chain(csr, x, deep_verify=True)
    assert result.kernel == default_chain()[0]
    assert not result.degraded and result.events == []
    assert result.attempts == ["spaden"]
    assert _close(result.y, ref)


@pytest.mark.parametrize(
    "fault", [f for f in available_faults() if get_fault(f).formats]
)
def test_any_fault_still_yields_correct_y(problem, fault):
    """ISSUE acceptance: inject each named fault into an spmv run; the
    chain must degrade (when the fault touches an attempted kernel's
    operand) and the result must stay correct."""
    csr, x, ref = problem
    result = execute_chain(csr, x, deep_verify=True, faults=(_hook_for(fault),))
    assert _close(result.y, ref)
    touched = get_fault(fault).formats
    if "bitbsr" in touched:
        # the primary kernel rides on bitBSR: it must have been
        # abandoned with the fault's own detection error recorded
        assert result.kernel != "spaden"
        assert result.degraded
        causes = {e.cause for e in result.events}
        detected = {t.__name__ for t in get_fault(fault).detected_by}
        assert causes & detected


def test_lane_fault_degrades_tensor_core_kernels(problem):
    csr, x, ref = problem
    with inject_lane_fault(seed=4):
        result = execute_chain(csr, x, deep_verify=True)
    assert result.kernel == "spaden-no-tc"
    assert [e.kernel for e in result.events] == ["spaden"]
    assert result.events[0].stage == "verify"
    assert result.events[0].cause == "LayoutError"
    assert result.events[0].fallback == "spaden-no-tc"
    assert _close(result.y, ref)


def test_events_record_stage_cause_fallback(problem):
    csr, x, ref = problem
    # a persistent corruption: every bitBSR conversion comes out damaged
    result = execute_chain(
        csr, x, deep_verify=True, faults=(_hook_for("bitmap-bit-flip", once=False),)
    )
    assert len(result.events) == 2  # spaden and spaden-no-tc both fail
    for event, expected_kernel in zip(result.events, ("spaden", "spaden-no-tc")):
        assert event.kernel == expected_kernel
        assert event.stage == "verify"
        assert event.cause == "BitmapPopcountError"
    assert result.events[-1].fallback == "cusparse-csr"
    assert result.attempts == ["spaden", "spaden-no-tc", "cusparse-csr"]
    assert result.kernel == "cusparse-csr"
    assert _close(result.y, ref)


def test_overflow_surfaces_at_run_stage_when_verify_skipped(problem):
    """With verification off, an Inf operand reaches the tensor-core
    accumulator and the MMA overflow check triggers the fallback."""
    csr, x, ref = problem
    result = execute_chain(
        csr,
        x,
        ("spaden", "csr-scalar"),
        mode=ExecutionMode.SIMULATED,
        check_overflow=True,
        faults=(_hook_for("value-inf"),),
    )
    assert result.kernel == "csr-scalar"
    assert result.events[0].stage in ("run", "check")
    assert result.events[0].kernel == "spaden"
    assert _close(result.y, ref)


def test_chain_exhaustion_raises_kernel_error(problem):
    csr, x, _ = problem

    def poison_everything(kernel_name, prepared):
        data = prepared.data
        if isinstance(data, SparseMatrix):
            fault = "value-nan" if data.format_name in ("csr", "bitbsr") else None
            if fault:
                prepared.data, _ = corrupt(data, fault, seed=1)

    with pytest.raises(KernelError, match="all kernels in chain"):
        execute_chain(
            csr,
            x,
            ("spaden", "cusparse-csr"),
            deep_verify=True,
            faults=(poison_everything,),
        )


def test_empty_chain_rejected(problem):
    csr, x, _ = problem
    with pytest.raises(KernelError, match="empty"):
        execute_chain(csr, x, (), deep_verify=True)


def test_simulated_dispatch_returns_real_stats(problem):
    csr, x, ref = problem
    result = execute_chain(
        csr, x, mode=ExecutionMode.SIMULATED, check_overflow=True, deep_verify=True
    )
    assert result.kernel == "spaden"
    assert result.stats.mma_ops > 0
    assert result.stats.warps_launched > 0
    assert _close(result.y, ref)
