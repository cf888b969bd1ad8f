"""Registry-derived fallback chains and the chain walker."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import KernelError
from repro.exec import (
    ChainExhaustedError,
    ExecutionMode,
    default_chain,
    execute_chain,
)
from repro.formats.csr import CSRMatrix
from repro.kernels.base import _REGISTRY, get_kernel, register_kernel
from repro.kernels.csr_scalar import CSRScalarKernel


@pytest.fixture
def csr(small_coo) -> CSRMatrix:
    return CSRMatrix.from_coo(small_coo)


def test_default_chain_order():
    """Tensor-core kernel first, always-works scalar baseline last."""
    assert default_chain() == ("spaden", "spaden-no-tc", "cusparse-csr", "csr-scalar")


def test_default_chain_reflects_capability_tiers():
    chain = default_chain()
    tiers = [get_kernel(name).capabilities.fallback_tier for name in chain]
    assert tiers == sorted(tiers)
    assert get_kernel(chain[0]).capabilities.tensor_cores
    assert not get_kernel(chain[-1]).capabilities.tensor_cores


def test_registering_a_kernel_extends_the_chain():
    class MidTierKernel(CSRScalarKernel):
        name = "test-mid-tier"
        label = "test kernel"
        capabilities = dataclasses.replace(CSRScalarKernel.capabilities, fallback_tier=15)

    try:
        register_kernel(MidTierKernel)
        assert default_chain() == (
            "spaden",
            "spaden-no-tc",
            "test-mid-tier",
            "cusparse-csr",
            "csr-scalar",
        )
    finally:
        _REGISTRY.pop("test-mid-tier", None)
    assert "test-mid-tier" not in default_chain()


def test_empty_chain_rejected(csr, x_small):
    with pytest.raises(KernelError, match="empty kernel chain"):
        execute_chain(csr, x_small, chain=())


def test_chain_first_kernel_wins(csr, x_small):
    result = execute_chain(csr, x_small)
    assert result.kernel == "spaden"
    assert result.attempts == ["spaden"]
    assert not result.degraded


def test_chain_degrades_past_faulted_kernel(csr, x_small):
    """A fault striking only the first kernel produces one degradation
    event (with the executor's stage tag) and a good result from the
    fallback."""

    def poison_spaden(kernel_name, prepared):
        if kernel_name == "spaden":
            raise KernelError("injected fault")

    result = execute_chain(csr, x_small, faults=(poison_spaden,))
    assert result.kernel == "spaden-no-tc"
    assert result.attempts == ["spaden", "spaden-no-tc"]
    assert len(result.events) == 1
    event = result.events[0]
    assert event.kernel == "spaden"
    assert event.stage == "prepare"
    assert event.cause == "KernelError"
    assert event.fallback == "spaden-no-tc"
    expected = get_kernel("spaden-no-tc")
    prepared = expected.prepare(csr)
    assert np.array_equal(result.y, expected.run(prepared, x_small))


def test_chain_exhaustion_carries_events(csr, x_small):
    def poison_all(kernel_name, prepared):
        raise KernelError("injected fault")

    with pytest.raises(ChainExhaustedError, match="all kernels in chain") as info:
        execute_chain(csr, x_small, chain=("spaden", "csr-scalar"), faults=(poison_all,))
    events = info.value.events
    assert [e.kernel for e in events] == ["spaden", "csr-scalar"]
    assert events[-1].fallback is None


def test_chain_invalidate_hook_called_per_failure(csr, x_small):
    dropped = []

    def poison_spaden(kernel_name, prepared):
        if kernel_name == "spaden":
            raise KernelError("injected fault")

    execute_chain(
        csr,
        x_small,
        faults=(poison_spaden,),
        invalidate=dropped.append,
    )
    assert dropped == ["spaden"]


def test_chain_per_kernel_mode_chooser(csr, x_small):
    """A callable mode receives each kernel and picks its path — the
    engine uses this to simulate only where a batched simulator exists."""
    seen = []

    def choose(kernel):
        seen.append(kernel.name)
        if kernel.capabilities.simulate:
            return ExecutionMode.SIMULATED
        return ExecutionMode.NUMERIC

    result = execute_chain(csr, x_small, chain=("spaden",), mode=choose)
    assert seen == ["spaden"]
    assert result.mode is ExecutionMode.SIMULATED
    assert result.stats is not None
