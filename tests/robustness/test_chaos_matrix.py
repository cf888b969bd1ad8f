"""Chaos matrix: every registered fault against the resilient engine.

The PR-1 dispatcher tests prove each fault is survivable through a bare
chain walk.  This matrix raises the bar to the serving configuration:
an :class:`~repro.engine.SpMVEngine` carrying a full
:class:`~repro.resilience.ResiliencePolicy` (deadline + retries +
breakers + deep verify) takes every registered format fault injected
into the first applicable kernel's freshly prepared operand, and for
each one either serves a ``y`` matching the reference or returns a
structured :class:`~repro.errors.ReproError` — never a wrong answer,
never an unstructured crash, never a poisoned cache entry left behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SpMVEngine, matrix_fingerprint
from repro.errors import ReproError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.resilience import (
    BreakerBoard,
    BreakerConfig,
    ManualClock,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.robustness import available_faults, corrupt, get_fault, inject_lane_fault

from tests.conftest import make_random_dense

FORMAT_FAULTS = [f for f in available_faults() if get_fault(f).formats]


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(77)
    dense = make_random_dense(rng, 72, 80, density=0.1)
    csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense))
    x = rng.standard_normal(dense.shape[1]).astype(np.float32)
    return csr, x, dense.astype(np.float64) @ x.astype(np.float64)


def _resilient_engine() -> tuple[SpMVEngine, ManualClock]:
    clock = ManualClock()
    policy = ResiliencePolicy(
        deadline_seconds=60.0,
        retry=RetryPolicy(max_attempts=2, jitter=0.0, sleep=clock.sleep, seed=0),
        breakers=BreakerBoard(BreakerConfig(window=8, min_volume=4), clock=clock),
        deep_verify=True,
        clock=clock,
    )
    return SpMVEngine("spaden", resilience=policy), clock


def _persistent_hook(fault_name: str, seed: int = 9):
    """Corrupt every applicable prepared operand — retries see it too,
    so the chain must actually degrade past the sick kernel."""
    model = get_fault(fault_name)

    def hook(kernel_name, prepared):
        data = prepared.data
        if isinstance(data, SparseMatrix) and data.format_name in model.formats:
            prepared.data, _ = corrupt(data, fault_name, seed=seed)

    return hook


@pytest.mark.parametrize("fault", FORMAT_FAULTS)
def test_every_fault_yields_correct_y_or_structured_error(problem, fault):
    csr, x, ref = problem
    engine, _clock = _resilient_engine()
    results = engine.spmv_many(
        [(csr, x)], return_errors=True, faults=(_persistent_hook(fault),)
    )
    [result] = results
    if isinstance(result, ReproError):
        # structured failure is acceptable; silent wrongness is not
        assert type(result).__name__ != "Exception"
    else:
        assert np.allclose(result, ref, rtol=1e-3, atol=1e-2)
    # whatever happened, no poisoned operand stayed resident
    fingerprint = matrix_fingerprint(csr)
    for kernel_name in engine.chain:
        cached = engine.cache.get((kernel_name, fingerprint))
        if cached is not None and isinstance(cached.data, SparseMatrix):
            cached.data.verify(deep=True)


@pytest.mark.parametrize("fault", FORMAT_FAULTS)
def test_transient_fault_heals_via_retry_without_degrading(problem, fault):
    """A single corruption event + a retry policy: the re-prepared second
    attempt must succeed on the *same* kernel — no fallback consulted."""
    csr, x, ref = problem
    model = get_fault(fault)
    engine, _clock = _resilient_engine()
    fired = []

    def once(kernel_name, prepared):
        data = prepared.data
        if fired or not isinstance(data, SparseMatrix):
            return
        if data.format_name in model.formats:
            prepared.data, _ = corrupt(data, fault, seed=9)
            fired.append(kernel_name)

    [y] = engine.spmv_many([(csr, x)], return_errors=True, faults=(once,))
    assert not isinstance(y, ReproError)
    assert np.allclose(y, ref, rtol=1e-3, atol=1e-2)
    if fired:
        # healed by the retry (cache invalidated, fresh prepare) — the
        # faulted kernel itself served, so no degradation was recorded
        assert engine.stats.degradation_log == []


def test_lane_fault_degrades_resilient_engine(problem):
    csr, x, ref = problem
    engine, _clock = _resilient_engine()
    with inject_lane_fault(seed=4):
        [y] = engine.spmv_many([(csr, x)], return_errors=True)
    assert not isinstance(y, ReproError)
    assert np.allclose(y, ref, rtol=1e-3, atol=1e-2)
    # the tensor-core kernel was abandoned at verify; the breaker saw it
    assert any(e.cause == "LayoutError" for e in engine.stats.degradation_log)
    board = engine.resilience.breakers
    assert board.breaker("spaden").failure_rate > 0.0


def test_fault_after_a_run_degrades_at_check_not_from_the_old_view(problem):
    """Serve once so spaden's cached operand has its run view, then swap
    in a NaN-poisoned copy with deep verify off: the attempt must see
    the NaN and degrade at ``check``, never answer from the old view."""
    csr, x, ref = problem
    engine = SpMVEngine("spaden")
    engine.spmv(csr, x)
    operand = engine.cache.peek(("spaden", matrix_fingerprint(csr)))
    assert not operand.data.values.flags.writeable  # the view exists
    fired = []

    def once(kernel_name, prepared):
        if not fired and kernel_name == "spaden":
            prepared.data, _ = corrupt(prepared.data, "value-nan", seed=9)
            fired.append(kernel_name)

    [y] = engine.spmv_many([(csr, x)], return_errors=True, faults=(once,))
    assert fired
    [event] = engine.stats.degradation_log
    assert (event.kernel, event.stage, event.cause) == ("spaden", "check", "NumericalError")
    assert not isinstance(y, ReproError)
    assert np.allclose(y, ref, rtol=1e-3, atol=1e-2)
