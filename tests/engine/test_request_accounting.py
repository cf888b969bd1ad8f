"""Regressions for the PR-8 bugfix trio on the engine's front door.

Three historical hazards, each with a test that fails on the old code:

* **poison pill** — a shape-invalid request used to fail the whole
  ``spmv_many`` call.  Now :meth:`spmv_many` routes validation failures
  through ``return_errors`` per request, so the rest of the call is
  still served.
* **stats inflation** — ``stats.requests`` / ``engine_requests_total``
  used to count a request before validating it, so rejected requests
  inflated throughput math.  Now only requests the engine actually
  attempts are counted.
* **operator stale fingerprint** — :meth:`operator` hashed the matrix
  once at bind time; mutating the CSR's storage in place afterwards
  silently served results for the *old* contents out of the operand
  cache.  Now each call runs a cheap shape/nnz check and re-fingerprints
  on a mismatch.
"""

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.errors import KernelError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.obs import get_registry, reset_observability

from tests.conftest import make_random_dense


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    reset_observability()


def _csr(rng, nrows=48, ncols=40) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, 0.12))
    )


def _requests_total(engine) -> float:
    return get_registry().counter(
        "engine_requests_total",
        "SpMV requests accepted by the engine.",
        labels=("kernel",),
    ).value(kernel=engine.kernel_name)


class TestPoisonPill:
    def test_spmv_many_positions_validation_errors_per_request(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        good = rng.standard_normal(csr.ncols).astype(np.float32)
        bad = np.ones(csr.ncols - 1, np.float32)

        results = engine.spmv_many(
            [(csr, good), (csr, bad), (csr, good)], return_errors=True
        )
        assert isinstance(results[1], KernelError)
        assert "request 1" in str(results[1])
        assert np.array_equal(results[0], results[2])

        with pytest.raises(KernelError):
            engine.spmv_many([(csr, good), (csr, bad)])


class TestStatsAccounting:
    def test_rejected_spmv_is_never_counted(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        with pytest.raises(KernelError):
            engine.spmv(csr, np.ones(csr.ncols + 1, np.float32))
        assert engine.stats.requests == 0
        assert _requests_total(engine) == 0

        engine.spmv(csr, rng.standard_normal(csr.ncols).astype(np.float32))
        assert engine.stats.requests == 1
        assert _requests_total(engine) == 1

    def test_spmv_many_counts_only_admitted_requests(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        good = rng.standard_normal(csr.ncols).astype(np.float32)
        bad = np.ones(csr.ncols + 2, np.float32)

        engine.spmv_many([(csr, good), (csr, bad), (csr, good)], return_errors=True)
        assert engine.stats.requests == 2
        assert _requests_total(engine) == 2

        # with return_errors=False the raise happens before anything is
        # counted — a rejected call leaves the books untouched
        with pytest.raises(KernelError):
            engine.spmv_many([(csr, bad), (csr, good)])
        assert engine.stats.requests == 2
        assert _requests_total(engine) == 2

    def test_operator_counts_after_validation(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        apply = engine.operator(csr)
        with pytest.raises(KernelError):
            apply(np.ones(csr.ncols + 1, np.float32))
        assert engine.stats.requests == 0
        assert _requests_total(engine) == 0

    def test_books_reconcile_across_mixed_traffic(self, rng):
        """stats.requests == engine_requests_total == attempts served."""
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        good = rng.standard_normal(csr.ncols).astype(np.float32)
        bad = np.ones(2, np.float32)

        engine.spmv(csr, good)
        engine.spmv_many([(csr, good), (csr, bad)], return_errors=True)
        with pytest.raises(KernelError):
            engine.spmv(csr, bad)
        engine.spmv_many([(csr, good)], return_errors=True)

        assert engine.stats.requests == 3
        assert _requests_total(engine) == engine.stats.requests


class TestOperatorRefingerprint:
    def test_in_place_mutation_with_nnz_change_is_detected(self, rng):
        dense_a = make_random_dense(rng, 32, 32, 0.10)
        dense_b = make_random_dense(rng, 32, 32, 0.25)
        csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense_a))
        other = CSRMatrix.from_coo(COOMatrix.from_dense(dense_b))
        assert csr.nnz != other.nnz  # densities differ; mutation is visible

        engine = SpMVEngine("spaden")
        apply = engine.operator(csr)
        x = rng.standard_normal(32).astype(np.float32)
        y_before = apply(x)
        assert np.allclose(y_before, dense_a @ x, rtol=1e-2, atol=1e-2)

        # rebind the CSR's storage in place — same object, new contents
        csr.row_pointers = other.row_pointers
        csr.col_indices = other.col_indices
        csr.values = other.values

        y_after = apply(x)
        assert np.allclose(y_after, dense_b @ x, rtol=1e-2, atol=1e-2)
        assert not np.array_equal(y_after, y_before)

    def test_mutated_operator_matches_fresh_spmv_bitwise(self, rng):
        dense_a = make_random_dense(rng, 24, 24, 0.10)
        dense_b = make_random_dense(rng, 24, 24, 0.30)
        csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense_a))
        other = CSRMatrix.from_coo(COOMatrix.from_dense(dense_b))

        engine = SpMVEngine("spaden")
        apply = engine.operator(csr)
        x = rng.standard_normal(24).astype(np.float32)
        apply(x)  # warm the cache with the original contents

        csr.row_pointers = other.row_pointers
        csr.col_indices = other.col_indices
        csr.values = other.values

        reference = SpMVEngine("spaden").spmv(other, x)
        assert np.array_equal(apply(x), reference)
