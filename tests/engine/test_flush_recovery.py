"""Regression: a failing micro-batch must never lose requests.

With ``spmv_many(return_errors=True)`` every request gets either its
result or the error instance at its position, and the groups that did
not fail are still served — zero lost.
"""

import numpy as np

from repro.engine import SpMVEngine
from repro.errors import VerificationError
from repro.exec import ChainExhaustedError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix

from tests.conftest import make_random_dense


def _csr(rng, nrows=48, ncols=40) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, 0.12))
    )


def _poison_everything(name, prepared):
    """A fault hook no kernel in the chain survives."""
    raise VerificationError(f"poisoned {name}")


class TestPerRequestErrors:
    def test_return_errors_marks_failed_group_and_serves_the_rest(self, rng):
        healthy = _csr(rng)
        doomed = _csr(rng, nrows=32)

        def poison_doomed(name, prepared):
            if prepared.shape[0] == 32:
                raise VerificationError("poisoned the doomed group")

        engine = SpMVEngine("spaden", chain=("spaden",))
        xs = [rng.standard_normal(40).astype(np.float32) for _ in range(4)]
        order = [healthy, doomed, healthy, doomed]
        results = engine.spmv_many(
            list(zip(order, xs)), return_errors=True, faults=(poison_doomed,)
        )
        assert len(results) == 4  # zero lost
        for matrix, x, result in zip(order, xs, results):
            if matrix is doomed:
                assert isinstance(result, ChainExhaustedError)
            else:
                assert np.allclose(
                    result, matrix.matvec(x), rtol=1e-2, atol=1e-2
                )

    def test_error_instances_are_shared_per_group(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden", chain=("spaden",))
        requests = [
            (csr, rng.standard_normal(csr.ncols).astype(np.float32)) for _ in range(3)
        ]
        results = engine.spmv_many(
            requests, return_errors=True, faults=(_poison_everything,)
        )
        assert len(results) == 3
        assert all(isinstance(r, ChainExhaustedError) for r in results)
        assert results[0] is results[1] is results[2]  # one failure, one object
