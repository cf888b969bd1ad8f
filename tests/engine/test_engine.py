"""SpMVEngine: micro-batching, bitwise equality, degradation, metrics."""

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.engine import SpMVEngine, matrix_fingerprint
from repro.errors import KernelError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.base import PreparedOperand, get_kernel

from tests.conftest import make_random_dense


def _csr(rng, nrows=48, ncols=40, density=0.12) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, density))
    )


class TestBatching:
    @pytest.mark.parametrize("kernel_name", ["spaden", "cusparse-csr", "csr-scalar"])
    def test_batched_results_bitwise_equal_per_vector_run(self, rng, kernel_name):
        csr = _csr(rng)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(7)]
        engine = SpMVEngine(kernel_name)
        ys = engine.spmv_many([(csr, x) for x in xs])
        kernel = get_kernel(kernel_name)
        prepared = kernel.prepare(csr)
        for x, y in zip(xs, ys):
            assert y.dtype == np.float32
            assert np.array_equal(kernel.run(prepared, x), y)

    def test_same_matrix_requests_fold_into_one_batch(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        engine.spmv_many([(csr, np.ones(csr.ncols, np.float32))] * 6)
        assert engine.stats.batches == 1
        assert engine.stats.requests == 6
        assert engine.stats.batched_vectors == 6
        assert engine.stats.prepare_calls == 1

    def test_interleaved_matrices_return_in_request_order(self, rng):
        a, b = _csr(rng), _csr(rng, nrows=32, ncols=40)
        xs = [rng.standard_normal(40).astype(np.float32) for _ in range(6)]
        order = [a, b, a, b, b, a]
        engine = SpMVEngine("spaden")
        ys = engine.spmv_many(list(zip(order, xs)))
        for csr, x, y in zip(order, xs, ys):
            kernel = get_kernel("spaden")
            assert np.array_equal(kernel.run(kernel.prepare(csr), x), y)
        assert engine.stats.batches == 2  # one per distinct matrix

    def test_spmv_single_matches_batched_entry(self, rng):
        csr = _csr(rng)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        a = SpMVEngine("spaden").spmv(csr, x)
        b = SpMVEngine("spaden").spmv_many([(csr, x)])[0]
        assert np.array_equal(a, b)

    def test_empty_request_list(self):
        assert SpMVEngine("spaden").spmv_many([]) == []

    def test_shape_mismatch_raises(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        with pytest.raises(KernelError, match="expected"):
            engine.spmv(csr, np.ones(csr.ncols + 1, np.float32))
        with pytest.raises(KernelError, match="request 1"):
            engine.spmv_many(
                [
                    (csr, np.ones(csr.ncols, np.float32)),
                    (csr, np.ones(3, np.float32)),
                ]
            )

    def test_operator_binds_matrix_once(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        op = engine.operator(csr)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(3)]
        kernel = get_kernel("spaden")
        prepared = kernel.prepare(csr)
        for x in xs:
            assert np.array_equal(op(x), kernel.run(prepared, x))
        assert engine.stats.prepare_calls == 1


class TestSimulatedBatches:
    def test_batched_counters_are_k_times_single(self, rng):
        csr = _csr(rng)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(3)]
        kernel = get_kernel("spaden")
        prepared = kernel.prepare(csr)
        single = [kernel.simulate(prepared, x)[1] for x in xs]
        engine = SpMVEngine("spaden")
        ys = engine.spmv_many([(csr, x) for x in xs], simulate=True)
        merged = engine.stats.execution
        for field in ("load_transactions", "mma_ops", "warps_launched", "global_load_bytes"):
            assert getattr(merged, field) == sum(getattr(s, field) for s in single), field
        for x, y in zip(xs, ys):
            assert np.array_equal(kernel.run(prepared, x), y)

    @pytest.mark.sanitizer
    def test_batched_simulation_is_sanitizer_clean(self, rng):
        from repro.matrices.generators import fp16_exact_values

        csr = _csr(rng, nrows=40, ncols=33)
        xs = [fp16_exact_values(rng, 33) for _ in range(3)]
        engine = SpMVEngine("spaden", chain=("spaden",))
        with Sanitizer() as sanitizer:
            ys = engine.spmv_many([(csr, x) for x in xs], simulate=True)
        assert sanitizer.report.clean, sanitizer.report.summary()
        assert sanitizer.report.warps_observed > 0
        reference = [csr.matvec(x) for x in xs]
        for ref, y in zip(reference, ys):
            assert float(np.abs(ref - y).max(initial=0.0)) <= 1e-4


class TestDegradation:
    def _poison(self, engine, csr, kernel_name="spaden"):
        """Plant a cache entry whose batch execution must fail."""
        fingerprint = matrix_fingerprint(csr)
        bad = PreparedOperand(
            kernel_name=kernel_name,
            data=None,
            shape=(csr.nrows, csr.ncols + 1),  # forces the X-shape check to fail
            nnz=csr.nnz,
            device_bytes=64,
            preprocessing_seconds=0.0,
        )
        engine.cache.put((kernel_name, fingerprint), bad)
        return fingerprint

    def test_poisoned_operand_falls_back_and_is_evicted(self, rng):
        csr = _csr(rng)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        engine = SpMVEngine("spaden")
        fingerprint = self._poison(engine, csr)
        y = engine.spmv(csr, x)
        # served by the fallback, correct to CSR reference
        assert np.allclose(y, csr.matvec(x), rtol=1e-2, atol=1e-2)
        [event] = engine.stats.degradation_log
        assert event.kernel == "spaden"
        assert event.stage == "run"
        assert event.fallback == "spaden-no-tc"
        assert ("spaden", fingerprint) not in engine.cache

    def test_recovers_with_fresh_prepare_after_eviction(self, rng):
        csr = _csr(rng)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        engine = SpMVEngine("spaden")
        self._poison(engine, csr)
        engine.spmv(csr, x)  # degrades, evicts the poisoned entry
        y = engine.spmv(csr, x)  # re-prepares spaden cleanly
        kernel = get_kernel("spaden")
        assert np.array_equal(kernel.run(kernel.prepare(csr), x), y)
        assert engine.stats.degradations == 1  # no second fallback

    def test_degrade_false_raises_instead(self, rng):
        """A one-kernel chain has nowhere to degrade to: it raises."""
        csr = _csr(rng)
        engine = SpMVEngine("spaden", chain=("spaden",))
        assert engine.chain == ("spaden",)
        self._poison(engine, csr)
        with pytest.raises(KernelError, match="all kernels in chain"):
            engine.spmv(csr, np.ones(csr.ncols, np.float32))

    def test_custom_chain_respected(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden", chain=("spaden", "csr-scalar"))
        self._poison(engine, csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        y = engine.spmv(csr, x)
        kernel = get_kernel("csr-scalar")
        assert np.array_equal(kernel.run(kernel.prepare(csr), x), y)
        assert engine.stats.degradation_log[0].fallback == "csr-scalar"

    def test_unknown_kernel_rejected_up_front(self):
        with pytest.raises(KernelError):
            SpMVEngine("no-such-kernel")


class TestMetrics:
    def test_as_dict_round_trip(self, rng):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        engine.spmv_many([(csr, np.ones(csr.ncols, np.float32))] * 3)
        d = engine.stats.as_dict()
        assert d["requests"] == 3 and d["batches"] == 1
        assert d["prepare_seconds"] >= 0.0
        c = engine.cache.stats.as_dict()
        assert set(c) == {"hits", "misses", "evictions", "rejected", "invalidations"}
        assert engine.stats.amortized_run_seconds >= 0.0
