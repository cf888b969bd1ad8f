"""End-to-end Spaden SpMV: simulator == vectorized == scipy reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import build_bitbsr
from repro.core.spmv import spaden_spmv, spaden_spmv_simulated
from repro.engine import SpMVEngine
from repro.errors import KernelError
from repro.exec import ChainExhaustedError
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.convert import to_scipy
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.gpu.mma import Precision
from repro.matrices.generators import fp16_exact_values

from tests.conftest import make_random_dense


@st.composite
def spmv_cases(draw):
    nrows = draw(st.integers(1, 64))
    ncols = draw(st.integers(1, 64))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    seed = draw(st.integers(0, 2**31 - 1))
    return nrows, ncols, density, seed


class TestAgainstReference:
    @settings(max_examples=15, deadline=None)
    @given(spmv_cases())
    def test_simulated_equals_fast_equals_scipy(self, case):
        nrows, ncols, density, seed = case
        rng = np.random.default_rng(seed)
        dense = make_random_dense(rng, nrows, ncols, density)
        coo = COOMatrix.from_dense(dense)
        bit = build_bitbsr(coo).matrix
        x = fp16_exact_values(rng, ncols)
        ref = to_scipy(coo).astype(np.float64) @ x.astype(np.float64)
        y_fast = spaden_spmv(bit, x)
        y_sim, _ = spaden_spmv_simulated(bit, x)
        assert np.allclose(y_fast, ref, rtol=1e-4, atol=1e-3)
        assert np.allclose(y_sim, ref, rtol=1e-4, atol=1e-3)
        assert np.allclose(y_sim, y_fast, rtol=1e-5, atol=1e-5)

    def test_precision_modes(self, rng):
        dense = make_random_dense(rng, 32, 32, 0.3)
        coo = COOMatrix.from_dense(dense)
        bit = build_bitbsr(coo, value_dtype=np.float32).matrix
        x = fp16_exact_values(rng, 32)
        ref = dense.astype(np.float64) @ x.astype(np.float64)
        for precision in (Precision.FP16, Precision.TF32, Precision.FP32):
            y = spaden_spmv(bit, x, precision=precision)
            assert np.allclose(y, ref, rtol=1e-3, atol=1e-2), precision

    def test_empty_matrix(self):
        coo = COOMatrix((16, 16), np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, np.float32))
        bit = build_bitbsr(coo).matrix
        y, stats = spaden_spmv_simulated(bit, np.ones(16, dtype=np.float32))
        assert not y.any()
        assert stats.mma_ops == 0

    def test_shape_check(self, rng):
        dense = make_random_dense(rng, 16, 16, 0.3)
        bit = build_bitbsr(COOMatrix.from_dense(dense)).matrix
        with pytest.raises(KernelError):
            spaden_spmv(bit, np.ones(17, dtype=np.float32))
        with pytest.raises(KernelError):
            spaden_spmv_simulated(bit, np.ones(17, dtype=np.float32))


class TestStatsSanity:
    def test_value_traffic_matches_nnz(self, rng):
        """Only true nonzeros travel: A_values bytes == nnz x 2."""
        dense = make_random_dense(rng, 40, 40, 0.15)
        coo = COOMatrix.from_dense(dense)
        bit = build_bitbsr(coo).matrix
        x = fp16_exact_values(rng, 40)
        _, stats = spaden_spmv_simulated(bit, x)
        overhead = (
            stats.global_load_bytes
            - bit.nnz * 2  # packed values
            - bit.nblocks * 32 * 16  # broadcast col/bitmap/offset
            - bit.nblocks * 2 * 32 * 2  # x segment reads
        )
        # what remains is the row-pointer broadcasts
        nbrows = bit.block_rows_count
        assert overhead == (4 * (nbrows // 2) + 2 * (nbrows % 2)) * 32 * 4

    def test_sixteen_rows_per_warp(self, rng):
        dense = make_random_dense(rng, 64, 64, 0.2)
        bit = build_bitbsr(COOMatrix.from_dense(dense)).matrix
        _, stats = spaden_spmv_simulated(bit, fp16_exact_values(rng, 64))
        assert stats.warps_launched == 4  # 8 block rows, 2 per warp


class TestNonFiniteX:
    """What the twins guarantee for a NaN or inf in ``x``: they differ.

    The numeric twin multiplies stored entries only, so a non-finite
    ``x[c]`` reaches just the rows holding an entry in column ``c``.  The
    simulator's MMA also multiplies each block's zero padding by the
    block column's ``x`` segment, and 0 × inf and 0 × NaN are NaN, as on
    a tensor core, so every row of every block covering ``c`` turns NaN.
    """

    @staticmethod
    def _one_entry(value_dtype=np.float16):
        return BitBSRMatrix((8, 8), [0, 1], [0], [1], [2.0], value_dtype=value_dtype)

    @staticmethod
    def _one_entry_csr():
        return CSRMatrix((8, 8), np.array([0] + [1] * 8), np.array([0]), np.array([2.0]))

    @staticmethod
    def _x(column, value):
        x = np.zeros(8, dtype=np.float32)
        x[column] = value
        return x

    @pytest.mark.parametrize("value_dtype", [np.float16, np.float32], ids=["fp16", "tf32"])
    def test_numeric_twin_reaches_only_rows_with_an_entry(self, value_dtype):
        bitbsr = self._one_entry(value_dtype)
        y = spaden_spmv(bitbsr, self._x(0, np.nan))
        assert np.isnan(y[0]) and not y[1:].any()
        assert not spaden_spmv(bitbsr, self._x(3, np.inf)).any()

    @pytest.mark.parametrize("value_dtype", [np.float16, np.float32], ids=["fp16", "tf32"])
    @pytest.mark.parametrize("column,value", [(0, np.nan), (3, np.inf)])
    def test_simulator_spreads_to_every_row_of_the_block(self, column, value, value_dtype):
        y, _ = spaden_spmv_simulated(self._one_entry(value_dtype), self._x(column, value))
        assert np.isnan(y).all()

    def test_engine_degrades_through_the_chain_on_a_non_finite_y(self):
        with pytest.raises(ChainExhaustedError) as info:
            SpMVEngine("spaden").spmv(self._one_entry_csr(), self._x(0, np.nan))
        assert [(e.kernel, e.stage, e.cause) for e in info.value.events] == [
            (kernel, "check", "NumericalError")
            for kernel in ("spaden", "spaden-no-tc", "cusparse-csr", "csr-scalar")
        ]

    def test_engine_serves_zeros_for_inf_in_a_column_with_no_entry(self):
        engine = SpMVEngine("spaden")
        y = engine.spmv(self._one_entry_csr(), self._x(3, np.inf))
        assert y.tobytes() == np.zeros(8, dtype=np.float32).tobytes()
        assert engine.stats.degradations == 0
