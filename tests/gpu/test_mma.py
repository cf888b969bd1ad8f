"""MMA unit semantics: shapes, precisions, accumulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spmv import spaden_spmv, spaden_spmv_simulated
from repro.errors import SimulationError
from repro.formats.bitbsr import BitBSRMatrix
from repro.gpu.counters import ExecutionStats
from repro.gpu.fragment import Fragment, FragmentKind
from repro.gpu.mma import MMAUnit, Precision, to_tf32


def frags(a_matrix, b_matrix, c_matrix=None):
    a = Fragment(FragmentKind.MATRIX_A)
    b = Fragment(FragmentKind.MATRIX_B)
    c = Fragment(FragmentKind.ACCUMULATOR)
    a.load_matrix(a_matrix)
    b.load_matrix(b_matrix)
    if c_matrix is not None:
        c.load_matrix(c_matrix)
    return a, b, c


class TestMMA:
    def test_fp32_matches_numpy(self, rng):
        A = rng.standard_normal((16, 16)).astype(np.float32)
        B = rng.standard_normal((16, 16)).astype(np.float32)
        C = rng.standard_normal((16, 16)).astype(np.float32)
        d = MMAUnit(Precision.FP32).mma(*frags(A, B, C))
        assert np.allclose(d.to_matrix(), A @ B + C, atol=1e-4)

    def test_fp16_rounds_inputs(self, rng):
        A = rng.standard_normal((16, 16)).astype(np.float32)
        B = rng.standard_normal((16, 16)).astype(np.float32)
        d = MMAUnit(Precision.FP16).mma(*frags(A, B))
        ref = A.astype(np.float16).astype(np.float32) @ B.astype(np.float16).astype(np.float32)
        assert np.allclose(d.to_matrix(), ref, atol=1e-4)

    def test_fp16_exact_values_give_exact_result(self, rng):
        A = rng.integers(-8, 8, (16, 16)).astype(np.float32)
        B = rng.integers(-8, 8, (16, 16)).astype(np.float32)
        d = MMAUnit(Precision.FP16).mma(*frags(A, B))
        assert np.array_equal(d.to_matrix(), (A @ B).astype(np.float32))

    def test_operand_kind_enforced(self):
        a = Fragment(FragmentKind.MATRIX_A)
        b = Fragment(FragmentKind.MATRIX_B)
        c = Fragment(FragmentKind.ACCUMULATOR)
        unit = MMAUnit()
        with pytest.raises(SimulationError):
            unit.mma(b, b, c)
        with pytest.raises(SimulationError):
            unit.mma(a, a, c)
        with pytest.raises(SimulationError):
            unit.mma(a, b, a)

    def test_counts_ops(self):
        stats = ExecutionStats()
        unit = MMAUnit(Precision.FP32, stats=stats)
        unit.mma(*frags(np.eye(16, dtype=np.float32), np.eye(16, dtype=np.float32)))
        assert stats.mma_ops == 1

    def test_accumulation_chains(self, rng):
        """C += A_i @ B_i over several iterations (Algorithm 3's loop)."""
        unit = MMAUnit(Precision.FP32)
        acc = Fragment(FragmentKind.ACCUMULATOR)
        total = np.zeros((16, 16), dtype=np.float32)
        for i in range(4):
            A = rng.integers(-4, 4, (16, 16)).astype(np.float32)
            B = rng.integers(-4, 4, (16, 16)).astype(np.float32)
            a, b, _ = frags(A, B)
            acc = unit.mma(a, b, acc)
            total = total + A @ B
        assert np.allclose(acc.to_matrix(), total)

    def test_matmul_dense_tiling(self, rng):
        A = rng.integers(-4, 4, (32, 48)).astype(np.float32)
        B = rng.integers(-4, 4, (48, 16)).astype(np.float32)
        unit = MMAUnit(Precision.FP32)
        assert np.allclose(unit.matmul_dense(A, B), A @ B)
        assert unit.stats.mma_ops == (32 // 16) * (16 // 16) * (48 // 16)

    def test_matmul_dense_rejects_unaligned(self):
        with pytest.raises(SimulationError):
            MMAUnit().matmul_dense(np.zeros((10, 16)), np.zeros((16, 16)))


class TestTF32:
    def test_keeps_10_mantissa_bits(self):
        assert to_tf32(np.float32(1.0)) == 1.0
        # 1 + 2^-11 rounds away under a 10-bit mantissa
        assert to_tf32(np.float32(1.0 + 2**-11)) in (1.0, np.float32(1.0 + 2**-10))

    def test_idempotent(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        once = to_tf32(x)
        assert np.array_equal(to_tf32(once), once)

    @given(
        st.floats(
            min_value=np.float32(-1e20),
            max_value=np.float32(1e20),
            width=32,
            allow_nan=False,
        )
    )
    def test_relative_error_bounded(self, value):
        out = float(to_tf32(np.float32(value)))
        # subnormals lose relative precision under mantissa truncation,
        # exactly as on hardware
        if abs(value) >= 2**-126:
            assert abs(out - value) <= abs(value) * 2**-10

    def test_exactly_representable_fixed(self):
        for v in (0.0, 0.5, -2.0, 1024.0, 0.375):
            assert to_tf32(np.float32(v)) == v

    def test_nan_stays_nan_and_every_other_pattern_is_unchanged(self):
        # a stride of all 2^32 float32 patterns, plus NaNs whose rounding
        # carry used to reach the exponent (+inf, -0.0, +0.0)
        bits = np.concatenate(
            [
                np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32),
                np.array([0x7F800001, 0x7FFFF000, 0xFFFFFFFF, 0xFF800FFF], np.uint32),
            ]
        )
        out = to_tf32(bits.view(np.float32)).view(np.uint32)
        nan = np.isnan(bits.view(np.float32))
        assert nan.sum() > 1000
        assert np.isnan(out[nan].view(np.float32)).all()
        assert np.array_equal(out[nan] >> 31, bits[nan] >> 31)  # sign kept
        # every other pattern: round-to-nearest-even at bit 13, in 64 bits
        wide = bits[~nan].astype(np.uint64)
        expected = (wide + 0xFFF + ((wide >> 13) & 1)) & 0xFFFFE000
        assert np.array_equal(out[~nan], expected.astype(np.uint32))
        assert not (out & 0x1FFF).any()  # all on the TF32 grid

    @pytest.mark.parametrize(
        "twin",
        [spaden_spmv, lambda m, x: spaden_spmv_simulated(m, x)[0]],
        ids=["numeric", "simulated"],
    )
    def test_nan_in_x_reaches_y(self, twin):
        matrix = BitBSRMatrix((8, 8), [0, 1], [0], [1], [2.0], value_dtype=np.float32)
        x = np.ones(8, np.float32)
        x.view(np.uint32)[0] = 0x7FFFF000  # rounded to -0.0 before the fix
        assert np.isnan(twin(matrix, x)[0])
