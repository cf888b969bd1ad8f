"""The tensor-core MMA unit: ``D = A @ B + C`` on 16x16x16 fragments.

Supports the three input precisions relevant to the paper's hardware:

* ``FP16``  — inputs rounded to half precision, FP32 accumulate (V100's
  native mode and the paper's storage precision),
* ``TF32``  — inputs truncated to a 10-bit mantissa, FP32 accumulate
  (L40 / Ampere+ default for FP32 data),
* ``FP32``  — exact single-precision reference (for correctness tests).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.constants import FRAGMENT_DIM
from repro.errors import NumericalError, SimulationError
from repro.gpu.counters import ExecutionStats
from repro.gpu.fragment import Fragment, FragmentKind, element_owner

__all__ = ["Precision", "to_tf32", "round_inputs", "MMAUnit"]


class Precision(enum.Enum):
    """Input rounding applied by the MMA unit (accumulation is FP32)."""

    FP16 = "fp16"
    TF32 = "tf32"
    FP32 = "fp32"


def to_tf32(x: np.ndarray) -> np.ndarray:
    """Round float32 values to TF32 (8-bit exponent, 10-bit mantissa).

    Implemented as round-to-nearest-even on the low 13 mantissa bits,
    which matches Ampere's conversion behaviour.  A NaN stays a NaN: the
    rounding carry would run through its payload into the exponent and
    sign, so it keeps its high bits with the quiet bit set instead.
    """
    bits = np.asarray(x, dtype=np.float32).view(np.uint32)
    # round to nearest even at bit 13
    round_bit = np.uint32(1 << 12)
    lsb = (bits >> np.uint32(13)) & np.uint32(1)
    rounded = bits + round_bit - np.uint32(1) + lsb
    nan = (bits & np.uint32(0x7FFFFFFF)) > np.uint32(0x7F800000)
    rounded = np.where(nan, bits | np.uint32(0x00400000), rounded)
    return (rounded & np.uint32(0xFFFFE000)).view(np.float32).copy()


def round_inputs(matrix: np.ndarray, precision: Precision) -> np.ndarray:
    """``matrix`` as float32 on the input grid of ``precision``."""
    if precision is Precision.FP16:
        return matrix.astype(np.float16).astype(np.float32)
    if precision is Precision.TF32:
        return to_tf32(matrix.astype(np.float32))
    return matrix.astype(np.float32)


class MMAUnit:
    """One tensor core executing warp-synchronous MMA operations."""

    def __init__(
        self,
        precision: Precision = Precision.FP16,
        stats: ExecutionStats | None = None,
        check_overflow: bool = False,
    ):
        self.precision = precision
        self.stats = stats if stats is not None else ExecutionStats()
        #: When True, an accumulator register that leaves the finite range
        #: (fp16 input saturation, fp32 accumulation overflow) raises
        #: :class:`~repro.errors.NumericalError` instead of silently
        #: propagating Inf/NaN into y.  The robustness dispatcher enables
        #: this on the simulated path to trigger precision fallback.
        self.check_overflow = check_overflow

    def mma(self, a: Fragment, b: Fragment, c: Fragment) -> Fragment:
        """``wmma::mma_sync``: D = A @ B + C, returning a new accumulator.

        Inputs are rounded to the unit's precision; products are summed in
        float32 exactly as the hardware's FP32 accumulator does.
        """
        if a.kind is not FragmentKind.MATRIX_A:
            raise SimulationError("first operand must be a MATRIX_A fragment")
        if b.kind is not FragmentKind.MATRIX_B:
            raise SimulationError("second operand must be a MATRIX_B fragment")
        if c.kind is not FragmentKind.ACCUMULATOR:
            raise SimulationError("third operand must be an ACCUMULATOR fragment")
        am = round_inputs(a.to_matrix().astype(np.float32), self.precision)
        bm = round_inputs(b.to_matrix().astype(np.float32), self.precision)
        cm = c.to_matrix().astype(np.float32)
        # hardware propagates Inf/NaN silently; the explicit overflow
        # check below replaces numpy's warning
        with np.errstate(invalid="ignore", over="ignore"):
            dm = (am @ bm + cm).astype(np.float32)
        if self.check_overflow and not np.isfinite(dm).all():
            row, col = (int(v) for v in np.argwhere(~np.isfinite(dm))[0])
            lane, register = element_owner(FragmentKind.ACCUMULATOR, row, col)
            raise NumericalError(
                f"MMA accumulator overflow: element ({row}, {col}) = {dm[row, col]!r} "
                f"(lane {lane}, register x[{register}]) left the finite "
                f"{self.precision.value} / fp32-accumulate range"
            )
        d = Fragment(FragmentKind.ACCUMULATOR, np.float32)
        d.load_matrix(dm)
        self.stats.mma_ops += 1
        self.stats.warp_instructions += 1
        return d

    def matmul_dense(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Tile a dense matmul onto 16x16x16 MMAs (utility for SpMM tests).

        Shapes must be multiples of 16.
        """
        m, k = a.shape
        k2, n = b.shape
        if k != k2 or m % FRAGMENT_DIM or n % FRAGMENT_DIM or k % FRAGMENT_DIM:
            raise SimulationError("matmul_dense requires 16-aligned shapes")
        out = np.zeros((m, n), dtype=np.float32)
        for i in range(0, m, FRAGMENT_DIM):
            for j in range(0, n, FRAGMENT_DIM):
                acc = Fragment(FragmentKind.ACCUMULATOR, np.float32)
                for p in range(0, k, FRAGMENT_DIM):
                    fa = Fragment(FragmentKind.MATRIX_A, np.float32)
                    fb = Fragment(FragmentKind.MATRIX_B, np.float32)
                    fa.load_matrix(a[i : i + 16, p : p + 16])
                    fb.load_matrix(b[p : p + 16, j : j + 16])
                    acc = self.mma(fa, fb, acc)
                out[i : i + 16, j : j + 16] = acc.to_matrix()
        return out
