"""SDDMM on bitBSR — the second §7 extension.

Sampled Dense-Dense Matrix Multiplication:
``Z = S ⊙ (U @ V^T)`` where S is the sparsity *pattern* of a bitBSR
matrix and U, V are dense factor matrices.  On tensor cores, each 8x8
block tile of ``U_seg @ V_seg^T`` is computed densely and the bitmap
masks which of the 64 results are kept — the bitmap serves as the output
selector exactly as it serves as the input selector in SpMV.

Returns a bitBSR matrix with the same pattern and the sampled products
as values.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.formats.bitbsr import BitBSRMatrix
from repro.gpu.mma import Precision, to_tf32

__all__ = ["spaden_sddmm"]


def spaden_sddmm(
    pattern: BitBSRMatrix,
    u: np.ndarray,
    v: np.ndarray,
    precision: Precision | None = None,
) -> BitBSRMatrix:
    """Compute ``Z = pattern ⊙ (U @ V^T)`` on the bitBSR pattern.

    ``u`` has shape (nrows, k) and ``v`` (ncols, k).  The result reuses
    the pattern's block structure; only positions whose bit is set are
    computed and stored.
    """
    U = np.asarray(u)
    V = np.asarray(v)
    if U.ndim != 2 or U.shape[0] != pattern.nrows:
        raise KernelError(f"U has shape {U.shape}, expected ({pattern.nrows}, k)")
    if V.ndim != 2 or V.shape[0] != pattern.ncols or V.shape[1] != U.shape[1]:
        raise KernelError(f"V has shape {V.shape}, expected ({pattern.ncols}, {U.shape[1]})")
    if precision is None:
        precision = Precision.FP16 if pattern.value_dtype == np.float16 else Precision.TF32

    def rounded(a: np.ndarray) -> np.ndarray:
        a = a.astype(np.float32)
        if precision is Precision.FP16:
            return a.astype(np.float16).astype(np.float32)
        if precision is Precision.TF32:
            return to_tf32(a)
        return a

    rows, cols = pattern.entry_coordinates()
    Ur = rounded(U)
    Vr = rounded(V)
    # lint: ignore[fp64-upcast] -- operands are already rounded to the input
    # precision; fp64 here only makes the reduction order-insensitive
    products = np.einsum("ek,ek->e", Ur[rows].astype(np.float64), Vr[cols].astype(np.float64))
    return BitBSRMatrix(
        pattern.shape,
        pattern.block_row_pointers,
        pattern.block_cols,
        pattern.bitmaps,
        products.astype(pattern.value_dtype),
        value_dtype=pattern.value_dtype,
    )
