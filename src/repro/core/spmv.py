"""Public Spaden SpMV entry points.

Two execution paths share the same semantics for every finite ``x``:

* :func:`spaden_spmv_simulated` drives the lane-accurate simulator —
  every bitmap test, register write, MMA and predicated store happens
  per-lane through :mod:`repro.gpu`.  This is the ground truth for the
  algorithm and the source of exact traffic counters, but it is a Python
  loop over warps, so use it for verification-scale matrices.
* :func:`spaden_spmv_many` is the vectorized NumPy equivalent
  (identical arithmetic) used for full-scale benchmarking, and
  :func:`spaden_spmv` its one-vector case.  It runs on the matrix's
  memoized :meth:`~repro.formats.bitbsr.BitBSRMatrix.run_view`, so the
  bitmaps are decoded once per matrix, not once per call.  A batch
  walks the view in cache-sized chunks of whole block rows, as a warp
  streams its pair of block rows once: each chunk's indices are
  converted once and reused by every vector, and the buffers, allocated
  once per call, are sized by the largest chunk instead of by nnz.

Both honor the mixed-precision pipeline: bitBSR stores half-precision
values, fragment B receives a half-precision x, products accumulate in
float32.

A NaN or inf in ``x`` is where they part.  The simulator's MMA
multiplies each block's zero padding by the block column's ``x``
segment, as a tensor core does, and 0 × inf and 0 × NaN are NaN, so a
non-finite ``x[c]`` turns every row of every block covering column ``c``
to NaN.  The vectorized path multiplies stored entries only, so it
reaches just the rows holding an entry in column ``c``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import BLOCK_DIM
from repro.errors import KernelError
from repro.formats.bitbsr import BitBSRMatrix
from repro.gpu.counters import ExecutionStats
from repro.gpu.memory import GlobalMemory
from repro.gpu.mma import MMAUnit, Precision, round_inputs
from repro.gpu.warp import Warp
from repro.core.extract import extract_result_vector
from repro.core.pairing import pair_block_rows

__all__ = [
    "spaden_spmv",
    "spaden_spmv_many",
    "spaden_spmv_simulated",
    "spaden_spmv_simulated_many",
    "register_bitbsr_arrays",
]


def register_bitbsr_arrays(
    memory: GlobalMemory, bitbsr: BitBSRMatrix, x: np.ndarray
) -> None:
    """Place all Spaden operands into simulated global memory.

    The x vector is padded to a whole number of 8-element segments and
    stored in the matrix's value precision (it feeds fragment B); the
    output is padded likewise and stored in float32.
    """
    memory.register("block_row_pointers", bitbsr.block_row_pointers.astype(np.int32))
    memory.register("block_cols", bitbsr.block_cols)
    memory.register("bitmaps", bitbsr.bitmaps)
    memory.register("block_offsets", bitbsr.block_offsets.astype(np.int32))
    memory.register("A_values", bitbsr.values)
    xpad = np.zeros(bitbsr.block_cols_count * BLOCK_DIM, dtype=bitbsr.value_dtype)
    xpad[: x.size] = x.astype(bitbsr.value_dtype)
    memory.register("B_values", xpad)
    memory.register(
        "C_values", np.zeros(bitbsr.block_rows_count * BLOCK_DIM, dtype=np.float32)
    )


def spaden_spmv_simulated(
    bitbsr: BitBSRMatrix,
    x: np.ndarray,
    precision: Precision | None = None,
    check_overflow: bool = False,
) -> tuple[np.ndarray, ExecutionStats]:
    """Run Spaden end-to-end on the simulator; returns (y, exact stats).

    One warp per pair of consecutive block rows (Fig. 5); the final warp
    of an odd-height matrix leaves its bottom-right portion empty.  With
    ``check_overflow`` the MMA unit raises
    :class:`~repro.errors.NumericalError` (with the lane/register
    coordinate) as soon as an accumulator register goes non-finite.  A
    set bit past the matrix edge raises
    :class:`~repro.errors.IndexRangeError` before any warp runs, as the
    numeric twin does.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != bitbsr.ncols:
        raise KernelError(f"x has shape {x.shape}, expected ({bitbsr.ncols},)")
    bitbsr._check_edge_bits()
    if precision is None:
        precision = bitbsr.input_precision
    memory = GlobalMemory()
    register_bitbsr_arrays(memory, bitbsr, x)

    nbrows = bitbsr.block_rows_count
    for top in range(0, nbrows, 2):
        bottom = top + 1 if top + 1 < nbrows else None
        warp = Warp(memory, warp_id=top // 2)
        mma_unit = MMAUnit(precision, stats=memory.stats, check_overflow=check_overflow)
        acc = pair_block_rows(warp, mma_unit, bitbsr, top, bottom)
        extract_result_vector(warp, acc, top, bottom)

    y = memory.array("C_values")[: bitbsr.nrows].copy()
    return y, memory.stats


def spaden_spmv(
    bitbsr: BitBSRMatrix,
    x: np.ndarray,
    precision: Precision | None = None,
) -> np.ndarray:
    """Vectorized Spaden SpMV with tensor-core arithmetic semantics.

    For a finite ``x``, mathematically identical to
    :func:`spaden_spmv_simulated`: values and the x operand are rounded
    to the input precision, every product is a float32 multiply, and
    per-row sums accumulate in float32-or-wider.  A NaN or inf in ``x``
    reaches only the rows holding an entry in its column, where the
    simulator spreads it to every row of the blocks covering that column
    (see the module docstring).  It is :func:`spaden_spmv_many` on a
    batch of one.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != bitbsr.ncols:
        raise KernelError(f"x has shape {x.shape}, expected ({bitbsr.ncols},)")
    return spaden_spmv_many(bitbsr, x[None, :], precision)[0]


def _check_batch(X: np.ndarray, ncols: int) -> np.ndarray:
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != ncols:
        raise KernelError(f"X has shape {X.shape}, expected (k, {ncols})")
    return X


#: Entries per chunk of a multi-vector call.  A chunk is whole block
#: rows, so its buffers (28 B per entry) stay about L2-sized.
CHUNK_ENTRIES = 1 << 15


def _chunks(bitbsr: BitBSRMatrix, target: int) -> tuple[list[int], list[int]]:
    """Block-row bounds and entry offsets of chunks of about ``target`` entries.

    Chunk ``i`` is block rows ``bounds[i]:bounds[i + 1]``, which hold
    entries ``offsets[i]:offsets[i + 1]`` of the run view.  Each chunk
    takes as many whole block rows as fit in ``target`` entries; a block
    row holding more than ``target`` entries is a chunk of its own.
    """
    # entry offset of the first entry of every block row, then nnz
    starts = bitbsr.block_offsets[bitbsr.block_row_pointers]
    nbrows = starts.size - 1
    bounds = [0]
    while bounds[-1] < nbrows:
        b0 = bounds[-1]
        b1 = int(np.searchsorted(starts, starts[b0] + target, side="right")) - 1
        bounds.append(max(b1, b0 + 1))
    return bounds, starts[bounds].tolist()


def spaden_spmv_many(
    bitbsr: BitBSRMatrix,
    X: np.ndarray,
    precision: Precision | None = None,
) -> np.ndarray:
    """Batched Spaden SpMV: a gather-multiply-``bincount`` per vector and chunk.

    ``X`` holds ``k`` input vectors as rows, and row ``j`` of the result
    is ``spaden_spmv(bitbsr, X[j])``, so it matches the simulator's row
    ``j`` only where ``X[j]`` is finite.  Every vector runs on the matrix's
    run view, so the bitmap decode is paid once per matrix; a
    ``precision`` other than the matrix's own reuses the view's
    coordinates and rounds the stored values once per call.  Each vector
    is rounded once per call.

    With ``k >= 2`` and more than :data:`CHUNK_ENTRIES` entries, the view
    is walked in chunks of whole block rows, about ``CHUNK_ENTRIES``
    entries each.  A chunk's rows (less its first row) and columns are
    converted to ``intp`` once, and every vector's gather, product,
    float64 copy and ``bincount`` then run on that cache-sized chunk.
    The buffers are allocated once per call, as one block sized to the
    largest chunk (28 B per entry), so beyond ``Y`` and the rounded
    ``X`` a batch's memory does not grow with nnz.  One vector has
    nothing to amortize per-chunk calls over: it runs the whole view as
    one chunk, with a 20 B/entry block, and ``np.take`` converts its
    columns.

    A row's entries never leave its block row and keep their storage
    order inside a chunk, so each row adds the same float64 products in
    the same order whatever the chunking, and ``Y`` does not depend on
    it.
    """
    X = _check_batch(X, bitbsr.ncols)
    view = bitbsr.run_view()
    vals = view.values
    if precision is None:
        precision = bitbsr.input_precision
    elif precision is not bitbsr.input_precision:
        vals = round_inputs(bitbsr.values, precision)
    k = X.shape[0]
    XF = round_inputs(X.astype(np.float32, copy=False), precision)
    Y = np.empty((k, bitbsr.nrows), dtype=np.float32)
    if k >= 2 and vals.size > CHUNK_ENTRIES:
        bounds, offsets = _chunks(bitbsr, CHUNK_ENTRIES)
    else:
        bounds, offsets = [0, bitbsr.block_rows_count], [0, vals.size]
    size = max(e1 - e0 for e0, e1 in zip(offsets, offsets[1:]))
    # One block, cut into float64 weights, intp rows, intp columns and
    # float32 products.  A lone vector has no column buffer: np.take
    # converts its columns, and a separate copy measured slower.
    index_bytes = np.dtype(np.intp).itemsize * size
    cols_at = 8 * size + index_bytes
    products_at = cols_at + (index_bytes if k >= 2 else 0)
    block = np.empty(products_at + 4 * size, dtype=np.uint8)
    # lint: ignore[fp64-upcast] -- np.bincount only takes float64 weights;
    # products are already rounded to the input precision grid
    weights_all = block[: 8 * size].view(np.float64)
    rows_all = block[8 * size : cols_at].view(np.intp)
    cols_all = block[cols_at:products_at].view(np.intp)
    products_all = block[products_at:].view(np.float32)
    for b0, b1, e0, e1 in zip(bounds, bounds[1:], offsets, offsets[1:]):
        n = e1 - e0
        r0 = b0 * BLOCK_DIM
        r1 = min(b1 * BLOCK_DIM, bitbsr.nrows)
        weights, rows, products = weights_all[:n], rows_all[:n], products_all[:n]
        np.copyto(rows, view.rows[e0:e1])
        if r0:
            rows -= r0
        cols = view.cols[e0:e1]
        if k >= 2:
            np.copyto(cols_all[:n], cols)
            cols = cols_all[:n]
        chunk_vals = vals[e0:e1]
        for j in range(k):
            # the run view checked its columns once, so no index clips
            # and "clip" only skips numpy's buffered copy of ``out``
            np.take(XF[j], cols, out=products, mode="clip")
            np.multiply(chunk_vals, products, out=products)
            np.copyto(weights, products)
            Y[j, r0:r1] = np.bincount(rows, weights=weights, minlength=r1 - r0)
    return Y


def spaden_spmv_simulated_many(
    bitbsr: BitBSRMatrix,
    X: np.ndarray,
    precision: Precision | None = None,
    check_overflow: bool = False,
) -> tuple[np.ndarray, ExecutionStats]:
    """Run a batch through the lane-accurate simulator; returns (Y, stats).

    The batch is processed *per warp*: the outer loop walks block-row
    pairs exactly as :func:`spaden_spmv_simulated` does, and each warp
    replays its Algorithm 2-4 work once per vector (each vector owns its
    own simulated global memory, so the sanitizer's race detection and
    the coalescing counters see ``k`` well-formed executions).  The
    merged counters are therefore exactly ``k`` times the single-vector
    counters — the analytic-profile identity extends to batches by
    multiplication.
    """
    X = _check_batch(X, bitbsr.ncols)
    bitbsr._check_edge_bits()
    if precision is None:
        precision = bitbsr.input_precision
    k = X.shape[0]
    memories = []
    for j in range(k):
        memory = GlobalMemory()
        register_bitbsr_arrays(memory, bitbsr, X[j])
        memories.append(memory)

    nbrows = bitbsr.block_rows_count
    for top in range(0, nbrows, 2):
        bottom = top + 1 if top + 1 < nbrows else None
        for memory in memories:
            warp = Warp(memory, warp_id=top // 2)
            mma_unit = MMAUnit(
                precision, stats=memory.stats, check_overflow=check_overflow
            )
            acc = pair_block_rows(warp, mma_unit, bitbsr, top, bottom)
            extract_result_vector(warp, acc, top, bottom)

    Y = np.zeros((k, bitbsr.nrows), dtype=np.float32)
    stats = ExecutionStats()
    for j, memory in enumerate(memories):
        Y[j] = memory.array("C_values")[: bitbsr.nrows]
        stats.merge(memory.stats)
    return Y, stats
