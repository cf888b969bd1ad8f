"""bitBSR — the paper's bitmap-compressed blocked format (§4.2, Fig. 4).

Each non-empty 8x8 block is described by:

* its position in a CSR over the block grid (``block_row_pointers`` +
  ``block_cols``),
* a 64-bit bitmap whose bit ``r * 8 + c`` marks element ``(r, c)`` of the
  block as nonzero (LSB = top-left, MSB = bottom-right),
* a slice of the packed ``values`` array holding only the true nonzeros in
  bit order; ``block_offsets`` (the exclusive scan of per-block nonzero
  counts) locates each block's slice.

Values are stored in half precision, matching the tensor-core input
operand.  The resulting footprint is ``2 B/nnz + 16 B/block``, which
reproduces the paper's measured 2.85 B/nnz average (Fig. 10b).

On the GPU, Algorithm 2 decodes each bitmap in registers as the warp
loads it, testing bits and ranking them with popcount.  The host twin
decodes by the byte instead (:func:`~repro.utils.bitops.expand_bitmap_rows`):
byte ``r`` of a bitmap is block row ``r``, so only the non-empty rows are
expanded, in O(nnz + 8 * nblocks) work and memory.  It decodes once per
matrix: :meth:`BitBSRMatrix.run_view` memoizes the per-entry coordinates
and rounded values on the first numeric run and freezes the storage
arrays, so the memo can never serve a stale ``y``.  The view is host
memory only; the device footprint above does not include it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.constants import BLOCK_DIM, BLOCK_SIZE
from repro.errors import (
    BitmapPopcountError,
    EmptyBlockError,
    FormatError,
    IndexRangeError,
    OffsetScanError,
)
from repro.formats.base import ArrayField, SparseMatrix, _dtype_matches, register_format
from repro.formats.bsr import BSRMatrix
from repro.formats.coo import COOMatrix
from repro.gpu.mma import Precision, round_inputs
from repro.utils.bitops import expand_bitmap_rows, popcount
from repro.utils.scan import exclusive_scan, segment_ids

__all__ = ["BitBSRMatrix", "RunView"]

_U64 = np.uint64
#: ``BLOCK_DIM == 1 << _DIM_BITS``: a coordinate's block is its value
#: shifted right by ``_DIM_BITS``, its place in the block its low bits.
_DIM_BITS = BLOCK_DIM.bit_length() - 1
_DIM_MASK = BLOCK_DIM - 1

#: The storage arrays a run view is decoded from (frozen once it exists).
_STORAGE = ("block_row_pointers", "block_cols", "bitmaps", "values", "block_offsets")


class RunView(NamedTuple):
    """Run-ready decode of a :class:`BitBSRMatrix` (see :meth:`~BitBSRMatrix.run_view`)."""

    #: Global row of every stored value, in storage order.
    rows: np.ndarray
    #: Global column of every stored value, in storage order.
    cols: np.ndarray
    #: The stored values as float32, rounded to the matrix's input precision.
    values: np.ndarray
    #: The storage arrays the view was decoded from.
    storage: tuple[np.ndarray, ...]


@register_format
class BitBSRMatrix(SparseMatrix):
    """The bitBSR format.  Block size is fixed at 8x8 (one 64-bit bitmap).

    ``value_dtype`` defaults to ``float16`` per the paper's mixed-precision
    pipeline; pass ``float32`` for exact-arithmetic experiments.
    """

    format_name = "bitbsr"

    #: Memoized :class:`RunView`; ``None`` until the first numeric run.
    _run_view: RunView | None = None

    def __init__(
        self,
        shape: tuple[int, int],
        block_row_pointers: np.ndarray,
        block_cols: np.ndarray,
        bitmaps: np.ndarray,
        values: np.ndarray,
        value_dtype: np.dtype | type = np.float16,
    ):
        super().__init__(shape)
        self.block_dim = BLOCK_DIM
        # private copies: building the run view freezes the storage, and
        # that must never reach an array the caller still holds
        ptr = np.array(block_row_pointers, dtype=np.int64)
        cols = np.array(block_cols, dtype=np.int32)
        bitmaps = np.array(bitmaps, dtype=_U64)
        self.value_dtype = np.dtype(value_dtype)
        if self.value_dtype not in (np.dtype(np.float16), np.dtype(np.float32)):
            raise FormatError("value_dtype must be float16 or float32")
        values = np.array(values, dtype=self.value_dtype)
        nbrows = self.block_rows_count
        if ptr.size != nbrows + 1 or ptr[0] != 0 or ptr[-1] != cols.size:
            raise FormatError("block_row_pointers inconsistent")
        if np.any(np.diff(ptr) < 0):
            raise FormatError("block_row_pointers must be non-decreasing")
        if bitmaps.size != cols.size:
            raise FormatError("one bitmap per stored block required")
        if cols.size and (cols.min() < 0 or cols.max() >= self.block_cols_count):
            raise FormatError("block column index out of range")
        if bitmaps.size and np.any(bitmaps == 0):
            raise FormatError("stored blocks must be non-empty (bitmap != 0)")
        counts = popcount(bitmaps).astype(np.int64)
        offsets = exclusive_scan(counts)
        if int(offsets[-1]) != values.size:
            raise FormatError(
                f"popcount of bitmaps ({int(offsets[-1])}) != number of values ({values.size})"
            )
        self.block_row_pointers = ptr
        self.block_cols = cols
        self.bitmaps = bitmaps
        self.values = values
        #: Exclusive scan of per-block nonzero counts (paper §4.2).
        self.block_offsets = offsets

    # -- geometry -----------------------------------------------------------
    @property
    def block_rows_count(self) -> int:
        return -(-self.nrows // BLOCK_DIM)

    @property
    def block_cols_count(self) -> int:
        return -(-self.ncols // BLOCK_DIM)

    @property
    def nblocks(self) -> int:
        return int(self.block_cols.size)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def block_row_of(self) -> np.ndarray:
        return segment_ids(self.block_row_pointers)

    def block_nnz(self) -> np.ndarray:
        """Per-block nonzero counts (popcount of each bitmap)."""
        return np.diff(self.block_offsets)

    @property
    def input_precision(self) -> Precision:
        """FP16 when values are stored half, else TF32 (the L40 FP32 path)."""
        return Precision.FP16 if self.value_dtype == np.float16 else Precision.TF32

    # -- conversion -----------------------------------------------------------
    @classmethod
    def _from_entries(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        value_dtype: np.dtype | type,
    ) -> "BitBSRMatrix":
        """Shared tail of :meth:`from_coo` and :meth:`from_csr`.

        ``rows``/``cols``/``values`` are the per-entry coordinates in
        canonical (row, col) order; both constructors reduce to this one
        sweep, so the two routes are bitwise-identical by construction.
        One stable argsort of the packed ``block * 64 + bit`` keys orders
        the values; blocks start where the sorted block key changes.  A
        duplicated entry sets its bit once but keeps both values, so the
        constructor's popcount check rejects it.
        """
        nbcols = -(-shape[1] // BLOCK_DIM)
        nbrows = -(-shape[0] // BLOCK_DIM)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        # block key * 64 + bit position, where the block key is
        # block_row * nbcols + block_col and the bit is local_row * 8 + local_col
        packed = (rows >> _DIM_BITS) * nbcols
        packed += cols >> _DIM_BITS
        packed <<= 2 * _DIM_BITS
        packed |= (rows & _DIM_MASK) << _DIM_BITS
        packed |= cols & _DIM_MASK
        # each temporary goes as soon as it is used: together these dels
        # lower the peak from about 50 to 36 B per entry
        del rows, cols
        # order entries by (block, bit position) so values pack in bit order
        order = np.argsort(packed, kind="stable")
        values_sorted = values[order]
        packed = packed[order]
        del order
        # a block starts wherever the sorted block key changes
        keys = packed >> 2 * _DIM_BITS
        new_block = np.empty(keys.size, dtype=bool)
        new_block[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new_block[1:])
        starts = np.flatnonzero(new_block)
        block_keys = keys[starts]
        del keys, new_block
        # bit positions are 0..63, so the int64 buffer is reused as uint64
        bits = np.bitwise_and(packed, BLOCK_SIZE - 1, out=packed).view(_U64)
        weights = np.left_shift(_U64(1), bits, out=bits)
        if starts.size:
            bitmaps = np.bitwise_or.reduceat(weights, starts)
        else:
            bitmaps = np.zeros(0, dtype=_U64)
        counts = np.bincount(block_keys // nbcols, minlength=nbrows)
        ptr = exclusive_scan(counts)
        return cls(shape, ptr, block_keys % nbcols, bitmaps, values_sorted, value_dtype=value_dtype)

    @classmethod
    def from_coo(cls, coo: COOMatrix, value_dtype: np.dtype | type = np.float16) -> "BitBSRMatrix":
        return cls._from_entries(coo.shape, coo.rows, coo.cols, coo.values, value_dtype)

    @classmethod
    def from_csr(cls, csr, value_dtype: np.dtype | type = np.float16) -> "BitBSRMatrix":
        """Direct one-pass CSR -> bitBSR conversion (no COO materialization).

        The classic single-sweep ``BSRMatrix(CSRMatrix&)`` idiom,
        vectorized: per-entry row ids come straight from
        ``row_pointers`` (a repeat/scan, no per-nnz Python work), block
        coordinates and bit positions from ``col_indices``, and the
        packing order from one stable argsort — skipping the COO
        round trip's array copies and canonical re-validation entirely.
        The result is bitwise-identical to
        ``from_coo(csr.tocoo(), value_dtype)``: both routes feed the
        same per-entry coordinates, in the same canonical order, through
        :meth:`_from_entries`.
        """
        rows = segment_ids(csr.row_pointers)
        return cls._from_entries(csr.shape, rows, csr.col_indices, csr.values, value_dtype)

    def config_matches(self, **kwargs) -> bool:
        kwargs = dict(kwargs)
        value_dtype = kwargs.pop("value_dtype", None)
        if kwargs:
            return False
        return value_dtype is None or _dtype_matches(value_dtype, self.value_dtype)

    @classmethod
    def from_bsr(cls, bsr: BSRMatrix, value_dtype: np.dtype | type = np.float16) -> "BitBSRMatrix":
        """Compress an existing BSR matrix (dropping its empty blocks)."""
        if bsr.block_dim != BLOCK_DIM:
            raise FormatError("bitBSR requires 8x8 blocks")
        flat = bsr.blocks.reshape(bsr.nblocks, BLOCK_SIZE)
        mask = flat != 0
        keep = mask.any(axis=1)
        weights = _U64(1) << np.arange(BLOCK_SIZE, dtype=_U64)
        bitmaps = np.where(mask[keep], weights, _U64(0)).reshape(-1, BLOCK_SIZE)
        bitmaps = np.bitwise_or.reduce(bitmaps, axis=1)
        values = flat[keep][mask[keep]].astype(value_dtype)
        brow = bsr.block_row_of()[keep]
        counts = np.bincount(brow, minlength=bsr.block_rows_count)
        ptr = exclusive_scan(counts)
        return cls(bsr.shape, ptr, bsr.block_cols[keep], bitmaps, values, value_dtype=value_dtype)

    def entry_coordinates(self, dtype: np.dtype | type = np.int64) -> tuple[np.ndarray, np.ndarray]:
        """Global (rows, cols) of every stored nonzero, in storage order.

        Decodes the bitmaps by the byte
        (:func:`~repro.utils.bitops.expand_bitmap_rows`): each non-empty
        block row gets its global row and column base once, in
        ``dtype``, and ``np.repeat`` spreads them over its set bits, so
        work and memory are O(nnz + 8 * nblocks) and a narrow ``dtype``
        is built without an int64 copy.  ``dtype`` must hold
        ``max(shape)``.
        """
        row_ids, counts, cols = expand_bitmap_rows(self.bitmaps)
        block = row_ids // BLOCK_DIM
        row = self.block_row_of()[block] * BLOCK_DIM + row_ids % BLOCK_DIM
        col_base = self.block_cols[block].astype(dtype, copy=False) * BLOCK_DIM
        entry_cols = np.repeat(col_base, counts)
        entry_cols += cols
        return np.repeat(row.astype(dtype, copy=False), counts), entry_cols

    # -- run view ---------------------------------------------------------------
    def _index_dtype(self) -> np.dtype:
        """The narrowest index type that holds every row and column."""
        for dtype in (np.uint16, np.int32):
            if max(self.shape) <= np.iinfo(dtype).max:
                return np.dtype(dtype)
        return np.dtype(np.int64)

    @property
    def run_view_nbytes(self) -> int:
        """Host bytes of :meth:`run_view`, known before it is built.

        A row and a column index plus a float32 value per stored entry:
        8 B/nnz while both dimensions fit in uint16, 12 B/nnz in int32,
        20 B/nnz beyond.
        """
        return self.nnz * (2 * self._index_dtype().itemsize + 4)

    def run_view(self) -> RunView:
        """The memoized run-ready decode the vectorized kernel runs on.

        The first call decodes the bitmaps once through
        :meth:`entry_coordinates`, straight into the narrowest index type
        that fits, and rounds the values to :attr:`input_precision`, all
        in storage order; later calls return the same view.  Building it
        freezes the five storage arrays, so an in-place write afterwards
        raises ``ValueError`` instead of leaving the view stale, and
        replacing a storage array makes the next call decode again.  The
        view is published by one assignment: threads racing on the first
        call may each decode, but none sees a partial view.

        The build checks once that every decoded row and column lies
        inside the shape, and raises :class:`~repro.errors.IndexRangeError`
        if one does not (naming the first set bit past the matrix edge);
        the view's own arrays are frozen too, so every later run may
        index with them unchecked.
        """
        storage = tuple(getattr(self, name) for name in _STORAGE)
        view = self._run_view
        if view is None or any(a is not b for a, b in zip(view.storage, storage)):
            for array in storage:
                array.flags.writeable = False
            rows, cols = self.entry_coordinates(self._index_dtype())
            if rows.size and not (
                rows.max() < self.nrows and cols.min() >= 0 and cols.max() < self.ncols
            ):
                self._check_edge_bits()  # names the first stray bit, if one is the cause
                raise IndexRangeError(
                    f"bitbsr: decoded entries fall outside the {self.nrows}x{self.ncols} matrix",
                    format_name=self.format_name, check="index-range",
                )
            values = round_inputs(self.values, self.input_precision)
            for array in (rows, cols, values):
                array.flags.writeable = False
            view = RunView(rows, cols, values, storage)
            self._run_view = view
        return view

    def __getstate__(self) -> dict:
        """Pickle and deep-copy the bitBSR storage only, writeable.

        The run view is derived data: dropping it keeps spilled operands
        at bitBSR bytes, and makes a corrupted copy (``corrupt()``, the
        chaos hooks) decode its own storage rather than serve the
        original's.  Frozen arrays travel as writeable copies, so a
        payload is byte-identical before and after the first run.
        """
        state = self.__dict__.copy()
        state.pop("_run_view", None)
        for name in _STORAGE:
            if not state[name].flags.writeable:
                state[name] = state[name].copy()
        return state

    def tocoo(self) -> COOMatrix:
        rows, cols = self.entry_coordinates()
        return COOMatrix(
            self.shape,
            rows.astype(np.int32),
            cols.astype(np.int32),
            self.values.astype(np.float32),
        )

    def tobsr(self) -> BSRMatrix:
        """Decompress back to dense-block BSR (the decode ground truth)."""
        blocks = np.zeros((self.nblocks, BLOCK_DIM, BLOCK_DIM), dtype=np.float32)
        row_ids, counts, cols = expand_bitmap_rows(self.bitmaps)
        # row ``block * 8 + r`` of this view is row ``r`` of stored block ``block``
        block_rows = blocks.reshape(-1, BLOCK_DIM)
        block_rows[np.repeat(row_ids, counts), cols] = self.values.astype(np.float32)
        return BSRMatrix(self.shape, self.block_row_pointers.copy(), self.block_cols.copy(), blocks, BLOCK_DIM)

    # -- computation -----------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference bitBSR SpMV: decode entry coordinates, then scatter-add."""
        x = self._check_matvec_operand(x)
        rows, cols = self.entry_coordinates()
        y = np.zeros(self.nrows, dtype=np.float64)
        np.add.at(y, rows, self.values.astype(np.float64) * x[cols])
        return y.astype(np.float32)

    # -- verification -----------------------------------------------------------
    def _verify_shallow(self) -> None:
        super()._verify_shallow()
        self._check_pointer_frame(
            self.block_row_pointers, self.block_rows_count, self.block_cols.size, "block_row_pointers"
        )
        if self.bitmaps.size != self.block_cols.size:
            raise FormatError("one bitmap per stored block required")
        if self.block_offsets.size != self.nblocks + 1:
            raise OffsetScanError(
                f"bitbsr: block_offsets has {self.block_offsets.size} entries, "
                f"expected {self.nblocks + 1}",
                format_name=self.format_name, check="offset-frame",
            )

    def _block_coord(self, block: int) -> tuple[int, int]:
        """(block_row, block_col) of stored block ``block``."""
        brow = int(np.searchsorted(self.block_row_pointers, block, side="right") - 1)
        return brow, int(self.block_cols[block])

    def _verify_deep(self) -> None:
        self._check_monotone(self.block_row_pointers, "block_row_pointers")
        self._check_index_range(
            self.block_cols, self.block_cols_count, "block column index",
            coords=self._block_coord,
        )
        if self.nblocks:
            empty = self.bitmaps == 0
            if empty.any():
                block = int(np.argmax(empty))
                raise EmptyBlockError(
                    f"bitbsr: stored block {self._block_coord(block)} has an all-zero bitmap",
                    format_name=self.format_name, check="empty-block",
                    coord=self._block_coord(block),
                )
        counts = popcount(self.bitmaps).astype(np.int64)
        if int(counts.sum()) != self.values.size:
            raise BitmapPopcountError(
                f"bitbsr: popcount of bitmaps ({int(counts.sum())}) != "
                f"number of packed values ({self.values.size})",
                format_name=self.format_name, check="bitmap-popcount",
            )
        scanned = exclusive_scan(counts)
        if self.block_offsets.shape != scanned.shape or np.any(self.block_offsets != scanned):
            block = int(np.argmax(self.block_offsets != scanned))
            raise OffsetScanError(
                f"bitbsr: block_offsets diverges from the exclusive popcount scan "
                f"at block {block} ({int(self.block_offsets[block])} != {int(scanned[block])})",
                format_name=self.format_name, check="offset-scan", coord=(block,),
            )
        self._check_edge_bits()
        # decode only to label a bad value: a clean matrix never pays for it
        self._check_finite(
            self.values, "packed values",
            coords=lambda pos: tuple(int(a[pos]) for a in self.entry_coordinates()),
        )

    def _check_edge_bits(self) -> None:
        """Raise :class:`IndexRangeError` at the first set bit past the matrix edge.

        Only the last block column and the last block row can hold such
        a bit, where ``ncols`` or ``nrows`` is not a multiple of 8, so
        one mask per stored block finds it without decoding.
        """
        pad_cols = -self.ncols % BLOCK_DIM
        pad_rows = -self.nrows % BLOCK_DIM
        col_mask = sum(1 << b for b in range(BLOCK_SIZE) if b % BLOCK_DIM >= BLOCK_DIM - pad_cols)
        row_mask = sum(1 << b for b in range(BLOCK_SIZE) if b // BLOCK_DIM >= BLOCK_DIM - pad_rows)
        if not self.nblocks or not (col_mask or row_mask):
            return
        mask = np.where(self.block_cols == self.block_cols_count - 1, _U64(col_mask), _U64(0))
        mask |= np.where(self.block_row_of() == self.block_rows_count - 1, _U64(row_mask), _U64(0))
        stray = self.bitmaps & mask
        if stray.any():
            block = int(np.flatnonzero(stray)[0])
            word = int(stray[block])
            bit = (word & -word).bit_length() - 1  # the lowest stray bit comes first
            brow, bcol = self._block_coord(block)
            coord = (brow * BLOCK_DIM + bit // BLOCK_DIM, bcol * BLOCK_DIM + bit % BLOCK_DIM)
            raise IndexRangeError(
                f"bitbsr: set bit at {coord} lies outside the "
                f"{self.nrows}x{self.ncols} matrix (block {block}, bit {bit})",
                format_name=self.format_name, check="index-range", coord=coord,
            )

    # -- analysis / accounting ----------------------------------------------------
    def compression_rate_vs_coo(self) -> np.ndarray:
        """Per-block positional compression vs 32-bit COO indices (§4.2).

        A block with k nonzeros costs 64 bits as a bitmap versus
        ``k * (32 + 32)`` bits as COO (row + col index, 32-bit each), so
        the rate ``sizeof(COO) / sizeof(bitmap)`` equals k and ranges over
        [1, 64] exactly as §4.2 states.
        """
        k = self.block_nnz().astype(np.float64)
        return k * (2 * 32) / 64.0

    def storage_fields(self) -> Iterator[ArrayField]:
        nptr = self.block_rows_count + 1
        yield ArrayField("block_row_pointers", nptr * 4, "int32", nptr)
        yield self._field("block_cols", self.block_cols)
        yield self._field("bitmaps", self.bitmaps)
        yield ArrayField("block_offsets", self.nblocks * 4, "int32", self.nblocks)
        yield self._field("values", self.values)
