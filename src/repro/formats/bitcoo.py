"""bitCOO — the bitmap-blocked COO variant sketched as future work (§7).

Identical block encoding to bitBSR (8x8 blocks, 64-bit bitmaps, packed
half-precision values) but block positions are stored as explicit
(block_row, block_col) coordinate pairs instead of a block-level CSR.
Useful when block rows are extremely skewed or when streaming blocks in
arbitrary order (e.g. out-of-core assembly).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.constants import BLOCK_DIM, BLOCK_SIZE
from repro.errors import (
    BitmapPopcountError,
    EmptyBlockError,
    FormatError,
    OffsetScanError,
    VerificationError,
)
from repro.formats.base import ArrayField, SparseMatrix, _dtype_matches, register_format
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.coo import COOMatrix
from repro.utils.bitops import popcount
from repro.utils.scan import exclusive_scan

__all__ = ["BitCOOMatrix"]

_U64 = np.uint64


@register_format
class BitCOOMatrix(SparseMatrix):
    """Bitmap-compressed blocks addressed by explicit block coordinates."""

    format_name = "bitcoo"

    def __init__(
        self,
        shape: tuple[int, int],
        block_rows: np.ndarray,
        block_cols: np.ndarray,
        bitmaps: np.ndarray,
        values: np.ndarray,
        value_dtype: np.dtype | type = np.float16,
    ):
        super().__init__(shape)
        self.block_dim = BLOCK_DIM
        brows = np.asarray(block_rows, dtype=np.int32)
        bcols = np.asarray(block_cols, dtype=np.int32)
        bitmaps = np.asarray(bitmaps, dtype=_U64)
        self.value_dtype = np.dtype(value_dtype)
        values = np.asarray(values, dtype=self.value_dtype)
        if not (brows.size == bcols.size == bitmaps.size):
            raise FormatError("block coordinate/bitmap arrays must align")
        if brows.size:
            if brows.min() < 0 or brows.max() >= self.block_rows_count:
                raise FormatError("block row out of range")
            if bcols.min() < 0 or bcols.max() >= self.block_cols_count:
                raise FormatError("block column out of range")
            if np.any(bitmaps == 0):
                raise FormatError("stored blocks must be non-empty")
        offsets = exclusive_scan(popcount(bitmaps).astype(np.int64))
        if int(offsets[-1]) != values.size:
            raise FormatError("bitmap popcounts disagree with value count")
        self.block_rows = brows
        self.block_cols = bcols
        self.bitmaps = bitmaps
        self.values = values
        self.block_offsets = offsets

    @property
    def block_rows_count(self) -> int:
        return -(-self.nrows // BLOCK_DIM)

    @property
    def block_cols_count(self) -> int:
        return -(-self.ncols // BLOCK_DIM)

    @property
    def nblocks(self) -> int:
        return int(self.bitmaps.size)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_coo(cls, coo: COOMatrix, value_dtype: np.dtype | type = np.float16) -> "BitCOOMatrix":
        bit = BitBSRMatrix.from_coo(coo, value_dtype=value_dtype)
        return cls.from_bitbsr(bit)

    def config_matches(self, **kwargs) -> bool:
        kwargs = dict(kwargs)
        value_dtype = kwargs.pop("value_dtype", None)
        if kwargs:
            return False
        return value_dtype is None or _dtype_matches(value_dtype, self.value_dtype)

    @classmethod
    def from_bitbsr(cls, bit: BitBSRMatrix) -> "BitCOOMatrix":
        return cls(
            bit.shape,
            bit.block_row_of().astype(np.int32),
            bit.block_cols.copy(),
            bit.bitmaps.copy(),
            bit.values.copy(),
            value_dtype=bit.value_dtype,
        )

    def tobitbsr(self) -> BitBSRMatrix:
        order = np.argsort(
            self.block_rows.astype(np.int64) * self.block_cols_count + self.block_cols,
            kind="stable",
        )
        counts = np.bincount(self.block_rows, minlength=self.block_rows_count)
        ptr = exclusive_scan(counts)
        # permute the packed values block-by-block to match the new order
        starts = self.block_offsets[:-1]
        lengths = np.diff(self.block_offsets)
        value_order = np.concatenate(
            [np.arange(starts[b], starts[b] + lengths[b]) for b in order]
        ) if self.nblocks else np.zeros(0, dtype=np.int64)
        return BitBSRMatrix(
            self.shape,
            ptr,
            self.block_cols[order],
            self.bitmaps[order],
            self.values[value_order],
            value_dtype=self.value_dtype,
        )

    def tocoo(self) -> COOMatrix:
        return self.tobitbsr().tocoo()

    # -- verification -----------------------------------------------------------
    def _verify_shallow(self) -> None:
        super()._verify_shallow()
        if not (self.block_rows.size == self.block_cols.size == self.bitmaps.size):
            raise FormatError("block coordinate/bitmap arrays must align")
        if self.block_offsets.size != self.nblocks + 1:
            raise OffsetScanError(
                f"bitcoo: block_offsets has {self.block_offsets.size} entries, "
                f"expected {self.nblocks + 1}",
                format_name=self.format_name, check="offset-frame",
            )

    def _verify_deep(self) -> None:
        at = lambda pos: (int(self.block_rows[pos]), int(self.block_cols[pos]))
        self._check_index_range(self.block_rows, self.block_rows_count, "block row", coords=at)
        self._check_index_range(self.block_cols, self.block_cols_count, "block column", coords=at)
        if self.nblocks:
            empty = self.bitmaps == 0
            if empty.any():
                block = int(np.argmax(empty))
                raise EmptyBlockError(
                    f"bitcoo: stored block {at(block)} has an all-zero bitmap",
                    format_name=self.format_name, check="empty-block", coord=at(block),
                )
            keys = self.block_rows.astype(np.int64) * self.block_cols_count + self.block_cols
            if np.unique(keys).size != keys.size:
                dup = int(np.argmax(np.diff(np.sort(keys)) == 0))
                raise VerificationError(
                    "bitcoo: duplicate block coordinates present",
                    format_name=self.format_name, check="duplicate-block", coord=(dup,),
                )
        counts = popcount(self.bitmaps).astype(np.int64)
        if int(counts.sum()) != self.values.size:
            raise BitmapPopcountError(
                f"bitcoo: popcount of bitmaps ({int(counts.sum())}) != "
                f"number of packed values ({self.values.size})",
                format_name=self.format_name, check="bitmap-popcount",
            )
        scanned = exclusive_scan(counts)
        if self.block_offsets.shape != scanned.shape or np.any(self.block_offsets != scanned):
            block = int(np.argmax(self.block_offsets != scanned))
            raise OffsetScanError(
                f"bitcoo: block_offsets diverges from the exclusive popcount scan at block {block}",
                format_name=self.format_name, check="offset-scan", coord=(block,),
            )
        self._check_finite(self.values, "packed values", coords=lambda pos: at(
            int(np.searchsorted(scanned, pos, side="right") - 1)
        ))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.tobitbsr().matvec(x)

    def storage_fields(self) -> Iterator[ArrayField]:
        yield self._field("block_rows", self.block_rows)
        yield self._field("block_cols", self.block_cols)
        yield self._field("bitmaps", self.bitmaps)
        yield ArrayField("block_offsets", self.nblocks * 4, "int32", self.nblocks)
        yield self._field("values", self.values)
