"""Coordinate (COO) format — the canonical interchange representation."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import FormatError, VerificationError
from repro.formats.base import ArrayField, SparseMatrix, register_format
from repro.utils.validation import ensure_1d, ensure_dtype, ensure_nonnegative

__all__ = ["COOMatrix"]


@register_format
class COOMatrix(SparseMatrix):
    """COO: parallel ``rows`` / ``cols`` / ``values`` arrays.

    Instances are always *canonical*: entries sorted by (row, col),
    duplicates summed, explicit zeros dropped.  Every other format round-
    trips through this class, so canonicalization here guarantees that
    format conversions commute.
    """

    format_name = "coo"

    def __init__(
        self,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        *,
        canonical: bool = False,
    ):
        super().__init__(shape)
        rows = ensure_dtype(ensure_1d(rows, "rows"), np.int32, "rows")
        cols = ensure_dtype(ensure_1d(cols, "cols"), np.int32, "cols")
        values = ensure_dtype(ensure_1d(values, "values"), np.float32, "values")
        if not (rows.size == cols.size == values.size):
            raise FormatError("rows, cols and values must have equal length")
        ensure_nonnegative(rows, "rows")
        ensure_nonnegative(cols, "cols")
        if rows.size:
            if rows.max() >= self.nrows:
                raise FormatError("row index out of range")
            if cols.max() >= self.ncols:
                raise FormatError("column index out of range")
        if not canonical:
            rows, cols, values = _canonicalize(self.shape, rows, cols, values)
        self.rows = rows
        self.cols = cols
        self.values = values

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Extract the nonzero pattern of a dense array."""
        d = np.asarray(dense)
        if d.ndim != 2:
            raise FormatError("dense input must be 2-D")
        r, c = np.nonzero(d)
        return cls(d.shape, r.astype(np.int32), c.astype(np.int32), d[r, c].astype(np.float32), canonical=True)

    @classmethod
    def from_coo(cls, coo: "COOMatrix") -> "COOMatrix":
        return coo

    def tocoo(self) -> "COOMatrix":
        return self

    # -- interface -----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def todense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float32)
        # duplicates were summed at construction, so plain assignment is safe
        out[self.rows, self.cols] = self.values
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = self._check_matvec_operand(x)
        y = np.zeros(self.nrows, dtype=np.float32)
        np.add.at(y, self.rows, self.values * x[self.cols])
        return y

    # -- verification -----------------------------------------------------------
    def _verify_shallow(self) -> None:
        super()._verify_shallow()
        if not (self.rows.size == self.cols.size == self.values.size):
            raise FormatError("rows, cols and values must have equal length")

    def _verify_deep(self) -> None:
        at = lambda pos: (int(self.rows[pos]), int(self.cols[pos]))
        self._check_index_range(self.rows, self.nrows, "row index", coords=at)
        self._check_index_range(self.cols, self.ncols, "column index", coords=at)
        # canonical COO is sorted by (row, col) with no duplicates
        keys = self.rows.astype(np.int64) * self.ncols + self.cols.astype(np.int64)
        self._check_monotone(keys, "entry order (row, col)")
        ties = np.diff(keys) == 0
        if ties.any():
            pos = int(np.argmax(ties)) + 1
            raise VerificationError(
                f"coo: duplicate entry at {at(pos)}",
                format_name=self.format_name, check="duplicate-entry", coord=at(pos),
            )
        self._check_finite(self.values, "values", coords=at)

    def storage_fields(self) -> Iterator[ArrayField]:
        yield self._field("rows", self.rows)
        yield self._field("cols", self.cols)
        yield self._field("values", self.values)

    # -- helpers ---------------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """Number of nonzeros in each row."""
        return np.bincount(self.rows, minlength=self.nrows).astype(np.int64)

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (canonicalized)."""
        return COOMatrix((self.ncols, self.nrows), self.cols, self.rows, self.values)


def _canonicalize(
    shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort by (row, col), sum duplicates, drop explicit zeros."""
    if rows.size == 0:
        return rows, cols, values
    keys = rows.astype(np.int64) * shape[1] + cols.astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros(unique_keys.size, dtype=np.float64)
    np.add.at(summed, inverse, values.astype(np.float64))
    summed32 = summed.astype(np.float32)
    keep = summed32 != 0
    unique_keys = unique_keys[keep]
    summed32 = summed32[keep]
    out_rows = (unique_keys // shape[1]).astype(np.int32)
    out_cols = (unique_keys % shape[1]).astype(np.int32)
    return out_rows, out_cols, summed32
