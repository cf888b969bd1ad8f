"""Compressed Sparse Row (CSR) — the paper's baseline format (§2.1)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import FormatError, VerificationError
from repro.formats.base import ArrayField, SparseMatrix, register_format
from repro.formats.coo import COOMatrix
from repro.utils.scan import exclusive_scan, segment_ids
from repro.utils.validation import ensure_1d, ensure_dtype, ensure_sorted

__all__ = ["CSRMatrix"]


@register_format
class CSRMatrix(SparseMatrix):
    """CSR: ``row_pointers`` / ``col_indices`` / ``values`` (Algorithm 1).

    ``row_pointers`` has ``nrows + 1`` entries; row ``i`` owns the slice
    ``[row_pointers[i], row_pointers[i + 1])`` of the other two arrays.
    Column indices should strictly increase within each row.  The
    constructor does not check this (it costs a pass over every entry);
    ``tocoo`` canonicalizes a matrix that breaks it, and
    ``verify(deep=True)`` reports its first offending entry.
    """

    format_name = "csr"

    def __init__(
        self,
        shape: tuple[int, int],
        row_pointers: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ):
        super().__init__(shape)
        row_pointers = ensure_dtype(ensure_1d(row_pointers, "row_pointers"), np.int64, "row_pointers")
        col_indices = ensure_dtype(ensure_1d(col_indices, "col_indices"), np.int32, "col_indices")
        values = ensure_dtype(ensure_1d(values, "values"), np.float32, "values")
        if row_pointers.size != self.nrows + 1:
            raise FormatError("row_pointers must have nrows + 1 entries")
        ensure_sorted(row_pointers, "row_pointers")
        if row_pointers[0] != 0 or row_pointers[-1] != col_indices.size:
            raise FormatError("row_pointers endpoints inconsistent with col_indices")
        if col_indices.size != values.size:
            raise FormatError("col_indices and values must have equal length")
        if col_indices.size:
            if col_indices.min() < 0 or col_indices.max() >= self.ncols:
                raise FormatError("column index out of range")
        self.row_pointers = row_pointers
        self.col_indices = col_indices
        self.values = values

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        counts = np.bincount(coo.rows, minlength=coo.nrows)
        ptr = exclusive_scan(counts)
        # canonical COO is already ordered by (row, col)
        return cls(coo.shape, ptr, coo.cols.copy(), coo.values.copy())

    @classmethod
    def from_scipy(cls, sp_csr) -> "CSRMatrix":
        sp_csr = sp_csr.tocsr()
        sp_csr.sort_indices()
        sp_csr.sum_duplicates()
        sp_csr.eliminate_zeros()
        return cls(
            sp_csr.shape,
            sp_csr.indptr.astype(np.int64),
            sp_csr.indices.astype(np.int32),
            sp_csr.data.astype(np.float32),
        )

    def tocoo(self) -> COOMatrix:
        rows = segment_ids(self.row_pointers).astype(np.int32)
        # the constructor does not enforce sorted, duplicate-free rows, so
        # canonical order is claimed only after checking it; otherwise COO
        # sorts the entries and sums the duplicates
        canonical = self._first_unordered_entry() is None
        return COOMatrix(self.shape, rows, self.col_indices.copy(), self.values.copy(), canonical=canonical)

    # -- interface --------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def row_lengths(self) -> np.ndarray:
        """nnz per row (``row_pointers[i+1] - row_pointers[i]``)."""
        return np.diff(self.row_pointers)

    def structure_profile(self):
        """This matrix's :class:`~repro.plan.StructureProfile`.

        Convenience over :func:`repro.plan.compute_structure_profile`
        (imported lazily — ``repro.formats`` must not depend on the
        planner package at import time), fingerprint included.
        """
        from repro.plan.profile import compute_structure_profile, matrix_fingerprint

        return compute_structure_profile(self, fingerprint=matrix_fingerprint(self))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized equivalent of Algorithm 1 (row-parallel CSR SpMV)."""
        x = self._check_matvec_operand(x)
        products = self.values * x[self.col_indices]
        # reduceat needs non-empty input; guard the all-empty matrix
        if products.size == 0:
            return np.zeros(self.nrows, dtype=np.float32)
        y = np.zeros(self.nrows, dtype=np.float32)
        starts = self.row_pointers[:-1]
        nonempty = np.flatnonzero(np.diff(self.row_pointers) > 0)
        if nonempty.size:
            sums = np.add.reduceat(products.astype(np.float64), starts[nonempty])
            y[nonempty] = sums.astype(np.float32)
        return y

    def matvec_many(self, X: np.ndarray) -> np.ndarray:
        """Batched :meth:`matvec`: one column-index gather for ``k`` vectors.

        ``X`` holds one input vector per row; row ``j`` of the result is
        bitwise-identical to ``matvec(X[j])`` — the per-row segment sums
        run over the same entries in the same order, just vectorized
        across the batch.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.ncols:
            raise FormatError(f"X has shape {X.shape}, expected (k, {self.ncols})")
        X = X.astype(np.float32)
        k = X.shape[0]
        Y = np.zeros((k, self.nrows), dtype=np.float32)
        if k == 0 or self.nnz == 0:
            return Y
        products = self.values[None, :] * X[:, self.col_indices]
        starts = self.row_pointers[:-1]
        nonempty = np.flatnonzero(np.diff(self.row_pointers) > 0)
        if nonempty.size:
            sums = np.add.reduceat(products.astype(np.float64), starts[nonempty], axis=1)
            Y[:, nonempty] = sums.astype(np.float32)
        return Y

    # -- verification ---------------------------------------------------------
    def _verify_shallow(self) -> None:
        super()._verify_shallow()
        self._check_pointer_frame(self.row_pointers, self.nrows, self.col_indices.size, "row_pointers")
        if self.col_indices.size != self.values.size:
            raise FormatError("col_indices and values must have equal length")

    def _verify_deep(self) -> None:
        self._check_monotone(self.row_pointers, "row_pointers")
        row_of = lambda pos: (int(np.searchsorted(self.row_pointers, pos, side="right") - 1), int(self.col_indices[pos]))
        self._check_index_range(self.col_indices, self.ncols, "column index", coords=row_of)
        self._check_finite(self.values, "values", coords=row_of)
        # last, so a fault that also breaks the order (an out-of-range
        # column) still raises the error class its model declares
        pos = self._first_unordered_entry()
        if pos is not None:
            raise VerificationError(
                f"csr: entry {row_of(pos)} does not exceed the column before it in its row "
                "(unsorted or duplicate entry)",
                format_name=self.format_name, check="column-order", coord=row_of(pos),
            )

    def _first_unordered_entry(self) -> int | None:
        """Position of the first entry whose column does not strictly
        exceed its predecessor's in the same row, or ``None``."""
        cols = self.col_indices
        if cols.size < 2:
            return None
        bad = cols[1:] <= cols[:-1]
        # an entry that opens a row restarts the order
        starts = self.row_pointers[1:-1]
        bad[starts[(starts > 0) & (starts < cols.size)] - 1] = False
        return int(np.argmax(bad)) + 1 if bad.any() else None

    def row_slice(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(col_indices, values) of one row — used by scalar kernels."""
        lo, hi = int(self.row_pointers[row]), int(self.row_pointers[row + 1])
        return self.col_indices[lo:hi], self.values[lo:hi]

    def storage_fields(self) -> Iterator[ArrayField]:
        # device-side CSR keeps 32-bit row pointers (as cuSPARSE does)
        yield ArrayField("row_pointers", (self.nrows + 1) * 4, "int32", self.nrows + 1)
        yield self._field("col_indices", self.col_indices)
        yield self._field("values", self.values)
