"""Per-matrix structure profiles: the planner's view of a CSR.

The Fig. 9 crossover — spaden beats the CSR baselines exactly when
nonzeros cluster into dense 8x8 blocks — is a pure function of matrix
*structure*.  :func:`compute_structure_profile` extracts that structure
in one vectorized pass over the CSR arrays: the block-density histogram
over 8x8 tiles, the nnz/row distribution, the fill ratio, and the §4.3
pairing depth (the exact number of MMA steps a spaden execution of this
matrix issues).  The result is a small frozen dataclass the planner
caches by :func:`matrix_fingerprint` — profiling is paid once per
matrix content, like the engine's prepared operands.

This module is deliberately *duck-typed* over the matrix: it reads
``row_pointers`` / ``col_indices`` / ``shape`` / ``nnz`` and never
imports :mod:`repro.formats`, keeping the planner package inside its
import fence (stdlib + numpy + errors + perf + obs).

:func:`matrix_fingerprint` lives here as the canonical implementation;
:mod:`repro.engine.cache` re-exports it, so the operand cache and the
planner's profile cache key by the *same* content hash and an engine can
hand its fingerprint straight to the planner.  It is SHA-256 truncated
to 128 bits.  The same key names the persistent operand store's files,
which outlive the process, so a golden test pins it and changing the
formula needs a store schema bump.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from repro.constants import BLOCK_DIM, BLOCK_SIZE
from repro.errors import PlanError

__all__ = [
    "StructureProfile",
    "compute_structure_profile",
    "matrix_fingerprint",
    "BLOCK_NNZ_BUCKETS",
]

#: Upper (inclusive) edges of the block-nnz histogram buckets: a
#: nonzero 8x8 tile holds 1..64 nonzeros; eight equal buckets resolve
#: the Fig. 9 density axis without storing per-block data.
BLOCK_NNZ_BUCKETS: tuple[int, ...] = (8, 16, 24, 32, 40, 48, 56, 64)


def matrix_fingerprint(csr) -> str:
    """Content hash of a CSR matrix (shape + all three arrays).

    SHA-256 over the shape and each array's dtype, length and raw bytes,
    truncated to 128 bits (32 hex digits): structurally identical
    matrices map to the same key regardless of object identity, and any
    in-place edit of pointers, indices or values changes the key.  The
    dtype/length framing keeps arrays with identical byte content but
    different element types apart (an int32 ``[1, 0]`` and an int64
    ``[1]`` share raw bytes) and pins the boundary between adjacent
    arrays, so bytes can never shift from one array into the next and
    still hash the same.  Each array's buffer is hashed in place (a
    non-contiguous array is made contiguous first), so the bytes are
    those of ``array.tobytes()`` without the copy.  SHA-256 because the
    hash reads every byte of the matrix and hosts with SHA extensions
    run it about twice as fast as blake2b.  The key also names the
    operand store's files, so changing this formula needs a
    :data:`repro.persist.SCHEMA_VERSION` bump.
    """
    h = hashlib.sha256()
    h.update(repr(csr.shape).encode())
    for array in (csr.row_pointers, csr.col_indices, csr.values):
        h.update(f"{array.dtype.str}:{array.size};".encode())
        h.update(np.ascontiguousarray(array).data)
    return h.hexdigest()[:32]


@dataclass(frozen=True)
class StructureProfile:
    """One matrix's structure, reduced to what kernel choice depends on.

    All fields are derived from the CSR's pointers and indices alone
    (values never matter to kernel choice), in one vectorized pass.
    """

    #: Logical shape and nonzero count.
    nrows: int
    ncols: int
    nnz: int
    #: ``nnz / (nrows * ncols)`` — the Fig. 9b sparsity axis.
    fill_ratio: float
    #: nnz/row distribution (empty rows included in mean/std).
    row_nnz_min: int
    row_nnz_max: int
    row_nnz_mean: float
    row_nnz_std: float
    empty_rows: int
    #: 8x8 tiles holding at least one nonzero.
    nonzero_blocks: int
    #: Block rows (8-row bands) holding at least one nonzero block.
    nonzero_block_rows: int
    #: ``nnz / nonzero_blocks`` — the Fig. 9a density axis (1..64).
    mean_block_nnz: float
    #: ``mean_block_nnz / 64`` — same axis, as a fraction.
    mean_block_density: float
    #: Histogram of per-block nnz over :data:`BLOCK_NNZ_BUCKETS`.
    block_nnz_hist: tuple[int, ...]
    #: Exact §4.3 pairing depth: the MMA steps a spaden execution
    #: issues, ``sum_r max(blocks in row 2r, blocks in row 2r+1)``.
    paired_steps: int
    #: Content hash the profile was computed for (``None`` if unknown).
    fingerprint: str | None = None

    @property
    def dense_block_fraction(self) -> float:
        """Fraction of nonzero blocks at least half full (nnz >= 32)."""
        if not self.nonzero_blocks:
            return 0.0
        return sum(self.block_nnz_hist[4:]) / self.nonzero_blocks

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        out["dense_block_fraction"] = self.dense_block_fraction
        return out


def compute_structure_profile(csr, *, fingerprint: str | None = None) -> StructureProfile:
    """One-pass structure profile of a CSR matrix (duck-typed).

    ``csr`` needs ``shape``, ``nnz``, ``row_pointers`` and
    ``col_indices`` (any :class:`~repro.formats.csr.CSRMatrix` or
    scipy-like object qualifies).  ``fingerprint`` is stamped onto the
    profile if given; callers that already fingerprinted the matrix
    (the engine) pass theirs so the planner never re-hashes.
    """
    nrows, ncols = (int(d) for d in csr.shape)
    nnz = int(csr.nnz)
    if nrows <= 0 or ncols <= 0:
        raise PlanError(f"cannot profile an empty-shape matrix {csr.shape}")
    row_pointers = np.asarray(csr.row_pointers)
    col_indices = np.asarray(csr.col_indices)
    if row_pointers.shape[0] != nrows + 1:
        raise PlanError(
            f"row_pointers has {row_pointers.shape[0]} entries, expected {nrows + 1}"
        )
    row_nnz = np.diff(row_pointers).astype(np.int64)
    if nnz == 0:
        return StructureProfile(
            nrows=nrows,
            ncols=ncols,
            nnz=0,
            fill_ratio=0.0,
            row_nnz_min=0,
            row_nnz_max=0,
            row_nnz_mean=0.0,
            row_nnz_std=0.0,
            empty_rows=nrows,
            nonzero_blocks=0,
            nonzero_block_rows=0,
            mean_block_nnz=0.0,
            mean_block_density=0.0,
            block_nnz_hist=(0,) * len(BLOCK_NNZ_BUCKETS),
            paired_steps=0,
            fingerprint=fingerprint,
        )
    rows = np.repeat(np.arange(nrows, dtype=np.int64), row_nnz)
    block_cols_total = (ncols + BLOCK_DIM - 1) // BLOCK_DIM
    block_ids = (rows // BLOCK_DIM) * block_cols_total + (
        col_indices.astype(np.int64) // BLOCK_DIM
    )
    unique_blocks, per_block_nnz = np.unique(block_ids, return_counts=True)
    nonzero_blocks = int(unique_blocks.size)
    hist, _edges = np.histogram(
        per_block_nnz, bins=[1] + [edge + 1 for edge in BLOCK_NNZ_BUCKETS]
    )
    # §4.3 pairing: block row 2r rides the even MMA slots, 2r+1 the odd
    # ones; a pair's step count is the longer of its two block lists.
    block_row_ids = unique_blocks // block_cols_total
    used_rows, per_block_row = np.unique(block_row_ids, return_counts=True)
    block_rows_total = (nrows + BLOCK_DIM - 1) // BLOCK_DIM
    lengths = np.zeros(block_rows_total + (block_rows_total % 2), dtype=np.int64)
    lengths[used_rows] = per_block_row
    pairs = lengths.reshape(-1, 2)
    paired_steps = int(np.maximum(pairs[:, 0], pairs[:, 1]).sum())
    return StructureProfile(
        nrows=nrows,
        ncols=ncols,
        nnz=nnz,
        fill_ratio=nnz / (nrows * ncols),
        row_nnz_min=int(row_nnz.min()),
        row_nnz_max=int(row_nnz.max()),
        row_nnz_mean=float(row_nnz.mean()),
        row_nnz_std=float(row_nnz.std()),
        empty_rows=int((row_nnz == 0).sum()),
        nonzero_blocks=nonzero_blocks,
        nonzero_block_rows=int(used_rows.size),
        mean_block_nnz=nnz / nonzero_blocks,
        mean_block_density=nnz / nonzero_blocks / BLOCK_SIZE,
        block_nnz_hist=tuple(int(count) for count in hist),
        paired_steps=paired_steps,
        fingerprint=fingerprint,
    )
