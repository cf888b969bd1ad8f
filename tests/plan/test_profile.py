"""Structure-profile tests: exact block statistics from CSR, one pass."""

from __future__ import annotations

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import PlanError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices import generate_matrix
from repro.plan.profile import (
    BLOCK_NNZ_BUCKETS,
    StructureProfile,
    compute_structure_profile,
    matrix_fingerprint,
)


def csr_from_cells(shape, cells):
    """Build a CSRMatrix from explicit (row, col) cells, value 1.0."""
    rows = np.array([r for r, _ in cells], dtype=np.int32)
    cols = np.array([c for _, c in cells], dtype=np.int32)
    vals = np.ones(len(cells), dtype=np.float32)
    return CSRMatrix.from_coo(COOMatrix(shape, rows, cols, vals))


@pytest.fixture
def two_block_csr():
    """16x16: block (0,0) completely full, block (1,1) holding 3 nnz."""
    cells = [(r, c) for r in range(8) for c in range(8)]
    cells += [(8, 9), (10, 12), (15, 15)]
    return csr_from_cells((16, 16), cells)


class TestComputeStructureProfile:
    def test_block_statistics_exact(self, two_block_csr):
        prof = compute_structure_profile(two_block_csr)
        assert (prof.nrows, prof.ncols, prof.nnz) == (16, 16, 67)
        assert prof.fill_ratio == pytest.approx(67 / 256)
        assert prof.nonzero_blocks == 2
        assert prof.nonzero_block_rows == 2
        assert prof.mean_block_nnz == pytest.approx(33.5)
        assert prof.mean_block_density == pytest.approx(33.5 / 64)

    def test_histogram_buckets(self, two_block_csr):
        prof = compute_structure_profile(two_block_csr)
        # buckets bounded by BLOCK_NNZ_BUCKETS: 3 nnz lands in the first
        # (<= 8), a full block in the last (57..64)
        assert len(prof.block_nnz_hist) == len(BLOCK_NNZ_BUCKETS)
        assert prof.block_nnz_hist[0] == 1
        assert prof.block_nnz_hist[-1] == 1
        assert sum(prof.block_nnz_hist) == prof.nonzero_blocks

    def test_dense_block_fraction(self, two_block_csr):
        prof = compute_structure_profile(two_block_csr)
        # one of the two blocks is >= half full (>= 33 nnz)
        assert prof.dense_block_fraction == pytest.approx(0.5)

    def test_paired_steps_both_rows_occupied(self, two_block_csr):
        # §4.3 pairs block-rows (0,1): each holds one block -> max(1,1)
        prof = compute_structure_profile(two_block_csr)
        assert prof.paired_steps == 1

    def test_paired_steps_odd_block_rows(self):
        # 24x8: blocks only in block-rows 0 and 2; pairs (0,1) and
        # (2,pad) each cost max(1,0) = 1
        cells = [(0, 0), (16, 0)]
        prof = compute_structure_profile(csr_from_cells((24, 8), cells))
        assert prof.paired_steps == 2

    def test_row_statistics_match_numpy(self, two_block_csr):
        prof = compute_structure_profile(two_block_csr)
        lengths = np.diff(two_block_csr.row_pointers)
        assert prof.row_nnz_min == int(lengths.min())
        assert prof.row_nnz_max == int(lengths.max())
        assert prof.row_nnz_mean == pytest.approx(float(lengths.mean()))
        assert prof.row_nnz_std == pytest.approx(float(lengths.std()))
        assert prof.empty_rows == int((lengths == 0).sum())

    def test_empty_matrix_profile(self):
        csr = CSRMatrix.from_coo(
            COOMatrix(
                (8, 8),
                np.array([], dtype=np.int32),
                np.array([], dtype=np.int32),
                np.array([], dtype=np.float32),
            )
        )
        prof = compute_structure_profile(csr)
        assert prof.nnz == 0
        assert prof.nonzero_blocks == 0
        assert prof.paired_steps == 0
        assert prof.empty_rows == 8
        assert all(count == 0 for count in prof.block_nnz_hist)

    def test_fingerprint_attached_when_given(self, two_block_csr):
        fp = matrix_fingerprint(two_block_csr)
        prof = compute_structure_profile(two_block_csr, fingerprint=fp)
        assert prof.fingerprint == fp
        assert compute_structure_profile(two_block_csr).fingerprint is None

    def test_as_dict_round_trip_fields(self, two_block_csr):
        prof = compute_structure_profile(two_block_csr)
        doc = prof.as_dict()
        assert doc["nnz"] == 67
        assert doc["block_nnz_hist"] == list(prof.block_nnz_hist)
        assert doc["dense_block_fraction"] == pytest.approx(0.5)

    def test_profile_is_frozen(self, two_block_csr):
        prof = compute_structure_profile(two_block_csr)
        assert isinstance(prof, StructureProfile)
        with pytest.raises(AttributeError):
            prof.nnz = 0


class TestFingerprint:
    def test_content_addressed(self, two_block_csr):
        same = csr_from_cells(
            (16, 16),
            [(r, c) for r in range(8) for c in range(8)]
            + [(8, 9), (10, 12), (15, 15)],
        )
        assert matrix_fingerprint(two_block_csr) == matrix_fingerprint(same)

    def test_value_change_changes_fingerprint(self, two_block_csr):
        other = two_block_csr.tocoo()
        other.values[0] = 2.0
        changed = CSRMatrix.from_coo(other)
        assert matrix_fingerprint(two_block_csr) != matrix_fingerprint(changed)

    def test_engine_reexport_is_canonical(self):
        from repro.engine.cache import matrix_fingerprint as engine_fingerprint

        assert engine_fingerprint is matrix_fingerprint

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32])
    @pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "strided"])
    def test_digest_equals_the_copying_formula(self, dtype, contiguous):
        base = np.arange(40, dtype=dtype)
        array = base[:20] if contiguous else base[::2]
        assert array.flags.c_contiguous is contiguous
        csr = SimpleNamespace(shape=(7, 9), row_pointers=array, col_indices=array[::-1], values=array)
        h = hashlib.sha256()
        h.update(repr(csr.shape).encode())
        for a in (csr.row_pointers, csr.col_indices, csr.values):
            h.update(f"{a.dtype.str}:{a.size};".encode())
            h.update(a.tobytes())
        assert matrix_fingerprint(csr) == h.hexdigest()[:32]

    def test_hashes_without_copying_the_arrays(self):
        csr = generate_matrix("cant", scale=0.13, seed=1).csr
        assert csr.nnz >= 500_000
        tracemalloc.start()
        try:
            matrix_fingerprint(csr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of any one array would be at least 2 MB
        assert peak < 1 << 20, peak


class TestCSRAccessor:
    def test_structure_profile_method(self, two_block_csr):
        prof = two_block_csr.structure_profile()
        assert prof == compute_structure_profile(
            two_block_csr, fingerprint=matrix_fingerprint(two_block_csr)
        )
        assert prof.fingerprint == matrix_fingerprint(two_block_csr)


class TestValidation:
    def test_bad_row_pointers_rejected(self):
        class Fake:
            shape = (4, 4)
            nnz = 1
            row_pointers = np.array([0, 1], dtype=np.int64)  # wrong length
            col_indices = np.array([0], dtype=np.int32)

        with pytest.raises(PlanError):
            compute_structure_profile(Fake())

    def test_bad_shape_rejected(self):
        class Fake:
            shape = (0, 4)
            nnz = 0
            row_pointers = np.array([0], dtype=np.int64)
            col_indices = np.array([], dtype=np.int32)

        with pytest.raises(PlanError):
            compute_structure_profile(Fake())
