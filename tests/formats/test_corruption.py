"""Failure injection: every corrupted storage array must be rejected.

A format whose validator misses corruption turns bad data into silent
wrong answers downstream; these tests corrupt each array of the central
formats one way at a time and assert construction fails loudly.
"""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.coo import COOMatrix

from tests.conftest import make_random_dense


@pytest.fixture
def clean(rng):
    dense = make_random_dense(rng, 40, 40, 0.2)
    coo = COOMatrix.from_dense(dense)
    return {
        "coo": coo,
        "csr": CSRMatrix.from_coo(coo),
        "bsr": BSRMatrix.from_coo(coo),
        "bitbsr": BitBSRMatrix.from_coo(coo),
    }


class TestBitBSRCorruption:
    def test_truncated_values(self, clean):
        b = clean["bitbsr"]
        with pytest.raises(FormatError):
            BitBSRMatrix(b.shape, b.block_row_pointers, b.block_cols, b.bitmaps, b.values[:-1])

    def test_extra_values(self, clean):
        b = clean["bitbsr"]
        padded = np.concatenate([b.values, b.values[:1]])
        with pytest.raises(FormatError):
            BitBSRMatrix(b.shape, b.block_row_pointers, b.block_cols, b.bitmaps, padded)

    def test_zeroed_bitmap(self, clean):
        b = clean["bitbsr"]
        bad = b.bitmaps.copy()
        bad[0] = 0
        with pytest.raises(FormatError):
            BitBSRMatrix(b.shape, b.block_row_pointers, b.block_cols, bad, b.values)

    def test_flipped_bit_changes_count(self, clean):
        b = clean["bitbsr"]
        bad = b.bitmaps.copy()
        bad[0] ^= np.uint64(1) << np.uint64(int(np.log2(int(bad[0]) & -int(bad[0]))) + 1 & 63)
        # flipping any bit breaks popcount-vs-values agreement
        if int(np.diff(b.block_offsets).sum()) == b.values.size:
            with pytest.raises(FormatError):
                BitBSRMatrix(b.shape, b.block_row_pointers, b.block_cols, bad, b.values)

    def test_pointer_truncation(self, clean):
        b = clean["bitbsr"]
        with pytest.raises(FormatError):
            BitBSRMatrix(b.shape, b.block_row_pointers[:-1], b.block_cols, b.bitmaps, b.values)

    def test_decreasing_pointers(self, clean):
        b = clean["bitbsr"]
        bad = b.block_row_pointers.copy()
        if bad.size > 2:
            bad[1], bad[2] = bad[2], bad[1]
            if (np.diff(bad) < 0).any():
                with pytest.raises(FormatError):
                    BitBSRMatrix(b.shape, bad, b.block_cols, b.bitmaps, b.values)

    def test_column_out_of_grid(self, clean):
        b = clean["bitbsr"]
        bad = b.block_cols.copy()
        bad[0] = b.block_cols_count
        with pytest.raises(FormatError):
            BitBSRMatrix(b.shape, b.block_row_pointers, bad, b.bitmaps, b.values)


class TestCSRCorruption:
    def test_swapped_pointer_pair(self, clean):
        c = clean["csr"]
        bad = c.row_pointers.copy()
        bad[1] = bad[2] + 1
        if (np.diff(bad) < 0).any():
            with pytest.raises(FormatError):
                CSRMatrix(c.shape, bad, c.col_indices, c.values)

    def test_negative_column(self, clean):
        c = clean["csr"]
        bad = c.col_indices.copy()
        bad[0] = -1
        with pytest.raises(FormatError):
            CSRMatrix(c.shape, c.row_pointers, bad, c.values)

    def test_value_length_mismatch(self, clean):
        c = clean["csr"]
        with pytest.raises(FormatError):
            CSRMatrix(c.shape, c.row_pointers, c.col_indices, c.values[:-1])


class TestBSRCorruption:
    def test_wrong_block_shape(self, clean):
        b = clean["bsr"]
        with pytest.raises(FormatError):
            BSRMatrix(b.shape, b.block_row_pointers, b.block_cols, b.blocks[:, :4, :4])

    def test_block_count_mismatch(self, clean):
        b = clean["bsr"]
        with pytest.raises(FormatError):
            BSRMatrix(b.shape, b.block_row_pointers, b.block_cols[:-1], b.blocks)
