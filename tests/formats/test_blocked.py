"""BSR and bitCOO specific behaviour."""

import numpy as np
import pytest

from repro.constants import BLOCK_DIM
from repro.formats.bitcoo import BitCOOMatrix
from repro.formats.bsr import BSRMatrix
from repro.formats.coo import COOMatrix

from tests.conftest import make_random_dense


class TestBSR:
    def test_block_grid_geometry(self, small_coo):
        bsr = BSRMatrix.from_coo(small_coo)
        assert bsr.block_rows_count == -(-small_coo.nrows // BLOCK_DIM)
        assert bsr.block_cols_count == -(-small_coo.ncols // BLOCK_DIM)

    def test_fill_ratio_counts_zero_padding(self, small_coo):
        bsr = BSRMatrix.from_coo(small_coo)
        assert bsr.fill_ratio == pytest.approx(bsr.nnz / (bsr.nblocks * 64))
        assert 0 < bsr.fill_ratio <= 1

    def test_blocks_match_dense_slices(self, small_dense):
        bsr = BSRMatrix.from_coo(COOMatrix.from_dense(small_dense))
        brow = bsr.block_row_of()
        padded = np.zeros((48, 56), dtype=np.float32)
        padded[:40] = small_dense
        for b in range(bsr.nblocks):
            r0, c0 = brow[b] * 8, bsr.block_cols[b] * 8
            assert np.array_equal(bsr.blocks[b], padded[r0 : r0 + 8, c0 : c0 + 8])

    def test_custom_block_dim(self, small_coo):
        bsr = BSRMatrix.from_coo(small_coo, block_dim=4)
        assert bsr.block_dim == 4
        assert np.allclose(bsr.todense(), small_coo.todense())

    def test_bsr_stores_zeros_its_weakness(self, rng):
        """The redundant zero storage bitBSR eliminates (§5.3)."""
        dense = make_random_dense(rng, 64, 64, 0.05)
        bsr = BSRMatrix.from_coo(COOMatrix.from_dense(dense))
        stored = bsr.nblocks * 64
        assert stored > 2 * bsr.nnz  # mostly padding at this sparsity


class TestBitCOO:
    def test_matches_bitbsr_semantics(self, small_coo, x_small):
        bc = BitCOOMatrix.from_coo(small_coo)
        assert np.allclose(bc.matvec(x_small), small_coo.matvec(x_small), rtol=1e-3, atol=1e-3)

    def test_tobitbsr_roundtrip(self, small_coo):
        bc = BitCOOMatrix.from_coo(small_coo)
        bit = bc.tobitbsr()
        assert bit.nnz == bc.nnz
        assert np.allclose(bit.todense(), small_coo.todense(), rtol=1e-3)

    def test_explicit_coordinates(self, small_coo):
        bc = BitCOOMatrix.from_coo(small_coo)
        assert bc.block_rows.size == bc.nblocks
        assert bc.nbytes > 0
