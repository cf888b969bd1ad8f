"""bitBSR invariants — the paper's format (§4.2, Fig. 4)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import BLOCK_DIM, BLOCK_SIZE
from repro.errors import FormatError
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.bsr import BSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices.rmat import rmat_graph
from repro.utils.bitops import popcount

from tests.conftest import make_random_dense


def bit_of(rng, shape=(40, 56), density=0.2):
    return BitBSRMatrix.from_coo(COOMatrix.from_dense(make_random_dense(rng, *shape, density)))


def broadcast_reference(bit: BitBSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decode before the byte-wise expansion: 64 words per block.

    Returns the int64 (rows, cols) of every stored value in storage
    order, and the (nblocks, 64) occupancy mask they came from.
    """
    shifts = np.arange(BLOCK_SIZE, dtype=np.uint64)
    mask = ((bit.bitmaps[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)
    bidx, pos = np.nonzero(mask)
    rows = bit.block_row_of()[bidx] * BLOCK_DIM + pos // BLOCK_DIM
    cols = bit.block_cols[bidx].astype(np.int64) * BLOCK_DIM + pos % BLOCK_DIM
    return rows, cols, mask


def _one_block_row(bitmaps: np.ndarray) -> BitBSRMatrix:
    """Blocks side by side in one block row, distinct float32 values."""
    bitmaps = np.asarray(bitmaps, dtype=np.uint64)
    nnz = int(popcount(bitmaps).sum())
    return BitBSRMatrix(
        (BLOCK_DIM, BLOCK_DIM * bitmaps.size),
        np.array([0, bitmaps.size]),
        np.arange(bitmaps.size, dtype=np.int32),
        bitmaps,
        np.arange(1, nnz + 1, dtype=np.float32),
        value_dtype=np.float32,
    )


def _every_byte_value() -> BitBSRMatrix:
    """Each byte value 1-255 alone in each of the 8 block rows (0 in the rest)."""
    values = np.arange(1, 256, dtype=np.uint64)
    return _one_block_row(np.concatenate([values << np.uint64(8 * r) for r in range(BLOCK_DIM)]))


def _full_and_top_bit() -> BitBSRMatrix:
    return _one_block_row([0xFFFF_FFFF_FFFF_FFFF, 1 << 63, 0xFFFF_FFFF_FFFF_FFFF])


def _random_bitmaps() -> BitBSRMatrix:
    rng = np.random.default_rng(11)
    return _one_block_row(rng.integers(1, 2**64 - 1, size=64, dtype=np.uint64, endpoint=True))


def _rmat() -> BitBSRMatrix:
    """Hypersparse: most stored blocks hold one entry."""
    return BitBSRMatrix.from_csr(CSRMatrix.from_coo(rmat_graph(10, edge_factor=4, seed=3)))


def _empty() -> BitBSRMatrix:
    return BitBSRMatrix.from_coo(COOMatrix.from_dense(np.zeros((13, 21), np.float32)))


def _ragged() -> BitBSRMatrix:
    """Neither dimension a multiple of 8; dense enough to fill edge blocks."""
    rng = np.random.default_rng(12)
    return BitBSRMatrix.from_coo(COOMatrix.from_dense(make_random_dense(rng, 37, 29, 0.4)))


DECODE_CASES = {
    "every-byte-value": _every_byte_value,
    "full-and-top-bit": _full_and_top_bit,
    "random-bitmaps": _random_bitmaps,
    "rmat": _rmat,
    "empty": _empty,
    "ragged": _ragged,
}


class TestStructuralInvariants:
    def test_popcount_equals_nnz(self, rng):
        bit = bit_of(rng)
        assert int(popcount(bit.bitmaps).sum()) == bit.nnz

    def test_offsets_are_exclusive_scan_of_counts(self, rng):
        bit = bit_of(rng)
        counts = popcount(bit.bitmaps).astype(np.int64)
        assert np.array_equal(np.diff(bit.block_offsets), counts)
        assert bit.block_offsets[0] == 0
        assert bit.block_offsets[-1] == bit.nnz

    def test_no_empty_blocks_stored(self, rng):
        bit = bit_of(rng)
        assert (bit.bitmaps != 0).all()

    def test_block_cols_sorted_within_rows(self, rng):
        bit = bit_of(rng)
        for row in range(bit.block_rows_count):
            lo, hi = bit.block_row_pointers[row], bit.block_row_pointers[row + 1]
            cols = bit.block_cols[lo:hi]
            assert (np.diff(cols) > 0).all()

    def test_values_packed_in_bit_order(self, rng, small_dense):
        bit = BitBSRMatrix.from_coo(COOMatrix.from_dense(small_dense), value_dtype=np.float32)
        dense = bit.tobsr().blocks
        for b in range(bit.nblocks):
            lo, hi = bit.block_offsets[b], bit.block_offsets[b + 1]
            flat = dense[b].reshape(-1)
            assert np.array_equal(bit.values[lo:hi], flat[flat != 0])

    def test_compression_rate_bounds(self, rng):
        bit = bit_of(rng)
        rate = bit.compression_rate_vs_coo()
        assert (rate >= 1).all() and (rate <= BLOCK_SIZE).all()


class TestConversions:
    def test_from_bsr_equals_from_coo(self, small_dense):
        coo = COOMatrix.from_dense(small_dense)
        via_coo = BitBSRMatrix.from_coo(coo)
        via_bsr = BitBSRMatrix.from_bsr(BSRMatrix.from_coo(coo))
        assert np.array_equal(via_coo.bitmaps, via_bsr.bitmaps)
        assert np.array_equal(via_coo.block_cols, via_bsr.block_cols)
        assert np.array_equal(via_coo.values, via_bsr.values)

    def test_tobsr_decodes_exactly(self, small_dense):
        coo = COOMatrix.from_dense(small_dense)
        bit = BitBSRMatrix.from_coo(coo, value_dtype=np.float32)
        assert np.allclose(bit.tobsr().todense(), small_dense)

    def test_entry_coordinates_in_storage_order(self, rng):
        bit = bit_of(rng)
        rows, cols = bit.entry_coordinates()
        assert rows.size == bit.nnz
        coo = bit.tocoo()
        assert coo.nnz == bit.nnz

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.02, 0.1, 0.5]))
    def test_dense_roundtrip_property(self, seed, density):
        rng = np.random.default_rng(seed)
        dense = make_random_dense(rng, 33, 25, density)
        bit = BitBSRMatrix.from_coo(COOMatrix.from_dense(dense), value_dtype=np.float32)
        assert np.allclose(bit.todense(), dense)


class TestByteDecode:
    """The byte-wise decode yields what the 64-word broadcast did."""

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.int64])
    @pytest.mark.parametrize("case", list(DECODE_CASES))
    def test_entry_coordinates_equal_the_broadcast(self, case, dtype):
        bit = DECODE_CASES[case]()
        rows, cols = bit.entry_coordinates(dtype)
        ref_rows, ref_cols, _ = broadcast_reference(bit)
        assert rows.dtype == dtype and cols.dtype == dtype
        assert rows.size == cols.size == bit.nnz
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("case", list(DECODE_CASES))
    def test_default_dtype_and_run_view(self, case):
        bit = DECODE_CASES[case]()
        ref_rows, ref_cols, _ = broadcast_reference(bit)
        rows, cols = bit.entry_coordinates()
        assert rows.dtype == cols.dtype == np.int64
        assert rows.tobytes() == ref_rows.tobytes() and cols.tobytes() == ref_cols.tobytes()
        view = bit.run_view()
        assert view.rows.dtype == view.cols.dtype == bit._index_dtype()
        assert np.array_equal(view.rows, ref_rows) and np.array_equal(view.cols, ref_cols)

    @pytest.mark.parametrize("case", list(DECODE_CASES))
    def test_tobsr_equals_the_broadcast(self, case):
        bit = DECODE_CASES[case]()
        _, _, mask = broadcast_reference(bit)
        expected = np.zeros((bit.nblocks, BLOCK_SIZE), dtype=np.float32)
        expected[mask] = bit.values.astype(np.float32)
        assert bit.tobsr().blocks.tobytes() == expected.tobytes()

    def test_run_view_picks_int32_past_uint16(self):
        coo = COOMatrix((8, 70000), [0, 7, 3], [69999, 0, 65536], np.array([1.5, -2.0, 3.0], np.float32))
        bit = BitBSRMatrix.from_coo(coo)
        view = bit.run_view()
        ref_rows, ref_cols, _ = broadcast_reference(bit)
        assert view.rows.dtype == view.cols.dtype == np.int32
        assert np.array_equal(view.rows, ref_rows) and np.array_equal(view.cols, ref_cols)

    def test_memory_is_linear_in_entries_not_64_words_per_block(self):
        """At most 64 B per entry plus 64 B per block (the broadcast took 576 B per block)."""
        bit = BitBSRMatrix.from_csr(CSRMatrix.from_coo(rmat_graph(12, edge_factor=8, seed=3)))
        tracemalloc.start()
        try:
            bit.entry_coordinates()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * bit.nnz + 64 * bit.nblocks


class TestValidation:
    def test_rejects_empty_bitmap(self):
        with pytest.raises(FormatError):
            BitBSRMatrix(
                (8, 8),
                np.array([0, 1]),
                np.array([0], np.int32),
                np.array([0], np.uint64),
                np.zeros(0, np.float16),
            )

    def test_rejects_count_mismatch(self):
        with pytest.raises(FormatError):
            BitBSRMatrix(
                (8, 8),
                np.array([0, 1]),
                np.array([0], np.int32),
                np.array([3], np.uint64),  # two bits set
                np.ones(1, np.float16),  # but one value
            )

    def test_rejects_bad_value_dtype(self):
        with pytest.raises(FormatError):
            BitBSRMatrix(
                (8, 8),
                np.array([0, 1]),
                np.array([0], np.int32),
                np.array([1], np.uint64),
                np.ones(1, np.float64),
                value_dtype=np.float64,
            )


class TestMemoryModel:
    def test_bytes_formula(self, rng):
        """2 B per nonzero + 16 B per block + pointers (Fig. 10b)."""
        bit = bit_of(rng)
        expected = (
            bit.nnz * 2
            + bit.nblocks * (8 + 4 + 4)
            + (bit.block_rows_count + 1) * 4
        )
        assert bit.nbytes == expected

    def test_fp16_halves_value_storage(self, small_coo):
        b16 = BitBSRMatrix.from_coo(small_coo, value_dtype=np.float16)
        b32 = BitBSRMatrix.from_coo(small_coo, value_dtype=np.float32)
        assert b32.nbytes - b16.nbytes == 2 * b16.nnz
