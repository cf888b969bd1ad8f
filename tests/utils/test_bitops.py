"""Unit + property tests for the 64-bit bitmap primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bitops import (
    bit_positions,
    bitmap_from_coords,
    bitmap_from_dense,
    bitmap_to_dense,
    bitmap_row,
    expand_bitmap_rows,
    extract_bit,
    popcount,
    popcount_below,
)

U64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestPopcount:
    def test_scalar_matches_python(self):
        for value in (0, 1, 0xFF, 0xFFFFFFFFFFFFFFFF, 0x8000000000000001):
            assert popcount(value) == bin(value).count("1")

    @given(U64)
    def test_property_matches_python(self, value):
        assert popcount(value) == value.bit_count()

    def test_vectorized(self):
        arr = np.array([0, 1, 3, 2**64 - 1], dtype=np.uint64)
        assert popcount(arr).tolist() == [0, 1, 2, 64]

    @given(st.lists(U64, min_size=1, max_size=50))
    def test_vector_property(self, values):
        arr = np.array(values, dtype=np.uint64)
        expected = [v.bit_count() for v in values]
        assert popcount(arr).tolist() == expected


class TestPopcountBelow:
    @given(U64, st.integers(min_value=0, max_value=64))
    def test_matches_mask_and_count(self, value, position):
        mask = (1 << position) - 1
        assert popcount_below(value, position) == (value & mask).bit_count()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            popcount_below(np.uint64(1), 65)

    def test_full_width(self):
        assert popcount_below(2**64 - 1, 64) == 64

    def test_zero_position(self):
        assert popcount_below(2**64 - 1, 0) == 0


class TestExtractBit:
    @given(U64, st.integers(min_value=0, max_value=63))
    def test_matches_shift(self, value, position):
        assert extract_bit(value, position) == (value >> position) & 1


class TestBitPositions:
    @given(U64)
    def test_roundtrip(self, value):
        positions = bit_positions(value)
        rebuilt = sum(1 << int(p) for p in positions)
        assert rebuilt == value
        assert (np.diff(positions) > 0).all()  # strictly ascending

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bit_positions(-1)


class TestBitmapDense:
    def test_example_from_paper(self):
        # Fig. 4: row0 has only its first element nonzero -> 0x01
        block = np.zeros((8, 8), dtype=np.float32)
        block[0, 0] = 5.0
        bitmap = bitmap_from_dense(block)
        assert bitmap_row(bitmap, 0) == 0x01
        assert all(bitmap_row(bitmap, r) == 0 for r in range(1, 8))

    def test_lsb_is_top_left_msb_is_bottom_right(self):
        block = np.zeros((8, 8), dtype=np.float32)
        block[0, 0] = 1.0
        block[7, 7] = 1.0
        bitmap = bitmap_from_dense(block)
        assert bitmap == (1 | (1 << 63))

    def test_roundtrip(self, rng):
        block = (rng.random((8, 8)) < 0.4).astype(np.float32)
        mask = bitmap_to_dense(bitmap_from_dense(block))
        assert np.array_equal(mask, block != 0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            bitmap_from_dense(np.zeros((4, 4)))

    @given(st.lists(st.integers(0, 63), min_size=0, max_size=64, unique=True))
    def test_coords_roundtrip(self, positions):
        pos = np.array(positions, dtype=np.int64)
        bitmap = bitmap_from_coords(pos // 8, pos % 8)
        assert popcount(bitmap) == len(positions)
        assert sorted(bit_positions(bitmap).tolist()) == sorted(positions)

    def test_bitmap_row_bounds(self):
        with pytest.raises(ValueError):
            bitmap_row(0, 8)


class TestExpandBitmapRows:
    @staticmethod
    def loop_reference(bitmaps):
        """Row ids, counts and columns bit by bit, in bit order."""
        row_ids, counts, cols = [], [], []
        for block, bitmap in enumerate(bitmaps):
            for p in bit_positions(bitmap):
                row_id = block * 8 + int(p) // 8
                if not row_ids or row_ids[-1] != row_id:
                    row_ids.append(row_id)
                    counts.append(0)
                counts[-1] += 1
                cols.append(int(p) % 8)
        return row_ids, counts, cols

    @given(st.lists(U64, max_size=40))
    def test_matches_the_bit_loop(self, values):
        bitmaps = np.array(values, dtype=np.uint64)
        row_ids, counts, cols = expand_bitmap_rows(bitmaps)
        assert counts.dtype == cols.dtype == np.uint8
        assert (row_ids.tolist(), counts.tolist(), cols.tolist()) == self.loop_reference(values)

    def test_byte_order_of_the_input_does_not_matter(self):
        bitmaps = np.array([0x0123_4567_89AB_CDEF, 1 << 63, 0xFF], dtype=np.uint64)
        for dtype in ("<u8", ">u8"):
            got = expand_bitmap_rows(bitmaps.astype(dtype))
            want = expand_bitmap_rows(bitmaps)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
