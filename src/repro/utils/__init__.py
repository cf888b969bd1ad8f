"""Shared low-level utilities: bit manipulation, validation, scans."""

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
from repro.utils.scan import exclusive_scan, inclusive_scan, segment_ids
from repro.utils.validation import (
    ensure_1d,
    ensure_contiguous,
    ensure_dtype,
    ensure_nonnegative,
    ensure_shape,
    ensure_sorted,
)

__all__ = [
    "bit_positions",
    "bitmap_from_coords",
    "bitmap_from_dense",
    "bitmap_to_dense",
    "bitmap_row",
    "expand_bitmap_rows",
    "extract_bit",
    "popcount",
    "popcount_below",
    "exclusive_scan",
    "inclusive_scan",
    "segment_ids",
    "ensure_1d",
    "ensure_contiguous",
    "ensure_dtype",
    "ensure_nonnegative",
    "ensure_shape",
    "ensure_sorted",
]
