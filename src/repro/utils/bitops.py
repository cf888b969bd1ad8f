"""Vectorized 64-bit bitmap primitives.

The bitBSR format (paper §4.2) encodes each 8x8 block as one 64-bit
unsigned integer: bit ``r * 8 + c`` is set when element ``(r, c)`` of the
block is nonzero.  The least significant bit is the block's top-left
element and the most significant bit its bottom-right one (Fig. 4).

Everything here operates on whole NumPy arrays, so matrices are encoded
or decoded without Python-level loops:

* :func:`popcount`, :func:`popcount_below` and :func:`extract_bit` count
  and test bits of ``uint64`` bitmaps (Algorithm 2's rank arithmetic);
* :func:`expand_bitmap_rows` decodes whole bitmap arrays by the byte —
  byte ``r`` of a little-endian bitmap is row ``r`` of its block — into
  the set bits of every non-empty block row, in bit order;
* :func:`bit_positions`, :func:`bitmap_from_coords`,
  :func:`bitmap_from_dense`, :func:`bitmap_to_dense` and
  :func:`bitmap_row` encode or decode one bitmap.
"""

from __future__ import annotations

import numpy as np

from repro.constants import BLOCK_DIM, BLOCK_SIZE

__all__ = [
    "popcount",
    "popcount_below",
    "extract_bit",
    "bit_positions",
    "bitmap_from_coords",
    "bitmap_from_dense",
    "bitmap_to_dense",
    "bitmap_row",
    "expand_bitmap_rows",
]

_U64 = np.uint64

# Magic constants of the classic SWAR popcount, as uint64 scalars so the
# arithmetic below never falls back to Python ints.
_M1 = _U64(0x5555555555555555)
_M2 = _U64(0x3333333333333333)
_M4 = _U64(0x0F0F0F0F0F0F0F0F)
_H01 = _U64(0x0101010101010101)

#: Set bits of every byte value: one block row's nonzero count.
_ROW_POPCOUNT = np.array([bin(v).count("1") for v in range(1 << BLOCK_DIM)], dtype=np.uint8)


def popcount(bitmaps: np.ndarray | int) -> np.ndarray | int:
    """Count set bits of each 64-bit bitmap (vectorized SWAR popcount).

    Accepts a scalar or an array; returns the same shape with dtype
    ``uint64`` (Python ``int`` for scalar input).
    """
    scalar = np.isscalar(bitmaps)
    x = np.asarray(bitmaps, dtype=_U64)
    with np.errstate(over="ignore"):  # SWAR relies on modular arithmetic
        x = x - ((x >> _U64(1)) & _M1)
        x = (x & _M2) + ((x >> _U64(2)) & _M2)
        x = (x + (x >> _U64(4))) & _M4
        x = (x * _H01) >> _U64(56)
    return int(x) if scalar else x


def popcount_below(bitmaps: np.ndarray | int, position: np.ndarray | int) -> np.ndarray | int:
    """Count set bits strictly below ``position`` in each bitmap.

    This is the rank operation bitBSR decoding relies on: the value of the
    nonzero at bit ``p`` lives at index ``rank(p)`` inside the block's
    packed value array.  ``position`` may be 0..64; 64 counts all bits.
    """
    scalar = np.isscalar(bitmaps) and np.isscalar(position)
    x = np.asarray(bitmaps, dtype=_U64)
    p = np.asarray(position, dtype=_U64)
    if np.any(p > _U64(BLOCK_SIZE)):
        raise ValueError("bit position out of range [0, 64]")
    # (x << (64 - p)) would shift by 64 for p == 0, which is undefined in C
    # and wraps in NumPy; mask explicitly instead.  The shift for p == 64
    # wraps too (its lane is discarded by the where), hence the errstate.
    with np.errstate(over="ignore"):
        mask = np.where(
            p == _U64(BLOCK_SIZE),
            _U64(0xFFFFFFFFFFFFFFFF),
            (_U64(1) << p) - _U64(1),
        )
    counts = popcount(x & mask)
    return int(counts) if scalar else counts


def extract_bit(bitmaps: np.ndarray | int, position: np.ndarray | int) -> np.ndarray | int:
    """Return bit ``position`` (0 = LSB) of each bitmap as 0/1 uint64."""
    scalar = np.isscalar(bitmaps) and np.isscalar(position)
    x = np.asarray(bitmaps, dtype=_U64)
    p = np.asarray(position, dtype=_U64)
    out = (x >> p) & _U64(1)
    return int(out) if scalar else out


def bit_positions(bitmap: int | np.unsignedinteger) -> np.ndarray:
    """Positions (ascending) of set bits in a single 64-bit bitmap."""
    b = int(bitmap)
    if not 0 <= b <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError("bitmap out of 64-bit range")
    positions = []
    while b:
        low = b & -b
        positions.append(low.bit_length() - 1)
        b ^= low
    return np.asarray(positions, dtype=np.int64)


def bitmap_from_coords(rows: np.ndarray, cols: np.ndarray) -> int:
    """Build one block bitmap from in-block (row, col) coordinates."""
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if r.shape != c.shape:
        raise ValueError("rows and cols must have the same shape")
    if r.size and (r.min() < 0 or r.max() >= BLOCK_DIM or c.min() < 0 or c.max() >= BLOCK_DIM):
        raise ValueError("block coordinates out of range")
    bits = np.uint64(0)
    for p in np.unique(r * BLOCK_DIM + c):
        bits |= _U64(1) << _U64(p)
    return int(bits)


def bitmap_from_dense(block: np.ndarray) -> int:
    """Encode an 8x8 dense block's nonzero pattern as a 64-bit bitmap."""
    b = np.asarray(block)
    if b.shape != (BLOCK_DIM, BLOCK_DIM):
        raise ValueError(f"expected an {BLOCK_DIM}x{BLOCK_DIM} block, got {b.shape}")
    flags = (b != 0).ravel()
    weights = _U64(1) << np.arange(BLOCK_SIZE, dtype=_U64)
    return int(np.bitwise_or.reduce(weights[flags], initial=_U64(0)))


def bitmap_to_dense(bitmap: int | np.unsignedinteger) -> np.ndarray:
    """Decode a bitmap into an 8x8 boolean occupancy mask."""
    x = _U64(int(bitmap))
    shifts = np.arange(BLOCK_SIZE, dtype=_U64)
    mask = ((x >> shifts) & _U64(1)).astype(bool)
    return mask.reshape(BLOCK_DIM, BLOCK_DIM)


def bitmap_row(bitmap: int | np.unsignedinteger, row: int) -> int:
    """Extract one 8-bit row of the block bitmap (paper's ``0x01`` example)."""
    if not 0 <= row < BLOCK_DIM:
        raise ValueError("row out of range")
    return (int(bitmap) >> (row * BLOCK_DIM)) & 0xFF


def expand_bitmap_rows(bitmaps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode 64-bit block bitmaps by the byte, into their set bits in bit order.

    Read as little-endian bytes, byte ``r`` of a bitmap is row ``r`` of
    its 8x8 block and bit ``c`` of that byte is column ``c`` (bit
    ``r * 8 + c`` of the bitmap).  Only the non-empty bytes are kept.
    Returns ``(row_ids, counts, cols)``:

    * ``row_ids`` — ``block * 8 + r`` of every non-empty block row,
      ascending (``intp``);
    * ``counts`` — the set bits of each of those rows (``uint8``, from a
      256-entry popcount table);
    * ``cols`` — the column of every set bit (``uint8``), row after row
      and ascending within a row.

    That is every set bit block after block in ascending bit position,
    the order bitBSR packs its values in, so ``np.repeat(f(row_ids),
    counts)`` gives any per-row quantity per stored value, already in
    the caller's dtype.  Work and memory are O(nnz + 8 * nblocks).
    """
    data = np.ascontiguousarray(bitmaps, dtype="<u8").reshape(-1).view(np.uint8)
    row_ids = np.flatnonzero(data != 0)
    row_bits = data[row_ids]
    # bit c of the i-th kept row sits at 8 * i + c of the unpacked rows
    cols = np.flatnonzero(np.unpackbits(row_bits, bitorder="little").view(bool))
    cols &= BLOCK_DIM - 1
    return row_ids, _ROW_POPCOUNT[row_bits], cols.astype(np.uint8)
