"""Deep-verifier protocol tests.

Every registered format must verify a fresh conversion clean, and the
errors raised on hand-made corruption must carry usable coordinates —
that is what distinguishes a verifier from an assert.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import BLOCK_DIM
from repro.core.builder import build_bitbsr
from repro.core.spmv import (
    spaden_spmv,
    spaden_spmv_simulated,
    spaden_spmv_simulated_many,
)
from repro.errors import (
    BitmapPopcountError,
    IndexRangeError,
    NonFiniteValueError,
    NumericalError,
    OffsetScanError,
    PointerMonotonicityError,
    VerificationError,
)
from repro.formats import available_formats, convert
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.utils.bitops import bit_positions

from tests.conftest import make_random_dense


@pytest.fixture(scope="module")
def coo():
    rng = np.random.default_rng(99)
    return COOMatrix.from_dense(make_random_dense(rng, 80, 88, density=0.1))


def test_all_formats_verify_clean(coo):
    for fmt in available_formats():
        matrix = convert(coo, fmt)
        assert matrix.verify(deep=True) is matrix  # chains


def test_shallow_verify_is_default(coo):
    csr = convert(coo, "csr")
    csr.values[0] = np.nan
    csr.verify()  # shallow: frame only, NaN not scanned
    with pytest.raises(NonFiniteValueError):
        csr.verify(deep=True)


def test_nan_error_carries_coordinates(coo):
    csr = convert(coo, "csr")
    pos = csr.nnz // 2
    csr.values[pos] = np.nan
    with pytest.raises(NonFiniteValueError) as excinfo:
        csr.verify(deep=True)
    row, col = excinfo.value.coord
    assert csr.row_pointers[row] <= pos < csr.row_pointers[row + 1]
    assert col == csr.col_indices[pos]

    bit = build_bitbsr(CSRMatrix.from_coo(coo)).matrix
    pos = bit.nnz // 2
    bit.values[pos] = np.nan
    with pytest.raises(NonFiniteValueError) as excinfo:
        bit.verify(deep=True)
    # the entry's coordinate, decoded by hand from its block and rank
    block = int(np.searchsorted(bit.block_offsets, pos, side="right") - 1)
    bit_pos = int(bit_positions(bit.bitmaps[block])[pos - bit.block_offsets[block]])
    block_row = int(np.searchsorted(bit.block_row_pointers, block, side="right") - 1)
    assert excinfo.value.coord == (
        block_row * BLOCK_DIM + bit_pos // BLOCK_DIM,
        int(bit.block_cols[block]) * BLOCK_DIM + bit_pos % BLOCK_DIM,
    )


def test_bitbsr_deep_verify_decodes_only_to_label_a_bad_value(coo, monkeypatch):
    bit = build_bitbsr(CSRMatrix.from_coo(coo)).matrix

    def no_decode(self, *args, **kwargs):
        raise AssertionError("a finite matrix was decoded")

    monkeypatch.setattr(BitBSRMatrix, "entry_coordinates", no_decode)
    assert bit.verify(deep=True) is bit


def test_monotonicity_error_names_the_row(coo):
    csr = convert(coo, "csr")
    csr.row_pointers[10] = csr.row_pointers[11] + 2
    with pytest.raises(PointerMonotonicityError) as excinfo:
        csr.verify(deep=True)
    assert excinfo.value.coord == (10,)


def test_index_range_error_names_the_slot(coo):
    csr = convert(coo, "csr")
    csr.col_indices[5] = csr.ncols + 1
    with pytest.raises(IndexRangeError) as excinfo:
        csr.verify(deep=True)
    assert 5 in excinfo.value.coord or excinfo.value.coord  # slot recorded


@pytest.mark.parametrize(
    "shape, block_col, bit, coord",
    [((8, 13), 1, 7, (0, 15)), ((5, 8), 0, 56, (7, 0))],
    ids=["column-past-edge", "row-below-last"],
)
def test_bitbsr_set_bit_past_the_edge_is_an_index_range_error(shape, block_col, bit, coord):
    # one value in the padding of the last block column or block row:
    # the constructor's popcount and range checks cannot see it
    bit_matrix = BitBSRMatrix(
        shape, [0, 1], [block_col], np.array([1 << bit], np.uint64), np.array([1.0], np.float16)
    )
    with pytest.raises(IndexRangeError) as excinfo:
        bit_matrix.verify(deep=True)
    assert excinfo.value.coord == coord
    with pytest.raises(IndexRangeError) as excinfo:
        spaden_spmv(bit_matrix, np.ones(shape[1], np.float32))
    assert excinfo.value.coord == coord


@pytest.mark.parametrize(
    "twin",
    [
        lambda m: spaden_spmv_simulated(m, np.ones(m.ncols, np.float32)),
        lambda m: spaden_spmv_simulated_many(m, np.ones((2, m.ncols), np.float32)),
    ],
    ids=["simulated", "simulated-many"],
)
@pytest.mark.parametrize(
    "shape, block_col, bit, coord",
    [((8, 13), 1, 7, (0, 15)), ((5, 8), 0, 56, (7, 0))],
    ids=["column-past-edge", "row-below-last"],
)
def test_bitbsr_simulator_refuses_a_set_bit_past_the_edge(shape, block_col, bit, coord, twin):
    # the simulator would read x's zero padding and drop the stray value
    bit_matrix = BitBSRMatrix(
        shape, [0, 1], [block_col], np.array([1 << bit], np.uint64), np.array([1.0], np.float16)
    )
    with pytest.raises(IndexRangeError) as excinfo:
        twin(bit_matrix)
    assert excinfo.value.coord == coord


def test_bitbsr_run_view_freezes_its_own_arrays(coo):
    view = build_bitbsr(CSRMatrix.from_coo(coo)).matrix.run_view()
    for array in (view.rows, view.cols, view.values):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize(
    "last_row, coord", [([5, 1], (3, 1)), ([2, 2], (3, 2))], ids=["swap", "duplicate"]
)
def test_csr_unordered_row_names_the_entry(last_row, coord):
    # row 1 is empty and row 2 restarts below row 0's columns: both legal
    csr = CSRMatrix((4, 6), [0, 2, 2, 4, 6], [4, 5, 0, 3] + last_row, [1, 2, 3, 4, 5, 6])
    with pytest.raises(VerificationError) as excinfo:
        csr.verify(deep=True)
    assert excinfo.value.check == "column-order"
    assert excinfo.value.coord == coord


def test_coo_duplicate_entry_is_rejected():
    dup = COOMatrix((2, 4), [0, 1, 1], [3, 2, 2], [1.0, 2.0, 3.0], canonical=True)
    with pytest.raises(VerificationError) as excinfo:
        dup.verify(deep=True)
    assert excinfo.value.check == "duplicate-entry"
    assert excinfo.value.coord == (1, 2)


def test_bitmap_popcount_mismatch(coo):
    bit = build_bitbsr(CSRMatrix.from_coo(coo)).matrix
    bit.bitmaps[0] ^= np.uint64(1) << np.uint64(63)
    with pytest.raises((BitmapPopcountError, OffsetScanError)):
        bit.verify(deep=True)


def test_offset_scan_mismatch(coo):
    bit = build_bitbsr(CSRMatrix.from_coo(coo)).matrix
    bit.block_offsets[1] += 2
    with pytest.raises(OffsetScanError) as excinfo:
        bit.verify(deep=True)
    assert excinfo.value.coord  # identifies the offending block


def test_mma_overflow_names_lane_and_register():
    """fp16 overflow in the simulated accumulator raises with the owning
    lane/register coordinate (the §3 mapping in reverse)."""
    rng = np.random.default_rng(5)
    dense = make_random_dense(rng, 32, 32, density=0.3)
    bit = build_bitbsr(CSRMatrix.from_coo(COOMatrix.from_dense(dense))).matrix
    with np.errstate(over="ignore"):
        bit.values[0] = np.float16(np.inf)
    x = np.ones(bit.ncols, dtype=np.float32)
    with pytest.raises(NumericalError, match=r"lane \d+, register"):
        spaden_spmv_simulated(bit, x, check_overflow=True)


def test_mma_overflow_check_off_by_default():
    rng = np.random.default_rng(5)
    dense = make_random_dense(rng, 32, 32, density=0.3)
    bit = build_bitbsr(CSRMatrix.from_coo(COOMatrix.from_dense(dense))).matrix
    with np.errstate(over="ignore"):
        bit.values[0] = np.float16(np.inf)
    y, _ = spaden_spmv_simulated(bit, np.ones(bit.ncols, dtype=np.float32))
    assert not np.isfinite(y).all()  # silent poison without the check
