"""Direct CSR -> bitBSR conversion: bitwise identity and fast paths."""

import tracemalloc

import numpy as np
import pytest

from repro.constants import BLOCK_DIM, BLOCK_SIZE
from repro.errors import FormatError
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.bsr import BSRMatrix, block_coordinates
from repro.formats.convert import convert
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices import generate_matrix
from repro.utils.scan import exclusive_scan, segment_ids

from tests.conftest import make_random_dense

ARRAYS = ("block_row_pointers", "block_cols", "bitmaps", "values")

SHAPES = [
    (1, 1),
    (8, 8),
    (7, 9),       # sub-block, ragged
    (17, 23),     # crosses block boundaries unevenly
    (64, 64),
    (100, 3),     # tall
    (3, 100),     # wide
    (40, 40),
]


def _csr(rng, nrows, ncols, density=0.2) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, density))
    )


class TestBitwiseIdentity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("value_dtype", [np.float16, np.float32])
    def test_from_csr_matches_coo_route_bitwise(self, rng, shape, value_dtype):
        csr = _csr(rng, *shape)
        direct = BitBSRMatrix.from_csr(csr, value_dtype=value_dtype)
        via_coo = BitBSRMatrix.from_coo(csr.tocoo(), value_dtype=value_dtype)
        assert direct.shape == via_coo.shape
        assert direct.value_dtype == via_coo.value_dtype
        for name in ARRAYS:
            a, b = getattr(direct, name), getattr(via_coo, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    def test_empty_matrix(self):
        csr = CSRMatrix.from_coo(COOMatrix((0, 0), [], [], []))
        direct = BitBSRMatrix.from_csr(csr)
        assert direct.nnz == 0 and direct.nblocks == 0

    def test_empty_rows_and_cols(self, rng):
        for shape in [(5, 0), (0, 5)]:
            csr = CSRMatrix.from_coo(
                COOMatrix(shape, [], [], [])
            )
            direct = BitBSRMatrix.from_csr(csr)
            via_coo = BitBSRMatrix.from_coo(csr.tocoo())
            for name in ARRAYS:
                assert np.array_equal(getattr(direct, name), getattr(via_coo, name))

    def test_matvec_agrees_with_csr_reference(self, rng):
        csr = _csr(rng, 33, 47)
        x = rng.standard_normal(47).astype(np.float32)
        got = BitBSRMatrix.from_csr(csr, value_dtype=np.float32).matvec(x)
        np.testing.assert_allclose(got, csr.matvec(x), rtol=1e-5, atol=1e-5)

    def test_deep_verify_passes(self, rng):
        BitBSRMatrix.from_csr(_csr(rng, 40, 40)).verify(deep=True)


def two_sort_reference(shape, rows, cols, values, value_dtype) -> BitBSRMatrix:
    """``_from_entries`` before it dropped ``np.unique``'s second sort."""
    br, bc, lr, lc = block_coordinates(rows, cols, BLOCK_DIM)
    nbcols = -(-shape[1] // BLOCK_DIM)
    nbrows = -(-shape[0] // BLOCK_DIM)
    bitpos = lr * BLOCK_DIM + lc
    keys = br * nbcols + bc
    order = np.argsort(keys * BLOCK_SIZE + bitpos, kind="stable")
    keys_sorted = keys[order]
    bitpos_sorted = bitpos[order]
    values_sorted = values[order]
    unique_keys, starts = np.unique(keys_sorted, return_index=True)
    if unique_keys.size:
        weights = np.uint64(1) << bitpos_sorted.astype(np.uint64)
        bitmaps = np.bitwise_or.reduceat(weights, starts)
    else:
        bitmaps = np.zeros(0, dtype=np.uint64)
    counts = np.bincount((unique_keys // nbcols).astype(np.int64), minlength=nbrows)
    ptr = exclusive_scan(counts)
    return BitBSRMatrix(shape, ptr, unique_keys % nbcols, bitmaps, values_sorted, value_dtype=value_dtype)


def _reference_from_csr(csr: CSRMatrix, value_dtype) -> BitBSRMatrix:
    rows = segment_ids(csr.row_pointers)
    return two_sort_reference(csr.shape, rows, csr.col_indices, csr.values, value_dtype)


def _unsorted_rows(rng) -> CSRMatrix:
    """Each row's column indices reversed: valid CSR, not canonical."""
    csr = _csr(rng, 29, 43, density=0.3)
    cols, values = csr.col_indices.copy(), csr.values.copy()
    for lo, hi in zip(csr.row_pointers[:-1], csr.row_pointers[1:]):
        cols[lo:hi] = cols[lo:hi][::-1]
        values[lo:hi] = values[lo:hi][::-1]
    return CSRMatrix(csr.shape, csr.row_pointers, cols, values)


ONE_SORT_MATRICES = {
    "canonical": lambda rng: _csr(rng, 64, 48),
    "unsorted-rows": _unsorted_rows,
    "empty": lambda rng: CSRMatrix.from_coo(COOMatrix((16, 24), [], [], [])),
    "ragged-37x29": lambda rng: _csr(rng, 37, 29, density=0.35),
}


class TestOneSort:
    """``_from_entries`` sorts once and is byte-identical to the two-sort route."""

    @pytest.mark.parametrize("name", list(ONE_SORT_MATRICES))
    @pytest.mark.parametrize("value_dtype", [np.float16, np.float32], ids=["fp16", "fp32"])
    def test_storage_is_byte_identical(self, rng, name, value_dtype):
        csr = ONE_SORT_MATRICES[name](rng)
        got = BitBSRMatrix.from_csr(csr, value_dtype=value_dtype)
        want = _reference_from_csr(csr, value_dtype)
        assert got.shape == want.shape and got.value_dtype == want.value_dtype
        for array in ARRAYS + ("block_offsets",):
            a, b = getattr(got, array), getattr(want, array)
            assert a.dtype == b.dtype, array
            assert a.tobytes() == b.tobytes(), array

    def test_duplicated_entry_raises_the_same_error(self):
        # row 1 holds column 3 twice
        csr = CSRMatrix((4, 12), [0, 1, 3, 3, 4], [0, 3, 3, 11], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(FormatError) as want:
            _reference_from_csr(csr, np.float16)
        with pytest.raises(FormatError) as got:
            BitBSRMatrix.from_csr(csr)
        assert str(got.value) == str(want.value)

    def test_peak_memory_per_entry(self):
        csr = generate_matrix("cant", scale=0.08, seed=1).csr
        tracemalloc.start()
        try:
            BitBSRMatrix.from_csr(csr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two-sort route peaked at about 110 B per entry here
        assert peak < 64 * csr.nnz, peak / csr.nnz


class TestConvertFastPaths:
    def test_convert_routes_csr_directly(self, rng, monkeypatch):
        """convert(csr, "bitbsr") must not materialize a COO."""
        csr = _csr(rng, 24, 24)

        def boom(cls, coo, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("COO route taken for a CSR source")

        monkeypatch.setattr(BitBSRMatrix, "from_coo", classmethod(boom))
        bit = convert(csr, "bitbsr")
        assert bit.nnz == csr.nnz

    def test_builder_routes_csr_directly(self, rng, monkeypatch):
        from repro.core.builder import build_bitbsr

        csr = _csr(rng, 24, 24)

        def boom(cls, coo, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("COO route taken for a CSR source")

        monkeypatch.setattr(BitBSRMatrix, "from_coo", classmethod(boom))
        report = build_bitbsr(csr)
        assert report.matrix.nnz == csr.nnz

    def test_non_csr_sources_still_use_coo_route(self, rng):
        coo = COOMatrix.from_dense(make_random_dense(rng, 16, 16))
        bit = convert(coo, "bitbsr")
        assert bit.nnz == coo.nnz


class TestConvertNoOp:
    """Matching kwargs must return the *same object*, not a rebuild."""

    def test_bitbsr_same_dtype_is_identity(self, rng):
        bit = convert(_csr(rng, 24, 24), "bitbsr")
        assert convert(bit, "bitbsr") is bit
        assert convert(bit, "bitbsr", value_dtype=np.float16) is bit
        assert convert(bit, "bitbsr", value_dtype="float16") is bit

    def test_bitbsr_dtype_change_rebuilds(self, rng):
        bit = convert(_csr(rng, 24, 24), "bitbsr")
        rebuilt = convert(bit, "bitbsr", value_dtype=np.float32)
        assert rebuilt is not bit
        assert rebuilt.value_dtype == np.dtype(np.float32)

    def test_bsr_block_dim(self, rng):
        coo = COOMatrix.from_dense(make_random_dense(rng, 24, 24))
        bsr = convert(coo, "bsr", block_dim=4)
        assert convert(bsr, "bsr", block_dim=4) is bsr
        assert convert(bsr, "bsr", block_dim=8) is not bsr

    def test_bitcoo_value_dtype(self, rng):
        coo = COOMatrix.from_dense(make_random_dense(rng, 24, 24))
        bc = convert(coo, "bitcoo")
        assert convert(bc, "bitcoo", value_dtype=np.float16) is bc
        assert convert(bc, "bitcoo", value_dtype=np.float32) is not bc

    def test_unknown_kwargs_rebuild_not_raise_in_matcher(self, rng):
        bit = convert(_csr(rng, 16, 16), "bitbsr")
        assert bit.config_matches(bogus=1) is False
        assert bit.config_matches(value_dtype="not-a-dtype") is False

    def test_base_formats_no_kwargs_identity(self, rng):
        csr = _csr(rng, 16, 16)
        assert convert(csr, "csr") is csr
        coo = csr.tocoo()
        assert convert(coo, "coo") is coo
