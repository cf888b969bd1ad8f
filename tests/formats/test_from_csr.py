"""Direct CSR -> bitBSR conversion: bitwise identity and fast paths."""

import numpy as np
import pytest

from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.bsr import BSRMatrix
from repro.formats.convert import convert
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix

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
