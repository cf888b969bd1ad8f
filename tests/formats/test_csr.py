"""CSR-specific behaviour (the Algorithm 1 substrate)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import FormatError
from repro.formats.csr import CSRMatrix
from repro.formats.convert import from_scipy, to_scipy


class TestConstruction:
    def test_pointer_length_enforced(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), np.array([0, 1]), np.array([0], np.int32), np.array([1.0], np.float32))

    def test_pointer_monotonicity(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), np.array([0, 2, 1]), np.array([0, 1], np.int32), np.array([1.0, 1.0], np.float32))

    def test_endpoint_consistency(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), np.array([0, 1, 3]), np.array([0, 1], np.int32), np.array([1.0, 1.0], np.float32))

    def test_column_bounds(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), np.array([0, 1, 1]), np.array([7], np.int32), np.array([1.0], np.float32))


class TestToCOO:
    def test_unordered_rows_are_canonicalized(self):
        csr = CSRMatrix((2, 8), [0, 2, 4], [3, 3, 5, 1], [1, 2, 3, 4])
        coo = csr.tocoo()
        assert coo.rows.tolist() == [0, 1, 1]
        assert coo.cols.tolist() == [3, 1, 5]
        assert coo.values.tolist() == [3.0, 4.0, 3.0]  # duplicate summed
        coo.verify(deep=True)


class TestAgainstScipy:
    def test_matvec_matches_scipy(self, small_coo, x_small):
        csr = CSRMatrix.from_coo(small_coo)
        s = to_scipy(csr)
        assert np.allclose(csr.matvec(x_small), s @ x_small, rtol=1e-5, atol=1e-5)

    def test_from_scipy_roundtrip(self, small_dense):
        s = sp.csr_matrix(small_dense)
        csr = from_scipy(s, "csr")
        assert np.allclose(csr.todense(), small_dense)
        back = to_scipy(csr)
        assert (back != s).nnz == 0

    def test_row_lengths(self, small_coo, small_dense):
        csr = CSRMatrix.from_coo(small_coo)
        assert np.array_equal(csr.row_lengths(), (small_dense != 0).sum(axis=1))

    def test_row_slice(self, small_coo, small_dense):
        csr = CSRMatrix.from_coo(small_coo)
        cols, vals = csr.row_slice(3)
        expected_cols = np.flatnonzero(small_dense[3])
        assert np.array_equal(cols, expected_cols)
        assert np.allclose(vals, small_dense[3, expected_cols])


class TestMemory:
    def test_device_bytes_are_8ish_per_nnz(self, medium_coo):
        csr = CSRMatrix.from_coo(medium_coo)
        # 8 B/nnz for indices+values plus the pointer array (Fig. 10b: 8.06)
        expected = csr.nnz * 8 + (csr.nrows + 1) * 4
        assert csr.nbytes == expected
