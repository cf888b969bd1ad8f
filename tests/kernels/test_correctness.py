"""Every kernel computes the same SpMV as the scipy reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KernelError, ReproError
from repro.formats.convert import to_scipy
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels import available_kernels, get_kernel
from repro.matrices.generators import fp16_exact_values

from tests.conftest import make_random_dense

ALL_KERNELS = available_kernels()


def build_case(rng, nrows=60, ncols=60, density=0.1):
    dense = make_random_dense(rng, nrows, ncols, density)
    csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense))
    x = fp16_exact_values(rng, ncols)
    ref = to_scipy(csr).astype(np.float64) @ x.astype(np.float64)
    return csr, x, ref


@pytest.mark.parametrize("name", ALL_KERNELS)
class TestEveryKernel:
    def test_matches_reference(self, name, rng):
        csr, x, ref = build_case(rng)
        kernel = get_kernel(name)
        prep = kernel.prepare(csr)
        y = kernel.run(prep, x)
        assert np.allclose(y, ref, rtol=1e-3, atol=1e-2), name

    def test_prepared_operand_metadata(self, name, rng):
        csr, x, _ = build_case(rng)
        kernel = get_kernel(name)
        prep = kernel.prepare(csr)
        assert prep.kernel_name == name
        assert prep.shape == csr.shape
        assert prep.nnz == csr.nnz
        assert prep.device_bytes > 0
        assert prep.preprocessing_seconds > 0
        assert prep.bytes_per_nnz > 0

    def test_rejects_foreign_operand(self, name, rng):
        csr, x, _ = build_case(rng)
        kernel = get_kernel(name)
        other = next(k for k in ALL_KERNELS if k != name)
        foreign = get_kernel(other).prepare(csr)
        with pytest.raises(KernelError):
            kernel.run(foreign, x)

    def test_rejects_bad_x_shape(self, name, rng):
        csr, x, _ = build_case(rng)
        kernel = get_kernel(name)
        prep = kernel.prepare(csr)
        with pytest.raises(KernelError):
            kernel.run(prep, np.ones(csr.ncols + 3, dtype=np.float32))

    def test_unordered_row_never_gives_a_wrong_y(self, name):
        """Row 0 repeats column 3 and row 1 lists its columns backwards,
        breaking CSR's sorted-rows promise: a kernel may reject such a
        matrix, but must never answer something other than ``matvec``."""
        csr = CSRMatrix((2, 8), [0, 2, 4], [3, 3, 5, 1], [1, 2, 3, 4])
        x = np.arange(8, dtype=np.float32)
        kernel = get_kernel(name)
        try:
            y = kernel.run(kernel.prepare(csr), x)
        except ReproError:
            return
        assert np.array_equal(y, csr.matvec(x)), name


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.02, 0.15, 0.4]),
    st.integers(9, 80),
    st.integers(9, 80),
)
def test_all_kernels_agree_property(seed, density, nrows, ncols):
    """Property: all kernels produce the same y on arbitrary matrices."""
    rng = np.random.default_rng(seed)
    csr, x, ref = build_case(rng, nrows, ncols, density)
    results = {}
    for name in ALL_KERNELS:
        kernel = get_kernel(name)
        y = kernel.run(kernel.prepare(csr), x)
        assert np.allclose(y, ref, rtol=1e-3, atol=1e-2), name
        results[name] = y
    baseline = results["cusparse-csr"]
    for name, y in results.items():
        assert np.allclose(y, baseline, rtol=1e-3, atol=1e-2), name


def test_unknown_kernel_rejected():
    with pytest.raises(KernelError):
        get_kernel("warp-drive")


def test_registry_contains_all_evaluated_methods():
    expected = {
        "spaden",
        "spaden-no-tc",
        "cusparse-csr",
        "cusparse-bsr",
        "lightspmv",
        "gunrock",
        "dasp",
        "csr-warp16",
        "csr-scalar",
    }
    assert expected <= set(ALL_KERNELS)
