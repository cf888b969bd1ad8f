"""Decode once: the memoized bitBSR run view behind the vectorized kernel.

``spaden_spmv`` runs on :meth:`BitBSRMatrix.run_view`, built on the
first numeric run.  These tests pin its output byte for byte to the
per-call formula it replaced (kept inline below as the reference), show
that the memo can never serve a stale ``y``, and that it is charged to
the operand cache but never reaches disk or the device-plane numbers.
They also pin the chunked batch loop: the same bytes whatever the chunk
size, and per-call memory bounded by the largest chunk.
"""

from __future__ import annotations

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import spmv
from repro.core.builder import build_bitbsr
from repro.core.spmv import CHUNK_ENTRIES, _chunks, spaden_spmv, spaden_spmv_many
from repro.engine import OperandCache, SpMVEngine, encode_operand
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.gpu.mma import Precision, to_tf32
from repro.kernels import get_kernel
from repro.matrices import generate_matrix
from repro.matrices.rmat import rmat_graph
from repro.robustness import corrupt

STORAGE = ("block_row_pointers", "block_cols", "bitmaps", "values", "block_offsets")
PRECISIONS = [Precision.FP16, Precision.TF32, Precision.FP32]
SPADEN_KERNELS = ["spaden", "spaden-no-tc", "spaden-wmma"]


def per_call_reference(bit: BitBSRMatrix, x: np.ndarray, precision: Precision) -> np.ndarray:
    """The kernel before the run view: decode and round on every call."""
    rows, cols = bit.entry_coordinates()
    vals = bit.values.astype(np.float32)
    xf = x.astype(np.float32)
    if precision is Precision.FP16:
        vals = vals.astype(np.float16).astype(np.float32)
        xf = xf.astype(np.float16).astype(np.float32)
    elif precision is Precision.TF32:
        vals = to_tf32(vals)
        xf = to_tf32(xf)
    products = (vals * xf[cols]).astype(np.float64)
    y = np.bincount(rows, weights=products, minlength=bit.nrows)
    return y.astype(np.float32)[: bit.nrows]


def _random_values(csr: CSRMatrix, seed: int) -> CSRMatrix:
    """Same pattern, values off the fp16 grid (so rounding matters)."""
    values = np.random.default_rng(seed).standard_normal(csr.nnz).astype(np.float32)
    return CSRMatrix(csr.shape, csr.row_pointers, csr.col_indices, values)


def _from_dense(dense: np.ndarray) -> CSRMatrix:
    return CSRMatrix.from_coo(COOMatrix.from_dense(dense))


def _empty() -> CSRMatrix:
    return _from_dense(np.zeros((16, 24), np.float32))


def _single_block() -> CSRMatrix:
    rng = np.random.default_rng(1)
    dense = np.where(rng.random((8, 8)) < 0.5, rng.standard_normal((8, 8)), 0.0)
    dense[0, 0] = 1.5  # never empty
    return _from_dense(dense.astype(np.float32))


def _odd_block_rows() -> CSRMatrix:
    rng = np.random.default_rng(2)
    dense = np.where(rng.random((40, 56)) < 0.2, rng.standard_normal((40, 56)), 0.0)
    return _from_dense(dense.astype(np.float32))  # 5 block rows


def _rmat() -> CSRMatrix:
    return _random_values(CSRMatrix.from_coo(rmat_graph(10, edge_factor=4, seed=3)), seed=4)


def _dense_blocks() -> CSRMatrix:
    return _random_values(generate_matrix("raefsky3", scale=0.005, seed=5).csr, seed=6)


MATRICES = {
    "empty": _empty,
    "single-block": _single_block,
    "odd-block-rows": _odd_block_rows,
    "rmat-hypersparse": _rmat,
    "dense-blocks": _dense_blocks,
}


def _wide_block_row() -> CSRMatrix:
    """Block row 0 holds 8 x 4200 entries, more than the default chunk
    target; the last block row is ragged (27 rows)."""
    rng = np.random.default_rng(10)
    dense = np.where(rng.random((27, 4200)) < 0.05, rng.standard_normal((27, 4200)), 0.0)
    dense[:8] = rng.uniform(0.5, 2.0, (8, 4200))
    return _from_dense(dense.astype(np.float32))


CHUNKED_MATRICES = {**MATRICES, "wide-block-row": _wide_block_row}


@pytest.fixture(params=list(MATRICES))
def csr(request) -> CSRMatrix:
    return MATRICES[request.param]()


def _bit(csr: CSRMatrix, value_dtype=np.float16) -> BitBSRMatrix:
    return build_bitbsr(csr, value_dtype=value_dtype).matrix


def _x(ncols: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(ncols).astype(np.float32)


class TestByteParity:
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("value_dtype", [np.float16, np.float32], ids=["fp16", "fp32"])
    def test_equals_the_per_call_formula(self, csr, value_dtype, precision):
        bit = _bit(csr, value_dtype)
        x = _x(csr.ncols)
        expected = per_call_reference(bit, x, precision).tobytes()
        assert spaden_spmv(bit, x, precision).tobytes() == expected
        # the second call is a memo hit
        assert spaden_spmv(bit, x, precision).tobytes() == expected

    @pytest.mark.parametrize("value_dtype", [np.float16, np.float32], ids=["fp16", "fp32"])
    def test_default_precision_is_the_storage_precision(self, csr, value_dtype):
        bit = _bit(csr, value_dtype)
        x = _x(csr.ncols)
        expected = per_call_reference(bit, x, bit.input_precision).tobytes()
        assert spaden_spmv(bit, x).tobytes() == expected
        assert spaden_spmv(bit, x).tobytes() == expected

    def test_run_many_rows_equal_stacked_runs(self, csr):
        bit = _bit(csr)
        X = np.random.default_rng(8).standard_normal((5, csr.ncols)).astype(np.float32)
        Y = spaden_spmv_many(bit, X)
        assert Y.dtype == np.float32 and Y.shape == (5, csr.nrows)
        stacked = np.stack([spaden_spmv(bit, x) for x in X])
        assert Y.tobytes() == stacked.tobytes()
        reference = np.stack([per_call_reference(bit, x, Precision.FP16) for x in X])
        assert Y.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("target", [1, 64, CHUNK_ENTRIES], ids=["1", "64", "default"])
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("value_dtype", [np.float16, np.float32], ids=["fp16", "fp32"])
    @pytest.mark.parametrize("name", list(CHUNKED_MATRICES))
    def test_chunked_batch_equals_the_per_call_formula(
        self, monkeypatch, name, value_dtype, precision, target
    ):
        monkeypatch.setattr(spmv, "CHUNK_ENTRIES", target)
        csr = CHUNKED_MATRICES[name]()
        bit = _bit(csr, value_dtype)
        X = np.random.default_rng(11).standard_normal((3, csr.ncols)).astype(np.float32)
        expected = np.stack([per_call_reference(bit, x, precision) for x in X])
        assert spaden_spmv_many(bit, X, precision).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", SPADEN_KERNELS)
    def test_every_spaden_variant_runs_the_view(self, csr, name):
        kernel = get_kernel(name)
        prepared = kernel.prepare(csr)
        assert prepared.kernel_name == name
        X = np.random.default_rng(9).standard_normal((3, csr.ncols)).astype(np.float32)
        reference = np.stack([per_call_reference(prepared.data, x, Precision.FP16) for x in X])
        assert kernel.run_many(prepared, X).tobytes() == reference.tobytes()
        assert kernel.run(prepared, X[0]).tobytes() == reference[0].tobytes()


class TestChunks:
    @pytest.mark.parametrize("target", [1, 64, 500, CHUNK_ENTRIES])
    @pytest.mark.parametrize("name", ["dense-blocks", "wide-block-row"])
    def test_chunks_are_whole_block_rows_within_the_target(self, name, target):
        bit = _bit(CHUNKED_MATRICES[name]())
        starts = bit.block_offsets[bit.block_row_pointers]
        bounds, offsets = _chunks(bit, target)
        assert bounds[0] == 0 and bounds[-1] == bit.block_rows_count
        assert offsets == starts[bounds].tolist()
        for b0, b1 in zip(bounds, bounds[1:]):
            # within the target, unless one block row alone exceeds it
            assert starts[b1] - starts[b0] <= target or b1 == b0 + 1
            # and as many block rows as fit
            if b1 < bit.block_rows_count:
                assert starts[b1 + 1] - starts[b0] > target

    def test_batch_memory_is_bounded_by_the_largest_chunk(self):
        csr = generate_matrix("cant", scale=0.08, seed=1).csr
        assert csr.nnz >= 300_000
        bit = _bit(csr)
        k = 8
        X = np.random.default_rng(12).standard_normal((k, csr.ncols)).astype(np.float32)
        spaden_spmv_many(bit, X)  # the run view is built outside the measurement
        _, offsets = _chunks(bit, CHUNK_ENTRIES)
        largest = max(b - a for a, b in zip(offsets, offsets[1:]))
        tracemalloc.start()
        try:
            spaden_spmv_many(bit, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * largest + 8 * k * (csr.nrows + csr.ncols) + (1 << 20)


class TestNeverStale:
    @pytest.mark.parametrize("name", STORAGE)
    def test_a_run_freezes_the_storage(self, name):
        bit = _bit(_odd_block_rows())
        array = getattr(bit, name)
        array[0] = array[0]  # writeable until the first run
        spaden_spmv(bit, _x(bit.ncols))
        with pytest.raises(ValueError):
            array[0] = array[0]

    def test_prepare_and_warm_do_not_build_the_view(self):
        csr = _odd_block_rows()
        operand = SpMVEngine("spaden").warm(csr)
        assert all(getattr(operand.data, name).flags.writeable for name in STORAGE)

    @pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
    def test_copies_carry_storage_only_and_stay_corruptible(self, clone):
        bit = _bit(_odd_block_rows())
        x = _x(bit.ncols)
        y = spaden_spmv(bit, x)
        if clone == "deepcopy":
            twin = copy.deepcopy(bit)
        else:
            twin = pickle.loads(pickle.dumps(bit, protocol=pickle.HIGHEST_PROTOCOL))
        assert "_run_view" not in vars(twin)
        assert all(getattr(twin, name).flags.writeable for name in STORAGE)
        assert spaden_spmv(twin, x).tobytes() == y.tobytes()
        poisoned, _ = corrupt(bit, "value-nan", seed=1)
        assert np.isnan(spaden_spmv(poisoned, x)).any()
        assert spaden_spmv(bit, x).tobytes() == y.tobytes()

    def test_replacing_a_storage_array_decodes_again(self):
        bit = _bit(_odd_block_rows())
        x = _x(bit.ncols)
        spaden_spmv(bit, x)
        bit.values = -bit.values
        expected = per_call_reference(bit, x, Precision.FP16)
        assert spaden_spmv(bit, x).tobytes() == expected.tobytes()

    def test_freezing_never_reaches_the_callers_arrays(self):
        source = _bit(_odd_block_rows())
        held = [getattr(source, name).copy() for name in STORAGE[:4]]
        bit = BitBSRMatrix(source.shape, *held, value_dtype=source.value_dtype)
        x = _x(bit.ncols)
        y = spaden_spmv(bit, x)
        assert all(array.flags.writeable for array in held)
        held[3][:] = 0  # the caller's values, not the matrix's
        assert spaden_spmv(bit, x).tobytes() == y.tobytes()


class TestAccounting:
    @pytest.mark.parametrize(
        "shape, per_nnz", [((1024, 1024), 8), ((65535, 8), 8), ((65536, 8), 12), ((8, 70000), 12)]
    )
    def test_host_bytes_is_the_view_size(self, shape, per_nnz):
        rows = np.array([0, shape[0] - 1, shape[0] // 2])
        cols = np.array([shape[1] - 1, 0, shape[1] // 3])
        coo = COOMatrix(shape, rows, cols, np.array([1.5, -2.0, 3.0], np.float32))
        operand = get_kernel("spaden").prepare(CSRMatrix.from_coo(coo))
        assert operand.host_bytes == operand.data.run_view_nbytes == per_nnz * 3
        view = operand.data.run_view()
        built = view.rows.nbytes + view.cols.nbytes + view.values.nbytes
        assert built == operand.host_bytes
        x = _x(shape[1])
        expected = per_call_reference(operand.data, x, Precision.FP16)
        assert spaden_spmv(operand.data, x).tobytes() == expected.tobytes()

    def test_bytes_per_nnz_counts_device_bytes_only(self):
        csr = _rmat()
        operand = get_kernel("spaden").prepare(csr)
        assert operand.device_bytes == operand.data.nbytes
        assert operand.bytes_per_nnz == operand.device_bytes / operand.nnz

    def test_payload_is_identical_before_and_after_a_run(self):
        csr = _odd_block_rows()
        operand = get_kernel("spaden").prepare(csr)
        before = encode_operand(operand)
        get_kernel("spaden").run(operand, _x(csr.ncols))
        assert encode_operand(operand) == before

    def test_budget_must_fit_device_plus_host_bytes(self):
        csr = _rmat()
        operand = get_kernel("spaden").prepare(csr)
        cache = OperandCache(operand.device_bytes + operand.host_bytes - 1)
        cache.put(("spaden", "k"), operand)
        assert cache.stats.rejected == 1 and len(cache) == 0
        cache = OperandCache(operand.device_bytes + operand.host_bytes)
        cache.put(("spaden", "k"), operand)
        assert cache.resident_bytes == operand.device_bytes + operand.host_bytes
