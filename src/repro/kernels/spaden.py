"""Spaden — bitBSR on tensor cores (the paper's method).

``run`` executes the vectorized numeric path; ``simulate`` drives the
lane-accurate simulator (Algorithms 2-4 per lane); ``profile`` computes
the execution counters *analytically* from the bitBSR structure.  The
analytic profile is exact: the unit tests assert it equals the
simulator's measured counters on arbitrary matrices.

Traffic anatomy per warp (one pair of block rows, Fig. 5):

* 4 broadcast row-pointer reads (2 for a final unpaired row),
* per non-empty block: 3 broadcast scalar reads (block column, bitmap,
  value offset), 2 predicated packed-value gathers that touch only the
  sectors holding true nonzeros, and 2 broadcast x-segment reads,
* one MMA per step, where a warp's step count is the *longer* of its two
  block rows (the shorter row's portion is zero-padded),
* one 32-byte coalesced store of each 8-row y segment.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import BLOCK_DIM, SECTOR_BYTES, WARP_SIZE
from repro.core.builder import build_bitbsr
from repro.core.spmv import (
    spaden_spmv,
    spaden_spmv_many,
    spaden_spmv_simulated,
    spaden_spmv_simulated_many,
)
from repro.exec.modes import KernelCapabilities
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import ExecutionStats
from repro.kernels.base import (
    KernelProfile,
    PreparedOperand,
    SpMVKernel,
    register_kernel,
    touched_sector_bytes,
)
from repro.perf.preprocessing import model_preprocessing_seconds
from repro.utils.bitops import expand_bitmap_rows

__all__ = ["SpadenKernel"]


def _entry_bit_parity(bitbsr: BitBSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(block id, bit-position parity) of every stored value, in order."""
    row_ids, counts, cols = expand_bitmap_rows(bitbsr.bitmaps)
    block = (row_ids // BLOCK_DIM).astype(np.int64, copy=False)
    # bit r * 8 + c is odd exactly when its column c is
    return np.repeat(block, counts), (cols % 2 == 1)


@register_kernel
class SpadenKernel(SpMVKernel):
    """The paper's method: bitBSR decode + diagonal pairing on tensor cores."""

    name = "spaden"
    label = "Spaden"
    capabilities = KernelCapabilities(
        tensor_cores=True,
        batch=True,
        simulate=True,
        simulate_batch=True,
        overflow_check=True,
        fallback_tier=0,
    )

    def prepare(self, csr: CSRMatrix) -> PreparedOperand:
        start = time.perf_counter()
        report = build_bitbsr(csr)
        host = time.perf_counter() - start
        bit = report.matrix
        return PreparedOperand(
            kernel_name=self.name,
            data=bit,
            shape=csr.shape,
            nnz=csr.nnz,
            device_bytes=bit.nbytes,
            host_bytes=bit.run_view_nbytes,
            preprocessing_seconds=model_preprocessing_seconds(
                "bitbsr", csr.nnz, csr.nrows, nblocks=bit.nblocks
            ),
            host_seconds=host,
        )

    def run(self, prepared: PreparedOperand, x: np.ndarray) -> np.ndarray:
        x = self._check(prepared, x)
        return spaden_spmv(prepared.data, x)

    def run_many(self, prepared: PreparedOperand, X: np.ndarray) -> np.ndarray:
        """Batch as one chunked loop over the operand's run view.

        Row ``j`` of the result is ``run(prepared, X[j])`` by
        construction: ``run`` is the same loop on a batch of one, and
        each row adds the same products in the same order however the
        view is chunked.  The bitBSR decode is paid once per operand, on
        its first run; a batch converts each chunk's indices once for
        all its vectors, and its buffers are sized by the largest chunk,
        not by nnz (see :func:`repro.core.spmv.spaden_spmv_many`).
        """
        X = self._check_many(prepared, X)
        return spaden_spmv_many(prepared.data, X)

    def simulate_many(
        self, prepared: PreparedOperand, X: np.ndarray, check_overflow: bool = False
    ) -> tuple[np.ndarray, ExecutionStats]:
        """Lane-accurate batched execution, processed per warp.

        Merged counters equal ``k`` times the single-vector counters, so
        the analytic ``profile`` stays exact per vector for batches.
        """
        X = self._check_many(prepared, X)
        return spaden_spmv_simulated_many(prepared.data, X, check_overflow=check_overflow)

    def simulate(
        self, prepared: PreparedOperand, x: np.ndarray, check_overflow: bool = False
    ) -> tuple[np.ndarray, ExecutionStats]:
        """Lane-accurate execution through :mod:`repro.gpu` (small inputs).

        ``check_overflow`` makes the MMA unit raise
        :class:`~repro.errors.NumericalError` at the first non-finite
        accumulator element, identifying the owning lane and register.
        """
        x = self._check(prepared, x)
        return spaden_spmv_simulated(prepared.data, x, check_overflow=check_overflow)

    def profile(self, prepared: PreparedOperand, x: np.ndarray) -> KernelProfile:
        bit: BitBSRMatrix = prepared.data
        self._check(prepared, x)
        stats = ExecutionStats()
        nbrows = bit.block_rows_count
        nblocks = bit.nblocks
        nnz = bit.nnz
        vbytes = bit.values.itemsize

        lens = np.diff(bit.block_row_pointers)
        top = lens[0::2]
        bottom = lens[1::2]
        if bottom.size < top.size:
            bottom = np.concatenate([bottom, [0]])
        steps = np.maximum(top, bottom)
        full_pairs = nbrows // 2
        odd_warp = nbrows % 2

        # --- MMA and launch ---------------------------------------------
        stats.mma_ops = int(steps.sum())
        stats.warps_launched = full_pairs + odd_warp

        # --- broadcast scalar loads --------------------------------------
        ptr_loads = 4 * full_pairs + 2 * odd_warp
        per_block_broadcasts = 3 * nblocks  # block column, bitmap, offset
        x_loads = 2 * nblocks  # the two predicated x-segment reads

        # --- packed value gathers (the only data-dependent sectors) ------
        bidx, odd = _entry_bit_parity(bit)
        entry_idx = np.arange(nnz, dtype=np.int64)
        sectors = entry_idx * vbytes // SECTOR_BYTES
        span = int(sectors.max(initial=0)) + 1
        tx_even = int(np.unique(bidx[~odd] * span + sectors[~odd]).size)
        tx_odd = int(np.unique(bidx[odd] * span + sectors[odd]).size)

        stats.load_transactions = ptr_loads + per_block_broadcasts + x_loads + tx_even + tx_odd
        stats.global_load_bytes = (
            ptr_loads * WARP_SIZE * 4
            + nblocks * WARP_SIZE * (4 + 8 + 4)  # broadcast column/bitmap/offset
            + nnz * vbytes
            + x_loads * WARP_SIZE * vbytes
        )

        # --- y stores: one 32 B segment per block row ---------------------
        stats.store_transactions = nbrows
        stats.global_store_bytes = nbrows * BLOCK_DIM * 4

        # --- CUDA-core decode work ----------------------------------------
        # Algorithm 2: 8 int ops/lane for the matrix side, 2 for the
        # vector side; Algorithm 4: 3 per warp.
        stats.cuda_int_ops = (8 + 2) * WARP_SIZE * nblocks + 3 * WARP_SIZE * stats.warps_launched
        stats.cuda_flops = 0  # all arithmetic runs on the tensor cores
        # Issue slots per MMA step: a fixed part (broadcast loads, bit
        # tests, rank math, register writes, the MMA) plus an
        # occupancy-dependent part — predicated value gathers replay per
        # live lane/sector, so denser blocks issue more micro-ops while
        # predicated-off lanes cost nothing.  Constants calibrated so
        # modeled Spaden throughput matches the paper's measured levels
        # on both boards.
        k_per_step = nnz / stats.mma_ops if stats.mma_ops else 0.0
        slots_per_step = 12.0 + 0.75 * k_per_step
        stats.warp_instructions = (
            ptr_loads + int(round(slots_per_step * stats.mma_ops)) + 4 * stats.warps_launched
        )

        # --- DRAM traffic (everything streams once; x is L2-resident) -----
        x_segment_sectors = touched_sector_bytes(
            np.unique(bit.block_cols).astype(np.int64) * BLOCK_DIM * vbytes, 1
        )
        dram_load = (
            nnz * vbytes  # packed values
            + nblocks * (8 + 4 + 4)  # bitmaps + block columns + offsets
            + (nbrows + 1) * 4  # block row pointers
            + x_segment_sectors
        )
        dram_store = nbrows * BLOCK_DIM * 4
        return KernelProfile(
            self.name, stats, dram_load, dram_store, serial_steps=int(steps.sum())
        )
