"""Spaden via the conventional WMMA API — the §3 counterfactual.

What Spaden would cost *without* the reverse-engineered register access:
each pair of decoded blocks must be materialized as a dense 16x16 tile
in shared memory, loaded with ``wmma::load_matrix_sync`` (all 256
elements, zeros included), and the result written back through shared
memory before extraction.  Numerically identical to Spaden; the profile
charges the staging traffic and instructions the direct-register path
eliminates ("skipping the conventional data preparation overhead").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.constants import WARP_SIZE
from repro.formats.bitbsr import BitBSRMatrix
from repro.kernels.base import KernelProfile, PreparedOperand, register_kernel
from repro.kernels.spaden import SpadenKernel

__all__ = ["SpadenWMMAKernel"]


@register_kernel
class SpadenWMMAKernel(SpadenKernel):
    """The §3 counterfactual: Spaden forced through the conventional WMMA path."""

    name = "spaden-wmma"
    label = "Spaden (WMMA path)"
    # an ablation, not a production path: it stays out of the fallback chain
    capabilities = dataclasses.replace(SpadenKernel.capabilities, fallback_tier=None)

    def profile(self, prepared: PreparedOperand, x: np.ndarray) -> KernelProfile:
        base = super().profile(prepared, x)
        bit: BitBSRMatrix = prepared.data
        stats = base.stats
        steps = int(stats.mma_ops)
        warps = int(stats.warps_launched)

        # staging: per MMA step, fragments A and B are built as dense
        # 16x16 float32 tiles in shared memory (write + read = 2 passes
        # each) and the conventional load walks all 256 elements; the
        # accumulator is stored and re-read once per warp for extraction
        tile_bytes = 16 * 16 * 4
        stats.shared_bytes += steps * 2 * 2 * tile_bytes + warps * 2 * tile_bytes
        # the shared-memory fill/drain costs extra instruction slots:
        # 256 elements / 32 lanes = 8 vector ops per direction per operand
        stats.warp_instructions += steps * 4 * 8 + warps * 16
        stats.cuda_int_ops += steps * 2 * WARP_SIZE  # shared addressing
        return KernelProfile(
            self.name,
            stats,
            base.dram_load_bytes,
            base.dram_store_bytes,
            serial_steps=base.serial_steps * 2,  # staging lengthens the chain
        )
