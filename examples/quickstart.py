"""Quickstart: sparse matrix -> bitBSR -> SpMV on (simulated) tensor cores.

Builds a small banded matrix, converts it to the paper's bitBSR format,
runs Spaden's SpMV three ways (vectorized, lane-accurate simulation, and
scipy reference), and prints memory and traffic statistics.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.builder import build_bitbsr
from repro.core.spmv import spaden_spmv, spaden_spmv_simulated
from repro.formats.convert import convert, to_scipy
from repro.formats.memory import format_footprint
from repro.kernels import get_kernel
from repro.gpu.spec import get_gpu
from repro.matrices.random import random_banded
from repro.matrices.generators import fp16_exact_values
from repro.perf import estimate_time
from repro.perf.metrics import gflops


def main() -> None:
    rng = np.random.default_rng(0)
    # inside Spaden's effective scope: nrow > 10,000 and nnz/nrow > 32
    n = 16_384
    coo = random_banded(n, 56, fill=0.4, seed=0)
    print(f"matrix: {n}x{n}, nnz={coo.nnz} ({coo.nnz / n:.1f} per row)")

    # 1. convert to bitBSR (Fig. 4 of the paper)
    report = build_bitbsr(coo)
    bit = report.matrix
    print(
        f"bitBSR: {bit.nblocks} blocks of 8x8, "
        f"{report.mean_block_nnz:.1f} nnz/block, "
        f"built in {report.host_ns_per_nnz:.1f} ns/nnz (host)"
    )

    # 2. SpMV three ways
    x = fp16_exact_values(rng, n)
    y_fast = spaden_spmv(bit, x)
    y_sim, stats = spaden_spmv_simulated(bit, x)
    y_ref = to_scipy(coo) @ x
    print(f"max |fast - reference| = {np.abs(y_fast - y_ref).max():.2e}")
    print(f"max |simulated - fast| = {np.abs(y_sim - y_fast).max():.2e}")
    print(
        f"simulated execution: {stats.mma_ops} tensor-core MMAs, "
        f"{stats.load_transactions} load transactions, "
        f"{stats.global_load_bytes / coo.nnz:.1f} B loaded per nnz"
    )

    # 3. memory footprint vs CSR (the Fig. 10b comparison)
    for name in ("csr", "bitbsr"):
        print(format_footprint(convert(coo, name)))

    # 4. modeled performance on the paper's GPUs
    csr = convert(coo, "csr")
    x32 = x.astype(np.float32)
    for kernel_name in ("spaden", "cusparse-csr"):
        kernel = get_kernel(kernel_name)
        prep = kernel.prepare(csr)
        profile = kernel.profile(prep, x32)
        for gpu_name in ("L40", "V100"):
            tb = estimate_time(profile, get_gpu(gpu_name))
            print(
                f"{kernel.label:>14} on {gpu_name}: {tb.total * 1e6:7.1f} us "
                f"({gflops(csr.nnz, tb.total):6.1f} GFLOPS, {tb.bound}-bound)"
            )


if __name__ == "__main__":
    main()
