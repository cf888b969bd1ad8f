"""SpMV kernels: Spaden and every baseline of the paper's evaluation.

Each kernel implements :class:`~repro.kernels.base.SpMVKernel`:

* ``prepare(csr)`` — build the kernel's storage format, reporting the
  preprocessing cost (Fig. 10a),
* ``run(prepared, x)`` — the numeric SpMV (vectorized NumPy with the
  kernel's precision semantics),
* ``profile(prepared, x)`` — exact analytic traffic/compute counters for
  the roofline model (validated against the lane-level simulator where
  one exists).

Registry: :func:`get_kernel` / :func:`available_kernels`.
"""

from repro.kernels.base import (
    KernelProfile,
    PreparedOperand,
    SpMVKernel,
    available_kernels,
    get_kernel,
    register_kernel,
)
from repro.kernels.csr_scalar import CSRScalarKernel
from repro.kernels.csr_vector import CuSparseCSRKernel
from repro.kernels.csr_warp16 import CSRWarp16Kernel
from repro.kernels.lightspmv import LightSpMVKernel
from repro.kernels.gunrock import GunrockSpMVKernel
from repro.kernels.bsr import CuSparseBSRKernel
from repro.kernels.dasp import DASPKernel
from repro.kernels.spaden import SpadenKernel
from repro.kernels.spaden_nontc import SpadenNoTCKernel
from repro.kernels.spaden_wmma import SpadenWMMAKernel

__all__ = [
    "KernelProfile",
    "PreparedOperand",
    "SpMVKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "CSRScalarKernel",
    "CuSparseCSRKernel",
    "CSRWarp16Kernel",
    "LightSpMVKernel",
    "GunrockSpMVKernel",
    "CuSparseBSRKernel",
    "DASPKernel",
    "SpadenKernel",
    "SpadenNoTCKernel",
    "SpadenWMMAKernel",
]
