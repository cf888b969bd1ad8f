"""Kernel interface, registry, and shared traffic-counting helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.constants import SECTOR_BYTES
from repro.errors import KernelError
from repro.exec.modes import ExecutionMode, KernelCapabilities
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import ExecutionStats

__all__ = [
    "KernelProfile",
    "PreparedOperand",
    "SpMVKernel",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "registered_kernels",
    "validate_operand",
    "stream_transactions",
    "gather_transactions",
    "grouped_transactions",
    "touched_sector_bytes",
]

_REGISTRY: dict[str, type["SpMVKernel"]] = {}


def _verify_capabilities(cls: type["SpMVKernel"]) -> None:
    """Cross-check declared capabilities against the overridden methods.

    A capability flag the implementation does not back (or an override
    the declaration hides) is a registration-time ``ValueError``, so
    duck-typing can never creep back in behind the declarations.
    """
    caps = cls.capabilities
    backing = {
        "batch": cls.run_many is not SpMVKernel.run_many,
        "simulate": cls.simulate is not SpMVKernel.simulate,
        "simulate_batch": cls.simulate_many is not SpMVKernel.simulate_many,
    }
    for flag, overridden in backing.items():
        if getattr(caps, flag) != overridden:
            verb = "overrides" if overridden else "does not override"
            raise ValueError(
                f"kernel {cls.name!r} declares {flag}={getattr(caps, flag)} "
                f"but {verb} the backing method"
            )
    if caps.simulate_batch and not caps.simulate:
        raise ValueError(f"kernel {cls.name!r}: simulate_batch requires simulate")
    if caps.overflow_check and not caps.simulate:
        raise ValueError(f"kernel {cls.name!r}: overflow_check requires simulate")


def register_kernel(cls: type["SpMVKernel"]) -> type["SpMVKernel"]:
    """Class decorator registering a kernel under its ``name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"kernel {cls.name!r} already registered")
    _verify_capabilities(cls)
    _REGISTRY[cls.name] = cls
    return cls


def get_kernel(name: str) -> "SpMVKernel":
    """Instantiate a registered kernel by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KernelError(f"unknown kernel {name!r}; known: {sorted(_REGISTRY)}") from None


def available_kernels() -> list[str]:
    """Names of all registered kernels, sorted."""
    return sorted(_REGISTRY)


def registered_kernels() -> dict[str, type["SpMVKernel"]]:
    """Name -> class view of the registry (for capability-driven callers)."""
    return dict(_REGISTRY)


def validate_operand(
    kernel_name: str, prepared: "PreparedOperand", xs: np.ndarray, *, batched: bool
) -> np.ndarray:
    """The one operand/shape validator behind every kernel entry point.

    Checks that ``prepared`` belongs to ``kernel_name`` and that ``xs``
    is a well-shaped input — ``(ncols,)`` for a vector, ``(k, ncols)``
    for a batch — then returns it as float32.  ``run``, ``run_many``,
    ``simulate`` and ``simulate_many`` all funnel through here, so the
    error messages are identical no matter which path rejects the input.
    """
    if prepared.kernel_name != kernel_name:
        raise KernelError(
            f"operand prepared for {prepared.kernel_name!r} passed to {kernel_name!r}"
        )
    xs = np.asarray(xs)
    if batched:
        if xs.ndim != 2 or xs.shape[1] != prepared.shape[1]:
            raise KernelError(
                f"X has shape {xs.shape}, expected (k, {prepared.shape[1]})"
            )
    else:
        if xs.ndim != 1 or xs.shape[0] != prepared.shape[1]:
            raise KernelError(f"x has shape {xs.shape}, expected ({prepared.shape[1]},)")
    return xs.astype(np.float32)


@dataclass
class PreparedOperand:
    """A matrix converted into one kernel's execution format."""

    kernel_name: str
    #: The kernel-specific storage object (format instance or tuple).
    data: Any
    #: Shape of the logical matrix.
    shape: tuple[int, int]
    #: Nonzeros of the logical matrix.
    nnz: int
    #: Device bytes resident for this representation.
    device_bytes: int
    #: Modeled device-side preprocessing time, seconds (Fig. 10a).
    preprocessing_seconds: float
    #: Measured host wall time of the conversion, seconds.
    host_seconds: float = 0.0
    #: Host bytes of data the kernel derives from ``data`` on its first
    #: run (Spaden's decoded run view), known at prepare.  Not part of
    #: the device footprint: ``bytes_per_nnz`` and Fig. 10b ignore it,
    #: the operand cache charges it.
    host_bytes: int = 0

    @property
    def bytes_per_nnz(self) -> float:
        return self.device_bytes / self.nnz if self.nnz else float("inf")

    @property
    def preprocessing_ns_per_nnz(self) -> float:
        return self.preprocessing_seconds * 1e9 / self.nnz if self.nnz else 0.0


@dataclass
class KernelProfile:
    """Traffic/compute counters of one kernel execution.

    ``stats`` holds L1/L2-level transaction counts (what the warp issues);
    ``dram_load_bytes``/``dram_store_bytes`` are the after-cache DRAM
    traffic the profiler computed (streams count once; gathered vectors
    count their compulsory unique-sector footprint, since every evaluated
    x vector fits in the L2 of both boards).
    """

    kernel_name: str
    stats: ExecutionStats
    dram_load_bytes: int
    dram_store_bytes: int
    #: True for kernels built on the V100-tuned ``mma.m8n8k4`` shape,
    #: which the PTX ISA documents as substantially slower on later
    #: architectures (the paper cites this for DASP, §5.2).
    arch_sensitive_mma: bool = False
    #: Total *serial dependent iterations* summed over all warps (e.g. a
    #: Spaden warp's block steps, a BSR warp's blocks).  Feeds the
    #: latency-chain term: when few warps are resident, these chains
    #: cannot be overlapped and bound the runtime regardless of bandwidth.
    serial_steps: int = 0
    #: Fraction of the GPU's sustained bandwidth this kernel's access
    #: pattern achieves (1.0 = a modern tuned kernel).  Used for older
    #: kernels whose scheduling granularity leaves memory slack the
    #: counters cannot see (LightSpMV's per-row dynamic dispatch).
    bandwidth_efficiency: float = 1.0

    @property
    def dram_bytes(self) -> int:
        return self.dram_load_bytes + self.dram_store_bytes

    @property
    def transactions(self) -> int:
        return self.stats.load_transactions + self.stats.store_transactions


class SpMVKernel(ABC):
    """Interface every evaluated SpMV method implements.

    The formal surface is four entry points — ``run`` / ``run_many``
    (numeric), ``simulate`` / ``simulate_many`` (lane-accurate) — plus
    the analytic ``profile``.  Which of them a kernel actually backs is
    declared in :attr:`capabilities` and enforced at registration, so
    callers branch on flags rather than sniffing attributes: the
    simulated entry points exist on every kernel and raise a
    :class:`~repro.errors.KernelError` when the capability is absent.
    """

    #: Registry key (e.g. ``"spaden"``, ``"cusparse-csr"``).
    name: str = ""
    #: Human-readable label used in benchmark tables.
    label: str = ""
    #: Declared capabilities, cross-checked at registration against the
    #: methods the class overrides (see :func:`register_kernel`).
    capabilities: KernelCapabilities = KernelCapabilities()

    @property
    def uses_tensor_cores(self) -> bool:
        """Whether the method computes on tensor cores (from capabilities)."""
        return self.capabilities.tensor_cores

    @abstractmethod
    def prepare(self, csr: CSRMatrix) -> PreparedOperand:
        """Convert a CSR matrix into this kernel's format."""

    @abstractmethod
    def run(self, prepared: PreparedOperand, x: np.ndarray) -> np.ndarray:
        """Execute the SpMV numerically; returns float32 y."""

    @abstractmethod
    def profile(self, prepared: PreparedOperand, x: np.ndarray) -> KernelProfile:
        """Exact analytic traffic/compute counters for one execution."""

    def run_many(self, prepared: PreparedOperand, X: np.ndarray) -> np.ndarray:
        """Execute the SpMV for a batch of vectors.

        ``X`` has shape ``(k, ncols)`` (one input vector per row); the
        result has shape ``(k, nrows)``.  The base implementation is the
        loop fallback — one :meth:`run` per vector, so results are
        bitwise-identical to ``k`` independent calls.  Kernels with a
        batched path of their own (Spaden's loop over one memoized run
        view, the CSR gather) override this, preserve the per-vector
        arithmetic exactly, and declare ``capabilities.batch``.
        """
        X = self._check_many(prepared, X)
        out = np.zeros((X.shape[0], prepared.shape[0]), dtype=np.float32)
        for j in range(X.shape[0]):
            out[j] = self.run(prepared, X[j])
        return out

    def simulate(
        self, prepared: PreparedOperand, x: np.ndarray, check_overflow: bool = False
    ) -> tuple[np.ndarray, ExecutionStats]:
        """Lane-accurate execution; ``(y, measured ExecutionStats)``.

        Part of the formal interface but capability-gated: kernels that
        do not model warp behavior inherit this stub, which raises a
        :class:`~repro.errors.KernelError`.  Implementations accept
        ``check_overflow`` uniformly; only kernels declaring
        ``capabilities.overflow_check`` act on it.
        """
        raise KernelError(
            f"kernel {self.name!r} does not support SIMULATED execution "
            f"(capabilities: {', '.join(m.name for m in self.capabilities.modes)})"
        )

    def simulate_many(
        self, prepared: PreparedOperand, X: np.ndarray, check_overflow: bool = False
    ) -> tuple[np.ndarray, ExecutionStats]:
        """Lane-accurate batched execution; ``(Y, merged ExecutionStats)``.

        The base implementation is the loop fallback over
        :meth:`simulate` — available to every simulate-capable kernel,
        with counters merged across the batch.  Kernels whose simulated
        decode amortizes across vectors override it and declare
        ``capabilities.simulate_batch``.
        """
        if not self.capabilities.simulate:
            raise KernelError(
                f"kernel {self.name!r} does not support SIMULATED execution "
                f"(capabilities: {', '.join(m.name for m in self.capabilities.modes)})"
            )
        X = self._check_many(prepared, X)
        out = np.zeros((X.shape[0], prepared.shape[0]), dtype=np.float32)
        merged = ExecutionStats()
        for j in range(X.shape[0]):
            out[j], stats = self.simulate(prepared, X[j], check_overflow=check_overflow)
            merged.merge(stats)
        return out, merged

    # -- shared helpers ------------------------------------------------------
    def _check(self, prepared: PreparedOperand, x: np.ndarray) -> np.ndarray:
        """Validate a single ``(ncols,)`` input vector."""
        return validate_operand(self.name, prepared, x, batched=False)

    def _check_many(self, prepared: PreparedOperand, X: np.ndarray) -> np.ndarray:
        """Validate a ``(k, ncols)`` batch of input vectors."""
        return validate_operand(self.name, prepared, X, batched=True)


# -- traffic-counting helpers shared by the analytic profilers ---------------


def stream_transactions(count: int, itemsize: int) -> int:
    """Sectors for a fully coalesced streaming read/write of an array."""
    if count <= 0:
        return 0
    return -(-count * itemsize // SECTOR_BYTES)


def gather_transactions(indices: np.ndarray, itemsize: int, group: int = 32) -> int:
    """Sectors issued when warps gather ``indices`` in groups of ``group``.

    Models one load instruction per group of consecutive lanes: each group
    costs the number of distinct sectors its addresses fall in.  Exact and
    vectorized (sort each group, count distinct).
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return 0
    sectors = idx * itemsize // SECTOR_BYTES
    pad = (-sectors.size) % group
    if pad:
        # padding duplicates the final sector so it never adds transactions
        sectors = np.concatenate([sectors, np.full(pad, sectors[-1])])
    grid = np.sort(sectors.reshape(-1, group), axis=1)
    distinct = 1 + np.count_nonzero(np.diff(grid, axis=1), axis=1)
    return int(distinct.sum())


def grouped_transactions(group_keys: np.ndarray, element_indices: np.ndarray, itemsize: int) -> int:
    """Sectors issued when each *group* of lanes is one load instruction.

    ``group_keys[i]`` identifies the warp-instruction that accesses element
    ``element_indices[i]``; the cost of one instruction is the number of
    distinct sectors among its addresses, so the total is the count of
    distinct (group, sector) pairs.  Exact and fully vectorized.
    """
    g = np.asarray(group_keys, dtype=np.int64)
    idx = np.asarray(element_indices, dtype=np.int64)
    if g.shape != idx.shape:
        raise KernelError("group keys and indices must align")
    if g.size == 0:
        return 0
    sectors = idx * itemsize // SECTOR_BYTES
    span = int(sectors.max()) + 1
    return int(np.unique(g * span + sectors).size)


def touched_sector_bytes(indices: np.ndarray, itemsize: int) -> int:
    """Compulsory DRAM footprint of a gathered array: unique sectors x 32.

    This is the after-cache traffic for an operand that fits in L2 (both
    boards' L2 holds every evaluated x), i.e. each sector is fetched from
    DRAM once no matter how many warps re-read it.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return 0
    return int(np.unique(idx * itemsize // SECTOR_BYTES).size) * SECTOR_BYTES
