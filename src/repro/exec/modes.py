"""Execution modes and declared kernel capabilities.

The paper's contribution is one algorithm observed three ways: the
numeric result (§4.3), the lane/register-accurate simulation (§3), and
the analytic traffic counters (§5).  :class:`ExecutionMode` names those
observation paths; :class:`KernelCapabilities` is the per-kernel
declaration of which paths exist, replacing ``hasattr`` duck-typing at
every call site.

This module is the dependency root of :mod:`repro.exec`: it imports
nothing from the rest of the package (``kernels/base.py`` imports it, so
it must stay leaf-level).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ExecutionMode", "KernelCapabilities"]


class ExecutionMode(enum.Enum):
    """The three observation paths of one SpMV execution.

    NUMERIC
        The vectorized numeric path (``run`` / ``run_many``): the
        fastest way to a correct ``y``, no counters.
    SIMULATED
        The lane-accurate simulator (``simulate`` / ``simulate_many``):
        warps, fragments, and the memory system step per instruction,
        producing measured :class:`~repro.gpu.counters.ExecutionStats`.
        Capability-gated — only kernels modeling warp behavior have it.
    PROFILED
        The numeric path plus the exact analytic
        :class:`~repro.kernels.base.KernelProfile` (§5 counters computed
        from structure, no simulation).  Single-vector only.
    """

    NUMERIC = "numeric"
    SIMULATED = "simulated"
    PROFILED = "profiled"


@dataclass(frozen=True)
class KernelCapabilities:
    """What one kernel declares it can do.

    Declarations are verified at registration time against the methods
    the class actually overrides (see
    :func:`repro.kernels.base.register_kernel`), so a capability flag
    can never silently desync from the implementation.
    """

    #: The method computes on tensor cores (drives the pre-flight
    #: fragment-layout verification and the fallback-chain ordering).
    tensor_cores: bool = False
    #: ``run_many`` is a batch path of the kernel's own (Spaden's loop
    #: over one memoized run view, the vectorized CSR gather).  The loop
    #: fallback on the base class means every kernel *accepts* batches;
    #: this flag marks the ones with a path of their own.
    batch: bool = False
    #: A lane-accurate ``simulate`` path exists.
    simulate: bool = False
    #: A natively batched ``simulate_many`` exists (one simulated decode
    #: serving the whole batch).  Implies ``simulate``.
    simulate_batch: bool = False
    #: ``simulate(..., check_overflow=True)`` performs accumulator
    #: overflow detection (fp16 MMA kernels); kernels accumulating in
    #: fp32/fp64 accept the flag but have nothing to check.
    overflow_check: bool = False
    #: Position in the graceful-degradation chain, or ``None`` to stay
    #: out of it.  Lower tiers are tried first; ties break on
    #: registration name.  Tensor-core kernels take the low tiers, the
    #: always-works scalar baseline the highest.
    fallback_tier: int | None = None

    def supports(self, mode: ExecutionMode) -> bool:
        """Whether this kernel implements ``mode``."""
        if mode is ExecutionMode.SIMULATED:
            return self.simulate
        return True

    @property
    def modes(self) -> tuple[ExecutionMode, ...]:
        """Every supported :class:`ExecutionMode`, in enum order."""
        return tuple(m for m in ExecutionMode if self.supports(m))
