"""Result types of the execution layer.

:class:`DegradationEvent` lives here (it is produced by the chain walker
in :mod:`repro.exec.chain`); :mod:`repro.robustness` re-exports it next
to the fault models that cause it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exec.modes import ExecutionMode
from repro.gpu.counters import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.kernels.base import KernelProfile, PreparedOperand

__all__ = ["DegradationEvent", "ExecutionResult"]


@dataclass(frozen=True)
class DegradationEvent:
    """One abandoned kernel attempt."""

    #: Kernel that failed.
    kernel: str
    #: Stage the failure surfaced in: prepare / verify / run / check.
    stage: str
    #: Exception class name (e.g. ``"BitmapPopcountError"``).
    cause: str
    #: The exception message.
    detail: str
    #: Kernel tried next, or ``None`` if the chain was exhausted.
    fallback: str | None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        nxt = f" -> {self.fallback}" if self.fallback else " (chain exhausted)"
        return f"[{self.kernel}/{self.stage}] {self.cause}: {self.detail}{nxt}"


@dataclass
class ExecutionResult:
    """Outcome of one :func:`repro.exec.execute` call.

    ``y`` is always the float32 result (``(nrows,)`` for a vector,
    ``(k, nrows)`` for a batch).  ``stats`` is populated for SIMULATED
    executions, ``profile`` for PROFILED ones; both are ``None``
    otherwise.  ``events`` is the degradation log — empty for a direct
    ``execute``, one entry per abandoned attempt when the result came
    through :func:`repro.exec.execute_chain`.
    """

    #: The computed result (float32).
    y: np.ndarray
    #: Name of the kernel that produced ``y``.
    kernel: str
    #: The mode the successful execution actually ran in.
    mode: ExecutionMode
    #: The operand the run used (cache keys, device bytes, reuse).
    operand: "PreparedOperand"
    #: Measured simulator counters (SIMULATED mode only).
    stats: ExecutionStats | None = None
    #: Exact analytic counters (PROFILED mode only).
    profile: "KernelProfile | None" = None
    #: Host seconds spent in ``prepare`` (0.0 for pre-prepared operands).
    prepare_seconds: float = 0.0
    #: Host seconds spent in the run stage.
    run_seconds: float = 0.0
    #: One event per abandoned attempt, in chain order.
    events: list[DegradationEvent] = field(default_factory=list)
    #: Kernel names tried, including the successful one.
    attempts: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when at least one kernel was abandoned before ``y``."""
        return bool(self.events)
