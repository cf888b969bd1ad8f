"""Per-request time budgets, enforced at stage boundaries.

A :class:`Deadline` is created when a request is admitted and carried
through :func:`repro.exec.execute` / :func:`repro.exec.execute_chain`.
The stage machine is the checkpoint — no watchdog threads: between
stages (and between chain attempts) the executor calls
:meth:`Deadline.check`, and the first checkpoint past expiry raises a
structured :class:`~repro.errors.DeadlineExceededError` tagged with the
stage and the elapsed time.  A stage that is already running is never
interrupted; the guarantee is "no *new* work starts after expiry",
which is what keeps enforcement passive and deterministic.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import DeadlineExceededError, ResilienceError
from repro.obs import get_registry

__all__ = ["Deadline"]


def _count_miss(stage: str) -> None:
    get_registry().counter(
        "resilience_deadline_exceeded_total",
        "Deadline checkpoints that found the budget spent, by stage.",
        labels=("stage",),
    ).inc(stage=stage)


class Deadline:
    """One request's time budget against an injectable clock.

    ``budget_seconds`` is the total allowance from construction;
    ``clock`` is any zero-argument callable returning monotonic seconds
    (:func:`time.monotonic` by default, a
    :class:`~repro.resilience.clock.ManualClock` in tests and chaos
    campaigns).
    """

    def __init__(
        self, budget_seconds: float, *, clock: Callable[[], float] = time.monotonic
    ):
        budget_seconds = float(budget_seconds)
        if budget_seconds <= 0:
            raise ResilienceError(
                f"deadline budget must be positive, got {budget_seconds!r}"
            )
        self.budget = budget_seconds
        self._clock = clock
        self._start = clock()

    @property
    def elapsed(self) -> float:
        """Seconds consumed since the deadline was created."""
        return self._clock() - self._start

    @property
    def expires_at(self) -> float:
        """Absolute clock reading at which the budget runs out.

        This is what deadline-aware schedulers order by: the serving
        front-end's batch assembly sorts requests so the most urgent
        deadline rides first (see :class:`repro.serve.ServeFrontend`).
        """
        return self._start + self.budget

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.budget - self.elapsed

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, stage: str) -> None:
        """Checkpoint: raise if the budget is spent, else return at once.

        ``stage`` names the boundary performing the check (an exec stage
        or ``"dispatch"`` between chain attempts) and is carried on the
        raised :class:`~repro.errors.DeadlineExceededError`.
        """
        elapsed = self.elapsed
        if elapsed >= self.budget:
            _count_miss(stage)
            raise DeadlineExceededError(
                f"deadline of {self.budget:g}s exceeded at the {stage!r} "
                f"boundary after {elapsed:g}s",
                stage=stage,
                elapsed=elapsed,
                budget=self.budget,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(budget={self.budget:g}, remaining={self.remaining():g})"
