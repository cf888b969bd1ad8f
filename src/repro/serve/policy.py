"""Flush policies: when does a waiting coalescing group become a micro-batch?

The front-end holds one pending group per registered matrix, and one
:class:`FlushPolicy` governs every group.  Its dispatcher is
work-conserving: while a worker is idle it flushes the groups holding
the oldest requests at once (cause ``idle``), so a group waits only
while every worker is busy.  The policy decides when that wait ends,
as a pure function of three observations — group size, oldest request
age, and the earliest per-request deadline — so the dispatcher loop
stays trivial and the policy itself is unit-testable against a
:class:`~repro.resilience.ManualClock` without any threads.

Waiting is not what makes a batch worth having: a batch shares one
cache lookup and one chain walk, but each request is still
fingerprinted and run as its own SpMV over the decoded operand
(``spmv_many`` loops over the vectors).  A request waits because no
worker is free, and the triggers bound that wait:

* **max-batch** — the group reached ``max_batch`` requests (also the
  cap on one batch, idle flushes included);
* **max-wait** — the oldest request has waited ``max_wait_seconds``;
  latency is bounded even for unpopular matrices;
* **deadline** — the earliest :class:`~repro.resilience.Deadline` in
  the group expires within ``deadline_slack_seconds``; flush now so the
  engine still has budget to run it.

A batch these triggers flush while every worker is busy queues in the
pool for the next free worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServeError

__all__ = ["FlushPolicy"]


@dataclass(frozen=True)
class FlushPolicy:
    """When a pending same-matrix group stops waiting for a free worker.

    The front-end consults it only while every worker is busy; an idle
    worker takes the oldest group at once, whatever the policy says.

    * ``max_batch`` — flush as soon as the group holds this many
      requests (also the cap on how many requests one flush takes; the
      remainder stays queued for the next batch).
    * ``max_wait_seconds`` — flush once the group's *oldest* request
      has been pending this long, whatever the size.
    * ``deadline_slack_seconds`` — flush once the group's earliest
      request deadline is within this many seconds of expiry.  ``0.0``
      means "flush only once a deadline has actually expired"; a
      positive slack leaves the engine that much budget to execute.
    """

    max_batch: int = 32
    max_wait_seconds: float = 0.01
    deadline_slack_seconds: float = 0.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_seconds < 0:
            raise ServeError(
                f"max_wait_seconds must be >= 0, got {self.max_wait_seconds}"
            )
        if self.deadline_slack_seconds < 0:
            raise ServeError(
                f"deadline_slack_seconds must be >= 0, got "
                f"{self.deadline_slack_seconds}"
            )

    def decide(
        self,
        *,
        size: int,
        oldest_age: float,
        min_expires_in: float | None,
    ) -> str | None:
        """The flush cause for one group, or ``None`` to keep waiting.

        ``size`` is the group's pending request count, ``oldest_age``
        is seconds since its oldest request was admitted, and
        ``min_expires_in`` is seconds until the group's earliest
        deadline expires (``None`` when no request carries one).
        Returns ``"max-batch"`` / ``"max-wait"`` / ``"deadline"`` — the
        cause is recorded on the ``serve_batches_total`` metric so a
        trajectory shows *why* batches flushed, not just how big (the
        dispatcher records its own ``idle`` and ``drain`` flushes there
        too).
        """
        if size <= 0:
            return None
        if size >= self.max_batch:
            return "max-batch"
        if oldest_age >= self.max_wait_seconds:
            return "max-wait"
        if min_expires_in is not None and min_expires_in <= self.deadline_slack_seconds:
            return "deadline"
        return None

    def due_in(self, *, oldest_age: float, min_expires_in: float | None) -> float:
        """Seconds until time pressure alone makes this group due.

        The dispatcher sleeps at most this long before rechecking (a
        new submission wakes it earlier).  Only the two time triggers
        contribute; size pressure arrives with a submission, which
        notifies the dispatcher anyway.
        """
        waits = [self.max_wait_seconds - oldest_age]
        if min_expires_in is not None:
            waits.append(min_expires_in - self.deadline_slack_seconds)
        return max(0.0, min(waits))
