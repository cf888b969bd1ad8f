"""The concurrent multi-tenant front-end over :class:`~repro.engine.SpMVEngine`.

This is the serving layer: many callers on many threads submit SpMV
requests against registered matrices, and the front-end turns that
concurrent traffic into the same-matrix micro-batches the engine
already amortizes — one cache lookup and one chain walk per batch
instead of one per request.  Each registered matrix is held as one
:class:`~repro.engine.MatrixHandle`, so it is hashed at most once (at
registration when it is warmed, otherwise on its first request) and
every later request reuses that digest.  The moving parts:

* **admission control** (:meth:`ServeFrontend.submit`): a request is
  validated, checked against its tenant's
  :class:`~repro.serve.quota.TenantQuota` (queue depth + token-bucket
  rate), stamped with an optional per-request
  :class:`~repro.resilience.Deadline`, and queued — or rejected with a
  structured :class:`~repro.errors.AdmissionError` before it costs
  anything;
* **late-binding dispatch** (:meth:`_dispatch_loop`): one dispatcher
  thread watches the per-matrix pending groups and the number of
  batches in flight, and hands a batch to a worker only when that
  worker is free: each idle worker takes the group holding the oldest
  request (cause ``idle``).  While every worker is busy nothing
  flushes, so same-matrix requests keep joining their group, and a
  batch pays one cache lookup (and, for an evicted operand, one store
  load and decode) whatever its size.  ``close()`` flushes the rest
  (cause ``drain``).  Batches assemble in urgency order (priority,
  then earliest ``expires_at``, then admission order), at most
  ``max_batch`` requests each;
* **execution** (:meth:`_run_batch`): a thread pool runs each batch
  through :meth:`~repro.engine.SpMVEngine.spmv_many` with
  ``return_errors=True``, so every request resolves its
  :class:`ServeTicket` with either the result vector or the structured
  error — the zero-lost contract of the flush seam, now concurrent.

Thread-safety follows the PR-7 discipline: every shared field is
declared ``guarded-by`` the front-end's condition lock, the lock is
never held across engine execution (batches run in parallel), and
metrics are published capture-then-publish outside critical sections.
Tickets wait on a second condition, shared by all of a front-end's
tickets and never taken while the first is held.  The package is
audited by :mod:`repro.analysis.concurrency` like the other serving
seams.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine import MatrixHandle, SpMVEngine
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    KernelError,
    ServeError,
)
from repro.formats.csr import CSRMatrix
from repro.obs import get_registry
from repro.resilience import Deadline
from repro.serve.quota import TenantQuota, TokenBucket

__all__ = ["ServeFrontend", "ServeTicket"]

# -- metrics (capture-then-publish helpers, engine-style) ---------------------

def _count_admission(tenant: str) -> None:
    get_registry().counter(
        "serve_admitted_total",
        "Requests admitted by the serving front-end.",
        labels=("tenant",),
    ).inc(tenant=tenant)


def _count_rejection(tenant: str, reason: str) -> None:
    get_registry().counter(
        "serve_admission_rejected_total",
        "Requests rejected by admission control, by quota reason.",
        labels=("tenant", "reason"),
    ).inc(tenant=tenant, reason=reason)


def _count_request(tenant: str, outcome: str) -> None:
    get_registry().counter(
        "serve_requests_total",
        "Requests resolved by the front-end, by final outcome.",
        labels=("tenant", "outcome"),
    ).inc(tenant=tenant, outcome=outcome)


def _count_batch(matrix: str, cause: str, size: int) -> None:
    registry = get_registry()
    registry.counter(
        "serve_batches_total",
        "Coalesced micro-batches flushed to the engine, by flush cause.",
        labels=("matrix", "cause"),
    ).inc(matrix=matrix, cause=cause)
    registry.histogram(
        "serve_batch_size",
        "Requests per coalesced front-end batch.",
        labels=("matrix",),
        buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
    ).observe(size, matrix=matrix)


def _observe_latency(tenant: str, seconds: float) -> None:
    get_registry().histogram(
        "serve_request_seconds",
        "Admission-to-resolution latency per request.",
        labels=("tenant",),
    ).observe(seconds, tenant=tenant)


def _set_depth(tenant: str, depth: int) -> None:
    get_registry().gauge(
        "serve_queue_depth",
        "In-flight (admitted, unresolved) requests per tenant.",
        labels=("tenant",),
    ).set(depth, tenant=tenant)


#: ``ServeTicket._outcome`` before resolution (a result is never this object).
_PENDING = object()

_log = logging.getLogger(__name__)


class ServeTicket:
    """Handle to one admitted request; resolves to a vector or an error.

    :meth:`result` blocks for (and returns) the ``y`` vector, raising
    the structured error instead if the request failed; :meth:`error`
    blocks and returns the exception instance (or ``None``) without
    raising — the shape the engine's ``return_errors`` path speaks.
    Both raise :class:`TimeoutError` if ``timeout`` seconds pass first.

    A ticket is slotted and holds no lock of its own: every ticket of a
    front-end waits on one shared condition ``cond``, so a caller that
    keeps its tickets retains a few fields and the outcome per request.
    A ticket resolves exactly once, through :func:`_resolve`.
    """

    __slots__ = ("seq", "tenant", "matrix", "_cond", "_outcome", "_callbacks")

    def __init__(self, seq: int, tenant: str, matrix: str, cond: threading.Condition):
        self.seq = seq
        self.tenant = tenant
        self.matrix = matrix
        self._cond = cond
        self._outcome: object = _PENDING  # concurrency: guarded-by(self._cond)
        self._callbacks: list | None = None  # concurrency: guarded-by(self._cond)

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The result vector; raises the request's error on failure."""
        outcome = self._wait(timeout)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def error(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; the error instance, or ``None`` if ok."""
        outcome = self._wait(timeout)
        return outcome if isinstance(outcome, BaseException) else None

    def done(self) -> bool:
        with self._cond:
            return self._outcome is not _PENDING

    def add_done_callback(self, fn: Callable[["ServeTicket"], None]) -> None:
        """Invoke ``fn(ticket)`` once resolved (immediately if done).

        A callback registered before resolution runs on the resolving
        worker thread, after the ticket lock is released; one that
        raises is logged and does not stop the others.
        """
        with self._cond:
            if self._outcome is _PENDING:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        fn(self)

    def _wait(self, timeout: float | None) -> object:
        """Block until resolved; the result vector or the error instance."""
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._outcome is _PENDING:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"ticket seq={self.seq} unresolved after {timeout:g}s"
                    )
                self._cond.wait(remaining)
            return self._outcome

    def _settle(self, outcome: object) -> list | None:
        """Record ``outcome``; the callbacks to run, or ``None`` if already done."""
        with self._cond:
            if self._outcome is not _PENDING:
                return None
            self._outcome = outcome
            callbacks, self._callbacks = self._callbacks, None
        return callbacks or []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return f"ServeTicket(seq={self.seq}, tenant={self.tenant!r}, {state})"


def _resolve(cond: threading.Condition, outcomes: list) -> None:
    """Resolve ``(ticket, y-or-error)`` pairs whose tickets share ``cond``.

    Every ticket is settled in one critical section with one
    ``notify_all``; the done-callbacks then run on this thread, in
    ticket order, with no lock held.  A callback that raises is logged
    (as :class:`concurrent.futures.Future` does) so the rest still run.
    A ticket that was already resolved keeps its first outcome, and
    :class:`~repro.errors.ServeError` is raised once every other ticket
    has resolved and run its callbacks.
    """
    with cond:
        settled = [(ticket, ticket._settle(outcome)) for ticket, outcome in outcomes]
        cond.notify_all()
    for ticket, callbacks in settled:
        for fn in callbacks or ():
            try:
                fn(ticket)
            except Exception:
                _log.exception("done-callback of ticket seq=%d raised", ticket.seq)
    twice = [ticket.seq for ticket, callbacks in settled if callbacks is None]
    if twice:
        raise ServeError(f"tickets {twice} were already resolved")


@dataclass(frozen=True)
class _Pending:
    """One admitted request waiting in its matrix's coalescing group."""

    seq: int
    tenant: str
    matrix: str
    handle: MatrixHandle
    x: np.ndarray
    priority: int
    deadline: Deadline | None
    submitted_at: float
    ticket: ServeTicket = field(repr=False)


def _urgency(record: _Pending) -> tuple:
    """Batch-assembly order: priority, then deadline, then admission."""
    expires = record.deadline.expires_at if record.deadline is not None else math.inf
    return (-record.priority, expires, record.seq)


def _oldest(group: list) -> int:
    """The admission ``seq`` of the group's oldest request."""
    return min(r.seq for r in group)


def _take(group: list, max_batch: int) -> list:
    """Pop up to ``max_batch`` requests from ``group`` in urgency order."""
    group.sort(key=_urgency)
    take = group[:max_batch]
    del group[:max_batch]
    return take


def _pop_due(
    pending: dict[str, list], max_batch: int, drain: bool, idle: int
) -> list[tuple[str, str, list]]:
    """Pop the batches to hand out now, as ``(matrix, cause, batch)`` triples.

    Mutates ``pending`` in place and must run under the front-end lock;
    it is kept free of ``self`` so the lock discipline stays lexical
    (pass the data, not the fields).  ``idle`` is the number of workers
    with no batch (``workers`` minus batches in flight); each takes the
    group holding the oldest request, up to ``max_batch`` of it in
    urgency order (cause ``idle``).  With no idle worker nothing
    flushes, so the groups keep growing.  With ``drain=True`` every
    pending request is taken whatever the workers do (shutdown path),
    still in ``max_batch``-sized urgency-ordered chunks (cause
    ``drain``).
    """
    if drain:
        batches = []
        for name, group in pending.items():
            while group:
                batches.append((name, "drain", _take(group, max_batch)))
        return batches
    if idle <= 0:
        return []
    waiting = sorted(
        (name for name, group in pending.items() if group),
        key=lambda name: _oldest(pending[name]),
    )
    return [(name, "idle", _take(pending[name], max_batch)) for name in waiting[:idle]]


class ServeFrontend:
    """Thread-pool serving front-end over one :class:`SpMVEngine`.

    ``engine`` defaults to a fresh ``SpMVEngine()`` (spaden kernel,
    full degradation chain); install a
    :class:`~repro.resilience.ResiliencePolicy` on it for per-batch
    deadlines, retries and breakers — the front-end adds the
    *per-request* deadline on top, checked before a request's batch is
    handed to the engine.  ``workers`` sizes the execution pool; the
    dispatcher itself is a single extra thread.  Dispatch binds late: a
    batch is handed out only to a free worker, which takes the group
    holding the oldest request (cause ``idle``), so while every worker
    is busy same-matrix requests keep coalescing.  ``max_batch`` caps
    the requests one batch takes; the rest wait for the next free
    worker.  ``clock`` is injectable
    (:class:`~repro.resilience.ManualClock` in tests) and feeds
    admission timestamps, rate buckets and request deadlines alike.

    Execution walks the engine's planner, if it has one: every batch is
    one ``spmv_many`` call.
    """

    def __init__(
        self,
        engine: SpMVEngine | None = None,
        *,
        workers: int = 4,
        max_batch: int = 32,
        default_quota: TenantQuota | None = None,
        default_deadline_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine if engine is not None else SpMVEngine()
        self.workers = workers
        self.max_batch = max_batch
        self.default_quota = default_quota or TenantQuota()
        self.default_deadline_seconds = default_deadline_seconds
        self._clock = clock
        self._seq = itertools.count()
        # One lock (as a condition variable) guards all front-end
        # bookkeeping; it is NEVER held across engine execution, so
        # batches on different workers still run in parallel.
        self._cond = threading.Condition()
        self._matrices: dict[str, MatrixHandle] = {}  # concurrency: guarded-by(self._cond)
        self._pending: dict[str, list] = {}  # concurrency: guarded-by(self._cond)
        self._quotas: dict[str, TenantQuota] = {}  # concurrency: guarded-by(self._cond)
        self._buckets: dict[str, TokenBucket] = {}  # concurrency: guarded-by(self._cond)
        self._tenant_depth: dict[str, int] = {}  # concurrency: guarded-by(self._cond)
        self._closed = False  # concurrency: guarded-by(self._cond)
        # batches handed to the pool and not yet finished, drain included
        self._in_flight = 0  # concurrency: guarded-by(self._cond)
        # Every ticket waits on this second condition.  It is never taken
        # while self._cond is held, and its default RLock lets _resolve
        # hold it across each ticket's own _settle.
        self._ticket_cond = threading.Condition()
        self._pool = ThreadPoolExecutor(workers, thread_name_prefix="serve-worker")
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- registration and quotas ----------------------------------------------
    def register_matrix(self, name: str, csr: CSRMatrix, *, warm: bool | None = None) -> None:
        """Register a matrix under ``name``; requests address it by name.

        The front-end keeps one :meth:`~repro.engine.SpMVEngine.register`
        handle per name, so the matrix is hashed at most once and every
        request reuses that digest.  Registration makes the CSR's arrays
        read-only (an array that is a view is copied instead): an
        in-place write raises ``ValueError`` rather than serving stale
        results.  To serve new contents, build a new
        :class:`~repro.formats.csr.CSRMatrix` and register it under a new
        name.  Re-registering a taken name is a
        :class:`~repro.errors.ServeError` — tenants hold references to
        results computed against the old contents, so silent replacement
        would be a correctness trap.

        ``warm`` pre-prepares the preferred kernel's operand through
        :meth:`~repro.engine.SpMVEngine.warm` — memory cache, then the
        engine's persistent store, then one conversion spilled back to
        disk — so the tenant's first request never pays the cold-start
        tax; warming hashes the matrix once.  The default (``None``)
        warms exactly when the engine has a persistent store attached;
        pass ``True``/``False`` to force.  Without warming, registration
        hashes nothing.  Warming happens outside the lock, on the
        registration path.
        """
        handle = self.engine.register(csr)
        if warm is None:
            warm = getattr(self.engine, "store", None) is not None
        if warm:
            self.engine.warm(handle)
        with self._cond:
            if name in self._matrices:
                raise ServeError(f"matrix {name!r} is already registered")
            self._matrices[name] = handle
            self._pending[name] = []

    def matrices(self) -> list[str]:
        """Registered matrix names, in registration order."""
        with self._cond:
            return list(self._matrices)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Install (or replace) one tenant's quota; resets its rate bucket."""
        with self._cond:
            self._quotas[tenant] = quota
            self._buckets.pop(tenant, None)

    def queue_depth(self, tenant: str) -> int:
        """The tenant's in-flight (admitted, unresolved) request count."""
        with self._cond:
            return self._tenant_depth.get(tenant, 0)

    # -- admission -------------------------------------------------------------
    def submit(
        self,
        matrix: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_seconds: float | None = None,
    ) -> ServeTicket:
        """Admit one request; returns its :class:`ServeTicket`.

        Synchronous failures are structured: an unknown matrix or a
        closed front-end raises :class:`~repro.errors.ServeError`, a
        shape-invalid vector raises :class:`~repro.errors.KernelError`
        (before any quota is spent), and a quota violation raises
        :class:`~repro.errors.AdmissionError`.  ``priority`` orders
        batch assembly (higher first); ``deadline_seconds`` overrides
        the front-end default (``None`` keeps the default; requests
        whose deadline expires before their batch dispatches resolve
        with :class:`~repro.errors.DeadlineExceededError` without
        touching the engine).
        """
        x = np.asarray(x, dtype=np.float32)
        rejection = None
        with self._cond:
            if self._closed:
                raise ServeError("front-end is closed; no new submissions")
            handle = self._matrices.get(matrix)
            if handle is None:
                raise ServeError(
                    f"unknown matrix {matrix!r}; register_matrix() it first"
                )
            ncols = handle.csr.ncols
            if x.ndim != 1 or x.shape[0] != ncols:
                raise KernelError(f"x has shape {x.shape}, expected ({ncols},)")
            quota = self._quotas.get(tenant, self.default_quota)
            depth = self._tenant_depth.get(tenant, 0)
            if quota.max_queue_depth is not None and depth >= quota.max_queue_depth:
                rejection = ("queue-depth", float(quota.max_queue_depth), float(depth))
            elif quota.max_requests_per_second is not None:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = TokenBucket(
                        quota.max_requests_per_second, quota.capacity, self._clock
                    )
                    self._buckets[tenant] = bucket
                if not bucket.try_acquire():
                    rejection = ("rate", float(quota.max_requests_per_second), None)
            if rejection is None:
                seconds = (
                    deadline_seconds
                    if deadline_seconds is not None
                    else self.default_deadline_seconds
                )
                deadline = (
                    Deadline(seconds, clock=self._clock) if seconds is not None else None
                )
                seq = next(self._seq)
                ticket = ServeTicket(seq, tenant, matrix, self._ticket_cond)
                self._pending[matrix].append(
                    _Pending(
                        seq=seq,
                        tenant=tenant,
                        matrix=matrix,
                        handle=handle,
                        x=x,
                        priority=priority,
                        deadline=deadline,
                        submitted_at=self._clock(),
                        ticket=ticket,
                    )
                )
                self._tenant_depth[tenant] = depth + 1
                new_depth = depth + 1
                self._cond.notify_all()
        # metrics publish outside the critical section (capture-then-publish)
        if rejection is not None:
            reason, limit, current = rejection
            _count_rejection(tenant, reason)
            detail = (
                f"queue depth {current:g} at limit {limit:g}"
                if reason == "queue-depth"
                else f"rate limit {limit:g} req/s exhausted"
            )
            raise AdmissionError(
                f"tenant {tenant!r} rejected by {reason} quota: {detail}",
                tenant=tenant,
                reason=reason,
                limit=limit,
                current=current,
            )
        _count_admission(tenant)
        _set_depth(tenant, new_depth)
        return ticket

    # -- dispatch --------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Single dispatcher: hands each free worker a batch, drains on close."""
        while True:
            with self._cond:
                while True:
                    batches = _pop_due(
                        self._pending,
                        self.max_batch,
                        drain=self._closed,
                        idle=self.workers - self._in_flight,
                    )
                    if batches:
                        self._in_flight += len(batches)
                        break
                    if self._closed:
                        return  # drained: nothing pending
                    # submit, a finished batch and close() all notify
                    self._cond.wait()
            for matrix, cause, batch in batches:
                self._pool.submit(self._run_batch, matrix, cause, batch)

    def _execute_outcomes(self, batch: list) -> list[tuple[_Pending, object]]:
        """Run one batch; pair every record with its result or error.

        Requests whose deadline already expired resolve with the
        structured :class:`~repro.errors.DeadlineExceededError` from the
        ``serve.dispatch`` checkpoint and never reach the engine ("no
        new work starts after expiry").  The rest ride one
        ``spmv_many(return_errors=True)`` call, so failures come back
        per-request and nothing raises across the batch.
        """
        outcomes: list[tuple[_Pending, object]] = []
        ready: list[_Pending] = []
        for record in batch:
            if record.deadline is not None:
                try:
                    record.deadline.check("serve.dispatch")
                except DeadlineExceededError as exc:
                    outcomes.append((record, exc))
                    continue
            ready.append(record)
        if not ready:
            return outcomes
        results = self.engine.spmv_many(
            [(record.handle, record.x) for record in ready], return_errors=True
        )
        outcomes.extend(zip(ready, results))
        return outcomes

    def _run_batch(self, matrix: str, cause: str, batch: list) -> None:
        """Worker: execute one coalesced batch and resolve its tickets.

        The batch's slot is released in a ``finally`` and the dispatcher
        woken, so a raising metric cannot leave a worker counted busy;
        the error is logged, since nothing reads the pool's future.
        """
        try:
            outcomes = self._execute_outcomes(batch)
        except BaseException as exc:  # defensive: the seam above shouldn't raise
            outcomes = [(record, exc) for record in batch]
        try:
            now = self._clock()
            depths: dict[str, int] = {}
            with self._cond:
                for record, _result in outcomes:
                    self._tenant_depth[record.tenant] -= 1
                    depths[record.tenant] = self._tenant_depth[record.tenant]
            # resolve tickets first, then publish metrics — a metrics error
            # must never leave a caller blocked on an unresolved ticket
            _resolve(
                self._ticket_cond,
                [(record.ticket, result) for record, result in outcomes],
            )
            for record, result in outcomes:
                if isinstance(result, DeadlineExceededError):
                    outcome = "deadline"
                elif isinstance(result, BaseException):
                    outcome = "error"
                else:
                    outcome = "ok"
                _count_request(record.tenant, outcome)
                _observe_latency(record.tenant, now - record.submitted_at)
            _count_batch(matrix, cause, size=len(batch))
            for tenant, depth in depths.items():
                _set_depth(tenant, depth)
        except Exception:
            _log.exception("serve batch for matrix %r raised", matrix)
        finally:
            with self._cond:
                self._in_flight -= 1
                self._cond.notify_all()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drain and shut down: every admitted request still resolves.

        Marks the front-end closed (new submissions raise
        :class:`~repro.errors.ServeError`), lets the dispatcher flush
        everything pending as ``drain`` batches, then joins the
        dispatcher and the worker pool.  Idempotent.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ServeFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_report(self, meta: dict | None = None):
        """The underlying engine's :class:`~repro.obs.RunReport`."""
        base = {"frontend": "serve", "matrices": self.matrices()}
        base.update(meta or {})
        return self.engine.run_report(meta=base)
