"""Span-based tracing for the execution seam.

A :class:`Span` is one timed, attributed region of a run — an exec
stage, a chain attempt, an engine batch, a bench phase.  Spans nest:
the walker's ``exec.attempt`` span contains the executor's
``exec.execute`` span, which contains one span per stage
(``exec.prepare`` / ``exec.verify`` / ``exec.run`` / ``exec.check``),
each carrying the ``exec_stage`` / ``kernel`` / ``mode`` attributes the
per-stage breakdowns of the paper's Fig. 8 are built from.

Spans are recorded into a process-wide :class:`SpanLog` when they
finish (children before parents, as in any tracer); the parent link is
kept on the span so exporters can rebuild the tree.  A span that exits
via an exception is marked ``status="error"`` with the exception's
class and message, and the exception propagates untouched — tracing
never swallows or alters control flow.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "SpanLog", "get_span_log", "reset_spans", "span"]

#: Retained finished spans; beyond this the oldest are dropped (and
#: counted), so the log's memory does not grow with traffic.  An engine
#: batch records 7 spans of about 440 B each, so the default holds the
#: last ~1,170 batches in about 3.6 MB; the metrics registry keeps the
#: long-run aggregates.
DEFAULT_SPAN_LIMIT: int = 8_192


@dataclass
class Span:
    """One finished (or in-flight) traced region."""

    span_id: int
    parent_id: int | None
    name: str
    attributes: dict = field(default_factory=dict)
    #: ``time.perf_counter()`` at entry (monotonic, host-side).
    start_seconds: float = 0.0
    end_seconds: float | None = None
    status: str = "ok"
    error: str | None = None

    @property
    def duration_seconds(self) -> float:
        if self.end_seconds is None:
            return 0.0
        return self.end_seconds - self.start_seconds

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attributes": dict(self.attributes),
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "error": self.error,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        attrs = " ".join(f"{k}={v}" for k, v in self.attributes.items())
        flag = "" if self.status == "ok" else f" [{self.status}: {self.error}]"
        return f"{self.name} {self.duration_seconds * 1e6:.1f}us {attrs}{flag}"


class SpanLog:
    """Bounded, ordered log of finished spans plus the live stack.

    Thread-safe: the live span stack is **thread-local** (each thread
    nests its own spans; a worker's ``exec.run`` can never become the
    child of another thread's batch), while the finished-span buffer
    and its overflow counter live under one lock.  Span ids come from
    ``itertools.count``, whose ``next`` is atomic under the GIL.
    """

    def __init__(self, limit: int = DEFAULT_SPAN_LIMIT):
        self.limit = int(limit)
        self._spans: deque[Span] = deque(maxlen=self.limit)  # concurrency: guarded-by(self._lock)
        # concurrency: not-shared -- live span stack is per-thread
        # (threading.local), so only its owning thread touches it
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Finished spans discarded to respect :attr:`limit`.
        self.dropped = 0  # concurrency: guarded-by(self._lock)

    def _live(self) -> list[Span]:
        """This thread's in-flight span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Open one span around a ``with`` body; records on exit.

        Exceptions mark the span ``status="error"`` and propagate; the
        span still records, so a failed stage shows up in the timeline
        exactly where it died.
        """
        stack = self._live()
        parent = stack[-1].span_id if stack else None
        current = Span(
            span_id=next(self._ids),
            parent_id=parent,
            name=name,
            attributes=dict(attributes),
            start_seconds=time.perf_counter(),
        )
        stack.append(current)
        try:
            yield current
        except BaseException as exc:
            current.status = "error"
            current.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            current.end_seconds = time.perf_counter()
            # unwind even if an inner frame leaked stack entries
            while stack and stack[-1] is not current:
                stack.pop()
            if stack:
                stack.pop()
            with self._lock:
                if len(self._spans) == self.limit:
                    self.dropped += 1  # the append below evicts the oldest
                self._spans.append(current)

    # -- introspection --------------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """Finished spans, oldest first (children before parents)."""
        with self._lock:
            return tuple(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def children_of(self, parent: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == parent.span_id]

    def as_dicts(self) -> list[dict]:
        return [s.as_dict() for s in self.spans()]

    def clear(self) -> None:
        """Drop finished spans and this thread's live stack."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0
        self._live().clear()


#: The process-wide span log the exec seam records into.
_GLOBAL = SpanLog()


def get_span_log() -> SpanLog:
    """The process-wide :class:`SpanLog`."""
    return _GLOBAL


def span(name: str, **attributes: object):
    """Open a span on the process-wide log (context manager)."""
    return _GLOBAL.span(name, **attributes)


def reset_spans() -> None:
    """Clear the process-wide span log (between runs / tests)."""
    _GLOBAL.clear()
