"""The slotted :class:`~repro.serve.ServeTicket`: waits, callbacks, exactly once.

Every ticket of a front-end waits on one shared condition, and a worker
resolves a whole batch through :func:`repro.serve.frontend._resolve`:
one critical section, one ``notify_all``, then the done-callbacks with
no lock held.  A caller that keeps its tickets (the end-to-end
benchmark keeps every one) retains whatever a resolved ticket holds,
so that footprint is pinned as well.
"""

import functools
import gc
import threading
import tracemalloc

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import ServeTicket
from repro.serve.frontend import _resolve


def _tickets(n: int) -> tuple[threading.Condition, list[ServeTicket]]:
    cond = threading.Condition()
    return cond, [ServeTicket(seq, "t0", "A", cond) for seq in range(n)]


def _y(value: float) -> np.ndarray:
    return np.full(3, value, np.float32)


def _lock_is_free(cond: threading.Condition) -> bool:
    """Whether another thread can take ``cond``'s lock right now."""
    free = []

    def probe():
        if cond.acquire(timeout=1):
            cond.release()
            free.append(True)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return bool(free)


class TestWaiting:
    def test_an_unresolved_ticket_times_out(self):
        _cond, (ticket,) = _tickets(1)
        for wait in (ticket.result, ticket.error):
            with pytest.raises(TimeoutError):
                wait(timeout=0.01)
        assert not ticket.done()

    def test_result_and_error_after_resolution(self):
        cond, (ok, bad) = _tickets(2)
        y, exc = _y(1.0), ServeError("engine said no")
        _resolve(cond, [(ok, y), (bad, exc)])
        assert ok.done() and bad.done()
        assert ok.result(timeout=0) is y
        assert ok.error(timeout=0) is None
        assert bad.error(timeout=0) is exc
        with pytest.raises(ServeError, match="engine said no"):
            bad.result(timeout=0)

    def test_concurrent_waiters_on_different_tickets_all_wake(self):
        cond, tickets = _tickets(8)
        ys = [_y(seq) for seq in range(len(tickets))]
        results: dict[int, np.ndarray] = {}
        started = threading.Barrier(len(tickets) + 1)

        def wait(ticket):
            started.wait()
            results[ticket.seq] = ticket.result(timeout=10)

        threads = [threading.Thread(target=wait, args=(t,)) for t in tickets]
        for thread in threads:
            thread.start()
        started.wait()
        # the first batch's notify_all wakes every waiter; the others
        # see their own ticket still pending and wait again
        _resolve(cond, list(zip(tickets[:4], ys[:4])))
        for thread in threads[:4]:
            thread.join(timeout=10)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(thread.is_alive() for thread in threads[4:])
        _resolve(cond, list(zip(tickets[4:], ys[4:])))
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[seq] is ys[seq] for seq in range(len(tickets)))


class TestCallbacks:
    def test_callbacks_before_and_after_resolution_each_run_once(self):
        cond, (ticket,) = _tickets(1)
        calls = []
        ticket.add_done_callback(lambda t: calls.append(("before", t, threading.get_ident())))
        resolver = threading.Thread(target=_resolve, args=(cond, [(ticket, _y(1.0))]))
        resolver.start()
        resolver.join()
        ticket.add_done_callback(lambda t: calls.append(("after", t, threading.get_ident())))
        # before: on the resolving thread; after: at once, on the caller's
        assert calls == [
            ("before", ticket, resolver.ident),
            ("after", ticket, threading.get_ident()),
        ]

    def test_callbacks_run_in_ticket_order_with_the_lock_released(self):
        cond, tickets = _tickets(3)
        seen = []
        for ticket in reversed(tickets):
            ticket.add_done_callback(lambda t: seen.append((t.seq, _lock_is_free(cond))))
        _resolve(cond, [(t, _y(t.seq)) for t in tickets])
        assert seen == [(0, True), (1, True), (2, True)]

    def test_a_raising_callback_does_not_stop_the_others(self, caplog):
        cond, (first, second) = _tickets(2)
        calls = []

        def boom(_ticket):
            raise RuntimeError("callback failed")

        first.add_done_callback(boom)
        first.add_done_callback(calls.append)
        second.add_done_callback(calls.append)
        _resolve(cond, [(first, _y(0.0)), (second, _y(1.0))])
        assert calls == [first, second]
        assert "callback failed" in caplog.text


class TestExactlyOnce:
    def test_a_second_resolution_raises_and_keeps_the_first_outcome(self):
        cond, (ticket, other) = _tickets(2)
        calls = []
        ticket.add_done_callback(calls.append)
        other.add_done_callback(calls.append)
        first = _y(1.0)
        _resolve(cond, [(ticket, first)])
        with pytest.raises(ServeError, match="already resolved"):
            _resolve(cond, [(ticket, _y(2.0)), (other, _y(3.0))])
        assert ticket.result(timeout=0) is first
        # the rest of the batch still resolves and runs its callbacks
        assert other.result(timeout=0)[0] == 3.0
        assert calls == [ticket, other]


class TestFootprint:
    def test_a_resolved_ticket_with_one_callback_retains_under_1kb(self):
        """One ticket per request stays alive as long as its caller keeps it."""
        cond = threading.Condition()
        y = _y(0.0)  # shared: the bound is on the ticket, not the result
        count = 2000

        def on_done(_rid, _ticket):
            pass

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tickets = [ServeTicket(seq, "t0", "A", cond) for seq in range(count)]
            for rid, ticket in enumerate(tickets):
                ticket.add_done_callback(functools.partial(on_done, rid))
            _resolve(cond, [(ticket, y) for ticket in tickets])
            gc.collect()
            per_ticket = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        assert all(ticket.done() for ticket in tickets)
        assert per_ticket < 1024, f"{per_ticket:.0f} B per resolved ticket"
