"""The concurrent multi-tenant front-end: correctness under real threads.

The contract under test is the serving restatement of the engine's
batching guarantee: however requests arrive — many threads, many
tenants, coalesced into whatever micro-batches the dispatcher forms —
every admitted request resolves with either the bitwise-identical
result a serial :meth:`~repro.engine.SpMVEngine.spmv` would produce or
a structured error.  Plus the front-door behaviors around it:
late-binding dispatch, admission control, quotas, deadlines,
drain-on-close, and the ``serve_*`` metrics.

A free worker takes a pending request at once, so the dispatcher races
the test thread by design.  Tests that need a request to stay queued
hold every worker at the gate of a :class:`_GatedEngine` first.  Tests
wait for a ticket with a timeout, and every gate opens at teardown, so
a lost wakeup fails a test instead of hanging it.
"""

import math
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    KernelError,
    ServeError,
)
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.obs import get_registry, reset_observability
from repro.resilience import ManualClock
from repro.serve import ServeFrontend, TenantQuota
from repro.serve import frontend as serve_frontend

from tests.conftest import make_random_dense


#: Every :class:`_GatedEngine` a test builds.  The fixture opens their
#: gates at teardown, so a test that fails while it holds a worker
#: cannot leave the pool's thread, and with it pytest, waiting forever.
_GATED: list = []


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    while _GATED:
        _GATED.pop().release()
    reset_observability()


def _csr(rng, nrows=48, ncols=40) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, 0.12))
    )


def _counter_value(name, help_text, label_names, **labels) -> float:
    return get_registry().counter(name, help_text, labels=label_names).value(**labels)


def _batches(matrix: str, cause: str) -> float:
    """``serve_batches_total`` for one matrix and flush cause."""
    return _counter_value(
        "serve_batches_total",
        "Coalesced micro-batches flushed to the engine, by flush cause.",
        ("matrix", "cause"),
        matrix=matrix,
        cause=cause,
    )


class _GatedEngine(SpMVEngine):
    """A spaden engine whose ``spmv_many`` waits at a gate the test opens.

    Each batch puts the CSR its first request's handle was registered
    from on ``arrivals`` as it reaches the engine, then waits for a
    permit.  ``release(n)`` lets ``n`` waiting or later batches through;
    ``release()`` opens the gate for good.
    """

    def __init__(self):
        super().__init__("spaden")
        self.arrivals: queue.SimpleQueue = queue.SimpleQueue()
        self._sources: dict = {}
        self._gate = threading.Condition()
        self._permits = 0
        _GATED.append(self)

    def register(self, csr):
        handle = super().register(csr)
        self._sources[handle] = csr
        return handle

    def spmv_many(self, requests, **kwargs):
        self.arrivals.put(self._sources[requests[0][0]])
        with self._gate:
            while self._permits <= 0:
                self._gate.wait()
            self._permits -= 1
        return super().spmv_many(requests, **kwargs)

    def release(self, batches: float = math.inf) -> None:
        with self._gate:
            self._permits += batches
            self._gate.notify_all()

    def arrived(self) -> CSRMatrix:
        """The CSR of the next batch to reach the gate."""
        return self.arrivals.get(timeout=10)


def _wait_until_closed(frontend: ServeFrontend, matrix: str) -> None:
    """Poll until ``close()`` has shut admission.

    A vector of the wrong length raises :class:`KernelError` while the
    front-end is open (and admits nothing) and :class:`ServeError` once
    it is closed.
    """
    while True:
        try:
            frontend.submit(matrix, np.ones(1, np.float32))
        except KernelError:
            time.sleep(0.001)
        except ServeError:
            return


class TestRegistration:
    def test_duplicate_matrix_name_is_rejected(self, rng):
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("A", _csr(rng))
            with pytest.raises(ServeError):
                frontend.register_matrix("A", _csr(rng))
            assert frontend.matrices() == ["A"]

    def test_unknown_matrix_is_rejected_at_submit(self, rng):
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            with pytest.raises(ServeError):
                frontend.submit("nope", np.ones(8, np.float32))

    @pytest.mark.parametrize("kwargs", [{"workers": 0}, {"max_batch": 0}])
    def test_misconfiguration_is_a_structured_error(self, kwargs):
        with pytest.raises(ServeError):
            ServeFrontend(SpMVEngine("spaden"), **kwargs)

    def test_closed_frontend_rejects_submissions(self, rng):
        frontend = ServeFrontend(SpMVEngine("spaden"), workers=1)
        frontend.register_matrix("A", _csr(rng))
        frontend.close()
        with pytest.raises(ServeError):
            frontend.submit("A", np.ones(40, np.float32))
        frontend.close()  # idempotent


class TestMalformedRequests:
    def test_shape_invalid_vector_rejected_before_admission(self, rng):
        csr = _csr(rng)
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("A", csr)
            with pytest.raises(KernelError):
                frontend.submit("A", np.ones(csr.ncols + 1, np.float32))
            # nothing admitted, nothing counted, nothing in flight
            assert frontend.queue_depth("default") == 0
            assert frontend.engine.stats.requests == 0

            # the queue still drains: a valid request after the rejection
            x = rng.standard_normal(csr.ncols).astype(np.float32)
            ticket = frontend.submit("A", x)
            assert np.array_equal(ticket.result(timeout=10), SpMVEngine("spaden").spmv(csr, x))


class TestBitwiseCorrectness:
    """The acceptance scenario: 4 client threads, 3 tenants, 3 matrices."""

    @pytest.fixture
    def traffic(self, rng):
        """Matrices, vectors, a 60-request plan and its serial references."""
        csrs = {"A": _csr(rng, 48, 40), "B": _csr(rng, 56, 40), "C": _csr(rng, 64, 40)}
        serial = SpMVEngine("spaden")
        xs = [rng.standard_normal(40).astype(np.float32) for _ in range(6)]
        names = list(csrs)
        plan = [(names[i % 3], i % len(xs), f"tenant-{i % 3}") for i in range(60)]
        references = {
            (name, j): serial.spmv(csrs[name], xs[j])
            for name in names
            for j in range(len(xs))
        }
        return csrs, xs, plan, references

    @staticmethod
    def _serve(traffic, *, closed_loop: bool):
        """Drive the plan from 4 clients; check zero lost, bitwise == serial.

        Open loop fires every request and collects afterwards; closed
        loop has each client wait for its ticket before the next submit.
        """
        csrs, xs, plan, references = traffic
        frontend = ServeFrontend(SpMVEngine("spaden"), workers=4, max_batch=8)
        for name, csr in csrs.items():
            frontend.register_matrix(name, csr)

        tickets = []
        ticket_lock = threading.Lock()

        def client(share):
            for name, j, tenant in share:
                ticket = frontend.submit(name, xs[j], tenant=tenant)
                if closed_loop:
                    ticket.error(timeout=10)
                with ticket_lock:
                    tickets.append((name, j, ticket))

        with ThreadPoolExecutor(4) as pool:
            list(pool.map(client, [plan[i::4] for i in range(4)]))
        frontend.close()

        assert len(tickets) == len(plan)
        assert all(ticket.done() for _, _, ticket in tickets)  # zero lost
        for name, j, ticket in tickets:
            assert ticket.error() is None
            assert np.array_equal(ticket.result(), references[(name, j)])

    def test_concurrent_multitenant_traffic_matches_serial_bitwise(self, traffic):
        self._serve(traffic, closed_loop=False)

    def test_closed_loop_traffic_matches_serial_bitwise(self, traffic):
        self._serve(traffic, closed_loop=True)

    def test_traffic_actually_coalesced(self, rng):
        csr = _csr(rng)
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=2, max_batch=16)
        frontend.register_matrix("A", csr)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(16)]
        # the workers stay at the gate until every request is in, so the
        # requests behind them coalesce instead of racing the submits
        tickets = [frontend.submit("A", x) for x in xs]
        engine.release()
        frontend.close()
        assert all(t.error() is None for t in tickets)
        stats = frontend.engine.stats
        assert stats.requests == 16
        assert stats.batches < 16  # coalescing factor > 1
        assert (
            _counter_value(
                "serve_admitted_total",
                "Requests admitted by the serving front-end.",
                ("tenant",),
                tenant="default",
            )
            == 16
        )


class TestWorkConservingDispatch:
    """A request waits for a batch only while every worker is busy."""

    def test_free_worker_takes_a_request_without_waiting(self, rng):
        csr = _csr(rng)
        frontend = ServeFrontend(SpMVEngine("spaden"), workers=1, clock=ManualClock())
        frontend.register_matrix("A", csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        ticket = frontend.submit("A", x)
        # the clock never moves: the free worker alone dispatches it
        assert np.array_equal(ticket.result(timeout=5), SpMVEngine("spaden").spmv(csr, x))
        frontend.close()
        assert _batches("A", "idle") == 1

    def test_idle_slots_go_to_the_groups_with_the_oldest_requests(self, rng):
        csrs = {name: _csr(rng) for name in "ABC"}
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=2, clock=ManualClock())
        for name, csr in csrs.items():
            frontend.register_matrix(name, csr)
        x = rng.standard_normal(40).astype(np.float32)
        order = ["A", "B", "C"]
        tickets = [frontend.submit(name, x) for name in order]
        # two workers, two idle batches in flight; the third group waits
        assert {id(engine.arrived()) for _ in range(2)} == {id(csrs["A"]), id(csrs["B"])}
        with pytest.raises(queue.Empty):
            engine.arrivals.get(timeout=0.2)
        # a hot matrix queues again behind the waiting cold one
        order.append("A")
        tickets.append(frontend.submit("A", x))
        engine.release(1)
        assert engine.arrived() is csrs["C"]  # holds the oldest request
        engine.release(1)
        assert engine.arrived() is csrs["A"]
        engine.release()
        frontend.close()
        serial = SpMVEngine("spaden")
        for name, ticket in zip(order, tickets):
            assert np.array_equal(ticket.result(), serial.spmv(csrs[name], x))
        assert [_batches(name, "idle") for name in "ABC"] == [2, 1, 1]

    def test_only_idle_slots_serve_a_frozen_clock_under_contention(self, rng):
        """8 workers, 4 closed-loop clients, a tiny switch interval.

        Every request is served by an idle flush; a lost update of the
        in-flight count would leave one waiting forever.
        """
        csrs = {name: _csr(rng) for name in "ABC"}
        serial = SpMVEngine("spaden")
        xs = [rng.standard_normal(40).astype(np.float32) for _ in range(4)]
        frontend = ServeFrontend(SpMVEngine("spaden"), workers=8, clock=ManualClock())
        for name, csr in csrs.items():
            frontend.register_matrix(name, csr)

        def client(offset):
            for i in range(25):
                name, x = "ABC"[(offset + i) % 3], xs[i % len(xs)]
                y = frontend.submit(name, x, tenant=f"t{offset}").result(timeout=10)
                assert np.array_equal(y, serial.spmv(csrs[name], x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                for done in [pool.submit(client, offset) for offset in range(4)]:
                    done.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        frontend.close()
        causes = {
            labels["cause"]
            for labels, _value in get_registry().get("serve_batches_total").labeled()
        }
        assert causes == {"idle"}
        assert frontend.engine.stats.requests == 100

    @pytest.mark.parametrize("fault", ["callback", "metric"])
    def test_a_raising_callback_or_metric_frees_its_worker(
        self, rng, monkeypatch, caplog, fault
    ):
        csr = _csr(rng)
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=1, clock=ManualClock())
        frontend.register_matrix("A", csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        calls = []

        def boom(*args, **kwargs):
            calls.append(args)
            raise RuntimeError(f"{fault} failed")

        if fault == "metric":
            monkeypatch.setattr("repro.serve.frontend._count_batch", boom)
        first = frontend.submit("A", x)
        assert engine.arrived() is csr  # held, so the callback lands first
        if fault == "callback":
            first.add_done_callback(boom)
        engine.release()
        assert first.error(timeout=5) is None
        # only the freed worker can take it
        second = frontend.submit("A", x)
        assert second.error(timeout=5) is None
        frontend.close()
        if fault == "callback":
            assert calls == [(first,)]
            assert _batches("A", "idle") == 2
        else:
            assert len(calls) == 2
        assert f"{fault} failed" in caplog.text  # reported, not lost


class TestLateBinding:
    """A batch goes only to a free worker, so a held pool keeps coalescing."""

    def test_requests_queued_behind_a_busy_worker_ride_one_idle_batch(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=1, clock=clock)
        frontend.register_matrix("A", csr)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(6)]
        blocker = frontend.submit("A", xs[0])
        assert engine.arrived() is csr  # the only worker is held
        tickets = []
        for x in xs:
            tickets.append(frontend.submit("A", x))
            clock.advance(0.011)  # the group ages; only a free worker flushes it
        engine.release()
        serial = SpMVEngine("spaden")
        assert blocker.error(timeout=10) is None
        for x, ticket in zip(xs, tickets):
            assert ticket.error(timeout=10) is None
            assert np.array_equal(ticket.result(), serial.spmv(csr, x))
        frontend.close()
        # the blocker's batch, then every queued request in one batch
        assert _batches("A", "idle") == 2
        assert engine.stats.batches == 2
        assert engine.stats.requests == len(xs) + 1

    def test_a_held_pool_wakes_the_dispatcher_only_on_events(self, rng, monkeypatch):
        passes = []
        pop_due = serve_frontend._pop_due

        def counted(*args, **kwargs):
            passes.append(args)
            return pop_due(*args, **kwargs)

        monkeypatch.setattr(serve_frontend, "_pop_due", counted)
        csr = _csr(rng)
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=1, clock=ManualClock())
        frontend.register_matrix("A", csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        blocker = frontend.submit("A", x)
        assert engine.arrived() is csr  # the only worker is held
        queued = [frontend.submit("A", x) for _ in range(3)]
        time.sleep(0.3)
        held = len(passes)
        engine.release()
        for ticket in [blocker, *queued]:
            assert ticket.error(timeout=10) is None
        frontend.close()
        # one pass at start, one per submission, one after the one flush;
        # a dispatcher that polled would add a pass per tick of the hold
        assert held <= 1 + 4 + 1


class TestQuotas:
    def test_queue_depth_quota_rejects_structurally(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        engine = _GatedEngine()
        # the only worker is held at the gate: admitted requests stay in
        # flight
        frontend = ServeFrontend(engine, workers=1, clock=clock)
        frontend.register_matrix("A", csr)
        frontend.set_quota("t0", TenantQuota(max_queue_depth=2))
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        blocker = frontend.submit("A", x, tenant="blocker")
        assert engine.arrived() is csr

        frontend.submit("A", x, tenant="t0")
        frontend.submit("A", x, tenant="t0")
        assert frontend.queue_depth("t0") == 2
        with pytest.raises(AdmissionError) as excinfo:
            frontend.submit("A", x, tenant="t0")
        err = excinfo.value
        assert err.tenant == "t0"
        assert err.reason == "queue-depth"
        assert err.limit == 2.0
        assert err.current == 2.0
        # other tenants are unaffected by t0's quota
        other = frontend.submit("A", x, tenant="t1")
        assert (
            _counter_value(
                "serve_admission_rejected_total",
                "Requests rejected by admission control, by quota reason.",
                ("tenant", "reason"),
                tenant="t0",
                reason="queue-depth",
            )
            == 1
        )
        clock.advance(6.0)
        engine.release()
        # resolved before close(), which would flush the group as drain
        assert other.error(timeout=10) is None
        frontend.close()
        assert blocker.error() is None
        assert _batches("A", "idle") == 2

    def test_rate_quota_uses_the_injected_clock(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        frontend = ServeFrontend(SpMVEngine("spaden"), workers=1, max_batch=4, clock=clock)
        frontend.register_matrix("A", csr)
        frontend.set_quota("t0", TenantQuota(max_requests_per_second=1.0, burst=2))
        x = rng.standard_normal(csr.ncols).astype(np.float32)

        frontend.submit("A", x, tenant="t0")
        frontend.submit("A", x, tenant="t0")
        with pytest.raises(AdmissionError) as excinfo:
            frontend.submit("A", x, tenant="t0")
        assert excinfo.value.reason == "rate"
        clock.advance(1.0)  # one token refills at 1 req/s
        ticket = frontend.submit("A", x, tenant="t0")
        frontend.close()
        assert ticket.error() is None


class TestDeadlines:
    def test_expired_request_resolves_with_deadline_error(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=1, clock=clock)
        frontend.register_matrix("A", csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        frontend.submit("A", x, tenant="blocker")
        assert engine.arrived() is csr  # the only worker is busy
        doomed = frontend.submit("A", x, tenant="t0", deadline_seconds=5.0)
        clock.advance(6.0)  # past the deadline while the worker is held
        engine.release()
        assert isinstance(doomed.error(timeout=10), DeadlineExceededError)
        frontend.close()
        assert _batches("A", "idle") == 2
        assert (
            _counter_value(
                "serve_requests_total",
                "Requests resolved by the front-end, by final outcome.",
                ("tenant", "outcome"),
                tenant="t0",
                outcome="deadline",
            )
            == 1
        )

    def test_deadline_pressure_flushes_early(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=1, clock=clock)
        frontend.register_matrix("A", csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        frontend.submit("A", x, tenant="blocker")
        assert engine.arrived() is csr  # the only worker is busy
        ticket = frontend.submit("A", x, deadline_seconds=10.0)
        clock.advance(9.0)  # 1s of budget left
        engine.release()
        # taken by the freed worker with budget remaining: it succeeds
        assert ticket.error(timeout=10) is None
        assert np.array_equal(ticket.result(), SpMVEngine("spaden").spmv(csr, x))
        frontend.close()
        assert _batches("A", "idle") == 2


class TestDrain:
    def test_close_resolves_everything_pending(self, rng):
        csrs = {name: _csr(rng) for name in "ABC"}
        engine = _GatedEngine()
        frontend = ServeFrontend(engine, workers=2, clock=ManualClock())
        for name, csr in csrs.items():
            frontend.register_matrix(name, csr)
        xs = [rng.standard_normal(40).astype(np.float32) for _ in range(5)]
        held = [frontend.submit(name, xs[0]) for name in "AB"]
        engine.arrived(), engine.arrived()  # both workers are busy
        plan = [("ABC"[i % 3], x) for i, x in enumerate(xs)]
        tickets = [frontend.submit(name, x) for name, x in plan]
        # nothing is due under the frozen clock and no worker is free;
        # close() must drain
        closer = threading.Thread(target=frontend.close)
        closer.start()
        _wait_until_closed(frontend, "A")
        engine.release()
        closer.join(timeout=10)
        assert not closer.is_alive()
        serial = SpMVEngine("spaden")
        for ticket, (name, x) in zip(held + tickets, [("A", xs[0]), ("B", xs[0])] + plan):
            assert ticket.error() is None
            assert np.array_equal(ticket.result(), serial.spmv(csrs[name], x))
        assert [_batches(name, "drain") for name in "ABC"] == [1, 1, 1]

    def test_run_report_carries_frontend_meta(self, rng):
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("A", _csr(rng))
            report = frontend.run_report(meta={"suite": "unit"})
        assert report.meta["frontend"] == "serve"
        assert report.meta["matrices"] == ["A"]
        assert report.meta["suite"] == "unit"

    def test_run_report_folds_admission_metrics(self, rng):
        """One served request and one rate rejection reach the report."""
        csr = _csr(rng)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        with ServeFrontend(
            SpMVEngine("spaden"), workers=1, clock=ManualClock()
        ) as frontend:
            frontend.register_matrix("A", csr)
            frontend.set_quota("t0", TenantQuota(max_requests_per_second=1.0, burst=1))
            served = frontend.submit("A", x, tenant="t0")
            with pytest.raises(AdmissionError) as excinfo:
                frontend.submit("A", x, tenant="t0")
        assert excinfo.value.reason == "rate"
        assert served.error(timeout=10) is None
        report = frontend.run_report()
        names = {metric["name"] for metric in report.metrics["metrics"]}
        assert {"serve_admitted_total", "serve_admission_rejected_total"} <= names
