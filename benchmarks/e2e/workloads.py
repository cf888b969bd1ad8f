"""The four workloads: set-up, a timed measurement, and the output checks.

:func:`setup` makes the program calls a user makes before serving
(build the matrices, construct, register or warm, bind).  :func:`measure`
drives the program for a given number of seconds, with one ``measure_*``
function per workload kind, and returns a :class:`Measurement`.  Every
output is checked against the scipy float64 reference after the timed
window closes, so checking costs the program nothing.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.apps.pagerank import pagerank
from repro.bench.load import zipf_weights
from repro.engine import DEFAULT_CACHE_BYTES, SpMVEngine
from repro.errors import ReproError
from repro.formats.csr import CSRMatrix
from repro.persist import OperandStore
from repro.serve import ServeFrontend

from benchmarks.e2e.inputs import Inputs, Reference, derive_seed, pagerank_reference

#: Requests submitted this long after they were due count as late.
LATE_SECONDS = 0.005
#: Longest a benchmark waits on one result before calling it lost.
RESULT_TIMEOUT_SECONDS = 60.0


@dataclass
class Measurement:
    #: Latency of each unit of work, in milliseconds: a serve request
    #: (due time to resolution, open-loop phase), one solver SpMV, or one
    #: ``spmv_many`` call of the batch workload.
    latencies_ms: list = field(default_factory=list)
    #: Vectors per second in each part of the throughput phase: each
    #: second of the closed loop, each solve, or each round of calls.
    rates: list = field(default_factory=list)
    #: Length of the throughput phase in seconds.
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def vectors_per_s(self) -> float:
        """The median part, so a slow stretch of a shared host moves it less."""
        return float(np.median(self.rates)) if self.rates else 0.0


@dataclass
class State:
    """What one set-up leaves for the measurement."""

    engine: SpMVEngine
    #: The program's own CSR matrices, built from the generated arrays.
    matrices: list
    frontend: ServeFrontend | None = None
    operator: object = None

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()


# -- set-up ----------------------------------------------------------------------


def setup(params: dict, inputs: Inputs, store_dir) -> State:
    """Hand the arrays to the program and bring it to its serving state."""
    matrices = [
        CSRMatrix(m.shape, m.row_pointers, m.col_indices, m.values) for m in inputs.matrices
    ]
    cache_bytes = params.get("cache_bytes") or DEFAULT_CACHE_BYTES
    engine = SpMVEngine(cache_bytes=cache_bytes, store=OperandStore(store_dir))
    kind = params["kind"]
    if kind == "serve":
        frontend = ServeFrontend(engine, workers=params["workers"])
        for name, csr in zip(inputs.names, matrices):
            frontend.register_matrix(name, csr, warm=params["warm"])
        return State(engine, matrices, frontend=frontend)
    for csr in matrices:
        engine.warm(csr)
    if kind == "solver":
        return State(engine, matrices, operator=engine.operator(matrices[0]))
    return State(engine, matrices)


def measure(params, inputs, reference, state, seconds, seed, tracer=None) -> Measurement:
    kind = params["kind"]
    if kind == "serve":
        return measure_serve(params, inputs, reference, state, seconds, seed, tracer)
    if kind == "solver":
        return measure_solver(params, inputs, state, seconds, tracer)
    return measure_batch(inputs, reference, state, seconds)


# -- serve -----------------------------------------------------------------------


class _Requests:
    """Seeded request choices and the record of every submitted request."""

    def __init__(self, params, inputs, rng, tracer):
        self.inputs = inputs
        self.tracer = tracer
        # zipf over the matrices in their fixed order; s = 0 is uniform
        self.weights = zipf_weights(len(inputs.matrices), params["zipf_s"])
        self.tenants = [f"tenant-{i}" for i in range(params["tenants"])]
        self.rng = rng
        self.records: list[tuple[int, int, object]] = []
        self.rejected = 0

    def choices(self, count: int):
        matrices = self.rng.choice(len(self.weights), size=count, p=self.weights)
        vectors = self.rng.integers(0, len(self.inputs.vectors[0]), size=count)
        return list(zip(matrices.tolist(), vectors.tolist()))

    def stream(self):
        while True:
            yield from self.choices(4096)

    def drain(self, first: int = 0) -> None:
        """Wait, within one overall timeout, for requests from ``first`` on."""
        deadline = time.perf_counter() + RESULT_TIMEOUT_SECONDS
        for _, _, ticket in self.records[first:]:
            try:
                ticket.error(timeout=max(0.0, deadline - time.perf_counter()))
            except TimeoutError:
                return  # the rest count as lost in failures()

    def submit(self, frontend, matrix: int, vector: int, on_done):
        """Submit one request with its own ``x`` view; None if refused."""
        rid = len(self.records)
        x = self.inputs.vectors[matrix][vector][:]
        if self.tracer is not None:
            self.tracer.tag(x, rid)
        try:
            ticket = frontend.submit(
                self.inputs.names[matrix], x, tenant=self.tenants[rid % len(self.tenants)]
            )
        except ReproError:
            self.rejected += 1
            return None
        self.records.append((matrix, vector, ticket))
        ticket.add_done_callback(partial(on_done, rid))
        return ticket

    def failures(self, reference: Reference) -> int:
        failed = self.rejected
        for matrix, vector, ticket in self.records:
            if not ticket.done() or ticket.error() is not None:
                failed += 1  # lost or errored
            else:
                failed += not reference.ok(matrix, vector, ticket.result())
        return failed


def _open_loop(frontend, requests: _Requests, rate: float, seconds: float):
    """Poisson arrivals at ``rate``; latency runs from each due time."""
    gaps = requests.rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    plan = requests.choices(len(offsets))
    first = len(requests.records)
    done = np.zeros(len(requests.records) + len(offsets) + 1)
    due = np.zeros_like(done)
    late = []

    def mark(rid, _ticket):
        done[rid] = time.perf_counter()

    t0 = time.perf_counter() + 0.01
    for offset, (matrix, vector) in zip(offsets, plan):
        due_at = t0 + offset
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late.append(time.perf_counter() - due_at)
        rid = len(requests.records)
        if requests.submit(frontend, matrix, vector, mark) is not None:
            due[rid] = due_at
    requests.drain(first)
    rids = [rid for rid in range(first, len(requests.records)) if done[rid] > 0]
    latencies = [1e3 * (done[rid] - due[rid]) for rid in rids]
    late = np.asarray(late)
    return latencies, {
        "open_requests": len(offsets),
        "offered_rps": len(offsets) / seconds,
        "late_ms_p99": 1e3 * float(np.percentile(late, 99)) if len(late) else 0.0,
        "late_share": float(np.mean(late > LATE_SECONDS)) if len(late) else 0.0,
    }


def _closed_loop(frontend, requests: _Requests, outstanding: int, seconds: float):
    """One thread keeps ``outstanding`` requests in flight.

    Returns the completions per second of each whole second of the phase
    (or of the whole phase when it is shorter than two seconds).
    """
    completions: queue.SimpleQueue = queue.SimpleQueue()

    def mark(_rid, ticket):
        completions.put(time.perf_counter())

    plan = requests.stream()
    start = time.perf_counter()
    end = start + seconds
    in_flight = 0
    for _ in range(outstanding):
        in_flight += requests.submit(frontend, *next(plan), mark) is not None
    done_at = []
    while in_flight:
        try:
            done_at.append(completions.get(timeout=RESULT_TIMEOUT_SECONDS) - start)
        except queue.Empty:
            break  # the rest count as lost in failures()
        in_flight -= 1
        if time.perf_counter() < end:
            in_flight += requests.submit(frontend, *next(plan), mark) is not None
    parts = max(1, int(seconds))
    counts, _ = np.histogram(done_at, bins=parts, range=(0.0, seconds))
    return (counts / (seconds / parts)).tolist()


def measure_serve(params, inputs, reference, state, seconds, seed, tracer=None):
    """A closed loop for capacity, then an open loop at a fixed rate for latency.

    The closed loop goes first so that one-off work (threads starting,
    first-touch conversions on serve-churn) lands in its first seconds,
    which the per-second median discards, and the open loop sees the
    steady state.
    """
    requests = _Requests(params, inputs, np.random.default_rng(derive_seed(seed, 5)), tracer)
    open_seconds = seconds * params["open_share"]
    closed_seconds = seconds - open_seconds
    rates = _closed_loop(state.frontend, requests, params["closed_outstanding"], closed_seconds)
    latencies, detail = _open_loop(state.frontend, requests, params["open_rps"], open_seconds)
    return Measurement(
        latencies_ms=latencies,
        rates=rates,
        window_s=closed_seconds,
        attempted=len(requests.records) + requests.rejected,
        failed=requests.failures(reference),
        detail=detail,
    )


# -- solver ----------------------------------------------------------------------


def measure_solver(params, inputs, state, seconds, tracer=None):
    """Whole PageRank solves back to back until ``seconds`` have passed."""
    P = inputs.matrices[0]
    latencies = []

    def timed(x):
        start = time.perf_counter()
        y = state.operator(x)
        latencies.append(1e3 * (time.perf_counter() - start))
        return y

    results, durations = [], []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        start = time.perf_counter()
        if tracer is None:
            result = _solve(params, inputs, timed)
        else:
            with tracer.span("apps.pagerank"):
                result = _solve(params, inputs, timed)
        durations.append(time.perf_counter() - start)
        results.append(result)

    expected = pagerank_reference(P, inputs.dangling, params["damping"])
    l1 = [float(np.abs(r.ranks.astype(np.float64) - expected).sum()) for r in results]
    failed = sum(
        1 for r, err in zip(results, l1) if not r.converged or err > params["max_rank_l1"]
    )
    return Measurement(
        latencies_ms=latencies,
        rates=[r.iterations / d for r, d in zip(results, durations)],
        window_s=sum(durations),
        attempted=len(results),
        failed=failed,
        detail={
            "solves": len(results),
            "iterations": [r.iterations for r in results],
            "rank_l1_max": max(l1),
        },
    )


def _solve(params, inputs, spmv):
    P = inputs.matrices[0]
    return pagerank(
        spmv,
        P.nrows,
        dangling_mask=inputs.dangling,
        damping=params["damping"],
        tol=params["tol"],
    )


# -- batch -----------------------------------------------------------------------


def measure_batch(inputs, reference, state, seconds):
    """Whole rounds of one ``spmv_many`` call per matrix until ``seconds`` pass."""
    latencies, outputs, rates = [], [], []
    started = time.perf_counter()
    while not outputs or time.perf_counter() - started < seconds:
        round_start, vectors = time.perf_counter(), 0
        for i, csr in enumerate(state.matrices):
            batch = [(csr, x) for x in inputs.vectors[i]]
            start = time.perf_counter()
            ys = state.engine.spmv_many(batch)
            latencies.append(1e3 * (time.perf_counter() - start))
            outputs.append((i, ys))
            vectors += len(ys)
        rates.append(vectors / (time.perf_counter() - round_start))
    failed = sum(
        not reference.ok(i, j, y) for i, ys in outputs for j, y in enumerate(ys)
    )
    return Measurement(
        latencies_ms=latencies,
        rates=rates,
        window_s=time.perf_counter() - started,
        attempted=sum(len(ys) for _, ys in outputs),
        failed=failed,
        detail={"calls": len(outputs)},
    )
