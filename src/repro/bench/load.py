"""Seeded load generator for the serving front-end (``repro.cli serve-bench``).

The chaos harness (:mod:`repro.bench.chaos`) proves the stack survives
*faults*; this harness proves it survives *traffic*.  A campaign drives
a :class:`~repro.serve.ServeFrontend` with real threads and a seeded,
reproducible workload plan shaped like serving reality:

* **zipfian matrix popularity** — request counts follow
  ``1 / rank^s`` across the registered matrices, so the operand cache
  and coalescer see a hot head and a cold tail, not uniform traffic;
* **a tenant mix** — requests carry round-robin tenant identities, and
  a deliberately rate-limited probe tenant fires a burst so quota
  rejections show up as structured
  :class:`~repro.errors.AdmissionError`\\ s in every campaign;
* **closed- and open-loop drive** — closed loop (each worker waits for
  its result before the next submit) measures latency under
  self-limiting clients; open loop (bursty fire-and-collect arrivals)
  measures coalescing and throughput under offered load the clients do
  not throttle.

Every served result is checked **bitwise** against a serial
per-request :meth:`~repro.engine.SpMVEngine.spmv` reference — the
front-end inherits the engine's batching-changes-nothing contract, and
the campaign fails loudly if concurrency ever breaks it.  The report
carries p50/p95/p99 latency, throughput, the coalescing factor
(requests per engine batch), rejection tallies and the merged
:class:`~repro.obs.RunReport`; :func:`~repro.bench.append_trajectory`
persists campaigns to the ``BENCH_serve.json`` artifact CI uploads,
next to ``BENCH_obs.json`` and ``BENCH_chaos.json``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.engine import SpMVEngine
from repro.errors import AdmissionError, ServeError
from repro.exec.middleware import stage_span
from repro.formats.csr import CSRMatrix
from repro.matrices.generators import fp16_exact_values
from repro.matrices.random import random_coo
from repro.serve import FlushPolicy, ServeFrontend, TenantQuota

__all__ = [
    "LoadCampaignResult",
    "bench_load",
    "format_load_report",
    "zipf_weights",
]

#: Requests the rate-limited probe tenant fires back-to-back; its token
#: bucket admits ``burst`` of them and rejects the rest structurally.
_PROBE_REQUESTS = 8
_PROBE_TENANT = "probe-limited"


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Zipfian popularity over ``count`` ranks: ``p_i ∝ 1 / (i+1)^s``."""
    if count < 1:
        raise ServeError(f"need at least one matrix, got {count}")
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** float(s)
    return weights / weights.sum()


@dataclass(frozen=True)
class LoadCampaignResult:
    """One load campaign's tallies, latencies and folded observability."""

    kernel: str
    mode: str
    nrows: int
    ncols: int
    matrices: int
    nnz: int
    seed: int
    workers: int
    tenants: int
    zipf_s: float
    #: Planned workload size (excluding the quota probe burst).
    requests: int
    #: Requests actually admitted (plan + admitted probe requests).
    admitted: int
    #: Admitted requests that resolved with a result vector.
    completed: int
    #: Admitted requests that resolved with an error object.
    errors: int
    #: Quota rejections, by structured ``AdmissionError.reason``.
    rejected: dict = field(default_factory=dict)
    #: Admitted requests that never resolved (must stay 0).
    lost: int = 0
    #: Served vectors that differ bitwise from the serial reference
    #: (must stay 0 — coalescing trades latency, never correctness).
    incorrect: int = 0
    #: Engine micro-batches that served the campaign.
    batches: int = 0
    #: Requests per engine batch (> 1 means coalescing paid off).
    coalescing: float = 0.0
    #: Latency percentiles over completed requests, in seconds.
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    wall_seconds: float = 0.0
    throughput_rps: float = 0.0
    run_report: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "mode": self.mode,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "matrices": self.matrices,
            "nnz": self.nnz,
            "seed": self.seed,
            "workers": self.workers,
            "tenants": self.tenants,
            "zipf_s": self.zipf_s,
            "requests": self.requests,
            "admitted": self.admitted,
            "completed": self.completed,
            "errors": self.errors,
            "rejected": dict(self.rejected),
            "lost": self.lost,
            "incorrect": self.incorrect,
            "batches": self.batches,
            "coalescing": self.coalescing,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "run_report": self.run_report,
        }


def _build_plan(rng, requests: int, matrices: int, tenants: int, zipf_s: float):
    """The seeded workload: ``(matrix_rank, vector_id, tenant)`` per request."""
    weights = zipf_weights(matrices, zipf_s)
    ranks = rng.choice(matrices, size=requests, p=weights)
    vector_ids = rng.integers(0, 4, size=requests)
    return [
        (int(rank), int(vector_ids[i]), f"tenant-{i % tenants}")
        for i, rank in enumerate(ranks)
    ]


def _drive_closed(frontend, plan, names, vectors, workers, record):
    """Closed loop: each worker submits, waits, verifies, repeats."""
    shares = [plan[i::workers] for i in range(workers)]
    barrier = threading.Barrier(workers)

    def worker(share):
        barrier.wait()  # line the workers up so traffic actually overlaps
        for rank, vector_id, tenant in share:
            started = time.perf_counter()
            ticket = frontend.submit(names[rank], vectors[rank][vector_id], tenant=tenant)
            error = ticket.error()
            record(rank, vector_id, ticket, error, time.perf_counter() - started)

    with ThreadPoolExecutor(workers, thread_name_prefix="load-closed") as pool:
        list(pool.map(worker, shares))


def _drive_open(frontend, plan, names, vectors, workers, record, rng_seed, burst):
    """Open loop: bursty fire-and-collect arrivals, per-worker streams."""
    shares = [plan[i::workers] for i in range(workers)]
    barrier = threading.Barrier(workers)

    def worker(slot):
        # per-worker rng keeps inter-burst gaps seeded yet thread-local
        gaps = np.random.default_rng((rng_seed, slot))
        share = shares[slot]
        tickets = []
        barrier.wait()
        for start in range(0, len(share), burst):
            for rank, vector_id, tenant in share[start : start + burst]:
                submitted = time.perf_counter()
                ticket = frontend.submit(
                    names[rank], vectors[rank][vector_id], tenant=tenant
                )
                tickets.append((rank, vector_id, ticket, submitted))
            time.sleep(float(gaps.exponential(0.002)))
        for rank, vector_id, ticket, submitted in tickets:
            error = ticket.error()
            record(rank, vector_id, ticket, error, time.perf_counter() - submitted)

    with ThreadPoolExecutor(workers, thread_name_prefix="load-open") as pool:
        list(pool.map(worker, range(workers)))


def bench_load(
    nrows: int = 96,
    ncols: int | None = None,
    density: float = 0.06,
    *,
    kernel: str = "spaden",
    matrices: int = 3,
    requests: int = 96,
    workers: int = 4,
    tenants: int = 2,
    zipf_s: float = 1.1,
    mode: str = "open",
    max_batch: int = 16,
    max_wait_seconds: float = 0.005,
    burst: int = 8,
    seed: int = 0,
) -> LoadCampaignResult:
    """Run one seeded load campaign against a fresh front-end.

    Builds ``matrices`` random CSRs (rank 0 largest-traffic under the
    zipfian plan), precomputes serial per-request references with an
    independent :class:`~repro.engine.SpMVEngine`, then drives the
    front-end with ``workers`` real threads in ``mode`` (``"open"`` or
    ``"closed"``) and fires the quota-probe burst from a rate-limited
    tenant.  Every resolution is classified (completed / error /
    rejected / lost) and every served vector is compared bitwise to its
    reference.
    """
    if mode not in ("open", "closed"):
        raise ServeError(f"mode must be 'open' or 'closed', got {mode!r}")
    if workers < 1:
        raise ServeError(f"workers must be >= 1, got {workers}")
    ncols = ncols or nrows
    rng = np.random.default_rng(seed)
    csrs = [
        CSRMatrix.from_coo(random_coo(nrows + 8 * i, ncols, density, seed=seed + i))
        for i in range(matrices)
    ]
    names = [f"m{i}" for i in range(matrices)]
    # a small per-matrix vector pool; the plan indexes into it
    vectors = [
        [fp16_exact_values(rng, ncols) for _ in range(4)] for _ in range(matrices)
    ]
    # serial ground truth: the engine contract says batching must be
    # bitwise-invisible, so per-request spmv on a fresh engine is the bar
    serial = SpMVEngine(kernel)
    references = [
        [serial.spmv(csr, x) for x in pool] for csr, pool in zip(csrs, vectors)
    ]

    plan = _build_plan(rng, requests, matrices, tenants, zipf_s)

    tallies = {"completed": 0, "errors": 0, "incorrect": 0}
    rejected: dict[str, int] = {}
    latencies: list[float] = []
    tally_lock = threading.Lock()

    def record(rank, vector_id, ticket, error, latency):
        with tally_lock:
            if latency is not None:  # probe requests don't shape percentiles
                latencies.append(latency)
            if error is not None:
                tallies["errors"] += 1
                return
            tallies["completed"] += 1
            if not np.array_equal(ticket.result(), references[rank][vector_id]):
                tallies["incorrect"] += 1

    frontend = ServeFrontend(
        SpMVEngine(kernel),
        workers=workers,
        flush_policy=FlushPolicy(max_batch=max_batch, max_wait_seconds=max_wait_seconds),
    )
    for name, csr in zip(names, csrs):
        frontend.register_matrix(name, csr)
    frontend.set_quota(
        _PROBE_TENANT, TenantQuota(max_requests_per_second=1.0, burst=2)
    )

    admitted = 0
    with stage_span("bench.load", kernel=kernel, mode=mode, requests=requests):
        started = time.perf_counter()
        try:
            if mode == "closed":
                _drive_closed(frontend, plan, names, vectors, workers, record)
            else:
                _drive_open(
                    frontend, plan, names, vectors, workers, record, seed, burst
                )
            admitted += len(plan)

            # quota probe: a back-to-back burst from the rate-limited
            # tenant — the bucket admits its capacity, rejects the rest
            probe_tickets = []
            for _ in range(_PROBE_REQUESTS):
                try:
                    probe_tickets.append(
                        frontend.submit(names[0], vectors[0][0], tenant=_PROBE_TENANT)
                    )
                except AdmissionError as exc:
                    rejected[exc.reason] = rejected.get(exc.reason, 0) + 1
            admitted += len(probe_tickets)
            for ticket in probe_tickets:
                record(0, 0, ticket, ticket.error(), None)
        finally:
            frontend.close()
        wall = time.perf_counter() - started

    stats = frontend.engine.stats
    resolved = tallies["completed"] + tallies["errors"]
    lost = admitted - resolved
    quantiles = (
        np.percentile(np.asarray(latencies), [50, 95, 99])
        if latencies
        else np.zeros(3)
    )
    report = frontend.run_report(
        meta={
            "source": "bench_load",
            "mode": mode,
            "seed": seed,
            "requests": requests,
            "workers": workers,
            "tenants": tenants,
            "zipf_s": zipf_s,
        }
    )
    return LoadCampaignResult(
        kernel=kernel,
        mode=mode,
        nrows=nrows,
        ncols=ncols,
        matrices=matrices,
        nnz=sum(csr.nnz for csr in csrs),
        seed=seed,
        workers=workers,
        tenants=tenants,
        zipf_s=zipf_s,
        requests=requests,
        admitted=admitted,
        completed=tallies["completed"],
        errors=tallies["errors"],
        rejected=rejected,
        lost=lost,
        incorrect=tallies["incorrect"],
        batches=stats.batches,
        coalescing=(stats.requests / stats.batches) if stats.batches else 0.0,
        latency_p50=float(quantiles[0]),
        latency_p95=float(quantiles[1]),
        latency_p99=float(quantiles[2]),
        wall_seconds=wall,
        throughput_rps=(resolved / wall) if wall > 0 else 0.0,
        run_report=report.as_dict(),
    )


def format_load_report(result: LoadCampaignResult) -> str:
    """Human-readable summary of one load campaign."""
    rejections = (
        ", ".join(f"{reason}={count}" for reason, count in sorted(result.rejected.items()))
        or "none"
    )
    lines = [
        f"serve load campaign — {result.kernel}, {result.mode} loop, "
        f"{result.matrices}x ~{result.nrows}x{result.ncols} (nnz={result.nnz}), "
        f"zipf s={result.zipf_s:g}, {result.workers} workers, "
        f"{result.tenants} tenants, seed={result.seed}",
        f"  requests   : {result.requests} planned + quota probe; "
        f"{result.admitted} admitted, {result.completed} completed, "
        f"{result.errors} errored",
        f"  rejections : {rejections}",
        f"  batching   : {result.batches} engine batches, "
        f"coalescing x{result.coalescing:.2f}",
        f"  latency    : p50 {result.latency_p50 * 1e3:.2f} ms, "
        f"p95 {result.latency_p95 * 1e3:.2f} ms, "
        f"p99 {result.latency_p99 * 1e3:.2f} ms",
        f"  throughput : {result.throughput_rps:.0f} req/s over "
        f"{result.wall_seconds:.3f} s",
    ]
    verdict = "PASS" if result.lost == 0 and result.incorrect == 0 else "FAIL"
    lines.append(
        f"  verdict    : {verdict} — {result.lost} lost, "
        f"{result.incorrect} bitwise-incorrect"
    )
    return "\n".join(lines)
