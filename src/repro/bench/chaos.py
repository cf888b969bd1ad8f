"""Seeded chaos harness: fault campaigns against a live engine.

The robustness suite proves each fault model is *detected* in
isolation; this harness proves the serving stack stays healthy under
**sustained** fault pressure.  A campaign drives a request stream
through a :class:`~repro.engine.SpMVEngine` carrying a full
:class:`~repro.resilience.ResiliencePolicy` (per-batch deadlines,
seeded retries, per-kernel circuit breakers) while a fault hook
replays corruption from the PR-1 :mod:`repro.robustness.faults`
registry against freshly prepared operands — sweeping the fault
probability from calm to storm — and reports, per sweep point:

* request outcomes — clean success, degraded success (served by a
  fallback), chain-exhausted, deadline-missed, *lost* (must be zero:
  ``spmv_many(return_errors=True)`` returns every request a result or
  an error),
  and ``incorrect`` (a served ``y`` that disagrees with the
  reference — must be zero: degradation trades speed, never
  correctness);
* breaker lifecycle — every closed/open/half-open transition with its
  virtual-clock timestamp, final states, and recovery latency (open →
  closed time) per quarantine episode;
* retry volume out of the process-wide metrics registry.

Time is virtual (:class:`~repro.resilience.ManualClock`): each request
ticks the clock, an injected *stall* jumps it past the batch deadline,
and retry backoff consumes budget — so a campaign is instant, never
blocks, and is **bit-for-bit reproducible**: the same seed yields the
same event stream (:meth:`ChaosCampaignResult.event_stream`).
:func:`~repro.bench.append_trajectory` persists campaigns to the
``BENCH_chaos.json`` artifact CI uploads.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.engine import SpMVEngine
from repro.errors import DeadlineExceededError, ReproError
from repro.exec.middleware import stage_span
from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices.generators import fp16_exact_values
from repro.matrices.random import random_coo
from repro.obs import get_registry
from repro.resilience import (
    BreakerBoard,
    BreakerConfig,
    ManualClock,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.robustness.faults import available_faults, faults_for_format, get_fault

__all__ = [
    "ChaosCampaignResult",
    "ChaosSweepPoint",
    "bench_chaos",
    "format_chaos_report",
]


@dataclass(frozen=True)
class ChaosSweepPoint:
    """Outcome tallies for one fault probability."""

    #: Per-execute-call probability of corrupting the prepared operand.
    probability: float
    #: Requests issued at this point.
    requests: int
    #: Served with no degradation event in the round.
    success: int
    #: Served, but at least one kernel was abandoned in the round.
    degraded: int
    #: Chain exhausted — every kernel (or its circuit) failed.
    exhausted: int
    #: Deadline missed — the batch budget ran out at a checkpoint.
    deadline_miss: int
    #: Served results disagreeing with the reference (must stay 0).
    incorrect: int
    #: Requests that vanished without a result or an error (must stay 0).
    lost: int
    #: Same-kernel re-attempts the retry policy issued.
    retries: int
    #: ``circuit-open`` degradation events (kernels skipped unattempted).
    circuit_open_skips: int
    #: Breaker state changes, in virtual-clock order.
    breaker_transitions: tuple[dict, ...] = ()
    #: Final breaker state per kernel that saw traffic.
    breaker_states: dict = field(default_factory=dict)
    #: Virtual seconds from each breaker-open to the following close.
    recovery_seconds: tuple[float, ...] = ()

    def rates(self) -> dict:
        """The tallies as fractions of :attr:`requests`."""
        n = max(self.requests, 1)
        return {
            "success": self.success / n,
            "degraded": self.degraded / n,
            "exhausted": self.exhausted / n,
            "deadline_miss": self.deadline_miss / n,
        }


@dataclass(frozen=True)
class ChaosCampaignResult:
    """One full probability sweep plus the merged observability report."""

    kernel: str
    nrows: int
    ncols: int
    nnz: int
    seed: int
    requests: int
    batch: int
    deadline_seconds: float
    points: tuple[ChaosSweepPoint, ...]
    #: The campaign's :meth:`~repro.obs.RunReport.as_dict` document
    #: (span durations are wall-clock, so this part is *not* part of
    #: the deterministic event stream).
    run_report: dict = field(default_factory=dict)

    @property
    def lost(self) -> int:
        return sum(p.lost for p in self.points)

    @property
    def incorrect(self) -> int:
        return sum(p.incorrect for p in self.points)

    def event_stream(self) -> list[dict]:
        """The deterministic record: same seed, same stream, bit for bit."""
        stream = []
        for point in self.points:
            entry = asdict(point)
            entry["breaker_transitions"] = [dict(t) for t in point.breaker_transitions]
            entry["recovery_seconds"] = list(point.recovery_seconds)
            entry["rates"] = point.rates()
            stream.append(entry)
        return stream

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "nnz": self.nnz,
            "seed": self.seed,
            "requests": self.requests,
            "batch": self.batch,
            "deadline_seconds": self.deadline_seconds,
            "lost": self.lost,
            "incorrect": self.incorrect,
            "points": self.event_stream(),
            "run_report": self.run_report,
        }


def _retry_total() -> float:
    """Current sum of ``exec_retries_total`` across all label series."""
    metric = get_registry().get("exec_retries_total")
    if metric is None:
        return 0.0
    return sum(value for _labels, value in metric.labeled())


def _recovery_latencies(transitions: list) -> list[float]:
    """Open → closed spans per breaker, from the merged transition log."""
    opened: dict[str, float] = {}
    latencies: list[float] = []
    for t in transitions:
        if t.new == "open" and t.breaker not in opened:
            opened[t.breaker] = t.at
        elif t.new == "closed" and t.breaker in opened:
            latencies.append(t.at - opened.pop(t.breaker))
    return latencies


def _make_fault_hook(rng, probability, stall_probability, stall_seconds, clock, faults):
    """The per-execute-call chaos injector.

    Two independent draws per call: a *stall* jumps the virtual clock
    (a wedged kernel — the deadline checkpoints catch it), and a
    *corruption* poisons the freshly prepared operand with a randomly
    chosen applicable fault model from the PR-1 registry.  The fault is
    injected into a deep copy swapped into ``prepared.data``: the CSR
    kernels keep the caller's matrix as their prepared data, so an
    in-place mutation would corrupt the campaign's ground truth — the
    copy poisons exactly what the cache holds (and the quarantine path
    evicts), nothing upstream.
    """

    def hook(kernel_name: str, prepared) -> None:
        if stall_probability and rng.random() < stall_probability:
            clock.advance(stall_seconds)
        if probability and rng.random() < probability:
            matrix = prepared.data
            if not isinstance(matrix, SparseMatrix):
                return
            applicable = [f for f in faults_for_format(matrix.format_name) if f in faults]
            if not applicable:
                return
            model = get_fault(applicable[int(rng.integers(len(applicable)))])
            victim = copy.deepcopy(matrix)
            try:
                model.inject(victim, rng)
            except ValueError:
                # model preconditions unmet (e.g. fp16-only fault on a
                # float32 store): this draw fires no corruption
                return
            prepared.data = victim

    return hook


def bench_chaos(
    nrows: int = 160,
    ncols: int | None = None,
    density: float = 0.03,
    *,
    kernel: str = "spaden",
    requests: int = 48,
    batch: int = 8,
    probabilities: tuple[float, ...] = (0.0, 0.5, 0.9),
    stall_fraction: float = 0.15,
    stall_seconds: float = 10.0,
    deadline_seconds: float = 8.0,
    seed: int = 0,
    faults: tuple[str, ...] | None = None,
) -> ChaosCampaignResult:
    """Run one seeded chaos campaign; returns the sweep result.

    Each sweep point gets a fresh engine, breaker board and virtual
    clock (campaign points are independent experiments).  The stream
    alternates two matrices so every round's ``spmv_many`` call
    exercises multi-group micro-batching and the per-request error
    contract; the clock ticks
    one virtual second per request and stalls fire with probability
    ``probability * stall_fraction`` per execute call.  ``faults``
    restricts the injected fault models (default: every registered
    format-scope model).
    """
    ncols = ncols or nrows
    if faults is None:
        faults = tuple(f for f in available_faults() if get_fault(f).formats)
    matrices = [
        CSRMatrix.from_coo(random_coo(nrows, ncols, density, seed=seed + i))
        for i in range(2)
    ]
    points: list[ChaosSweepPoint] = []
    engine = None  # the last point's engine feeds the run report

    with stage_span("bench.chaos", kernel=kernel, points=len(probabilities)):
        for index, probability in enumerate(probabilities):
            rng = np.random.default_rng((seed, index))
            clock = ManualClock()
            policy = ResiliencePolicy(
                deadline_seconds=deadline_seconds,
                retry=RetryPolicy(
                    max_attempts=2,
                    base_delay=0.5,
                    max_delay=1.0,
                    seed=seed,
                    sleep=clock.sleep,
                ),
                breakers=BreakerBoard(
                    # cooldown outlasts one request round (``batch`` virtual
                    # seconds), so the round after a trip actually *sees* the
                    # open circuit — and skips the kernel — before the
                    # half-open probe is admitted
                    BreakerConfig(
                        window=8,
                        failure_threshold=0.5,
                        min_volume=4,
                        cooldown_seconds=1.5 * batch,
                    ),
                    clock=clock,
                ),
                deep_verify=True,
                clock=clock,
            )
            engine = SpMVEngine(kernel, resilience=policy)
            hook = _make_fault_hook(
                rng,
                probability,
                probability * stall_fraction,
                stall_seconds,
                clock,
                faults,
            )

            retries_before = _retry_total()
            tallies = {k: 0 for k in (
                "success", "degraded", "exhausted", "deadline_miss", "incorrect", "lost"
            )}
            issued = 0
            with stage_span("bench.chaos.point", probability=probability):
                for _round in range(max(1, requests // batch)):
                    stream = []
                    for _ in range(batch):
                        csr = matrices[int(rng.integers(len(matrices)))]
                        x = fp16_exact_values(rng, csr.ncols)
                        stream.append((csr, x))
                        clock.advance(1.0)
                    issued += len(stream)
                    events_before = len(engine.stats.degradation_log)
                    results = engine.spmv_many(stream, return_errors=True, faults=(hook,))
                    tallies["lost"] += len(stream) - len(results)
                    round_degraded = len(engine.stats.degradation_log) > events_before
                    for (csr, x), result in zip(stream, results):
                        if isinstance(result, DeadlineExceededError):
                            tallies["deadline_miss"] += 1
                        elif isinstance(result, ReproError):
                            tallies["exhausted"] += 1
                        elif result is None:
                            tallies["lost"] += 1
                        else:
                            reference = csr.matvec(x.astype(np.float32))
                            if not np.allclose(result, reference, rtol=1e-2, atol=1e-2):
                                tallies["incorrect"] += 1
                            elif round_degraded:
                                tallies["degraded"] += 1
                            else:
                                tallies["success"] += 1

            transitions = policy.breakers.transitions()
            circuit_open_skips = sum(
                1 for e in engine.stats.degradation_log if e.cause == "circuit-open"
            )
            points.append(
                ChaosSweepPoint(
                    probability=probability,
                    requests=issued,
                    retries=int(_retry_total() - retries_before),
                    circuit_open_skips=circuit_open_skips,
                    breaker_transitions=tuple(
                        {"breaker": t.breaker, "old": t.old, "new": t.new, "at": t.at}
                        for t in transitions
                    ),
                    breaker_states=policy.breakers.states(),
                    recovery_seconds=tuple(_recovery_latencies(transitions)),
                    **tallies,
                )
            )

    report = engine.run_report(
        meta={
            "source": "bench_chaos",
            "seed": seed,
            "requests": requests,
            "batch": batch,
            "probabilities": list(probabilities),
            "deadline_seconds": deadline_seconds,
        }
    )
    return ChaosCampaignResult(
        kernel=kernel,
        nrows=nrows,
        ncols=ncols,
        nnz=sum(m.nnz for m in matrices),
        seed=seed,
        requests=requests,
        batch=batch,
        deadline_seconds=deadline_seconds,
        points=tuple(points),
        run_report=report.as_dict(),
    )


def format_chaos_report(result: ChaosCampaignResult) -> str:
    """Human-readable summary of one campaign."""
    lines = [
        f"chaos campaign — {result.kernel} on 2x {result.nrows}x{result.ncols} "
        f"(nnz={result.nnz}), {result.requests} requests/point, "
        f"batch={result.batch}, deadline={result.deadline_seconds:g}s, "
        f"seed={result.seed}",
        "  p      ok  degr  exh  miss  bad  lost  retry  skip  breaker",
    ]
    for p in result.points:
        states = ",".join(f"{k}={v}" for k, v in p.breaker_states.items()) or "-"
        recovery = (
            f"  recovered in {min(p.recovery_seconds):g}-{max(p.recovery_seconds):g}s"
            if p.recovery_seconds
            else ""
        )
        lines.append(
            f"  {p.probability:<5.2f}{p.success:>5}{p.degraded:>6}{p.exhausted:>5}"
            f"{p.deadline_miss:>6}{p.incorrect:>5}{p.lost:>6}{p.retries:>7}"
            f"{p.circuit_open_skips:>6}  {len(p.breaker_transitions)} transition(s)"
            f"{recovery}"
        )
        for t in p.breaker_transitions:
            lines.append(
                f"           [{t['at']:g}s] {t['breaker']}: {t['old']} -> {t['new']}"
            )
        if states != "-":
            lines.append(f"           final: {states}")
    verdict = "PASS" if result.lost == 0 and result.incorrect == 0 else "FAIL"
    lines.append(
        f"  verdict : {verdict} — {result.lost} lost, {result.incorrect} incorrect"
    )
    return "\n".join(lines)
