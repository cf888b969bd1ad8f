"""Execution planners: structure profile + cost model + live feedback.

The static fallback chain (spaden → spaden-no-tc → cusparse-csr →
csr-scalar) is the right *safety* order but, per Fig. 9, the wrong
*speed* order for low-block-density operands.  A
:class:`Planner` closes that gap: given a matrix it emits an
:class:`ExecutionPlan` — a ranked, capability-filtered kernel order
plus batch/flush hints — that every dispatch consumer
(:func:`repro.exec.execute_chain`, :class:`~repro.engine.SpMVEngine`,
:class:`~repro.serve.ServeFrontend`) can walk exactly like a chain.

Two planners ship:

* :class:`StaticPlanner` — the degenerate planner: emits the
  registry-derived static chain verbatim, so "planner configured but
  inert" and "no planner" are bitwise-identical paths;
* :class:`StructurePlanner` — profiles the matrix once
  (:func:`~repro.plan.profile.compute_structure_profile`, cached by
  :func:`~repro.plan.profile.matrix_fingerprint`), predicts each chain
  kernel's seconds through the :mod:`repro.perf.plan_model` roofline
  adapter, blends the prediction with EWMA-smoothed *observed*
  per-vector latencies fed back by the engine
  (:meth:`StructurePlanner.observe`), and ranks.  Rankings therefore
  improve as RunReports accumulate: a kernel the model flatters but the
  machine runs slowly sinks as evidence arrives.

The blend happens in **normalized space**: modeled GPU seconds and
host-measured wall seconds live on different scales, so each signal is
divided by its own minimum over the candidates before mixing.  The
observation weight grows as ``n / (n + half_life)`` and is capped, so a
cold planner trusts the model and a warm one trusts the machine —
without ever zeroing the model out (a kernel must be able to *recover*
after a transient slowdown).

Thread-safety: planner caches are shared across engine worker threads,
so the package is audited by :mod:`repro.analysis.concurrency` like the
other serving seams — every mutable field carries a declared lock
contract, and metrics publish outside critical sections
(capture-then-publish, the OperandCache discipline).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from repro.errors import PlanError
from repro.obs import get_registry
from repro.perf.plan_model import (
    KernelTraits,
    fallback_order,
    kernel_menu,
    predict_chain_seconds,
)
from repro.plan.profile import (
    StructureProfile,
    compute_structure_profile,
    matrix_fingerprint,
)

__all__ = [
    "ExecutionPlan",
    "Planner",
    "RankedKernel",
    "StaticPlanner",
    "StructurePlanner",
]

#: Cap on the observed-latency blend weight: the cost model always
#: keeps at least this much say, so a kernel can climb back after a
#: transient slowdown inflated its EWMA.
MAX_FEEDBACK_WEIGHT: float = 0.8

#: Observations at which feedback carries half its capped weight.
FEEDBACK_HALF_LIFE: int = 4

#: EWMA smoothing factor for observed per-vector seconds.
EWMA_ALPHA: float = 0.3

#: Safety bias per tier step: a kernel only outranks a safer (lower
#: fallback-tier) kernel when its blended score beats it by more than
#: this margin per tier it jumps.  The synthetic cost model's error
#: bars exceed small predicted gaps, so inside the crossover band the
#: registry's safety order wins; a genuine Fig. 9 win (tens of
#: percents) clears the bias easily.
SAFETY_BIAS: float = 0.04


def _count_decision(planner: str, kernel: str) -> None:
    get_registry().counter(
        "planner_decisions_total",
        "Execution plans emitted, by planner and top-ranked kernel.",
        labels=("planner", "kernel"),
    ).inc(planner=planner, kernel=kernel)


def _count_rank_flip(planner: str) -> None:
    get_registry().counter(
        "planner_rank_flips_total",
        "Plans whose kernel order changed for a matrix planned before.",
        labels=("planner",),
    ).inc(planner=planner)


@dataclass(frozen=True)
class RankedKernel:
    """One kernel's position in a plan, with the evidence behind it."""

    name: str
    #: Registry fallback tier (safety order; ties broken by it).
    tier: int
    #: Cost-model prediction for this matrix, seconds.
    predicted_seconds: float
    #: EWMA-smoothed observed per-vector seconds (``None`` = no data).
    observed_seconds: float | None
    #: Observations folded into the EWMA.
    observations: int
    #: Blended, unitless ranking score (lower is better; best ~1.0).
    score: float
    #: Human-readable why (structure + evidence, one line).
    reason: str

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ExecutionPlan:
    """A ranked kernel order plus serving hints for one matrix.

    ``kernels`` is what the chain walker consumes — every consumer that
    accepts a chain accepts a plan (duck-typed on this attribute).  The
    ranking *reorders* the capability-filtered chain, it never shortens
    it below the filter: the last entries are still the safety net.
    """

    #: Ordered kernel names, best predicted first.
    kernels: tuple[str, ...]
    #: Per-kernel evidence, same order as ``kernels``.
    ranking: tuple[RankedKernel, ...] = ()
    #: Suggested micro-batch size (``FlushPolicy.max_batch``), or None.
    batch_hint: int | None = None
    #: Suggested max coalescing wait, seconds, or None.
    max_wait_hint_seconds: float | None = None
    #: Emitting planner's name.
    planner: str = "static"
    #: The structure profile the ranking used (``None`` for static).
    profile: StructureProfile | None = None

    def explain(self) -> str:
        """Multi-line human-readable account of the ranking."""
        lines = [f"plan[{self.planner}] chain: {' -> '.join(self.kernels)}"]
        if self.profile is not None:
            prof = self.profile
            lines.append(
                f"  structure: {prof.nrows}x{prof.ncols}, nnz={prof.nnz}, "
                f"fill={prof.fill_ratio:.2e}, blocks={prof.nonzero_blocks} "
                f"(mean {prof.mean_block_nnz:.1f} nnz/block, "
                f"{prof.dense_block_fraction:.0%} >= half full), "
                f"paired steps={prof.paired_steps}"
            )
        if self.batch_hint is not None or self.max_wait_hint_seconds is not None:
            wait = (
                f"{self.max_wait_hint_seconds * 1e3:.1f} ms"
                if self.max_wait_hint_seconds is not None
                else "policy default"
            )
            lines.append(f"  hints: batch <= {self.batch_hint}, wait <= {wait}")
        for position, entry in enumerate(self.ranking, start=1):
            observed = (
                f"{entry.observed_seconds * 1e6:.1f} us over {entry.observations} obs"
                if entry.observed_seconds is not None
                else "no observations"
            )
            lines.append(
                f"  {position}. {entry.name} (tier {entry.tier}): score "
                f"{entry.score:.3f} — predicted "
                f"{entry.predicted_seconds * 1e6:.1f} us, observed {observed}; "
                f"{entry.reason}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "planner": self.planner,
            "kernels": list(self.kernels),
            "batch_hint": self.batch_hint,
            "max_wait_hint_seconds": self.max_wait_hint_seconds,
            "ranking": [entry.as_dict() for entry in self.ranking],
            "profile": self.profile.as_dict() if self.profile is not None else None,
        }


class Planner:
    """Interface every planner implements.

    :meth:`plan` maps a matrix to an :class:`ExecutionPlan`;
    :meth:`observe` feeds measured per-vector kernel seconds back (a
    no-op by default, so stateless planners stay stateless).
    """

    name: str = "planner"

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        raise NotImplementedError

    def observe(self, kernel: str, seconds: float, *, vectors: int = 1) -> None:
        """Fold one measured execution into the planner's evidence."""


class StaticPlanner(Planner):
    """The degenerate planner: the static chain, verbatim.

    Exists so "a planner is configured" and "no planner" are provably
    the same path — its plans carry the registry-derived chain order
    (or an explicit ``chain``), no ranking, no hints.
    """

    name = "static"

    def __init__(self, chain: tuple[str, ...] | None = None):
        self.chain = tuple(chain) if chain is not None else None

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        kernels = self.chain if self.chain is not None else fallback_order()
        if not kernels:
            raise PlanError("StaticPlanner has an empty chain")
        return ExecutionPlan(kernels=kernels, planner=self.name)


class StructurePlanner(Planner):
    """Rank the fallback chain per matrix from structure + evidence.

    ``gpu`` names the cost-model target.  ``mode`` capability-filters
    the candidates: ``"numeric"`` admits every chain kernel,
    ``"simulated"`` only those declaring the SIMULATED capability (a
    plan for a simulation campaign must not rank kernels that cannot
    simulate).  ``candidates`` overrides the candidate set explicitly.

    Instances are shared across engine worker threads; the profile
    cache, the EWMA table and the last-order table are guarded by one
    lock that is never held across profiling, prediction or metrics.
    """

    name = "structure"

    def __init__(
        self,
        gpu: str = "L40",
        *,
        mode: str = "numeric",
        candidates: tuple[str, ...] | None = None,
    ):
        if mode not in ("numeric", "simulated"):
            raise PlanError(f"unknown planner mode {mode!r}")
        menu = kernel_menu()
        if candidates is not None:
            unknown = [name for name in candidates if name not in menu]
            if unknown:
                raise PlanError(
                    f"unknown chain candidates {unknown}; menu: {sorted(menu)}"
                )
            pool = tuple(name for name in menu if name in set(candidates))
        else:
            pool = tuple(menu)
        if mode == "simulated":
            pool = tuple(name for name in pool if menu[name].simulate)
        if not pool:
            raise PlanError(
                f"capability filter (mode={mode!r}) left no candidate kernels"
            )
        self.gpu = gpu
        self.mode = mode
        self.candidates = pool
        self._menu: dict[str, KernelTraits] = menu
        self._lock = threading.Lock()
        # concurrency: guarded-by(self._lock)
        self._profiles: dict[str, StructureProfile] = {}
        # kernel -> (ewma seconds/vector, observation count)
        # concurrency: guarded-by(self._lock)
        self._ewma: dict[str, tuple[float, int]] = {}
        # fingerprint -> last emitted kernel order (rank-flip detection)
        # concurrency: guarded-by(self._lock)
        self._orders: dict[str, tuple[str, ...]] = {}

    # -- evidence ------------------------------------------------------------
    def profile_for(self, csr, *, fingerprint: str | None = None) -> StructureProfile:
        """The (cached) structure profile of ``csr``.

        ``fingerprint`` skips re-hashing when the caller (the engine)
        already computed the content hash.  The compute-outside-lock
        race is benign: two threads profiling the same new matrix
        produce equal values and the second insert is idempotent.
        """
        if fingerprint is None:
            fingerprint = matrix_fingerprint(csr)
        with self._lock:
            profile = self._profiles.get(fingerprint)
        if profile is None:
            profile = compute_structure_profile(csr, fingerprint=fingerprint)
            with self._lock:
                self._profiles[fingerprint] = profile
        return profile

    def observe(self, kernel: str, seconds: float, *, vectors: int = 1) -> None:
        """EWMA-fold one measured execution (per-vector normalized)."""
        if seconds < 0:
            raise PlanError(f"observed seconds must be >= 0, got {seconds}")
        per_vector = seconds / max(1, vectors)
        with self._lock:
            current = self._ewma.get(kernel)
            if current is None:
                self._ewma[kernel] = (per_vector, 1)
            else:
                value, count = current
                self._ewma[kernel] = (
                    value + EWMA_ALPHA * (per_vector - value),
                    count + 1,
                )

    def observed(self) -> dict[str, tuple[float, int]]:
        """Snapshot of the EWMA table (kernel -> (seconds, count))."""
        with self._lock:
            return dict(self._ewma)

    # -- planning ------------------------------------------------------------
    def _reason(self, traits: KernelTraits, profile: StructureProfile) -> str:
        if traits.name in ("spaden", "spaden-no-tc"):
            unit = "MMA steps" if traits.tensor_cores else "CUDA block steps"
            return (
                f"cost scales with {profile.nonzero_blocks} blocks "
                f"({profile.paired_steps} {unit}); "
                f"{profile.mean_block_nnz:.1f} nnz amortized per block"
            )
        if traits.name == "cusparse-csr":
            return (
                f"streams {profile.nnz} nnz via merge-path "
                f"(+ generic-API analysis pass)"
            )
        if traits.name == "csr-scalar":
            return (
                f"zero-setup scalar walk; warps serialize to ~"
                f"{min(profile.row_nnz_max, int(profile.row_nnz_mean + profile.row_nnz_std) + 1)}"
                f" nnz rows"
            )
        return f"unrecognized chain member (tier {traits.fallback_tier})"

    def _hints(self, profile: StructureProfile) -> tuple[int, float]:
        """Batch/flush hints: denser blocks amortize a bigger batch.

        One cache lookup and one chain walk serve a whole same-matrix
        batch (each request is still fingerprinted, and the host's
        bitBSR decode is paid once per operand), and batches are sized
        by block density; hypersparse operands gain little from
        waiting, so they flush sooner and smaller.
        """
        if profile.mean_block_nnz >= 16:
            return 64, 0.02
        if profile.mean_block_nnz >= 4:
            return 32, 0.01
        return 16, 0.005

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        profile = self.profile_for(csr, fingerprint=fingerprint)
        predicted = predict_chain_seconds(
            nrows=profile.nrows,
            ncols=profile.ncols,
            nnz=profile.nnz,
            nonzero_blocks=profile.nonzero_blocks,
            nonzero_block_rows=profile.nonzero_block_rows,
            paired_steps=profile.paired_steps,
            row_nnz_mean=profile.row_nnz_mean,
            row_nnz_std=profile.row_nnz_std,
            row_nnz_max=profile.row_nnz_max,
            gpu=self.gpu,
            kernels=self.candidates,
        )
        observed = self.observed()
        predicted_floor = min(predicted.values())
        observed_floor = min(
            (observed[name][0] for name in self.candidates if name in observed),
            default=None,
        )
        entries = []
        for tier_rank, name in enumerate(self.candidates):
            traits = self._menu[name]
            model_score = predicted[name] / predicted_floor
            evidence = observed.get(name)
            if evidence is not None and observed_floor:
                value, count = evidence
                weight = min(
                    MAX_FEEDBACK_WEIGHT, count / (count + FEEDBACK_HALF_LIFE)
                )
                score = (1.0 - weight) * model_score + weight * (
                    value / observed_floor
                )
                observed_seconds, observations = value, count
            else:
                score = model_score
                observed_seconds, observations = None, 0
            # candidates iterate in tier order, so the rank index is the
            # number of safer kernels this one would have to jump
            score *= 1.0 + SAFETY_BIAS * tier_rank
            entries.append(
                RankedKernel(
                    name=name,
                    tier=traits.fallback_tier,
                    predicted_seconds=predicted[name],
                    observed_seconds=observed_seconds,
                    observations=observations,
                    score=score,
                    reason=self._reason(traits, profile),
                )
            )
        # score first; the registry tier breaks ties so equal-looking
        # kernels keep the safety order
        entries.sort(key=lambda entry: (entry.score, entry.tier, entry.name))
        kernels = tuple(entry.name for entry in entries)
        batch_hint, wait_hint = self._hints(profile)
        flipped = False
        key = profile.fingerprint
        if key is not None:
            with self._lock:
                previous = self._orders.get(key)
                self._orders[key] = kernels
            flipped = previous is not None and previous != kernels
        _count_decision(self.name, kernels[0])
        if flipped:
            _count_rank_flip(self.name)
        return ExecutionPlan(
            kernels=kernels,
            ranking=tuple(entries),
            batch_hint=batch_hint,
            max_wait_hint_seconds=wait_hint,
            planner=self.name,
            profile=profile,
        )
