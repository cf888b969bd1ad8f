"""Execution planners: structure profile + device cost model.

The static fallback chain (spaden → spaden-no-tc → cusparse-csr →
csr-scalar) is the right *safety* order but, per Fig. 9, the wrong
*speed* order for low-block-density operands.  A
:class:`Planner` closes that gap: given a matrix it emits an
:class:`ExecutionPlan` — a ranked, capability-filtered kernel order —
that every dispatch consumer (:func:`repro.exec.execute_chain`,
:class:`~repro.engine.SpMVEngine`) can walk exactly like a chain.

Two planners ship:

* :class:`StaticPlanner` — the degenerate planner: emits the
  registry-derived static chain verbatim, so "planner configured but
  inert" and "no planner" are bitwise-identical paths;
* :class:`StructurePlanner` — profiles the matrix
  (:func:`~repro.plan.profile.compute_structure_profile`), predicts
  each chain kernel's seconds on the modeled GPU through the
  :mod:`repro.perf.plan_model` roofline adapter, and ranks.

A plan lives in the device plane only: a pure function of the matrix
content, the GPU and the mode, memoized by
:func:`~repro.plan.profile.matrix_fingerprint`.  Host wall-clock of the
Python twins never reaches a ranking; it is not comparable with
modeled GPU seconds.

Thread-safety: the plan memo is shared across engine worker threads,
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

#: Safety bias per tier step: a kernel only outranks a safer (lower
#: fallback-tier) kernel when its score beats it by more than
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


@dataclass(frozen=True)
class RankedKernel:
    """One kernel's position in a plan, with the evidence behind it."""

    name: str
    #: Registry fallback tier (safety order; ties broken by it).
    tier: int
    #: Cost-model prediction for this matrix, seconds.
    predicted_seconds: float
    #: Unitless ranking score (lower is better; best ~1.0).
    score: float
    #: Human-readable why, from the structure profile (one line).
    reason: str

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ExecutionPlan:
    """A ranked kernel order for one matrix.

    ``kernels`` is what the chain walker consumes — every consumer that
    accepts a chain accepts a plan (duck-typed on this attribute).  The
    ranking *reorders* the capability-filtered chain, it never shortens
    it below the filter: the last entries are still the safety net.
    """

    #: Ordered kernel names, best predicted first.
    kernels: tuple[str, ...]
    #: Per-kernel evidence, same order as ``kernels``.
    ranking: tuple[RankedKernel, ...] = ()
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
        for position, entry in enumerate(self.ranking, start=1):
            lines.append(
                f"  {position}. {entry.name} (tier {entry.tier}): score "
                f"{entry.score:.3f} — predicted "
                f"{entry.predicted_seconds * 1e6:.1f} us; {entry.reason}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "planner": self.planner,
            "kernels": list(self.kernels),
            "ranking": [entry.as_dict() for entry in self.ranking],
            "profile": self.profile.as_dict() if self.profile is not None else None,
        }


class Planner:
    """Interface every planner implements.

    :meth:`plan` maps a matrix to an :class:`ExecutionPlan`;
    ``fingerprint`` skips re-hashing when the caller (the engine)
    already computed the content hash.
    """

    name: str = "planner"

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        raise NotImplementedError


class StaticPlanner(Planner):
    """The degenerate planner: the static chain, verbatim.

    Exists so "a planner is configured" and "no planner" are provably
    the same path — its plans carry the registry-derived chain order
    (or an explicit ``chain``) and no ranking.  The registry is read
    once, at construction, as :class:`~repro.engine.SpMVEngine` reads
    :func:`~repro.exec.default_chain` for its no-planner path, so every
    call returns the same plan and a kernel registered later joins
    neither chain.
    """

    name = "static"

    def __init__(self, chain: tuple[str, ...] | None = None):
        self.chain = tuple(chain) if chain is not None else fallback_order()
        if not self.chain:
            raise PlanError("StaticPlanner has an empty chain")
        self._plan = ExecutionPlan(kernels=self.chain, planner=self.name)

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        return self._plan


class StructurePlanner(Planner):
    """Rank the fallback chain per matrix from its structure.

    ``gpu`` names the cost-model target.  ``mode`` capability-filters
    the candidates: ``"numeric"`` admits every chain kernel,
    ``"simulated"`` only those declaring the SIMULATED capability (a
    plan for a simulation campaign must not rank kernels that cannot
    simulate).

    A plan depends only on the matrix content, ``gpu`` and ``mode``,
    so each matrix is profiled and ranked once and its plan memoized by
    content fingerprint.  Instances are shared across engine worker
    threads; the memo is guarded by one lock that is never held across
    profiling, prediction or metrics.
    """

    name = "structure"

    def __init__(self, gpu: str = "L40", *, mode: str = "numeric"):
        if mode not in ("numeric", "simulated"):
            raise PlanError(f"unknown planner mode {mode!r}")
        menu = kernel_menu()
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
        self._plans: dict[str, ExecutionPlan] = {}

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

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        """The memoized plan for ``csr``'s content.

        Two threads planning the same new matrix race benignly: the
        first insert wins, both return it, and it is counted once.
        """
        if fingerprint is None:
            fingerprint = matrix_fingerprint(csr)
        with self._lock:
            memo = self._plans.get(fingerprint)
        if memo is not None:
            return memo
        profile = compute_structure_profile(csr, fingerprint=fingerprint)
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
        predicted_floor = min(predicted.values())
        entries = []
        for tier_rank, name in enumerate(self.candidates):
            traits = self._menu[name]
            # candidates iterate in tier order, so the rank index is the
            # number of safer kernels this one would have to jump
            score = predicted[name] / predicted_floor * (1.0 + SAFETY_BIAS * tier_rank)
            entries.append(
                RankedKernel(
                    name=name,
                    tier=traits.fallback_tier,
                    predicted_seconds=predicted[name],
                    score=score,
                    reason=self._reason(traits, profile),
                )
            )
        # score first; the registry tier breaks ties so equal-looking
        # kernels keep the safety order
        entries.sort(key=lambda entry: (entry.score, entry.tier, entry.name))
        plan = ExecutionPlan(
            kernels=tuple(entry.name for entry in entries),
            ranking=tuple(entries),
            planner=self.name,
            profile=profile,
        )
        with self._lock:
            memo = self._plans.setdefault(fingerprint, plan)
        if memo is plan:
            _count_decision(self.name, plan.kernels[0])
        return memo
