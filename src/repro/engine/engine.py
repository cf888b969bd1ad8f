"""Batched SpMV execution engine with operand caching.

The apps layer (PageRank, CG, the recommender) and any serving workload
issue *streams* of SpMV requests, most of them against matrices they
have seen before.  A bare ``kernel.prepare() + kernel.run()`` per
request pays the format conversion every time; :class:`SpMVEngine`
amortizes it twice over:

* an :class:`~repro.engine.cache.OperandCache` keyed by the CSR's
  content hash keeps prepared operands resident under a device-plus-host
  bytes budget, so repeat requests skip ``prepare`` entirely — and a
  resident Spaden operand keeps the run view its first run decoded, so
  the bitBSR decode is paid once per operand lifetime;
* :meth:`SpMVEngine.spmv_many` micro-batches same-matrix requests into
  one multi-vector :meth:`~repro.kernels.base.SpMVKernel.run_many`
  execution, so one cache lookup and one chain walk serve each
  same-matrix group.  Grouping is by content hash: a request on a raw
  CSR is fingerprinted on its own, while a request on a
  :class:`MatrixHandle` from :meth:`SpMVEngine.register` reuses the
  handle's digest, computed at most once per handle.  Results are
  returned in request order and are bitwise-equal to per-vector
  :meth:`~repro.kernels.base.SpMVKernel.run` calls.

Every batch honors the PR-1 graceful-degradation contract: batches run
through :func:`repro.exec.execute_chain` — a
:class:`~repro.errors.ReproError` at any stage abandons the kernel,
records a :class:`~repro.exec.DegradationEvent`, drops the (possibly
poisoned) cache entry, and advances down the fallback chain — degrading
throughput, never correctness.
"""

from __future__ import annotations

import copy
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import KernelError, ReproError
from repro.engine.cache import DEFAULT_CACHE_BYTES, OperandCache, matrix_fingerprint
from repro.engine.codec import OPERAND_CODEC, decode_operand, encode_operand
from repro.exec import (
    ChainExhaustedError,
    ExecutionMode,
    default_chain,
    execute_chain,
)
from repro.exec.middleware import FaultHook, stage_span
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import ExecutionStats
from repro.kernels.base import PreparedOperand, get_kernel
from repro.obs import get_registry
from repro.resilience import ResiliencePolicy

__all__ = ["EngineStats", "MatrixHandle", "SpMVEngine"]


def _count_requests(kernel: str, amount: int) -> None:
    get_registry().counter(
        "engine_requests_total",
        "Individual SpMV requests served by the engine.",
        labels=("kernel",),
    ).inc(amount, kernel=kernel)


class MatrixHandle:
    """A matrix registered through :meth:`SpMVEngine.register`: frozen, hashed once.

    ``csr`` is a shallow copy of the caller's
    :class:`~repro.formats.csr.CSRMatrix`, so rebinding one of the
    caller's arrays afterwards changes nothing the handle serves.  Each
    of its three arrays that owns its data is made read-only in place,
    so an in-place write raises ``ValueError`` instead of leaving a
    cached operand stale; an array that is a view is copied once and the
    copy frozen, so freezing never reaches memory the caller shares
    with another array.  A view the caller took of an owning array
    before registration keeps its own write flag, and a write through
    it is not caught.

    :attr:`fingerprint` is computed on first use, under the handle's
    lock, so concurrent first requests hash the matrix once between
    them and every later request reuses the digest.
    """

    __slots__ = ("csr", "_lock", "_fingerprint")

    def __init__(self, csr: CSRMatrix):
        frozen = copy.copy(csr)
        for name in ("row_pointers", "col_indices", "values"):
            array = getattr(frozen, name)
            if not array.flags.owndata:
                array = array.copy()
                setattr(frozen, name, array)
            array.flags.writeable = False
        self.csr = frozen
        self._lock = threading.Lock()
        self._fingerprint: str | None = None  # concurrency: guarded-by(self._lock)

    @property
    def fingerprint(self) -> str:
        """The matrix's content hash, computed on the first call."""
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = matrix_fingerprint(self.csr)
            return self._fingerprint


def _csr_of(matrix: CSRMatrix | MatrixHandle) -> CSRMatrix:
    return matrix.csr if isinstance(matrix, MatrixHandle) else matrix


def _fingerprint_of(matrix: CSRMatrix | MatrixHandle) -> str:
    """A handle's memoized digest, or one hash of a raw CSR per call."""
    if isinstance(matrix, MatrixHandle):
        return matrix.fingerprint
    return matrix_fingerprint(matrix)


@dataclass
class EngineStats:
    """Counters for one engine's lifetime (``ExecutionStats``-style)."""

    #: Individual SpMV requests served (one per input vector).
    requests: int = 0
    #: ``run_many`` executions issued (one per same-matrix micro-batch).
    batches: int = 0
    #: Vectors that rode in a batch of size >= 2 (the amortized ones).
    batched_vectors: int = 0
    #: ``prepare`` invocations (cache misses and fallback re-prepares).
    prepare_calls: int = 0
    #: Host seconds spent converting formats.
    prepare_seconds: float = 0.0
    #: Host seconds spent executing kernels.
    run_seconds: float = 0.0
    #: DegradationEvents from abandoned kernel attempts, in order.
    degradation_log: list = field(default_factory=list)
    #: Merged simulator counters (populated by ``simulate=True`` runs).
    execution: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def degradations(self) -> int:
        return len(self.degradation_log)

    @property
    def amortized_run_seconds(self) -> float:
        """Mean kernel-execution seconds per served request."""
        return self.run_seconds / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ExecutionStats):
                value = value.as_dict()
            elif isinstance(value, list):
                value = list(value)
            out[f.name] = value
        return out


class SpMVEngine:
    """Cached, micro-batching SpMV executor over the kernel registry.

    ``kernel`` names the preferred kernel; the engine extends it into
    the fallback chain (preferred kernel first, then the remaining
    registry-derived :func:`~repro.exec.default_chain` members) and
    walks it per batch.  An explicit ``chain`` replaces that order;
    ``chain=(kernel,)`` never degrades.

    ``resilience`` installs a :class:`~repro.resilience.ResiliencePolicy`:
    a per-batch deadline, same-kernel retries on retryable causes,
    per-kernel circuit breakers the chain walker consults before
    attempting a kernel, and the ``deep_verify`` switch that runs the
    deep format verifiers on every attempt.  The policy's breaker trip
    and the engine's poisoned-entry cache eviction fire on the same
    failure, so a sick kernel is quarantined and its cached operand
    dropped together.  ``None`` (the default) leaves every request on
    the exact pre-policy path — results are bit-identical.

    ``store`` installs a :class:`~repro.persist.OperandStore` as a
    durable tier under the in-memory cache: an operand-cache miss
    checks disk *before* converting, and every fresh ``prepare`` spills
    its result, so converted formats survive process restarts and can
    be shared by engines pointing at the same directory.  Disk loads
    are fully validated (frame digest by the store, kernel/shape/nnz by
    the codec) and any invalid entry degrades to a counted miss plus
    ordinary re-conversion — the store can slow a cold start down to at
    worst the no-store path, never break it.  ``None`` (the default)
    is the exact memory-only behavior.

    ``planner`` installs a :class:`~repro.plan.Planner`: each batch
    walks the planner's per-matrix :class:`~repro.plan.ExecutionPlan`
    (memoized by the planner under the same fingerprint the engine
    already computed) instead of the static ``chain``.  ``None`` (the
    default) leaves every request on the exact static-chain path —
    results are bit-identical.
    """

    def __init__(
        self,
        kernel: str = "spaden",
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        chain: tuple[str, ...] | None = None,
        resilience: ResiliencePolicy | None = None,
        planner=None,
        store=None,
    ):
        get_kernel(kernel)  # fail fast on unknown names
        self.kernel_name = kernel
        self.store = store
        if chain is not None:
            self.chain = tuple(chain)
        else:
            self.chain = (kernel,) + tuple(k for k in default_chain() if k != kernel)
        if not self.chain:
            raise KernelError("empty kernel chain")
        self.resilience = resilience
        self.planner = planner
        self.cache = OperandCache(cache_bytes, name=f"engine:{kernel}")
        # Guards the engine's own bookkeeping (stats, _preparing) only.
        # It is NEVER held across prepare/execute_chain, so concurrent
        # batches still run in parallel; the cache has its own lock.
        self._lock = threading.Lock()
        self.stats = EngineStats()  # concurrency: guarded-by(self._lock)
        # [lock, holders] per operand key being looked up (_one_preparer)
        self._preparing: dict[tuple[str, str], list] = {}  # concurrency: guarded-by(self._lock)

    # -- operand management --------------------------------------------------
    @contextmanager
    def _one_preparer(self, key: tuple[str, str]):
        """Serialize the cache-through lookups of one operand key.

        Concurrent first requests on a matrix then convert (or load) it
        once: the first holder prepares and the others find it cached.
        Lookups of other keys never wait.  A key's entry lives while a
        thread holds or waits for its lock.
        """
        with self._lock:
            entry = self._preparing.get(key)
            if entry is None:
                entry = self._preparing[key] = [threading.Lock(), 0]
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._preparing[key]

    def _prepared(self, kernel_name: str, csr: CSRMatrix, fingerprint: str) -> PreparedOperand:
        """Cache-through prepare: a hit skips both conversion and verify.

        With a persistent ``store``, the miss path checks disk before
        converting (a disk hit repopulates the memory tier and skips
        ``prepare`` entirely — it does not count in
        ``stats.prepare_calls``), and a fresh ``prepare`` spills its
        result after the memory tier takes it.  The spilled bytes are a
        pristine pre-execution snapshot: fault hooks mutate the *live*
        operand, never the disk copy, so a later reload heals poisoning.
        Lookups of one key take turns (:meth:`_one_preparer`), so racing
        misses convert a matrix once.
        """
        key = (kernel_name, fingerprint)
        with self._one_preparer(key):
            operand = self.cache.get(key)
            if operand is not None:
                return operand
            operand = self._load_persisted(kernel_name, csr, fingerprint)
            if operand is not None:
                self.cache.put(key, operand)
                return operand
            kernel = get_kernel(kernel_name)
            start = time.perf_counter()
            operand = kernel.prepare(csr)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.stats.prepare_calls += 1
                self.stats.prepare_seconds += elapsed
            self.cache.put(key, operand)
        # a fresh operand spills after the turn ends: waiting lookups hit the cache
        self._spill(kernel_name, fingerprint, operand)
        return operand

    def _load_persisted(
        self, kernel_name: str, csr: CSRMatrix, fingerprint: str
    ) -> PreparedOperand | None:
        """Disk tier of the miss path; any failure is a counted miss."""
        if self.store is None:
            return None
        payload = self.store.get(kernel_name, fingerprint, codec=OPERAND_CODEC)
        if payload is None:
            return None
        operand = decode_operand(payload, kernel_name=kernel_name, csr=csr)
        if operand is None:
            # frame-valid bytes the codec could not use: demote the
            # store's hit to a structured miss and drop the entry
            self.store.discard(kernel_name, fingerprint, reason="decode")
        return operand

    def _spill(self, kernel_name: str, fingerprint: str, operand: PreparedOperand) -> None:
        """Persist a fresh operand; failures are absorbed (and counted)."""
        if self.store is None:
            return
        payload = encode_operand(operand)
        if payload is not None:
            self.store.put(kernel_name, fingerprint, payload, codec=OPERAND_CODEC)

    def register(self, csr: CSRMatrix) -> MatrixHandle:
        """Freeze ``csr`` into a :class:`MatrixHandle` that is hashed at most once.

        :meth:`spmv`, :meth:`spmv_many` and :meth:`warm` accept the
        handle wherever they accept a CSR, and reuse its fingerprint
        instead of hashing the matrix per request.  Registration is
        O(1) and hashes nothing; the first call that needs the digest
        computes it.  The caller's arrays that own their data become
        read-only (a view is copied instead; see :class:`MatrixHandle`),
        so new contents need a new registration.
        """
        return MatrixHandle(csr)

    def warm(self, matrix: CSRMatrix | MatrixHandle) -> PreparedOperand:
        """Prepare the preferred kernel's operand without executing.

        The serving front-end calls this at matrix-registration time so
        a tenant's first request never pays the conversion: the operand
        comes from memory, disk, or one fresh ``prepare`` (spilled for
        the next process).  Counts neither a request nor a batch.
        """
        return self._prepared(self.kernel_name, _csr_of(matrix), _fingerprint_of(matrix))

    def _invalidate_operand(self, kernel_name: str, fingerprint: str) -> None:
        """Drop a poisoned cached operand.

        The persistent store is deliberately *not* touched: its copy is
        a pre-execution snapshot serialized before any kernel ran, so
        it cannot carry runtime poisoning — re-loading it is the cheap
        way back to a healthy operand.
        """
        self.cache.invalidate((kernel_name, fingerprint))

    # -- execution -----------------------------------------------------------
    def _execute_batch(
        self,
        csr: CSRMatrix,
        fingerprint: str,
        X: np.ndarray,
        simulate: bool,
        faults: tuple[FaultHook, ...] = (),
    ) -> np.ndarray:
        """Run one same-matrix batch down the degradation chain.

        The chain walk itself lives in :func:`repro.exec.execute_chain`;
        the engine contributes its cache-through ``prepare`` hook, the
        poisoned-entry eviction on abandoned attempts, and — when a
        :class:`~repro.resilience.ResiliencePolicy` is installed — the
        batch deadline, the retry policy and the breaker board.
        """
        k = X.shape[0]
        policy = self.resilience
        if self.planner is not None:
            chain = self.planner.plan(csr, fingerprint=fingerprint)
        else:
            chain = self.chain

        def pick_mode(kernel) -> ExecutionMode:
            # simulate only where one simulated decode serves the whole
            # batch; a kernel without the batched simulator runs the
            # plain numeric batch path, exactly as before
            if simulate and kernel.capabilities.simulate_batch:
                return ExecutionMode.SIMULATED
            return ExecutionMode.NUMERIC

        try:
            with stage_span(
                "engine.batch", kernel=self.kernel_name, k=k, simulate=simulate
            ) as batch_span:
                result = execute_chain(
                    csr,
                    X,
                    chain,
                    mode=pick_mode,
                    faults=faults,
                    prepare=lambda name: self._prepared(name, csr, fingerprint),
                    # never let a poisoned operand serve the next request
                    invalidate=lambda name: self._invalidate_operand(name, fingerprint),
                    deep_verify=policy.deep_verify if policy is not None else False,
                    deadline=policy.new_deadline() if policy is not None else None,
                    retry=policy.retry if policy is not None else None,
                    breakers=policy.breakers if policy is not None else None,
                )
                batch_span.attributes["served_by"] = result.kernel
        except ChainExhaustedError as exc:
            with self._lock:
                self.stats.degradation_log.extend(exc.events)
            raise
        with self._lock:
            self.stats.run_seconds += result.run_seconds
            self.stats.batches += 1
            if k >= 2:
                self.stats.batched_vectors += k
            self.stats.degradation_log.extend(result.events)
            if result.stats is not None:
                self.stats.execution.merge(result.stats)
        registry = get_registry()
        registry.counter(
            "engine_batches_total",
            "Micro-batched executions issued by the engine.",
            labels=("kernel",),
        ).inc(kernel=self.kernel_name)
        registry.histogram(
            "engine_batch_size",
            "Vectors per engine micro-batch.",
            labels=("kernel",),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ).observe(k, kernel=self.kernel_name)
        return result.y

    # -- public API ----------------------------------------------------------
    def spmv(
        self, matrix: CSRMatrix | MatrixHandle, x: np.ndarray, *, simulate: bool = False
    ) -> np.ndarray:
        """Synchronous single SpMV through the cache (batch of one).

        A shape-invalid ``x`` is rejected *before* it is counted:
        ``stats.requests`` and ``engine_requests_total`` only ever cover
        requests the engine actually attempted to serve.
        """
        csr = _csr_of(matrix)
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != csr.ncols:
            raise KernelError(f"x has shape {x.shape}, expected ({csr.ncols},)")
        with self._lock:
            self.stats.requests += 1
        _count_requests(self.kernel_name, 1)
        fingerprint = _fingerprint_of(matrix)
        Y = self._execute_batch(csr, fingerprint, x[None, :].astype(np.float32), simulate)
        return Y[0]

    def spmv_many(
        self,
        requests: list[tuple[CSRMatrix | MatrixHandle, np.ndarray]],
        *,
        simulate: bool = False,
        return_errors: bool = False,
        faults: tuple[FaultHook, ...] = (),
    ) -> list[np.ndarray]:
        """Serve a list of ``(matrix, x)`` requests with micro-batching.

        Requests carrying content-identical matrices are grouped (in
        first-seen order, each group's vectors in request order) and
        executed as one multi-vector ``run_many``; results come back in
        the original request order and each equals the corresponding
        per-vector :meth:`spmv` bitwise.  A ``matrix`` is a raw CSR,
        hashed once per request, or a :class:`MatrixHandle`, whose
        memoized fingerprint every request reuses.

        With ``return_errors=True`` a failing micro-batch (chain
        exhausted, deadline missed) does not abort the whole call:
        every request of the failed group gets the
        :class:`~repro.errors.ReproError` *instance* at its position
        and the remaining groups still execute — no request is ever
        silently dropped.  A *shape-invalid* request follows the same
        contract: it gets a per-request :class:`~repro.errors.KernelError`
        at its position and never aborts the grouping loop (with
        ``return_errors=False`` the first invalid request raises before
        anything executes or is counted).  Only requests that pass
        validation are counted in ``stats.requests`` /
        ``engine_requests_total``.  ``faults`` is the fault-injection
        seam, forwarded to every attempt (the chaos harness drives it).
        """
        requests = list(requests)
        results: list[np.ndarray | ReproError | None] = [None] * len(requests)
        groups: dict[str, dict] = {}
        admitted = 0
        for position, (matrix, x) in enumerate(requests):
            csr = _csr_of(matrix)
            x = np.asarray(x)
            if x.ndim != 1 or x.shape[0] != csr.ncols:
                error = KernelError(
                    f"request {position}: x has shape {x.shape}, expected ({csr.ncols},)"
                )
                if not return_errors:
                    raise error
                results[position] = error
                continue
            admitted += 1
            fingerprint = _fingerprint_of(matrix)
            group = groups.setdefault(fingerprint, {"csr": csr, "positions": [], "xs": []})
            group["positions"].append(position)
            group["xs"].append(x.astype(np.float32))
        with self._lock:
            self.stats.requests += admitted
        if admitted:
            _count_requests(self.kernel_name, admitted)
        for fingerprint, group in groups.items():
            X = np.stack(group["xs"]) if group["xs"] else np.zeros((0, 0), np.float32)
            try:
                Y = self._execute_batch(group["csr"], fingerprint, X, simulate, faults)
            except ReproError as exc:
                if not return_errors:
                    raise
                for position in group["positions"]:
                    results[position] = exc
                continue
            for j, position in enumerate(group["positions"]):
                results[position] = Y[j]
        return results

    def operator(self, csr: CSRMatrix):
        """Bind a matrix into a plain ``x -> y`` callable for the apps.

        The content hash is computed once; every call reuses the cached
        operand, so iterative solvers pay ``prepare`` exactly once.

        The binding is guarded against the stale-fingerprint hazard:
        every call runs a cheap shape/nnz check against the matrix as it
        was at bind time, and on a mismatch (the caller rebound the
        CSR's storage arrays in place) the fingerprint is recomputed so
        the engine prepares — and caches — the *current* contents
        instead of silently serving the old operand.  A mutation that
        preserves both shape and nnz (e.g. overwriting ``values``
        element-wise) is undetectable at this cost and unsupported:
        build a new :class:`~repro.formats.csr.CSRMatrix` (or call
        :meth:`spmv` directly, which fingerprints per request) instead.
        """
        state = {
            "fingerprint": matrix_fingerprint(csr),
            "shape": csr.shape,
            "nnz": csr.nnz,
        }

        def bound_spmv(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x)
            if x.ndim != 1 or x.shape[0] != csr.ncols:
                raise KernelError(f"x has shape {x.shape}, expected ({csr.ncols},)")
            if csr.shape != state["shape"] or csr.nnz != state["nnz"]:
                state["fingerprint"] = matrix_fingerprint(csr)
                state["shape"], state["nnz"] = csr.shape, csr.nnz
            with self._lock:
                self.stats.requests += 1
            _count_requests(self.kernel_name, 1)
            Y = self._execute_batch(
                csr, state["fingerprint"], x[None, :].astype(np.float32), False
            )
            return Y[0]

        bound_spmv.__doc__ = f"Engine-cached SpMV bound to a {csr.shape} matrix."
        return bound_spmv

    def run_report(self, meta: dict | None = None):
        """This engine's state folded into a :class:`~repro.obs.RunReport`.

        Merges the engine counters, the merged simulator counters, the
        operand-cache counters and the degradation log with the
        process-wide span timeline and metrics registry.
        """
        from repro.obs import build_run_report

        base = {"kernel": self.kernel_name, "chain": list(self.chain)}
        if self.planner is not None:
            base["planner"] = getattr(self.planner, "name", type(self.planner).__name__)
        base.update(meta or {})
        return build_run_report(meta=base, engine=self)
