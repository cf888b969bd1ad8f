"""Keyed LRU cache of :class:`~repro.kernels.base.PreparedOperand`.

Serving traffic means running many SpMVs against a small working set of
matrices.  ``prepare`` (CSR -> bitBSR conversion, analysis passes) costs
orders of magnitude more than one ``run``, so the engine keys each
prepared operand by the *content* of its CSR — two requests carrying
structurally identical matrices share one conversion, and a matrix that
changes in place can never serve a stale operand.

The cache is bounded by a **bytes budget** over device plus host bytes:
each resident operand is charged its ``PreparedOperand.device_bytes``
(modeling GPU memory) plus its ``host_bytes`` (host data the kernel
derives on first run, such as Spaden's decoded run view), so a cache
never holds more memory than its budget says.  It evicts
least-recently-used entries to stay under the budget.  Hit, miss and
eviction counters are surfaced through :class:`CacheStats` so the
engine's :class:`~repro.engine.engine.EngineStats` can report them the
way :class:`~repro.gpu.counters.ExecutionStats` reports kernel counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields

from repro.errors import KernelError
from repro.kernels.base import PreparedOperand
from repro.obs import get_registry

# The canonical fingerprint implementation lives in repro.plan.profile
# (the planner's profile cache and this operand cache must key by the
# same content hash); re-exported here so engine callers are unchanged.
from repro.plan.profile import matrix_fingerprint

__all__ = ["CacheStats", "OperandCache", "matrix_fingerprint"]

#: Default budget: 256 MiB, a small slice of either board.
DEFAULT_CACHE_BYTES: int = 256 * 1024 * 1024


def _charged_bytes(operand: PreparedOperand) -> int:
    """What one resident operand costs the budget: device plus host bytes."""
    return operand.device_bytes + operand.host_bytes


@dataclass
class CacheStats:
    """Additive operand-cache counters (``ExecutionStats``-style)."""

    #: Lookups that found a resident operand.
    hits: int = 0
    #: Lookups that required a fresh ``prepare``.
    misses: int = 0
    #: Entries evicted to respect the bytes budget.
    evictions: int = 0
    #: Operands larger than the whole budget, served but never retained.
    rejected: int = 0
    #: Entries dropped through :meth:`OperandCache.invalidate` — the
    #: quarantine path (poisoned operands evicted on kernel failure).
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (1.0 = all hits)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class OperandCache:
    """LRU cache of prepared operands under a device-plus-host bytes budget.

    ``device_bytes_budget`` bounds the sum of each resident operand's
    ``device_bytes + host_bytes``.

    ``name`` labels this cache's series in the process-wide metrics
    registry (hit/miss/eviction/rejection counters and the
    resident-bytes gauge); instances sharing a name aggregate.

    Thread-safe: the entry map, the running byte total and the counters
    move together under one lock, so concurrent lookups can never
    observe an entry without its bytes or a hit without its count.
    Metric emission happens after the lock is released (values captured
    while it was held), keeping the lock ordering cache → registry
    acyclic and the critical section free of registry work.
    """

    def __init__(self, device_bytes_budget: int = DEFAULT_CACHE_BYTES, name: str = "default"):
        if device_bytes_budget <= 0:
            raise KernelError("device_bytes_budget must be positive")
        self.device_bytes_budget = int(device_bytes_budget)
        self.name = name
        self._lock = threading.Lock()
        # concurrency: guarded-by(self._lock)
        self._entries: OrderedDict[tuple[str, str], PreparedOperand] = OrderedDict()
        self._resident_bytes = 0  # concurrency: guarded-by(self._lock)
        self.stats = CacheStats()  # concurrency: guarded-by(self._lock)

    # -- observability -------------------------------------------------------
    def _count_event(self, event: str, amount: int = 1) -> None:
        get_registry().counter(
            "operand_cache_events_total",
            "Operand-cache lookups and retention outcomes.",
            labels=("cache", "event"),
        ).inc(amount, cache=self.name, event=event)

    def _publish_residency(self, resident_bytes: int, entries: int) -> None:
        # takes the values instead of reading guarded fields: called
        # after the lock is dropped, with a snapshot captured inside it
        registry = get_registry()
        registry.gauge(
            "operand_cache_resident_bytes",
            "Device plus host bytes held by resident prepared operands.",
            labels=("cache",),
        ).set(resident_bytes, cache=self.name)
        registry.gauge(
            "operand_cache_entries",
            "Prepared operands currently resident.",
            labels=("cache",),
        ).set(entries, cache=self.name)

    # -- bookkeeping ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def resident_bytes(self) -> int:
        """Device plus host bytes currently held by resident operands.

        Maintained as a running total through ``put`` / ``invalidate`` /
        ``clear``, so eviction decisions are O(1) per entry instead of
        re-summing every resident operand.
        """
        with self._lock:
            return self._resident_bytes

    def keys(self) -> list[tuple[str, str]]:
        """Resident keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    # -- access --------------------------------------------------------------
    def get(self, key: tuple[str, str]) -> PreparedOperand | None:
        """Fetch an operand, refreshing its recency; counts hit or miss."""
        with self._lock:
            operand = self._entries.get(key)
            if operand is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        self._count_event("miss" if operand is None else "hit")
        return operand

    def peek(self, key: tuple[str, str]) -> PreparedOperand | None:
        """Side-effect-free read: no counters, no recency refresh.

        Introspection (CLI reporting, tests, debuggers) must not distort
        the cache it is observing — :meth:`get` counts a hit/miss and
        moves the entry to the MRU end, so using it to *look* changes
        both the stats and the next eviction victim.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple[str, str], operand: PreparedOperand) -> None:
        """Insert an operand, evicting LRU entries to honor the budget.

        An operand larger than the entire budget is never retained (it
        would evict everything and still not fit); it is counted in
        ``stats.rejected`` and the caller simply keeps its reference for
        the current execution.  If the same key held a smaller resident
        operand, dropping it counts as an eviction — the entry leaves
        the cache to respect the budget, exactly like an LRU eviction.
        """
        events: list[str] = []
        with self._lock:
            if _charged_bytes(operand) > self.device_bytes_budget:
                displaced = self._entries.pop(key, None)
                if displaced is not None:
                    self._resident_bytes -= _charged_bytes(displaced)
                    self.stats.evictions += 1
                    events.append("eviction")
                self.stats.rejected += 1
                events.append("rejected")
            else:
                replaced = self._entries.get(key)
                if replaced is not None:
                    self._resident_bytes -= _charged_bytes(replaced)
                self._entries[key] = operand
                self._entries.move_to_end(key)
                self._resident_bytes += _charged_bytes(operand)
                while self._resident_bytes > self.device_bytes_budget:
                    evicted_key, evicted = self._entries.popitem(last=False)
                    self._resident_bytes -= _charged_bytes(evicted)
                    self.stats.evictions += 1
                    events.append("eviction")
                    if evicted_key == key:  # cannot happen (size checked), safety net
                        break
            resident, count = self._resident_bytes, len(self._entries)
        for event in events:
            self._count_event(event)
        self._publish_residency(resident, count)

    def invalidate(self, key: tuple[str, str]) -> bool:
        """Drop one entry (e.g. a poisoned operand); True if it was resident."""
        with self._lock:
            dropped = self._entries.pop(key, None)
            if dropped is None:
                return False
            self._resident_bytes -= _charged_bytes(dropped)
            self.stats.invalidations += 1
            resident, count = self._resident_bytes, len(self._entries)
        self._count_event("invalidation")
        self._publish_residency(resident, count)
        return True

    def clear(self) -> None:
        """Drop every resident operand (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._resident_bytes = 0
        self._publish_residency(0, 0)
