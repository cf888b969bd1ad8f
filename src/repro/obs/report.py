"""The merged ``RunReport``: one serializable document per run.

Before this layer existed the repo's counters were siloed —
:class:`~repro.gpu.counters.ExecutionStats` on the simulator,
:class:`~repro.engine.cache.CacheStats` on the operand cache,
:class:`~repro.engine.engine.EngineStats` on the serving engine,
degradation events on chain results, sanitizer findings on
:class:`~repro.analysis.sanitizer.SanitizerReport` — with no common
export.  :func:`build_run_report` folds all of them, plus the span
timeline and the metrics registry, into one :class:`RunReport` that

* prints as the ``repro.cli report`` summary
  (:func:`format_run_report`),
* serializes to a JSON-lines event stream
  (:meth:`RunReport.to_jsonl_lines`) and parses back losslessly
  (:meth:`RunReport.from_jsonl_lines` — ``report == from(to(report))``),
* rides in the chaos campaign's trajectory artifact
  (``BENCH_chaos.json``).

All payloads are normalized to JSON-native types at build time, so
equality after a serialization round trip is plain ``==``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.metrics import get_registry
from repro.obs.spans import get_span_log

__all__ = [
    "RunReport",
    "SCHEMA_VERSION",
    "build_run_report",
    "format_run_report",
]

#: Bump when the record layout below changes shape.
SCHEMA_VERSION: int = 1


def _jsonable(value):
    """Normalize to JSON-native types (tuples -> lists, str keys)."""
    return json.loads(json.dumps(value))


@dataclass
class RunReport:
    """Every observability product of one run, merged and serializable."""

    schema_version: int = SCHEMA_VERSION
    #: Free-form run descriptors (command, matrix, kernel, scale...).
    meta: dict = field(default_factory=dict)
    #: Merged simulator counters (:meth:`ExecutionStats.as_dict`, minus
    #: the degradation log, which lives in :attr:`degradation_events`).
    kernel_stats: dict = field(default_factory=dict)
    #: Operand-cache counters (:meth:`CacheStats.as_dict`).
    cache_stats: dict = field(default_factory=dict)
    #: Engine serving counters (:meth:`EngineStats.as_dict`, minus the
    #: nested execution stats and degradation log).
    engine_stats: dict = field(default_factory=dict)
    #: One dict per abandoned kernel attempt, in order.
    degradation_events: list = field(default_factory=list)
    #: Sanitizer findings (:meth:`SanitizerReport.as_dict`), or ``{}``.
    sanitizer: dict = field(default_factory=dict)
    #: Finished spans, oldest first (:meth:`Span.as_dict` each).
    spans: list = field(default_factory=list)
    #: Metrics-registry snapshot (:meth:`MetricsRegistry.as_dict`).
    metrics: dict = field(default_factory=dict)

    # -- serialization --------------------------------------------------------
    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_jsonl_lines(self) -> list[str]:
        """One JSON event per line: header, sections, then streams."""
        return [json.dumps(e, ensure_ascii=False) for e in self.to_events()]

    def to_events(self) -> list[dict]:
        events: list[dict] = [
            {"record": "meta", "schema_version": self.schema_version, "data": self.meta},
            {"record": "kernel_stats", "data": self.kernel_stats},
            {"record": "cache_stats", "data": self.cache_stats},
            {"record": "engine_stats", "data": self.engine_stats},
            {"record": "sanitizer", "data": self.sanitizer},
            {"record": "metrics", "data": self.metrics},
        ]
        events.extend({"record": "degradation_event", "data": e} for e in self.degradation_events)
        events.extend({"record": "span", "data": s} for s in self.spans)
        return events

    @classmethod
    def from_events(cls, events: list[dict]) -> "RunReport":
        report = cls()
        saw_meta = False
        sections = {
            "kernel_stats", "cache_stats", "engine_stats", "sanitizer", "metrics",
        }
        for event in events:
            record = event.get("record")
            if record == "meta":
                version = event.get("schema_version")
                if version != SCHEMA_VERSION:
                    raise ObservabilityError(
                        f"run-report schema {version!r} unsupported "
                        f"(this build reads {SCHEMA_VERSION})"
                    )
                report.meta = event.get("data", {})
                saw_meta = True
            elif record in sections:
                setattr(report, record, event.get("data", {}))
            elif record == "degradation_event":
                report.degradation_events.append(event.get("data", {}))
            elif record == "span":
                report.spans.append(event.get("data", {}))
            else:
                raise ObservabilityError(f"unknown run-report record {record!r}")
        if not saw_meta:
            raise ObservabilityError("run-report stream has no 'meta' header record")
        return report

    @classmethod
    def from_jsonl_lines(cls, lines: list[str]) -> "RunReport":
        events = []
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"line {lineno}: malformed run-report event: {exc}"
                ) from exc
        return cls.from_events(events)

    def write_jsonl(self, path: str | Path) -> int:
        return write_jsonl(path, self.to_events())

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "RunReport":
        return cls.from_events(read_jsonl(path))


def _degradation_event_dict(event) -> dict:
    """Normalize one DegradationEvent (already-dict entries pass through)."""
    if isinstance(event, dict):
        return event
    return {
        "kernel": event.kernel,
        "stage": event.stage,
        "cause": event.cause,
        "detail": event.detail,
        "fallback": event.fallback,
    }


def build_run_report(
    *,
    meta: dict | None = None,
    engine=None,
    execution_stats=None,
    cache_stats=None,
    events=None,
    sanitizer_report=None,
    registry=None,
    span_log=None,
) -> RunReport:
    """Fold every stats silo into one :class:`RunReport`.

    ``engine`` (a :class:`~repro.engine.SpMVEngine`) supplies defaults
    for ``execution_stats`` (its merged simulator counters),
    ``cache_stats``, ``events`` (its degradation log) and the engine
    counters themselves; each can also be passed explicitly.  The span
    timeline and metrics snapshot default to the process-wide log and
    registry.
    """
    engine_stats: dict = {}
    if engine is not None:
        stats = engine.stats.as_dict()
        stats.pop("degradation_log", None)
        stats.pop("execution", None)
        engine_stats = stats
        if execution_stats is None:
            execution_stats = engine.stats.execution
        if cache_stats is None:
            cache_stats = engine.cache.stats
        if events is None:
            events = engine.stats.degradation_log

    kernel_stats: dict = {}
    if execution_stats is not None:
        kernel_stats = execution_stats.as_dict()
        kernel_stats.pop("degradation_log", None)

    report = RunReport(
        meta=_jsonable(meta or {}),
        kernel_stats=_jsonable(kernel_stats),
        cache_stats=_jsonable(cache_stats.as_dict() if cache_stats is not None else {}),
        engine_stats=_jsonable(engine_stats),
        degradation_events=_jsonable(
            [_degradation_event_dict(e) for e in (events or [])]
        ),
        sanitizer=_jsonable(
            sanitizer_report.as_dict() if sanitizer_report is not None else {}
        ),
        spans=_jsonable((span_log or get_span_log()).as_dicts()),
        metrics=_jsonable((registry or get_registry()).as_dict()),
    )
    return report


def _span_rollup(spans: list[dict]) -> list[tuple[str, int, float]]:
    """Aggregate spans as ``(name, count, total_seconds)`` rows."""
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += span.get("duration_seconds", 0.0)
    return [(name, c, s) for name, (c, s) in sorted(totals.items())]


def format_run_report(report: RunReport) -> str:
    """Human-readable summary the ``repro.cli report`` command prints."""
    lines: list[str] = ["== RunReport =="]
    if report.meta:
        lines.append("meta: " + ", ".join(f"{k}={v}" for k, v in report.meta.items()))

    if report.engine_stats:
        es = report.engine_stats
        lines.append(
            f"engine: {es.get('requests', 0)} requests in {es.get('batches', 0)} "
            f"batches ({es.get('batched_vectors', 0)} amortized), "
            f"{es.get('prepare_calls', 0)} prepares "
            f"({es.get('prepare_seconds', 0.0) * 1e3:.2f} ms), "
            f"run {es.get('run_seconds', 0.0) * 1e3:.2f} ms"
        )

    if report.cache_stats:
        cs = report.cache_stats
        lookups = cs.get("hits", 0) + cs.get("misses", 0)
        rate = cs.get("hits", 0) / lookups if lookups else 0.0
        lines.append(
            f"cache: {cs.get('hits', 0)} hits / {cs.get('misses', 0)} misses "
            f"({rate:.0%}), {cs.get('evictions', 0)} evictions, "
            f"{cs.get('rejected', 0)} rejected"
        )

    if report.kernel_stats:
        ks = report.kernel_stats
        lines.append(
            f"kernel: {ks.get('mma_ops', 0)} MMAs, "
            f"{ks.get('cuda_flops', 0)} CUDA flops, "
            f"{ks.get('global_load_bytes', 0)} load B / "
            f"{ks.get('global_store_bytes', 0)} store B, "
            f"{ks.get('load_transactions', 0)}+{ks.get('store_transactions', 0)} sectors"
        )

    lines.append(f"degradations: {len(report.degradation_events)}")
    for event in report.degradation_events:
        nxt = event.get("fallback") or "chain exhausted"
        lines.append(
            f"  [{event.get('kernel')}/{event.get('stage')}] "
            f"{event.get('cause')}: {event.get('detail')} -> {nxt}"
        )

    if report.sanitizer:
        san = report.sanitizer
        lines.append(
            f"sanitizer: {len(san.get('races', []))} races, "
            f"{len(san.get('ownership_violations', []))} ownership violations, "
            f"{san.get('warps_observed', 0)} warps observed"
        )

    rollup = _span_rollup(report.spans)
    if rollup:
        lines.append(f"spans ({len(report.spans)} recorded):")
        for name, count, total in rollup:
            lines.append(f"  {name:<24} x{count:<5} {total * 1e3:9.3f} ms")

    n_series = sum(len(m.get("series", [])) for m in report.metrics.get("metrics", []))
    lines.append(
        f"metrics: {len(report.metrics.get('metrics', []))} metrics, "
        f"{n_series} labeled series"
    )
    return "\n".join(lines)
