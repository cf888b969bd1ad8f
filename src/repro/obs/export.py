"""Exporters: Prometheus-style text and JSON-lines event logs.

Two serializations of the same observability state:

* :func:`to_prometheus` renders the metrics registry in the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` headers, one line per
  labeled series, ``_bucket``/``_sum``/``_count`` expansion for
  histograms) — the scrape format a production deployment would serve;
* :func:`write_jsonl` / :func:`read_jsonl` persist a stream of
  JSON-object events (one per line) — the format
  :class:`~repro.obs.report.RunReport` round-trips through
  (``repro.cli report --jsonl``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry

__all__ = ["read_jsonl", "to_prometheus", "write_jsonl"]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def to_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Render a registry as Prometheus text exposition format."""
    registry = get_registry() if registry is None else registry
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key, series in metric.series().items():
                cumulative = 0
                for bound, count in zip(metric.buckets, series["buckets"]):
                    cumulative = count
                    le = _format_value(float(bound))
                    labels = _labels_text(metric.label_names, key, f'le="{le}"')
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                labels = _labels_text(metric.label_names, key, 'le="+Inf"')
                lines.append(f"{metric.name}_bucket{labels} {series['count']}")
                plain = _labels_text(metric.label_names, key)
                lines.append(f"{metric.name}_sum{plain} {series['sum']}")
                lines.append(f"{metric.name}_count{plain} {series['count']}")
        else:
            for key, value in metric.series().items():
                labels = _labels_text(metric.label_names, key)
                lines.append(f"{metric.name}{labels} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str | Path, events: Iterable[dict]) -> int:
    """Write one JSON object per line; returns the number of events.

    Keys keep insertion order (no sorting) so a diff of two logs lines
    up field-for-field; values must already be JSON-native.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSON-lines file back into a list of event dicts.

    Blank lines are skipped; a malformed line is a structured
    :class:`~repro.errors.ObservabilityError` naming its line number.
    """
    path = Path(path)
    events: list[dict] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path.name}:{lineno}: malformed JSON-lines event: {exc}"
            ) from exc
        if not isinstance(event, dict):
            raise ObservabilityError(
                f"{path.name}:{lineno}: event must be a JSON object, "
                f"got {type(event).__name__}"
            )
        events.append(event)
    return events
