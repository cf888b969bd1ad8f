"""The one writer of the ``BENCH_*.json`` trajectory artifacts.

A trajectory is a JSON list with one entry per recorded run::

    {"recorded_unix": ..., <key>: <result.as_dict() minus run_report>,
     "report": <RunReport dict>}

``key`` is ``"bench"`` for the plan bench and ``"campaign"`` for the
chaos campaign; ``"report"`` is present only when the result carries a
``run_report``.  Successive runs (and the CI artifact trail) diff the
same fields over time.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.errors import ObservabilityError

__all__ = ["append_trajectory"]


def append_trajectory(path: str | Path, result, key: str) -> int:
    """Append ``result`` to the trajectory at ``path``; returns its length.

    A file holding anything other than a JSON list is a structured
    :class:`~repro.errors.ObservabilityError`, never overwritten.  The
    new list is written to a temporary file in the same directory and
    moved over ``path`` with :func:`os.replace`, so an interrupted
    append leaves the previous trajectory intact.
    """
    path = Path(path)
    trajectory: list = []
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    if text.strip():
        try:
            trajectory = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path} is not valid JSON ({exc}); refusing to overwrite"
            ) from exc
        if not isinstance(trajectory, list):
            raise ObservabilityError(
                f"{path} holds a {type(trajectory).__name__}, expected a "
                f"trajectory list; refusing to overwrite"
            )
    body = result.as_dict()
    entry = {"recorded_unix": round(time.time(), 3), key: body}
    if "run_report" in body:
        entry["report"] = body.pop("run_report")
    trajectory.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(trajectory, indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return len(trajectory)
