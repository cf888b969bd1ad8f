"""The ``BENCH_e2e.json`` trajectory: a JSON list, one entry per workload run.

An entry holds the host and library versions, the workload and seed, the
end-to-end metrics of an untraced run and the per-layer metrics of a
traced run of the same code.  A file that is not a JSON list is never
overwritten.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

DEFAULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_e2e.json"


class TrajectoryError(ValueError):
    """The trajectory file exists but is not a JSON list."""


def load(path: Path) -> list:
    path = Path(path)
    if not path.exists() or not path.read_text(encoding="utf-8").strip():
        return []
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TrajectoryError(f"{path} is not valid JSON ({exc}); refusing to overwrite") from exc
    if not isinstance(entries, list):
        raise TrajectoryError(
            f"{path} holds a {type(entries).__name__}, not a trajectory list; "
            "refusing to overwrite"
        )
    return entries


def append(path: Path, entry: dict) -> int:
    """Append one entry; returns the trajectory length."""
    entries = load(path)
    entries.append(entry)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return len(entries)


def _git_sha() -> str:
    root = Path(__file__).resolve().parents[2]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def entry(label: str, workload: str, seed: int, seconds: float, e2e: dict, traced: dict) -> dict:
    """One trajectory entry from an untraced and a traced result."""
    trace_detail = traced["detail"]
    return {
        "label": label,
        "recorded_unix": round(time.time(), 3),
        "git_sha": _git_sha(),
        "host": host(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "correct": e2e["correct"] and traced["correct"],
        "attempted": e2e["attempted"] + traced["attempted"],
        "failed": e2e["failed"] + traced["failed"],
        "end_to_end": _values(e2e),
        "per_layer": _values(traced),
        "layer_self_s": trace_detail.get("layer_self_s", {}),
        "serve": {k: v for k, v in trace_detail.items() if k.startswith("serve.")},
        "context": e2e["detail"].get("context", []),
    }
