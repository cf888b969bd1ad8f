"""Compare two sets of ``BENCH_e2e.json`` entries, metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py BASE CHANGE [--file PATH]

``BASE`` and ``CHANGE`` select entries by their ``label`` or ``git_sha``.
For every end-to-end metric on every workload the table gives each
set's median and quartiles, how far the change's median is worse than
the base's (as a share of the base median), and the share of same-seed
pairs the change won (ties count for neither side).  A pairing is:

* ``unresolved`` when either set's quartile spread exceeds the metric's
  bound, unless every change run beats every base run;
* ``regression`` when the change's median is worse by more than the bound;
* ``gain`` when the change won at least nine tenths of the pairs and
  the medians differ by more than the base's quartile spread;
* ``same`` otherwise.

Per-layer medians follow, so a regression can be pointed at a layer.
The exit status is 1 when any pairing is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_FILE = HERE / "results" / "BENCH_e2e.json"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(values: list[float]) -> float:
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], pairs, bound: float, lower: bool) -> dict:
    """Classify one metric on one workload; ``pairs`` are same-seed values."""
    sign = 1.0 if lower else -1.0
    med_a, med_b = statistics.median(base), statistics.median(change)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    won = wins / len(pairs) if pairs else 0.0
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    spread_a, spread_b = _spread(base), _spread(change)
    if max(spread_a, spread_b) > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    elif won >= 0.9 and -worse_by > spread_a:
        label = "gain"
    else:
        label = "same"
    return {"worse_by": worse_by, "won": won, "spread": max(spread_a, spread_b), "verdict": label}


def select(entries: list[dict], key: str) -> list[dict]:
    return [e for e in entries if key in (e.get("label"), e.get("git_sha"))]


def compare(entries: list[dict], base_key: str, change_key: str, benchmark: dict) -> list[dict]:
    base, change = select(entries, base_key), select(entries, change_key)
    rows = []
    for workload in sorted({e["workload"] for e in base} & {e["workload"] for e in change}):
        a = [e for e in base if e["workload"] == workload]
        b = [e for e in change if e["workload"] == workload]
        by_seed = {e["seed"]: e for e in a}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va = [e["end_to_end"][name] for e in a]
            vb = [e["end_to_end"][name] for e in b]
            pairs = [
                (by_seed[e["seed"]]["end_to_end"][name], e["end_to_end"][name])
                for e in b
                if e["seed"] in by_seed
            ]
            row = {"workload": workload, "metric": name, "base": _quartiles(va),
                   "change": _quartiles(vb), "runs": (len(va), len(vb)), "bound": metric["bound"]}
            row.update(verdict(va, vb, pairs, metric["bound"], metric["better"] == "lower"))
            rows.append(row)
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            va = [e["per_layer"][name] for e in a if name in e.get("per_layer", {})]
            vb = [e["per_layer"][name] for e in b if name in e.get("per_layer", {})]
            if va and vb:
                rows.append({"workload": workload, "metric": name, "base": _quartiles(va),
                             "change": _quartiles(vb), "runs": (len(va), len(vb))})
    return rows


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--file", type=Path, default=DEFAULT_FILE)
    args = parser.parse_args(argv)
    entries = json.loads(args.file.read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(entries, args.base, args.change, benchmark)
    if not rows:
        print(f"no workload has entries for both {args.base!r} and {args.change!r}")
        return 2
    print(f"{'workload':12} {'metric':38} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'runs':>6} {'worse_by':>9} {'won':>5} verdict")
    regressions = 0
    for row in rows:
        runs = f"{row['runs'][0]}/{row['runs'][1]}"
        if "verdict" in row:
            regressions += row["verdict"] == "regression"
            tail = (f"{row['worse_by']:+9.3f} {row['won']:5.2f} {row['verdict']}"
                    f" (spread {row['spread']:.3f}, bound {row['bound']})")
        else:
            tail = "  (per layer)"
        print(f"{row['workload']:12} {row['metric']:38} {_fmt(row['base']):>30} "
              f"{_fmt(row['change']):>30} {runs:>6} {tail}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
