"""Checks of the end-to-end benchmark itself, at one-second durations.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict

import pytest

from benchmarks.e2e import run
from repro.engine import SpMVEngine

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SMOKE_SECONDS = "1"


def test_benchmark_json_names_the_spec_workloads():
    spec = run.load_json(run.HERE / "spec.json")
    assert WORKLOADS == list(spec["workloads"])
    assert set(spec["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", "1",
         "--seconds", SMOKE_SECONDS, "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln for ln in lines if ln.startswith(f"metric {m['name']} = ")]
        assert printed and printed[0].endswith(f" {m['unit']}")


def test_a_corrupted_output_fails_the_run(monkeypatch, capsys):
    original = SpMVEngine.spmv_many
    corrupted = []

    def corrupting(self, requests, **kwargs):
        ys = original(self, requests, **kwargs)
        if not corrupted:
            ys[0][0] += 1.0 + abs(ys[0][0])
            corrupted.append(True)
        return ys

    monkeypatch.setattr(SpMVEngine, "spmv_many", corrupting)
    status = run.main(["--workload", "serve-hot", "--seed", "1", "--seconds", SMOKE_SECONDS])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert corrupted
    assert status == run.EXIT_FAILED
    assert result["failed"] == 1 and not result["correct"]


def test_changed_generators_make_the_run_refuse(monkeypatch, capsys):
    from benchmarks.e2e import inputs

    monkeypatch.setattr(inputs, "canary_digest", lambda canary: "0" * 16)
    status = run.main(["--workload", "solver", "--seconds", SMOKE_SECONDS])
    assert status == run.EXIT_INPUT_DRIFT
    assert capsys.readouterr().out == ""


def test_traced_spans_nest_and_self_times_add_up():
    from benchmarks.e2e.tracing import Span, self_seconds

    result = run.run_workload("solver", seed=1, seconds=1.0, trace=True)
    raw = json.loads((run.ROOT / result["detail"]["spans_file"]).read_text())
    spans = [Span(**{**s, "key": None}) for s in raw]
    by_id = {s.id: s for s in spans}
    for s in spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.thread == s.thread
            assert parent.start <= s.start and s.end <= parent.end
    own = self_seconds(spans)
    assert min(own.values()) >= 0.0

    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def subtree_self(span):
        return own[span.id] + sum(subtree_self(c) for c in children[span.id])

    solves = [s for s in spans if s.name == "apps.pagerank"]
    assert solves
    attributed = sum(subtree_self(s) for s in solves)
    assert attributed == pytest.approx(result["detail"]["traced_window_s"], rel=0.05)
