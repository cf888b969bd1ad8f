"""The one ``BENCH_*.json`` trajectory writer: entry shapes, refusal, atomicity."""

from __future__ import annotations

import builtins
import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.bench import PlanBenchResult, append_trajectory
from repro.bench.chaos import ChaosCampaignResult
from repro.errors import ObservabilityError

SEEDED = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: (artifact, result type, entry key the CLI writes it under)
BENCHES = [
    ("BENCH_chaos.json", ChaosCampaignResult, "campaign"),
    ("BENCH_plan.json", PlanBenchResult, "bench"),
]


class _Result:
    """Stands in for a bench result: ``as_dict`` with or without a report."""

    def __init__(self, with_report: bool):
        self.with_report = with_report

    def as_dict(self) -> dict:
        body = {"passed": True, "points": [{"p": 0.5}]}
        if self.with_report:
            body["run_report"] = {"meta": {"source": "test"}, "spans": []}
        return body


def _carries_report(result_type) -> bool:
    return "run_report" in {f.name for f in dataclasses.fields(result_type)}


@pytest.mark.parametrize(
    "artifact, result_type, key", BENCHES, ids=[name for name, *_ in BENCHES]
)
def test_append_and_refuse_to_clobber(tmp_path, artifact, result_type, key):
    result = _Result(_carries_report(result_type))
    path = tmp_path / artifact
    assert append_trajectory(path, result, key) == 1
    assert append_trajectory(path, result, key) == 2
    entries = json.loads(path.read_text())
    assert len(entries) == 2
    expected = {"recorded_unix", key} | ({"report"} if result.with_report else set())
    assert set(entries[0]) == expected
    assert "run_report" not in entries[0][key]  # lifted beside the entry
    if result.with_report:
        assert entries[0]["report"] == result.as_dict()["run_report"]
    # entries keep the shape the committed artifact already has
    seeded = SEEDED / artifact
    assert seeded.exists(), f"{seeded} is not committed"
    assert set(json.loads(seeded.read_text())[0]) == expected

    for foreign in ("not json at all", '{"not": "a trajectory"}'):
        path.write_text(foreign)
        with pytest.raises(ObservabilityError, match="refusing to overwrite"):
            append_trajectory(path, result, key)
        assert path.read_text() == foreign


class _HalfWriter:
    """A file whose ``write`` stores half its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text: str) -> int:
        self.fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")


def test_interrupted_append_keeps_earlier_entries(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_chaos.json"
    result = _Result(with_report=True)
    append_trajectory(path, result, "campaign")
    append_trajectory(path, result, "campaign")
    before = path.read_text()

    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).parent == tmp_path:
            return _HalfWriter(fh)
        return fh

    # every route to a writable file in tmp_path (builtin open, Path.write_text)
    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    with pytest.raises(OSError, match="no space left"):
        append_trajectory(path, result, "campaign")
    monkeypatch.undo()

    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp left
    assert append_trajectory(path, result, "campaign") == 3
