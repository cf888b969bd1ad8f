"""bench_convert: verdict, trajectory artifact, refuse-to-clobber."""

import json

import pytest

from repro.bench import (
    ConvertBenchResult,
    append_trajectory,
    bench_convert,
    format_convert_report,
)
from repro.errors import ObservabilityError
from repro.obs import reset_observability


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    reset_observability()


@pytest.fixture(scope="module")
def result():
    reset_observability()
    return bench_convert(96, 96, 0.05, rounds=2, seed=7)


class TestBenchConvert:
    def test_small_run_passes(self, result):
        assert isinstance(result, ConvertBenchResult)
        assert result.passed
        assert result.bitwise_identical
        assert result.results_bitwise_equal
        assert result.cold_prepare_calls == 1
        assert result.warm_prepare_calls == 0
        assert result.persistent_warm_prepare_calls == 0
        assert result.persist.get("hits", 0) >= 1
        assert result.nnz > 0
        assert result.direct_seconds > 0 and result.via_coo_seconds > 0

    def test_as_dict_carries_verdict_and_derived_rates(self, result):
        d = result.as_dict()
        assert d["passed"] is True
        assert d["direct_speedup"] == pytest.approx(
            result.via_coo_seconds / result.direct_seconds, rel=1e-6
        )
        assert "run_report" in d

    def test_report_is_human_readable(self, result):
        text = format_convert_report(result)
        assert "PASS" in text
        assert "persistent-warm" in text
        assert "bitwise-equal across all tiers" in text

    def test_explicit_store_dir_is_used(self, tmp_path):
        reset_observability()
        res = bench_convert(64, 64, 0.05, rounds=1, seed=3, store_dir=tmp_path)
        assert res.passed
        assert list(tmp_path.glob("*.operand"))  # the spill landed here


class TestTrajectory:
    def test_append_creates_and_extends(self, result, tmp_path):
        path = tmp_path / "BENCH_convert.json"
        assert append_trajectory(path, result, "bench") == 1
        assert append_trajectory(path, result, "bench") == 2
        trajectory = json.loads(path.read_text())
        assert len(trajectory) == 2
        entry = trajectory[0]
        assert set(entry) == {"recorded_unix", "bench", "report"}
        assert entry["bench"]["passed"] is True
        assert "run_report" not in entry["bench"]  # lifted to "report"

    def test_refuses_to_clobber_non_json(self, result, tmp_path):
        path = tmp_path / "BENCH_convert.json"
        path.write_text("not json at all")
        with pytest.raises(ObservabilityError):
            append_trajectory(path, result, "bench")
        assert path.read_text() == "not json at all"

    def test_refuses_to_clobber_non_list(self, result, tmp_path):
        path = tmp_path / "BENCH_convert.json"
        path.write_text('{"some": "dict"}')
        with pytest.raises(ObservabilityError):
            append_trajectory(path, result, "bench")
