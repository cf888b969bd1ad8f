"""The seeded load generator: invariants, shape, and the trajectory file.

The load harness is the serving acceptance gate, so its own invariants
get tested: no admitted request may be lost, no served vector may
differ bitwise from the serial reference, percentiles must be ordered,
quota probing must produce structured rejections, and campaigns must
round-trip through the ``BENCH_serve.json`` trajectory.
"""

import json

import numpy as np
import pytest

from repro.bench import append_trajectory
from repro.bench.load import (
    bench_load,
    format_load_report,
    zipf_weights,
)
from repro.errors import ObservabilityError, ServeError
from repro.obs import reset_observability


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    reset_observability()


@pytest.fixture(scope="module")
def campaign():
    """One small open-loop campaign shared by the read-only assertions."""
    return bench_load(
        48, 48, 0.08, matrices=2, requests=24, workers=4, tenants=2, seed=7
    )


class TestZipfWeights:
    def test_normalized_and_rank_decreasing(self):
        weights = zipf_weights(5, 1.1)
        assert weights.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_exponent_zero_is_uniform(self):
        assert np.allclose(zipf_weights(4, 0.0), 0.25)

    def test_needs_at_least_one_rank(self):
        with pytest.raises(ServeError):
            zipf_weights(0, 1.1)


class TestInvariants:
    def test_nothing_lost_nothing_incorrect(self, campaign):
        assert campaign.lost == 0
        assert campaign.incorrect == 0
        assert campaign.admitted == campaign.completed + campaign.errors

    def test_quota_probe_produces_structured_rejections(self, campaign):
        assert campaign.rejected.get("rate", 0) >= 1

    def test_percentiles_are_ordered(self, campaign):
        assert 0.0 <= campaign.latency_p50 <= campaign.latency_p95 <= campaign.latency_p99

    def test_traffic_coalesces(self, campaign):
        assert campaign.batches >= 1
        assert campaign.coalescing > 1.0

    def test_report_folds_observability(self, campaign):
        names = {m["name"] for m in campaign.run_report["metrics"]["metrics"]}
        assert "serve_admitted_total" in names
        assert "serve_admission_rejected_total" in names

    def test_closed_loop_holds_the_same_invariants(self):
        result = bench_load(
            48, 48, 0.08, matrices=2, requests=16, workers=2, tenants=2,
            mode="closed", seed=11,
        )
        assert result.mode == "closed"
        assert result.lost == 0
        assert result.incorrect == 0
        assert result.rejected.get("rate", 0) >= 1

    def test_invalid_configuration_is_structured(self):
        with pytest.raises(ServeError):
            bench_load(16, 16, 0.1, mode="sideways")
        with pytest.raises(ServeError):
            bench_load(16, 16, 0.1, workers=0)


class TestTrajectory:
    def test_append_accumulates_and_round_trips(self, campaign, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        assert append_trajectory(path, campaign, "campaign") == 1
        assert append_trajectory(path, campaign, "campaign") == 2
        trajectory = json.loads(path.read_text())
        assert len(trajectory) == 2
        assert trajectory[0]["campaign"] == trajectory[1]["campaign"]
        entry = trajectory[0]["campaign"]
        assert entry["mode"] == "open"
        assert entry["lost"] == 0
        assert entry["incorrect"] == 0
        assert "run_report" not in entry  # folded report lives beside it
        assert trajectory[0]["report"] == campaign.run_report

    def test_refuses_to_clobber_foreign_files(self, campaign, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text('{"not": "a trajectory"}')
        with pytest.raises(ObservabilityError):
            append_trajectory(path, campaign, "campaign")
        path.write_text("not json at all")
        with pytest.raises(ObservabilityError):
            append_trajectory(path, campaign, "campaign")


class TestReport:
    def test_report_names_the_verdict_and_tallies(self, campaign):
        text = format_load_report(campaign)
        assert "serve load campaign" in text
        assert "PASS" in text
        assert "0 lost, 0 bitwise-incorrect" in text
        assert "rate=" in text
        assert "coalescing x" in text
