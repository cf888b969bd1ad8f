"""The seeded chaos harness: reproducibility and the two hard invariants."""

import json

import pytest

from repro.bench import append_trajectory
from repro.bench.chaos import bench_chaos, format_chaos_report
from repro.errors import ObservabilityError


@pytest.fixture(scope="module")
def campaign():
    """One moderately-stormy campaign shared by the read-only assertions."""
    return bench_chaos(96, 96, 0.05, requests=32, batch=8, seed=3)


class TestDeterminism:
    def test_same_seed_same_event_stream(self, campaign):
        replay = bench_chaos(96, 96, 0.05, requests=32, batch=8, seed=3)
        assert replay.event_stream() == campaign.event_stream()

    def test_different_seed_different_stream(self, campaign):
        other = bench_chaos(96, 96, 0.05, requests=32, batch=8, seed=4)
        assert other.event_stream() != campaign.event_stream()


class TestInvariants:
    def test_no_request_is_ever_lost(self, campaign):
        assert campaign.lost == 0
        for point in campaign.points:
            assert point.requests == 32
            accounted = (
                point.success
                + point.degraded
                + point.exhausted
                + point.deadline_miss
                + point.incorrect
                + point.lost
            )
            assert accounted == point.requests

    def test_no_served_result_is_ever_wrong(self, campaign):
        assert campaign.incorrect == 0

    def test_calm_point_is_all_clean(self, campaign):
        calm = campaign.points[0]
        assert calm.probability == 0.0
        assert calm.success == calm.requests
        assert calm.retries == 0
        assert calm.breaker_transitions == ()

    def test_storm_points_exercise_the_machinery(self, campaign):
        stormy = campaign.points[1:]
        assert any(p.degraded or p.exhausted or p.deadline_miss for p in stormy)
        assert any(p.breaker_transitions for p in stormy)
        opens = [
            t
            for p in stormy
            for t in p.breaker_transitions
            if t["new"] == "open"
        ]
        assert opens  # sustained pressure must trip at least one breaker


class TestTrajectory:
    def test_append_accumulates_and_round_trips(self, campaign, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        assert append_trajectory(path, campaign, "campaign") == 1
        assert append_trajectory(path, campaign, "campaign") == 2
        trajectory = json.loads(path.read_text())
        assert len(trajectory) == 2
        assert trajectory[0]["campaign"] == trajectory[1]["campaign"]
        assert trajectory[0]["campaign"]["points"] == campaign.event_stream()

    def test_refuses_to_clobber_foreign_files(self, campaign, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        path.write_text('{"not": "a trajectory"}')
        with pytest.raises(ObservabilityError):
            append_trajectory(path, campaign, "campaign")
        path.write_text("not json at all")
        with pytest.raises(ObservabilityError):
            append_trajectory(path, campaign, "campaign")


class TestReport:
    def test_report_names_the_outcomes_and_verdict(self, campaign):
        text = format_chaos_report(campaign)
        assert "chaos campaign" in text
        assert "verdict : PASS" in text
        assert "0 lost, 0 incorrect" in text
        for point in campaign.points:
            assert f"{point.probability:<5.2f}" in text
