"""Crossover bench tests: sweep generator, tolerance verdict, artifact."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import append_trajectory
from repro.bench.plan import (
    bench_plan_crossover,
    block_sweep_csr,
    format_plan_report,
)
from repro.errors import ObservabilityError, PlanError
from repro.plan import matrix_fingerprint


def _blake2b_fingerprint(csr) -> str:
    """The fingerprint formula before SHA-256 (store schema 1)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(csr.shape).encode())
    for array in (csr.row_pointers, csr.col_indices, csr.values):
        h.update(f"{array.dtype.str}:{array.size};".encode())
        h.update(np.ascontiguousarray(array).data)
    return h.hexdigest()


class TestBlockSweepMatrix:
    @pytest.mark.parametrize("per_block", [64, 16, 1])
    def test_exact_block_density(self, per_block):
        csr = block_sweep_csr(per_block, nnz_target=1024, seed=2)
        prof = csr.structure_profile()
        assert prof.mean_block_nnz == pytest.approx(per_block)
        assert csr.nnz == (1024 // per_block) * per_block

    def test_seeded_reproducible(self):
        a = block_sweep_csr(8, seed=4)
        b = block_sweep_csr(8, seed=4)
        assert a.structure_profile().fingerprint == b.structure_profile().fingerprint

    def test_rejects_impossible_density(self):
        with pytest.raises(PlanError):
            block_sweep_csr(65)
        with pytest.raises(PlanError):
            block_sweep_csr(0)

    def test_rejects_unaligned_shape(self):
        with pytest.raises(PlanError):
            block_sweep_csr(8, nrows=100, ncols=96)


class TestCrossoverBench:
    @pytest.fixture(scope="class")
    def result(self):
        # a short sweep keeps the measured-counter ground truth cheap:
        # one dense point (agreement expected) and one hypersparse point
        # (the planner should reorder)
        return bench_plan_crossover(
            (64, 2), nrows=256, ncols=256, nnz_target=1024, seed=0
        )

    def test_within_tolerance_everywhere(self, result):
        assert result.within_tolerance
        assert result.worst_margin <= result.tolerance

    def test_dense_point_agrees_with_static(self, result):
        dense = result.points[0]
        assert dense.per_block_nnz == 64
        assert dense.planner_pick == dense.static_pick == "spaden"
        assert dense.margin == pytest.approx(0.0)

    def test_hypersparse_point_reorders_and_wins(self, result):
        sparse = result.points[1]
        assert sparse.per_block_nnz == 2
        assert sparse.planner_pick != sparse.static_pick
        # the reorder must be a ground-truth *win*, not just a flip
        assert sparse.margin < 0
        assert result.reorder_points == 1

    def test_truth_covers_whole_chain(self, result):
        for point in result.points:
            assert set(point.truth_seconds) == set(point.plan["kernels"])
            assert all(t > 0 for t in point.truth_seconds.values())

    def test_report_format(self, result):
        text = format_plan_report(result)
        assert "plan crossover" in text
        assert "OK" in text
        for point in result.points:
            assert point.planner_pick in text


class TestCommittedSweep:
    def test_seed0_sweep_reproduces_first_committed_entry(self):
        path = Path(__file__).parents[2] / "benchmarks/results/BENCH_plan.json"
        committed = json.loads(path.read_text())[0]["bench"]
        fresh = json.loads(json.dumps(bench_plan_crossover(seed=0).as_dict()))
        close = dict(rel=1e-9)
        assert len(fresh["points"]) == len(committed["points"])
        for index, (point, then) in enumerate(zip(fresh["points"], committed["points"])):
            # picks, chain order and reasons exactly
            for key in ("per_block_nnz", "nnz", "planner_pick", "static_pick"):
                assert point[key] == then[key], key
            assert point["plan"]["kernels"] == then["plan"]["kernels"]
            ranking, old_ranking = point["plan"]["ranking"], then["plan"]["ranking"]
            assert [(e["name"], e["tier"], e["reason"]) for e in ranking] == [
                (e["name"], e["tier"], e["reason"]) for e in old_ranking
            ]
            # seconds, scores and the profile to rounding
            assert point["truth_seconds"] == pytest.approx(then["truth_seconds"], **close)
            assert point["margin"] == pytest.approx(then["margin"], **close)
            for entry, old in zip(ranking, old_ranking):
                assert entry["score"] == pytest.approx(old["score"], **close)
                assert entry["predicted_seconds"] == pytest.approx(
                    old["predicted_seconds"], **close
                )
            profile = dict(point["plan"]["profile"])
            old_profile = dict(then["plan"]["profile"])
            assert profile.pop("block_nnz_hist") == old_profile.pop("block_nnz_hist")
            # the entry holds blake2b fingerprints: the regenerated matrix
            # must hash to them under that formula, so its content is the
            # committed one, and to the fresh plan's key under SHA-256
            csr = block_sweep_csr(
                then["per_block_nnz"],
                nrows=then["nrows"],
                ncols=then["ncols"],
                seed=committed["seed"] + index,
            )
            assert _blake2b_fingerprint(csr) == old_profile.pop("fingerprint")
            assert matrix_fingerprint(csr) == profile.pop("fingerprint")
            assert profile == pytest.approx(old_profile, **close)


class TestTrajectoryArtifact:
    @pytest.fixture(scope="class")
    def result(self):
        return bench_plan_crossover((64,), nrows=128, ncols=128, nnz_target=256, seed=1)

    def test_appends_and_grows(self, tmp_path, result):
        path = tmp_path / "BENCH_plan.json"
        assert append_trajectory(path, result, "bench") == 1
        assert append_trajectory(path, result, "bench") == 2
        doc = json.loads(path.read_text())
        assert isinstance(doc, list) and len(doc) == 2
        assert doc[0]["bench"]["within_tolerance"] is True
        assert doc[0]["bench"]["points"][0]["planner_pick"]

    def test_refuses_non_list(self, tmp_path, result):
        path = tmp_path / "BENCH_plan.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ObservabilityError):
            append_trajectory(path, result, "bench")
        assert path.read_text() == '{"not": "a list"}'  # untouched

    def test_refuses_invalid_json(self, tmp_path, result):
        path = tmp_path / "BENCH_plan.json"
        path.write_text("not json at all")
        with pytest.raises(ObservabilityError):
            append_trajectory(path, result, "bench")
