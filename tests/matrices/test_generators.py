"""Dataset generator tests: calibration against Table 1 and Fig. 9a."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis import categorize_blocks
from repro.errors import DatasetError
from repro.matrices import (
    generate_matrix,
    get_spec,
    in_scope_names,
    matrix_names,
    matrix_stats,
    random_banded,
    random_coo,
)

SCALE = 0.03


class TestRegistry:
    def test_fourteen_matrices(self):
        assert len(matrix_names()) == 14

    def test_twelve_in_scope(self):
        """The two bottom matrices do NOT meet the selection criteria."""
        assert len(in_scope_names()) == 12
        assert "scircuit" not in in_scope_names()
        assert "webbase1M" not in in_scope_names()

    def test_table1_values_preserved(self):
        spec = get_spec("pwtk")
        assert (spec.nrow, spec.nnz, spec.block_nrow, spec.block_nnz) == (
            217_918, 11_634_424, 27_240, 357_758,
        )

    def test_selection_criteria_consistent(self):
        """In-scope specs satisfy nrow > 10,000 and nnz/nrow > 32."""
        for name in in_scope_names():
            spec = get_spec(name)
            assert spec.nrow > 10_000
            assert spec.nnz_per_row > 32

    def test_out_of_scope_are_low_degree(self):
        for name in ("scircuit", "webbase1M"):
            assert get_spec(name).nnz_per_row < 6

    def test_unknown_matrix(self):
        with pytest.raises(DatasetError):
            get_spec("bcsstk99")


@pytest.mark.parametrize("name", matrix_names())
class TestCalibration:
    def test_nnz_and_block_count_hit_targets(self, name):
        g = generate_matrix(name, scale=SCALE)
        spec = g.spec
        assert abs(g.nnz - spec.nnz * SCALE) / (spec.nnz * SCALE) < 0.03
        assert abs(g.block_nnz - spec.block_nnz * SCALE) / (spec.block_nnz * SCALE) < 0.03

    def test_block_mix_matches_fig9a(self, name):
        g = generate_matrix(name, scale=SCALE)
        prof = categorize_blocks(g.bitbsr)
        fs, fm, fd = g.spec.mix
        assert abs(prof.sparse_ratio - fs) < 0.08
        assert abs(prof.dense_ratio - fd) < 0.08

    def test_reproducible(self, name):
        a = generate_matrix(name, scale=SCALE)
        b = generate_matrix(name, scale=SCALE)
        assert np.array_equal(a.bitbsr.bitmaps, b.bitbsr.bitmaps)
        assert np.array_equal(a.bitbsr.values, b.bitbsr.values)

    def test_csr_view_agrees(self, name):
        g = generate_matrix(name, scale=SCALE)
        assert g.csr.nnz == g.bitbsr.nnz
        x = g.dense_vector()
        y1 = g.csr.matvec(x)
        y2 = g.bitbsr.matvec(x)
        assert np.allclose(y1, y2, rtol=1e-3, atol=1e-2)


_DIGEST_SCRIPT = """
import hashlib
from repro.matrices import generate_matrix
m = generate_matrix("consph", scale=0.02).bitbsr
h = hashlib.blake2b()
for array in (m.block_row_pointers, m.block_cols, m.bitmaps, m.values):
    h.update(array.tobytes())
print(h.hexdigest())
"""


def test_default_seed_is_stable_across_processes():
    """The default seed must not depend on Python's per-process str hash."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


class TestScaling:
    def test_scale_bounds(self):
        with pytest.raises(DatasetError):
            generate_matrix("pwtk", scale=0.0)
        with pytest.raises(DatasetError):
            generate_matrix("pwtk", scale=1.5)

    def test_structure_is_scale_invariant(self):
        """Block-density mixes survive scaling (what makes reduced-scale
        benchmarking valid for Figs. 9/10b)."""
        small = categorize_blocks(generate_matrix("consph", scale=0.02).bitbsr)
        large = categorize_blocks(generate_matrix("consph", scale=0.08).bitbsr)
        assert abs(small.sparse_ratio - large.sparse_ratio) < 0.05


class TestMatrixStats:
    def test_stats_from_csr_and_bitbsr_agree(self):
        g = generate_matrix("cant", scale=SCALE)
        s1 = matrix_stats(g.bitbsr)
        s2 = matrix_stats(g.csr)
        assert s1.nnz == s2.nnz
        assert s1.block_nnz == s2.block_nnz
        assert s1.table1_row("cant")["Bnnz"] == g.block_nnz


class TestRandomGenerators:
    def test_random_coo_density(self):
        coo = random_coo(100, 100, 0.1, seed=3)
        assert coo.nnz == pytest.approx(1000, abs=50)

    def test_random_coo_bounds(self):
        with pytest.raises(DatasetError):
            random_coo(10, 10, 1.5)

    def test_random_banded_band(self):
        coo = random_banded(64, 3, fill=1.0, seed=1)
        assert (np.abs(coo.rows.astype(int) - coo.cols.astype(int)) <= 3).all()

    def test_fp16_exact_values(self):
        coo = random_coo(50, 50, 0.2, seed=5)
        as16 = coo.values.astype(np.float16).astype(np.float32)
        assert np.array_equal(as16, coo.values)
