"""Behavioural tests specific to the WMMA-path Spaden variant (the §3
WMMA-vs-direct-register ablation)."""

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels import get_kernel
from repro.matrices.generators import fp16_exact_values

from tests.conftest import make_random_dense


class TestSpadenWMMAVariant:
    def test_stages_shared_memory_spaden_does_not(self, rng):
        dense = make_random_dense(rng, 64, 64, 0.2)
        csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense))
        x = fp16_exact_values(rng, 64)
        direct = get_kernel("spaden")
        wmma = get_kernel("spaden-wmma")
        p_direct = direct.profile(direct.prepare(csr), x)
        p_wmma = wmma.profile(wmma.prepare(csr), x)
        assert p_direct.stats.shared_bytes == 0
        assert p_wmma.stats.shared_bytes > 0
        # identical global traffic: the difference is pure staging
        assert p_direct.dram_bytes == p_wmma.dram_bytes

    def test_numerics_identical_to_spaden(self, rng):
        dense = make_random_dense(rng, 48, 48, 0.25)
        csr = CSRMatrix.from_coo(COOMatrix.from_dense(dense))
        x = fp16_exact_values(rng, 48)
        direct = get_kernel("spaden")
        wmma = get_kernel("spaden-wmma")
        y1 = direct.run(direct.prepare(csr), x)
        y2 = wmma.run(wmma.prepare(csr), x)
        assert np.array_equal(y1, y2)
