"""``zipf_weights``: the popularity curve the serving benchmark draws from.

``benchmarks/e2e/workloads.py`` picks each serve request's matrix with
these weights, so their shape is pinned here: normalized, decreasing by
rank, uniform at exponent zero, and a structured error with no ranks.
"""

import numpy as np
import pytest

from repro.bench.load import zipf_weights
from repro.errors import ServeError


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
