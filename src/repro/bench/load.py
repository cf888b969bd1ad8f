"""Zipfian matrix popularity for serving workloads.

``benchmarks/e2e/workloads.py`` draws each serve request's matrix from
:func:`zipf_weights`, so the operand cache and the coalescer see a hot
head and a cold tail rather than uniform traffic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServeError

__all__ = ["zipf_weights"]


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Zipfian popularity over ``count`` ranks: ``p_i ∝ 1 / (i+1)^s``."""
    if count < 1:
        raise ServeError(f"need at least one matrix, got {count}")
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** float(s)
    return weights / weights.sum()
