"""Batched SpMV engine: operand caching + same-matrix micro-batching.

High-level entry point for applications that issue streams of SpMV
requests.  See :mod:`repro.engine.engine` for the executor and
:mod:`repro.engine.cache` for the keyed LRU operand cache.
"""

from repro.engine.cache import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    OperandCache,
    matrix_fingerprint,
)
from repro.engine.codec import OPERAND_CODEC, decode_operand, encode_operand
from repro.engine.engine import EngineStats, MatrixHandle, SpMVEngine

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "EngineStats",
    "MatrixHandle",
    "OPERAND_CODEC",
    "OperandCache",
    "SpMVEngine",
    "decode_operand",
    "encode_operand",
    "matrix_fingerprint",
]
