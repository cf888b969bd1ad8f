"""Serialization between :class:`PreparedOperand` and store payloads.

:mod:`repro.persist` is import-fenced below the kernel layer, so it
moves opaque bytes only; this module — living in the engine, above the
fence — owns the byte layout.  The codec string is part of every
entry's validated header: changing the layout means changing the
string, and old entries become structured ``codec`` misses instead of
misdecodes.

The payload is a pickle, and unpickling runs whatever the bytes say.
The store's SHA-256 digest (:class:`~repro.persist.OperandStore`) is
unkeyed and sits in the same file as the payload, so it detects
corruption but not forgery: anyone who can write the file can write a
matching digest.  The trust boundary is therefore the directory — a
store may only load from a directory that no one but the serving user
can write.  Within that boundary, decoding trusts nothing semantically:
anything that is not a well-formed :class:`PreparedOperand` for the
requested kernel and matrix is rejected (``None``), which the engine
reports back to the store as a structured ``decode`` miss.

A payload holds the operand as prepared: data a kernel derives on its
first run (Spaden's decoded run view) is dropped by the format's
``__getstate__``, so the bytes never depend on whether the operand ran.
Decoding unpickles straight from the store's read-only view of the
file, so a load copies the payload's bytes only into the arrays it
rebuilds.
"""

from __future__ import annotations

import pickle

from repro.formats.csr import CSRMatrix
from repro.kernels.base import PreparedOperand

__all__ = ["OPERAND_CODEC", "decode_operand", "encode_operand"]

#: Store-header codec tag; bump when the pickled shape changes (v2:
#: ``PreparedOperand.host_bytes``).
OPERAND_CODEC = "operand-pickle/v2"


def encode_operand(operand: PreparedOperand) -> bytes | None:
    """Pickle an operand for spilling; ``None`` if it cannot be.

    An unpicklable operand (a kernel stuffed a live handle into
    ``data``) simply never persists — spilling is an optimization, so
    the failure is absorbed rather than raised.
    """
    try:
        return pickle.dumps(operand, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def decode_operand(
    payload: bytes | memoryview, *, kernel_name: str, csr: CSRMatrix
) -> PreparedOperand | None:
    """Rebuild an operand, or ``None`` if the payload is unusable.

    Checks that the unpickled object is a :class:`PreparedOperand`
    prepared by ``kernel_name`` for a matrix with ``csr``'s shape and
    nnz.  (Content identity beyond that is already guaranteed by the
    store key: the fingerprint is a content hash of the CSR arrays.)
    """
    try:
        operand = pickle.loads(payload)
    except Exception:
        return None
    if not isinstance(operand, PreparedOperand):
        return None
    if operand.kernel_name != kernel_name:
        return None
    if tuple(operand.shape) != tuple(csr.shape) or operand.nnz != csr.nnz:
        return None
    return operand
