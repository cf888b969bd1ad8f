"""Seeded, composable fault injection for the Spaden reproduction.

Spaden's correctness hangs on fragile invariants — ``popcount(bitmap) ==
nnz`` per block, exclusive-scanned offsets, in-range indices, the §3
register/element mapping.  This module corrupts healthy instances in the
precise ways those invariants can break in the wild (bit rot, truncated
transfers, conversion bugs), so the deep verifiers in
:mod:`repro.formats` and the graceful-degradation chain walker,
:func:`repro.exec.execute_chain`, can be *proven* to catch what they
claim.

Every fault model is registered by name, states which formats it can
corrupt, and names the exception types its corruption must be detected
with.  Injection is seeded and mutates a deep copy, so tests are
reproducible and the pristine matrix survives::

    corrupted, report = corrupt(bitbsr, "bitmap-bit-flip", seed=7)
    corrupted.verify(deep=True)   # raises BitmapPopcountError at report.coord

The one non-format fault, ``lane-mapping-perturb``, attacks the GPU
simulator's fragment layout tables instead; use it as a context manager
via :func:`inject_lane_fault`.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.errors import (
    BitmapPopcountError,
    EmptyBlockError,
    IndexRangeError,
    NonFiniteValueError,
    OffsetScanError,
    PointerMonotonicityError,
    ReproError,
    VerificationError,
)
from repro.formats.base import SparseMatrix

__all__ = [
    "FaultReport",
    "FaultModel",
    "register_fault",
    "get_fault",
    "available_faults",
    "faults_for_format",
    "corrupt",
    "inject_lane_fault",
    "LANE_FAULT",
]

_U64 = np.uint64


@dataclass(frozen=True)
class FaultReport:
    """What a fault injection actually changed."""

    #: Registry name of the applied fault model.
    fault: str
    #: Format (or subsystem) that was corrupted.
    target: str
    #: Coordinate of the corruption (block/row/lane indices; model-specific).
    coord: tuple
    #: Human-readable description of the mutation.
    detail: str


@dataclass(frozen=True)
class FaultModel:
    """One named way of breaking a matrix (or the simulator)."""

    name: str
    description: str
    #: ``format_name`` values this model can corrupt (empty = GPU-scope).
    formats: tuple[str, ...]
    #: Exception types a verifier/dispatcher must raise on the corruption.
    detected_by: tuple[type[BaseException], ...]
    _inject: Callable[[SparseMatrix, np.random.Generator], FaultReport] = field(repr=False)

    def inject(self, matrix: SparseMatrix, rng: np.random.Generator) -> FaultReport:
        """Mutate ``matrix`` in place; returns what was changed."""
        if self.formats and matrix.format_name not in self.formats:
            raise ValueError(
                f"fault {self.name!r} does not apply to format {matrix.format_name!r} "
                f"(applies to {self.formats})"
            )
        return self._inject(matrix, rng)


# concurrency: not-shared -- populated by @register_fault at import time
# (single-threaded module execution); read-only once imports settle
_REGISTRY: dict[str, FaultModel] = {}


def register_fault(
    name: str,
    description: str,
    formats: tuple[str, ...],
    detected_by: tuple[type[BaseException], ...],
):
    """Decorator registering an injection function as a named fault model."""

    def wrap(fn: Callable[[SparseMatrix, np.random.Generator], FaultReport]) -> FaultModel:
        if name in _REGISTRY:
            raise ValueError(f"fault {name!r} already registered")
        model = FaultModel(name, description, formats, detected_by, fn)
        _REGISTRY[name] = model
        return model

    return wrap


def get_fault(name: str) -> FaultModel:
    """Look up a fault model by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown fault {name!r}; known: {sorted(_REGISTRY)}") from None


def available_faults() -> list[str]:
    """Names of all registered fault models, sorted."""
    return sorted(_REGISTRY)


def faults_for_format(format_name: str) -> list[str]:
    """Names of the fault models applicable to one format."""
    return sorted(n for n, m in _REGISTRY.items() if format_name in m.formats)


def corrupt(
    matrix: SparseMatrix, fault: str, seed: int = 0
) -> tuple[SparseMatrix, FaultReport]:
    """Return a corrupted deep copy of ``matrix`` plus the change report."""
    model = get_fault(fault)
    victim = copy.deepcopy(matrix)
    report = model.inject(victim, np.random.default_rng(seed))
    return victim, report


# -- helpers -----------------------------------------------------------------


def _require_blocks(matrix: SparseMatrix, fault: str) -> None:
    if getattr(matrix, "nblocks", 0) == 0:
        raise ValueError(f"fault {fault!r} needs at least one stored block")


def _require_nnz(matrix: SparseMatrix, fault: str) -> None:
    if matrix.nnz == 0:
        raise ValueError(f"fault {fault!r} needs at least one stored value")


def _block_coord(matrix: SparseMatrix, block: int) -> tuple[int, int]:
    """(block_row, block_col) of stored block ``block`` for either bitmap format."""
    if hasattr(matrix, "block_rows"):  # bitCOO: explicit coordinates
        return int(matrix.block_rows[block]), int(matrix.block_cols[block])
    ptr = matrix.block_row_pointers
    brow = int(np.searchsorted(ptr, block, side="right") - 1)
    return brow, int(matrix.block_cols[block])


_BITMAP_FORMATS = ("bitbsr", "bitcoo")
_POINTER_FORMATS = ("csr", "bitbsr")
_VALUE_FORMATS = ("csr", "coo", "bitbsr", "bitcoo")


# -- format-scope fault models -----------------------------------------------


@register_fault(
    "bitmap-bit-flip",
    "flip one random bit of one block bitmap (single-event upset)",
    _BITMAP_FORMATS,
    (BitmapPopcountError, OffsetScanError, EmptyBlockError),
)
def _bitmap_bit_flip(matrix, rng):
    _require_blocks(matrix, "bitmap-bit-flip")
    block = int(rng.integers(matrix.nblocks))
    bit = int(rng.integers(64))
    matrix.bitmaps[block] ^= _U64(1) << _U64(bit)
    return FaultReport(
        "bitmap-bit-flip", matrix.format_name,
        _block_coord(matrix, block) + (bit,),
        f"flipped bit {bit} of bitmap {block}",
    )


@register_fault(
    "bitmap-clear",
    "zero one block bitmap entirely (lost metadata word)",
    _BITMAP_FORMATS,
    (EmptyBlockError, BitmapPopcountError),
)
def _bitmap_clear(matrix, rng):
    _require_blocks(matrix, "bitmap-clear")
    block = int(rng.integers(matrix.nblocks))
    matrix.bitmaps[block] = _U64(0)
    return FaultReport(
        "bitmap-clear", matrix.format_name, _block_coord(matrix, block),
        f"cleared bitmap of block {block}",
    )


@register_fault(
    "value-nan",
    "poison one stored value with NaN",
    _VALUE_FORMATS,
    (NonFiniteValueError,),
)
def _value_nan(matrix, rng):
    _require_nnz(matrix, "value-nan")
    pos = int(rng.integers(matrix.values.size))
    matrix.values[pos] = np.nan
    return FaultReport(
        "value-nan", matrix.format_name, (pos,), f"values[{pos}] = NaN"
    )


@register_fault(
    "value-inf",
    "poison one stored value with +Inf",
    _VALUE_FORMATS,
    (NonFiniteValueError,),
)
def _value_inf(matrix, rng):
    _require_nnz(matrix, "value-inf")
    pos = int(rng.integers(matrix.values.size))
    matrix.values[pos] = np.inf
    return FaultReport(
        "value-inf", matrix.format_name, (pos,), f"values[{pos}] = +Inf"
    )


@register_fault(
    "value-overflow",
    "write a magnitude beyond fp16 range into the packed half-precision "
    "values (saturates to Inf in storage)",
    ("bitbsr", "bitcoo"),
    (NonFiniteValueError,),
)
def _value_overflow(matrix, rng):
    _require_nnz(matrix, "value-overflow")
    if matrix.values.dtype != np.float16:
        raise ValueError("value-overflow targets half-precision storage")
    pos = int(rng.integers(matrix.values.size))
    # 1e6 is far beyond fp16's 65504 max: the assignment itself saturates
    with np.errstate(over="ignore"):
        matrix.values[pos] = 1e6
    return FaultReport(
        "value-overflow", matrix.format_name, (pos,),
        f"values[{pos}] = 1e6 -> {float(matrix.values[pos])!r} after fp16 rounding",
    )


def _pointer_array_name(matrix) -> str:
    return "row_pointers" if matrix.format_name == "csr" else "block_row_pointers"


@register_fault(
    "offset-truncate",
    "chop the tail off the row-pointer array (truncated transfer)",
    _POINTER_FORMATS,
    (OffsetScanError,),
)
def _offset_truncate(matrix, rng):
    name = _pointer_array_name(matrix)
    ptr = getattr(matrix, name)
    if ptr.size < 2:
        raise ValueError("offset-truncate needs a non-trivial pointer array")
    drop = int(rng.integers(1, min(4, ptr.size - 1) + 1))
    setattr(matrix, name, ptr[:-drop].copy())
    return FaultReport(
        "offset-truncate", matrix.format_name, (ptr.size - drop,),
        f"dropped the last {drop} entries of {name}",
    )


@register_fault(
    "pointer-shuffle",
    "make one interior row pointer run backwards (scrambled scan)",
    _POINTER_FORMATS,
    (PointerMonotonicityError,),
)
def _pointer_shuffle(matrix, rng):
    name = _pointer_array_name(matrix)
    ptr = getattr(matrix, name)
    if ptr.size < 3:
        raise ValueError("pointer-shuffle needs at least one interior pointer")
    row = int(rng.integers(1, ptr.size - 1))
    ptr[row] = ptr[row + 1] + 1  # strictly above its successor
    return FaultReport(
        "pointer-shuffle", matrix.format_name, (row,),
        f"{name}[{row}] raised above its successor",
    )


@register_fault(
    "col-out-of-range",
    "point one stored column index past the matrix edge",
    ("csr", "coo", "bitbsr", "bitcoo"),
    (IndexRangeError,),
)
def _col_out_of_range(matrix, rng):
    if matrix.format_name in ("csr", "coo"):
        _require_nnz(matrix, "col-out-of-range")
        cols = matrix.col_indices if matrix.format_name == "csr" else matrix.cols
        pos = int(rng.integers(cols.size))
        cols[pos] = matrix.ncols + 7
        return FaultReport(
            "col-out-of-range", matrix.format_name, (pos,),
            f"column index {pos} set to {matrix.ncols + 7}",
        )
    _require_blocks(matrix, "col-out-of-range")
    pos = int(rng.integers(matrix.block_cols.size))
    matrix.block_cols[pos] = matrix.block_cols_count + 3
    return FaultReport(
        "col-out-of-range", matrix.format_name, (pos,),
        f"block column {pos} set to {matrix.block_cols_count + 3}",
    )


@register_fault(
    "offset-scan-corrupt",
    "bump one block offset so it is no longer the exclusive popcount scan",
    _BITMAP_FORMATS,
    (OffsetScanError,),
)
def _offset_scan_corrupt(matrix, rng):
    _require_blocks(matrix, "offset-scan-corrupt")
    block = int(rng.integers(1, matrix.block_offsets.size))
    matrix.block_offsets[block] += 1
    return FaultReport(
        "offset-scan-corrupt", matrix.format_name, (block,),
        f"block_offsets[{block}] incremented",
    )


# -- GPU-scope fault: perturb the §3 lane/register mapping ---------------------

from repro.errors import LayoutError  # noqa: E402  (grouped with its fault)
from repro.gpu import fragment as _fragment  # noqa: E402


def _lane_inject(_matrix, _rng):  # pragma: no cover - never called directly
    raise ReproError("lane-mapping-perturb is GPU-scope; use inject_lane_fault()")


LANE_FAULT = register_fault(
    "lane-mapping-perturb",
    "swap two slots of the accumulator fragment's register->element table "
    "(use via inject_lane_fault())",
    (),
    (LayoutError,),
)(_lane_inject)


@contextmanager
def inject_lane_fault(seed: int = 0) -> Iterator[FaultReport]:
    """Perturb the simulated fragment layout tables for the duration.

    Swaps the element coordinates of two (lane, register) slots in the
    accumulator map — the software analog of a mis-wired register file.
    :func:`repro.gpu.fragment.verify_lane_mapping` detects the
    perturbation; the original tables are always restored on exit.
    """
    from repro.constants import REGISTERS_PER_LANE, WARP_SIZE
    from repro.gpu.fragment import FragmentKind

    rng = np.random.default_rng(seed)
    kind = FragmentKind.ACCUMULATOR
    rows, cols = _fragment._MAPS[kind]
    a = (int(rng.integers(WARP_SIZE)), int(rng.integers(REGISTERS_PER_LANE)))
    b = a
    while b == a:
        b = (int(rng.integers(WARP_SIZE)), int(rng.integers(REGISTERS_PER_LANE)))
    patched_rows, patched_cols = rows.copy(), cols.copy()
    for grid in (patched_rows, patched_cols):
        grid[a], grid[b] = grid[b], grid[a]
    _fragment._MAPS[kind] = (patched_rows, patched_cols)
    try:
        yield FaultReport(
            "lane-mapping-perturb", "gpu.fragment", a + b,
            f"swapped {kind.value} slots lane{a[0]}.x[{a[1]}] <-> lane{b[0]}.x[{b[1]}]",
        )
    finally:
        _fragment._MAPS[kind] = (rows, cols)
