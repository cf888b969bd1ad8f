"""Common interface and registry for sparse-matrix formats."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import (
    ConversionError,
    FormatError,
    IndexRangeError,
    NonFiniteValueError,
    PointerMonotonicityError,
    OffsetScanError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.formats.coo import COOMatrix

__all__ = ["ArrayField", "SparseMatrix", "register_format", "get_format", "available_formats"]

_REGISTRY: dict[str, type["SparseMatrix"]] = {}


def register_format(cls: type["SparseMatrix"]) -> type["SparseMatrix"]:
    """Class decorator: register a format under its ``format_name``."""
    name = cls.format_name
    if not name:
        raise ValueError(f"{cls.__name__} must define format_name")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(f"format {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def get_format(name: str) -> type["SparseMatrix"]:
    """Look up a registered format class by name (e.g. ``"bitbsr"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConversionError(
            f"unknown format {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def available_formats() -> list[str]:
    """Names of all registered formats, sorted."""
    return sorted(_REGISTRY)


def _dtype_matches(requested, stored: np.dtype) -> bool:
    """Whether ``requested`` names ``stored``; junk inputs are a mismatch.

    ``config_matches`` must never raise — an invalid ``value_dtype``
    reports ``False`` so the rebuild path surfaces the real error.
    """
    try:
        return np.dtype(requested) == stored
    except TypeError:
        return False


@dataclass(frozen=True)
class ArrayField:
    """One storage array of a format, for byte-exact memory accounting."""

    name: str
    nbytes: int
    dtype: str
    length: int


class SparseMatrix(ABC):
    """Abstract base class for all storage formats.

    Subclasses store a 2-D sparse matrix and provide:

    * ``from_coo`` / ``tocoo`` so any pair of formats can interconvert
      (through :func:`repro.formats.convert.convert`),
    * ``todense`` for reference comparisons,
    * ``matvec`` — a NumPy reference SpMV with the format's natural
      traversal order (the GPU kernels in :mod:`repro.kernels` model the
      parallel execution; this is the semantic ground truth),
    * ``storage_fields`` — the exact arrays kept in device memory, used by
      :mod:`repro.formats.memory` to reproduce Fig. 10b.
    """

    #: Registry key; subclasses must override.
    format_name: str = ""

    def __init__(self, shape: tuple[int, int]):
        nrows, ncols = shape
        if nrows < 0 or ncols < 0:
            raise FormatError(f"invalid shape {shape}")
        self._shape = (int(nrows), int(ncols))

    # -- shape / size -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the logical matrix."""
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    @abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored nonzero entries."""

    @property
    def density(self) -> float:
        """nnz divided by the full matrix size (0 for empty shapes)."""
        total = self.nrows * self.ncols
        return self.nnz / total if total else 0.0

    # -- conversion -------------------------------------------------------
    @classmethod
    @abstractmethod
    def from_coo(cls, coo: "COOMatrix") -> "SparseMatrix":
        """Build this format from a canonical (sorted, deduplicated) COO."""

    @abstractmethod
    def tocoo(self) -> "COOMatrix":
        """Convert back to canonical COO."""

    def todense(self) -> np.ndarray:
        """Materialize as a dense float32 array (small matrices only)."""
        return self.tocoo().todense()

    def config_matches(self, **kwargs) -> bool:
        """Whether construction ``kwargs`` describe this instance's config.

        :func:`repro.formats.convert.convert` uses this to return the
        same object instead of rebuilding when the target format *and*
        its parameters already match (e.g. ``value_dtype=np.float16`` on
        an already-float16 bitBSR).  The base implementation only
        matches the no-kwargs call; parameterized formats override it to
        compare the kwargs they accept against their stored
        configuration.  Unknown kwargs must report ``False`` (rebuild),
        never raise — ``from_coo`` is the authority on their validity.
        """
        return not kwargs

    # -- computation ------------------------------------------------------
    @abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV ``y = A @ x`` in float32."""

    def _check_matvec_operand(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != self.ncols:
            raise FormatError(
                f"operand has shape {x.shape}, expected ({self.ncols},)"
            )
        return np.ascontiguousarray(x, dtype=np.float32)

    # -- verification -----------------------------------------------------
    def verify(self, deep: bool = False) -> "SparseMatrix":
        """Re-check the format's structural invariants; returns ``self``.

        Constructors validate their inputs once, but the storage arrays
        are mutable — a flipped bitmap bit, a truncated pointer array or
        a NaN written into ``values`` afterwards silently breaks every
        kernel built on the instance.  ``verify()`` re-runs the cheap
        O(1) frame checks; ``verify(deep=True)`` additionally scans every
        array: pointer monotonicity, index ranges, bitmap-popcount/nnz
        agreement, offset-scan consistency and NaN/Inf detection.

        Violations raise :class:`~repro.errors.VerificationError`
        subclasses carrying the format name, the violated check and the
        block/row coordinate of the first failure.
        """
        self._verify_shallow()
        if deep:
            self._verify_deep()
        return self

    def _verify_shallow(self) -> None:
        """O(1) frame checks (array sizes, endpoints). Overridable."""
        if self.nnz < 0:  # pragma: no cover - defensive
            raise OffsetScanError(
                f"{self.format_name}: negative nnz {self.nnz}",
                format_name=self.format_name, check="nnz",
            )

    def _verify_deep(self) -> None:
        """Full array scans; every concrete format overrides this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement deep verification"
        )

    # -- verification helpers (shared by the per-format deep verifiers) ---
    def _check_finite(self, values: np.ndarray, what: str, coords=None) -> None:
        """Raise :class:`NonFiniteValueError` at the first NaN/Inf.

        ``coords`` maps the flat position of the bad entry to a logical
        coordinate — either a callable ``pos -> tuple`` or ``None`` (the
        flat position itself is reported).
        """
        v = np.asarray(values)
        finite = np.isfinite(v.astype(np.float64, copy=False)) if v.size else None
        if v.size and not finite.all():
            pos = tuple(int(p) for p in np.argwhere(~finite)[0])
            flat = pos[0] if len(pos) == 1 else pos
            coord = coords(flat) if callable(coords) else flat
            if not isinstance(coord, tuple):
                coord = (coord,)
            bad = v[pos if len(pos) > 1 else pos[0]]
            raise NonFiniteValueError(
                f"{self.format_name}: non-finite value {bad!r} in {what} at {coord}",
                format_name=self.format_name, check="finite-values", coord=coord,
            )

    def _check_monotone(self, ptr: np.ndarray, what: str) -> None:
        """Raise :class:`PointerMonotonicityError` at the first decrease."""
        p = np.asarray(ptr)
        if p.size and np.any(np.diff(p) < 0):
            row = int(np.argmax(np.diff(p) < 0))
            raise PointerMonotonicityError(
                f"{self.format_name}: {what} decreases at segment {row} "
                f"({int(p[row])} -> {int(p[row + 1])})",
                format_name=self.format_name, check="pointer-monotonicity", coord=(row,),
            )

    def _check_pointer_frame(self, ptr: np.ndarray, segments: int, items: int, what: str) -> None:
        """Size/endpoint checks for a CSR-style pointer array."""
        p = np.asarray(ptr)
        if p.size != segments + 1:
            raise OffsetScanError(
                f"{self.format_name}: {what} has {p.size} entries, expected {segments + 1}",
                format_name=self.format_name, check="pointer-frame", coord=None,
            )
        if p.size and (p[0] != 0 or p[-1] != items):
            raise OffsetScanError(
                f"{self.format_name}: {what} endpoints ({int(p[0])}, {int(p[-1])}) "
                f"inconsistent with {items} stored items",
                format_name=self.format_name, check="pointer-frame", coord=None,
            )

    def _check_index_range(self, idx: np.ndarray, upper: int, what: str, coords=None) -> None:
        """Raise :class:`IndexRangeError` at the first index outside [0, upper)."""
        i = np.asarray(idx)
        if i.size == 0:
            return
        bad = (i < 0) | (i >= upper)
        if bad.any():
            pos = int(np.argwhere(bad.reshape(-1))[0][0])
            coord = coords(pos) if callable(coords) else (pos,)
            if not isinstance(coord, tuple):
                coord = (coord,)
            raise IndexRangeError(
                f"{self.format_name}: {what} {int(i.reshape(-1)[pos])} out of range "
                f"[0, {upper}) at {coord}",
                format_name=self.format_name, check="index-range", coord=coord,
            )

    # -- memory accounting ------------------------------------------------
    @abstractmethod
    def storage_fields(self) -> Iterator[ArrayField]:
        """Yield every array the format keeps resident in device memory."""

    @property
    def nbytes(self) -> int:
        """Total device-resident bytes of this representation."""
        return sum(f.nbytes for f in self.storage_fields())

    def bytes_per_nnz(self) -> float:
        """Memory cost normalized by nonzeros (the Fig. 10b metric)."""
        return self.nbytes / self.nnz if self.nnz else float("inf")

    # -- misc ---------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.nrows}x{self.ncols}, "
            f"nnz={self.nnz}, {self.nbytes} bytes>"
        )

    @staticmethod
    def _field(name: str, array: np.ndarray) -> ArrayField:
        return ArrayField(name=name, nbytes=int(array.nbytes), dtype=str(array.dtype), length=int(array.size))
