"""Block-level matrix generator behind the Table-1 analogs.

Generation runs in four vectorized stages:

1. **Block placement** — per block row, draw a block count and column
   positions with the family's layout (banded FEM, lattice stencil,
   clustered+scattered chemistry, contiguous power-flow runs, Zipf-tailed
   power-law), then trim/add blocks to hit the target block count.
2. **Block occupancy** — assign each block a category from the matrix's
   (sparse, medium, dense) mixture, draw a nonzero count inside the
   category's range, and redistribute +-1 adjustments *within category
   bounds* until the total equals the target nnz exactly.
3. **Bit patterns** — FEM/stencil/power-flow blocks get contiguous
   (wrapped) runs of bits, chemistry/graph blocks get odd-stride scatters;
   both yield exactly k distinct bits.
4. **Values** — random half-precision-exact magnitudes so every kernel
   (fp16 tensor-core and fp32 CUDA-core paths alike) computes the same
   reference result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.constants import BLOCK_DIM, BLOCK_SIZE
from repro.errors import DatasetError
from repro.formats.bitbsr import BitBSRMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices.registry import MatrixSpec
from repro.utils.scan import exclusive_scan

__all__ = ["GeneratedMatrix", "generate_from_spec", "fp16_exact_values"]

_U64 = np.uint64
_FULL = _U64(0xFFFFFFFFFFFFFFFF)

#: Category bounds: sparse [1, 32], medium [33, 48], dense [49, 64].
_CATEGORY_BOUNDS = ((1, 32), (33, 48), (49, 64))
_CATEGORY_MEANS = (16.5, 40.5, 56.5)


@dataclass
class GeneratedMatrix:
    """One generated analog: the bitBSR ground truth plus conversions."""

    spec: MatrixSpec
    scale: float
    seed: int
    bitbsr: BitBSRMatrix

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def nrows(self) -> int:
        return self.bitbsr.nrows

    @property
    def nnz(self) -> int:
        return self.bitbsr.nnz

    @property
    def block_nnz(self) -> int:
        return self.bitbsr.nblocks

    @cached_property
    def csr(self) -> CSRMatrix:
        """CSR view shared by all baseline kernels."""
        return CSRMatrix.from_coo(self.bitbsr.tocoo())

    def dense_vector(self, seed: int | None = None) -> np.ndarray:
        """A matching fp16-exact input vector."""
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        return fp16_exact_values(rng, self.bitbsr.ncols)


def fp16_exact_values(rng: np.random.Generator, count: int) -> np.ndarray:
    """Nonzero float32 values exactly representable in float16.

    Magnitudes are ``(1 + m) / 16`` for m in [0, 32) with random sign —
    5 significant bits, so fp16 storage and fp32 arithmetic agree and
    correctness tests can compare kernels at tight tolerances.
    """
    mags = (1.0 + rng.integers(0, 32, count)) / 16.0
    signs = rng.choice((-1.0, 1.0), count)
    return (mags * signs).astype(np.float32)


# ---------------------------------------------------------------------------
# stage 1: block placement
# ---------------------------------------------------------------------------


def _block_counts(rng, kind: str, nbrows: int, target_blocks: int) -> np.ndarray:
    """Blocks per block row, kind-shaped, summing close to the target."""
    mean = target_blocks / nbrows
    if kind in ("fem", "stencil", "blockrows"):
        base = np.full(nbrows, int(mean), dtype=np.int64)
        frac = mean - int(mean)
        base += rng.random(nbrows) < frac
    elif kind == "chem":
        base = rng.poisson(mean, nbrows).astype(np.int64)
    elif kind == "powerlaw":
        # heavy-tailed out-degrees: Pareto with the requested mean
        raw = rng.pareto(2.0, nbrows) + 0.3
        base = np.maximum(1, np.round(raw * mean / np.mean(raw))).astype(np.int64)
    else:
        raise DatasetError(f"unknown matrix kind {kind!r}")
    return np.maximum(base, 1)


def _block_columns(rng, kind: str, rows: np.ndarray, nbcols: int, mean_per_row: float) -> np.ndarray:
    """Column of every placed block, matching the family's layout.

    ``mean_per_row`` scales the banded spreads so a row can actually host
    its expected number of *distinct* block columns.
    """
    n = rows.size
    if kind == "fem":
        spread = max(2.0, 0.8 * mean_per_row)
        offs = np.round(rng.laplace(0.0, spread, n)).astype(np.int64)
        cols = rows + offs
    elif kind == "stencil":
        # 4D-lattice-like neighbour offsets around the diagonal, with the
        # +-1 jitter that 8-row aggregation into block rows produces
        lattice = max(2, int(round(nbcols ** 0.25)))
        stencil = np.array(
            [0, 1, -1, lattice, -lattice, lattice**2, -(lattice**2), lattice**3, -(lattice**3)],
            dtype=np.int64,
        )
        jitter_width = max(1, int(round(mean_per_row / stencil.size)))
        jitter = rng.integers(-jitter_width, jitter_width + 1, n)
        cols = rows + stencil[rng.integers(0, stencil.size, n)] + jitter
    elif kind == "chem":
        near = rng.random(n) < 0.6
        spread = max(4.0, 1.5 * mean_per_row)
        cols = np.where(
            near,
            rows + np.round(rng.laplace(0.0, spread, n)).astype(np.int64),
            rng.integers(0, nbcols, n),
        )
    elif kind == "blockrows":
        # contiguous runs anchored at the diagonal (dense row panels)
        counts = np.bincount(rows, minlength=int(rows.max(initial=-1)) + 1)
        within = np.arange(n, dtype=np.int64) - exclusive_scan(counts)[rows]
        cols = rows - counts[rows] // 2 + within
    elif kind == "powerlaw":
        # Zipf-popular hub columns plus a local diagonal component
        hub = rng.random(n) < 0.7
        zipf = np.minimum(rng.zipf(1.6, n) - 1, nbcols - 1)
        cols = np.where(hub, zipf, rows + rng.integers(-8, 9, n))
    else:
        raise DatasetError(f"unknown matrix kind {kind!r}")
    return np.clip(cols, 0, nbcols - 1)


def _place_blocks(rng, kind: str, nbrows: int, nbcols: int, target_blocks: int) -> np.ndarray:
    """Unique (row * nbcols + col) keys for every block, sorted."""
    mean_per_row = target_blocks / nbrows
    counts = _block_counts(rng, kind, nbrows, target_blocks)
    rows = np.repeat(np.arange(nbrows, dtype=np.int64), counts)
    cols = _block_columns(rng, kind, rows, nbcols, mean_per_row)
    keys = np.unique(rows * nbcols + cols)
    # top up duplicates/shortfall with fresh placements in the same layout
    attempts = 0
    while keys.size < target_blocks and attempts < 64:
        need = target_blocks - keys.size
        r = rng.integers(0, nbrows, max(need * 2, 16)).astype(np.int64)
        c = _block_columns(rng, kind, r, nbcols, mean_per_row)
        keys = np.unique(np.concatenate([keys, r * nbcols + c]))
        attempts += 1
    if keys.size > target_blocks:
        drop = rng.choice(keys.size, keys.size - target_blocks, replace=False)
        keys = np.delete(keys, drop)
    return np.sort(keys)


# ---------------------------------------------------------------------------
# stage 2: block occupancy
# ---------------------------------------------------------------------------


def _category_means(mix: tuple[float, float, float], target_mean: float) -> tuple[float, float, float]:
    """Pick the sparse-category mean so the mixture hits the target."""
    fs, fm, fd = mix
    ms, mm, md = _CATEGORY_MEANS
    if fs > 0:
        ms = (target_mean - fm * mm - fd * md) / fs
        ms = float(np.clip(ms, 1.0, 32.0))
    elif fd > 0:
        md = (target_mean - fm * mm) / fd
        md = float(np.clip(md, 49.0, 64.0))
    return ms, mm, md


def _sample_counts(rng, category: np.ndarray, means: tuple[float, float, float]) -> np.ndarray:
    """Per-block nonzero counts inside each category's bounds."""
    k = np.empty(category.size, dtype=np.int64)
    for cat, ((lo, hi), mean) in enumerate(zip(_CATEGORY_BOUNDS, means)):
        idx = np.flatnonzero(category == cat)
        if idx.size == 0:
            continue
        if cat == 0:
            sample = np.round(rng.gamma(2.0, max(mean, 1.0) / 2.0, idx.size))
        else:
            half = (hi - lo) / 2.0
            sample = np.round(rng.normal(mean, half / 2.0, idx.size))
        k[idx] = np.clip(sample, lo, hi).astype(np.int64)
    return k


def _redistribute_to_target(rng, k: np.ndarray, category: np.ndarray, target_nnz: int) -> np.ndarray:
    """Adjust counts (within category bounds) until they sum to the target."""
    bounds_lo = np.array([b[0] for b in _CATEGORY_BOUNDS])[category]
    bounds_hi = np.array([b[1] for b in _CATEGORY_BOUNDS])[category]
    diff = target_nnz - int(k.sum())
    if diff > 0:
        headroom = bounds_hi - k
        diff = min(diff, int(headroom.sum()))
        order = rng.permutation(k.size)
        take = np.minimum(headroom[order], np.maximum(0, diff - np.concatenate(([0], np.cumsum(headroom[order])[:-1]))))
        k[order] += take
    elif diff < 0:
        footroom = k - bounds_lo
        need = min(-diff, int(footroom.sum()))
        order = rng.permutation(k.size)
        take = np.minimum(footroom[order], np.maximum(0, need - np.concatenate(([0], np.cumsum(footroom[order])[:-1]))))
        k[order] -= take
    return k


# ---------------------------------------------------------------------------
# stage 3: bit patterns
# ---------------------------------------------------------------------------


def _contiguous_bitmaps(rng, k: np.ndarray) -> np.ndarray:
    """k-bit wrapped contiguous runs at random start positions."""
    start = rng.integers(0, BLOCK_SIZE, k.size).astype(_U64)
    ku = k.astype(_U64)
    runs = np.where(k >= BLOCK_SIZE, _FULL, (_U64(1) << ku) - _U64(1))
    left = (runs << start) & _FULL
    # wrap-around part; guard the shift-by-64 case (start == 0)
    wrap_shift = (_U64(BLOCK_SIZE) - start) % _U64(BLOCK_SIZE)
    right = np.where(start == 0, _U64(0), runs >> wrap_shift)
    return np.where(k >= BLOCK_SIZE, _FULL, left | right)


def _strided_bitmaps(rng, k: np.ndarray) -> np.ndarray:
    """k distinct bits at positions ``(start + j * step) % 64``, step odd."""
    start = rng.integers(0, BLOCK_SIZE, k.size).astype(_U64)
    step = (rng.integers(0, BLOCK_SIZE // 2, k.size).astype(_U64) << _U64(1)) + _U64(1)
    bitmaps = np.zeros(k.size, dtype=_U64)
    kmax = int(k.max(initial=0))
    for j in range(kmax):
        active = k > j
        pos = (start + _U64(j) * step) % _U64(BLOCK_SIZE)
        bitmaps[active] |= _U64(1) << pos[active]
    return bitmaps


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def generate_from_spec(
    spec: MatrixSpec, scale: float = 1.0, seed: int | None = None
) -> GeneratedMatrix:
    """Generate the analog of ``spec`` at the given scale.

    ``scale`` shrinks nrow / nnz / Bnnz proportionally (structure-derived
    results like block-density mixes are scale-invariant); ``seed``
    defaults to a digest of the matrix name, so every process (whatever
    its ``PYTHONHASHSEED``) generates the same instance.
    """
    if not 0.0 < scale <= 1.0:
        raise DatasetError("scale must be in (0, 1]")
    if seed is None:
        digest = hashlib.blake2b(spec.name.encode("utf-8"), digest_size=4).digest()
        seed = int.from_bytes(digest, "little") % (2**31)
    rng = np.random.default_rng(seed)

    nrow = max(BLOCK_DIM * 2, int(round(spec.nrow * scale)))
    nbrows = -(-nrow // BLOCK_DIM)
    # blocks are generated at full 8x8 occupancy, so round the matrix up to
    # whole blocks (the paper's Bnrow = ceil(nrow / 8) is unchanged)
    nrow = nbrows * BLOCK_DIM
    target_blocks = max(nbrows, int(round(spec.block_nnz * scale)))
    target_nnz = max(target_blocks, int(round(spec.nnz * scale)))
    # a block holds at most 64 nonzeros
    target_nnz = min(target_nnz, target_blocks * BLOCK_SIZE)

    keys = _place_blocks(rng, spec.kind, nbrows, nbrows, target_blocks)
    brows = keys // nbrows
    bcols = (keys % nbrows).astype(np.int32)

    category = rng.choice(3, size=keys.size, p=np.asarray(spec.mix) / sum(spec.mix))
    means = _category_means(spec.mix, target_nnz / keys.size)
    k = _sample_counts(rng, category, means)
    k = _redistribute_to_target(rng, k, category, target_nnz)

    if spec.kind in ("fem", "stencil", "blockrows"):
        bitmaps = _contiguous_bitmaps(rng, k)
    else:
        bitmaps = _strided_bitmaps(rng, k)

    values = fp16_exact_values(rng, int(k.sum())).astype(np.float16)
    counts = np.bincount(brows, minlength=nbrows)
    ptr = exclusive_scan(counts)
    bitbsr = BitBSRMatrix((nrow, nrow), ptr, bcols, bitmaps, values)
    return GeneratedMatrix(spec=spec, scale=scale, seed=seed, bitbsr=bitbsr)
