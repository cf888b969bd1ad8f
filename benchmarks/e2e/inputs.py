"""Seeded inputs, their digests, the scipy reference and per-matrix context.

Everything a workload feeds the program is generated here from the
workload seed, so the program under test only ever receives arrays.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.apps.pagerank import transition_matrix
from repro.exec import ExecutionMode, execute
from repro.formats.csr import CSRMatrix
from repro.kernels.base import get_kernel
from repro.matrices import generate_matrix, in_scope_names
from repro.matrices.generators import fp16_exact_values
from repro.matrices.rmat import rmat_graph


class InputDriftError(RuntimeError):
    """The canary inputs no longer match the digest recorded in spec.json."""


@dataclass
class Inputs:
    """One workload's generated matrices and input-vector pools."""

    names: list[str]
    matrices: list[CSRMatrix]
    #: Per matrix, a ``(V, ncols)`` float32 pool of input vectors.
    vectors: list[np.ndarray]
    #: Solver only: pages without out-links.
    dangling: np.ndarray | None = None

    def arrays(self) -> list[np.ndarray]:
        out = [a for csr in self.matrices for a in _csr_arrays(csr)] + list(self.vectors)
        return out if self.dangling is None else out + [self.dangling]

    @property
    def digest(self) -> str:
        return digest_arrays(self.arrays())

    @property
    def nnz(self) -> int:
        return sum(csr.nnz for csr in self.matrices)


def derive_seed(*parts: int) -> int:
    """An independent 32-bit seed for one input, from the workload seed.

    The second part names the stream: 1 Table-1 analogs, 3 the R-MAT
    graph, 4 the batch analogs, 5 the serve request choices.
    """
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _csr_arrays(csr: CSRMatrix) -> list[np.ndarray]:
    return [np.asarray(csr.shape), csr.row_pointers, csr.col_indices, csr.values]


def digest_arrays(arrays) -> str:
    """Digest of the inputs, kept apart from the program's own fingerprint
    so that a change to the program cannot move it."""
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _vector_pool(seed: int, count: int, ncols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([fp16_exact_values(rng, ncols) for _ in range(count)])


def table1_inputs(seed: int, scale: float, copies: int, vectors: int) -> Inputs:
    """``copies`` seeded analogs of each in-scope Table-1 matrix."""
    names, matrices, pools = [], [], []
    for copy in range(copies):
        for i, spec in enumerate(in_scope_names()):
            csr = generate_matrix(spec, scale, seed=derive_seed(seed, 1, copies, copy, i)).csr
            names.append(spec if copies == 1 else f"{spec}#{copy}")
            matrices.append(csr)
            pools.append(_vector_pool(derive_seed(seed, 1, copies, copy, i, 1), vectors, csr.ncols))
    return Inputs(names, matrices, pools)


def solver_inputs(seed: int, rmat_scale: int, edge_factor: int) -> Inputs:
    """The PageRank transition matrix of a seeded R-MAT graph."""
    graph = rmat_graph(rmat_scale, edge_factor=edge_factor, seed=derive_seed(seed, 3))
    dangling = np.bincount(graph.rows, minlength=graph.nrows) == 0
    P = transition_matrix(graph)
    return Inputs([f"rmat{rmat_scale}"], [P], [np.zeros((0, P.ncols), np.float32)], dangling)


def batch_inputs(seed: int, matrices: list, vectors: int) -> Inputs:
    names, csrs, pools = [], [], []
    for i, (spec, scale) in enumerate(matrices):
        csr = generate_matrix(spec, scale, seed=derive_seed(seed, 4, i)).csr
        names.append(f"{spec}@{scale:g}")
        csrs.append(csr)
        pools.append(_vector_pool(derive_seed(seed, 4, i, 1), vectors, csr.ncols))
    return Inputs(names, csrs, pools)


def build_inputs(params: dict, seed: int) -> Inputs:
    kind = params["kind"]
    if kind == "serve":
        return table1_inputs(
            seed, params["table1_scale"], params["copies"], params["vectors_per_matrix"]
        )
    if kind == "solver":
        return solver_inputs(seed, params["rmat_scale"], params["edge_factor"])
    return batch_inputs(seed, params["matrices"], params["vectors_per_call"])


def canary_digest(canary: dict) -> str:
    """Digest of the fixed-seed inputs that cover every generator used."""
    seed = canary["seed"]
    table1 = table1_inputs(seed, canary["table1_scale"], 1, 2)
    graph = rmat_graph(canary["rmat_scale"], seed=seed)
    return digest_arrays(table1.arrays() + [graph.rows, graph.cols, graph.values])


def check_canary(canary: dict) -> None:
    found = canary_digest(canary)
    if found != canary["digest"]:
        raise InputDriftError(
            f"generated canary inputs have digest {found}, spec.json records "
            f"{canary['digest']}: repro.matrices changed what it generates"
        )


# -- reference and context ----------------------------------------------------


def scipy_csr(csr: CSRMatrix, dtype=np.float64) -> sp.csr_matrix:
    return sp.csr_matrix(
        (csr.values.astype(dtype), csr.col_indices, csr.row_pointers), shape=csr.shape
    )


class Reference:
    """scipy float64 results and per-row tolerances for every pooled vector."""

    def __init__(self, inputs: Inputs, row_tolerance: float):
        self.y = []
        self.bound = []
        for csr, pool in zip(inputs.matrices, inputs.vectors):
            A = scipy_csr(csr)
            X = pool.astype(np.float64).T
            self.y.append((A @ X).T)
            self.bound.append(row_tolerance * (abs(A) @ np.abs(X)).T)

    def ok(self, matrix: int, vector: int, y) -> bool:
        if not isinstance(y, np.ndarray) or y.shape != self.y[matrix][vector].shape:
            return False
        err = np.abs(y.astype(np.float64) - self.y[matrix][vector])
        return bool(np.all(err <= self.bound[matrix][vector]))


def pagerank_reference(P: CSRMatrix, dangling: np.ndarray, damping: float) -> np.ndarray:
    """Float64 power iteration run far past the benchmark's tolerance."""
    A = scipy_csr(P)
    n = P.nrows
    ranks = np.full(n, 1.0 / n)
    for _ in range(1000):
        new = damping * (A @ ranks + ranks[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(new - ranks).sum() < 1e-13:
            return new
        ranks = new
    return ranks


def _scipy_seconds_per_vector(A: sp.csr_matrix, x: np.ndarray) -> float:
    """Median of five timed groups of float32 scipy matvecs."""
    start = time.perf_counter()
    A @ x
    reps = max(1, int(2e-3 / max(time.perf_counter() - start, 1e-7)))
    groups = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            A @ x
        groups.append((time.perf_counter() - start) / reps)
    return float(np.median(groups))


def device_context(inputs: Inputs) -> list[dict]:
    """Per matrix: the scipy host floor and the PROFILED device counts."""
    kernel = get_kernel("spaden")
    rows = []
    for name, csr, pool in zip(inputs.names, inputs.matrices, inputs.vectors):
        x = pool[0] if len(pool) else np.full(csr.ncols, 1.0 / csr.ncols, np.float32)
        profile = execute(kernel, kernel.prepare(csr), x, mode=ExecutionMode.PROFILED).profile
        rows.append(
            {
                "matrix": name,
                "shape": list(csr.shape),
                "nnz": csr.nnz,
                "scipy_us_per_vector": 1e6 * _scipy_seconds_per_vector(
                    scipy_csr(csr, np.float32), x
                ),
                "mma_ops": int(profile.stats.mma_ops),
                "dram_bytes": int(profile.dram_bytes),
            }
        )
    return rows
