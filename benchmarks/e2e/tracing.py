"""Spans recorded from the benchmark side, around each layer's public calls.

:meth:`Tracer.install` replaces the layer entry points with timing
wrappers for the duration of a traced run and :meth:`Tracer.uninstall`
puts the originals back.  Nothing inside ``src/`` is edited: each
wrapper records one span (name, start, end, parent from a thread-local
stack, and the request ids of the vectors it carries) and calls through.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

#: Layer of every span name the tracer (or the benchmark) opens.
LAYERS = {
    "bench.setup": "bench",
    "serve.submit": "serve",
    "engine.spmv_many": "engine",
    "engine.spmv": "engine",
    "engine.operator": "engine",
    "engine.bind": "engine",
    "engine.warm": "engine",
    "engine.fingerprint": "engine",
    "exec.chain": "exec",
    "persist.get": "persist",
    "persist.put": "persist",
    "formats.prepare": "formats",
    "formats.decode": "formats",
    "kernels.run": "kernels",
    "kernels.run_many": "kernels",
    "apps.pagerank": "apps",
}

#: Spans that are one call into the engine by its caller.
ENGINE_CALLS = frozenset({"engine.spmv_many", "engine.spmv", "engine.operator"})
KERNEL_RUNS = frozenset({"kernels.run", "kernels.run_many"})


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    #: Vectors carried (engine calls and kernel runs).
    k: int = 0
    #: ``(shape, nnz)`` of the operand a kernel ran on or converted.
    key: tuple | None = None
    #: Request ids of the serve requests this call carries.
    requests: list | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _vectors(x) -> int:
    return int(x.shape[0]) if np.ndim(x) == 2 else 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._tags: dict[int, tuple[object, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------
    def tag(self, x, request_id: int) -> None:
        """Mark a request's own ``x`` view so engine calls can be matched to it."""
        self._tags[id(x)] = (x, request_id)

    def request_of(self, x) -> int | None:
        entry = self._tags.get(id(x))
        return entry[1] if entry is not None and entry[0] is x else None

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        s = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            name,
            threading.get_ident(),
            time.perf_counter(),
            **attrs,
        )
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, describe=None, wrap_result=None):
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe is not None else {}
            with tracer.span(name, **attrs):
                result = original(*args, **kwargs)
            return wrap_result(result) if wrap_result is not None else result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _traced_operator(self, operator):
        @functools.wraps(operator)
        def call(x):
            with self.span("engine.operator", k=1):
                return operator(x)

        return call

    def install(self) -> None:
        import repro.engine.engine as engine_module
        from repro.engine import SpMVEngine
        from repro.formats.bitbsr import BitBSRMatrix
        from repro.kernels.base import registered_kernels
        from repro.persist import OperandStore
        from repro.serve import ServeFrontend

        def requests_of(requests):
            return [self.request_of(x) for _, x in requests]

        self._patch(
            ServeFrontend,
            "submit",
            "serve.submit",
            describe=lambda _fe, _matrix, x, **_kw: {"requests": [self.request_of(x)]},
        )
        self._patch(
            SpMVEngine,
            "spmv_many",
            "engine.spmv_many",
            describe=lambda _eng, requests, **_kw: {
                "k": len(requests),
                "requests": requests_of(requests),
            },
        )
        self._patch(SpMVEngine, "spmv", "engine.spmv", describe=lambda *_a, **_kw: {"k": 1})
        self._patch(SpMVEngine, "warm", "engine.warm")
        self._patch(SpMVEngine, "operator", "engine.bind", wrap_result=self._traced_operator)
        self._patch(engine_module, "matrix_fingerprint", "engine.fingerprint")
        self._patch(engine_module, "execute_chain", "exec.chain")
        for cls in registered_kernels().values():
            if "prepare" in vars(cls):
                self._patch(
                    cls,
                    "prepare",
                    "formats.prepare",
                    describe=lambda _k, csr: {"key": (tuple(csr.shape), csr.nnz)},
                )
            for attr in ("run", "run_many"):
                if attr in vars(cls):
                    self._patch(
                        cls,
                        attr,
                        f"kernels.{attr}",
                        describe=lambda _k, prepared, x: {
                            "k": _vectors(x),
                            "key": (tuple(prepared.shape), prepared.nnz),
                        },
                    )
        self._patch(OperandStore, "get", "persist.get")
        self._patch(OperandStore, "put", "persist.put")
        self._patch(BitBSRMatrix, "entry_coordinates", "formats.decode")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# -- analysis ------------------------------------------------------------------


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.id: s.seconds - covered[s.id] for s in spans}


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[LAYERS[s.name]] += own[s.id]
    return dict(totals)


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def share(part: float, whole: float) -> float:
    """``part / whole``, and 0 where nothing was measured."""
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans: list[Span], scipy_seconds: dict) -> tuple[dict, dict]:
    """Per-layer metrics computed from spans alone, plus serve detail.

    ``scipy_seconds`` maps an operand's ``(shape, nnz)`` to the scipy
    seconds per vector on that matrix (the host floor).
    """
    own = self_seconds(spans)
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    calls = [s for s in spans if s.name in ENGINE_CALLS]
    call_ids = {s.id for s in calls}
    fingerprints = [s for s in named["engine.fingerprint"] if s.parent in call_ids]
    runs = [s for s in spans if s.name in KERNEL_RUNS]
    run_seconds = sum(s.seconds for s in runs)
    floor_seconds = sum(s.k * scipy_seconds.get(s.key, 0.0) for s in runs)
    solves = named["apps.pagerank"]
    solve_ids = {s.id for s in solves}

    submitted = {s.requests[0]: s for s in named["serve.submit"] if s.requests}
    waits, in_program = [], []
    for s in named["engine.spmv_many"]:
        for rid in s.requests or ():
            sub = submitted.get(rid)
            if sub is not None:
                waits.append(s.start - sub.end)
                in_program.append(s.end - sub.start)

    metrics = {
        "serve.queue_wait_share": share(sum(waits), sum(in_program)),
        "engine.call_ms.p50": 1e3 * _p([s.seconds for s in calls], 50),
        "engine.self_ms.p50": 1e3 * _p([own[s.id] for s in calls], 50),
        "engine.fingerprint_share": share(
            sum(s.seconds for s in fingerprints), sum(s.seconds for s in calls)
        ),
        "engine.fingerprint_calls_per_request": share(
            len(fingerprints), sum(s.k for s in calls)
        ),
        "persist.get_ms.p50": 1e3 * _p([s.seconds for s in named["persist.get"]], 50),
        "persist.put_ms.p50": 1e3 * _p([s.seconds for s in named["persist.put"]], 50),
        "formats.prepare_ms.p50": 1e3 * _p([s.seconds for s in named["formats.prepare"]], 50),
        "exec.chain_ms.p50": 1e3 * _p([s.seconds for s in named["exec.chain"]], 50),
        "exec.self_ms.p50": 1e3 * _p([own[s.id] for s in named["exec.chain"]], 50),
        "kernels.run_us_per_vector.p50": 1e6 * _p([s.seconds / s.k for s in runs if s.k], 50),
        "formats.decode_share": share(
            sum(s.seconds for s in named["formats.decode"]), run_seconds
        ),
        "kernels.vs_scipy": share(run_seconds, floor_seconds),
        "apps.spmv_share": share(
            sum(s.seconds for s in named["engine.operator"] if s.parent in solve_ids),
            sum(s.seconds for s in solves),
        ),
    }
    detail = {
        "serve.submit_us.p50": 1e6 * _p([s.seconds for s in submitted.values()], 50),
        "serve.queue_wait_ms.p50": 1e3 * _p(waits, 50),
        "serve.queue_wait_ms.p99": 1e3 * _p(waits, 99),
        "spans": len(spans),
        "layer_self_s": layer_self_seconds(spans),
    }
    return metrics, detail
