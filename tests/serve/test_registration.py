"""Registered matrices: one fingerprint per handle, frozen operands.

``SpMVEngine.register`` wraps a CSR in a :class:`~repro.engine.MatrixHandle`
and ``ServeFrontend.register_matrix`` keeps one per name, so a matrix is
hashed at most once — at registration when it is warmed, otherwise on
its first request — while every served ``y`` still equals a serial
:meth:`~repro.engine.SpMVEngine.spmv` byte for byte.  The handle freezes
the arrays it serves, so an in-place write raises instead of serving a
stale operand.  The first-use race runs real threads against one
unwarmed handle, so repeating this file repeats the race.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro.engine import MatrixHandle, SpMVEngine, matrix_fingerprint
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.obs import reset_observability
from repro.serve import ServeFrontend

from tests.conftest import make_random_dense

THREADS = 8


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    reset_observability()


@pytest.fixture
def hashes(monkeypatch) -> list:
    """Every matrix the engine hashes, in call order."""
    calls: list = []
    original = engine_module.matrix_fingerprint

    def counted(csr):
        calls.append(csr)
        return original(csr)

    monkeypatch.setattr(engine_module, "matrix_fingerprint", counted)
    return calls


def _csr(rng, nrows=48, ncols=40) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, 0.12))
    )


def _vectors(rng, csr, count):
    return [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(count)]


def _serial(csr, xs):
    """Each ``y`` from a fresh engine's plain ``spmv``."""
    return [SpMVEngine("spaden").spmv(csr, x) for x in xs]


def _same_bytes(ys, expected) -> bool:
    return len(ys) == len(expected) and all(
        y.tobytes() == e.tobytes() for y, e in zip(ys, expected)
    )


class TestEngineHandle:
    def test_register_hashes_nothing_and_the_digest_is_the_content_hash(self, rng, hashes):
        csr = _csr(rng)
        handle = SpMVEngine("spaden").register(csr)
        assert isinstance(handle, MatrixHandle) and hashes == []
        assert handle.fingerprint == matrix_fingerprint(csr)
        assert handle.fingerprint == handle.fingerprint
        assert len(hashes) == 1

    def test_raw_csr_is_hashed_per_request_and_a_handle_once(self, rng, hashes):
        csr = _csr(rng)
        xs = _vectors(rng, csr, 4)
        engine = SpMVEngine("spaden")
        engine.spmv_many([(csr, x) for x in xs])
        assert len(hashes) == len(xs)
        handle = engine.register(csr)
        for _ in range(3):
            ys = engine.spmv_many([(handle, x) for x in xs])
        assert len(hashes) == len(xs) + 1
        assert _same_bytes(ys, _serial(csr, xs))

    def test_handle_and_raw_csr_of_one_matrix_share_a_batch(self, rng):
        csr = _csr(rng)
        xs = _vectors(rng, csr, 4)
        engine = SpMVEngine("spaden")
        handle = engine.register(csr)
        ys = engine.spmv_many([(handle, xs[0]), (csr, xs[1]), (handle, xs[2]), (csr, xs[3])])
        assert engine.stats.batches == 1
        assert _same_bytes(ys, _serial(csr, xs))

    def test_warm_through_a_handle_hashes_once(self, rng, hashes):
        csr = _csr(rng)
        engine = SpMVEngine("spaden")
        handle = engine.register(csr)
        engine.warm(handle)
        y = engine.spmv(handle, _vectors(rng, csr, 1)[0])
        assert len(hashes) == 1
        assert engine.stats.prepare_calls == 1 and y.shape == (csr.nrows,)


class TestHashOnce:
    def test_unwarmed_registration_hashes_nothing_and_requests_hash_once(self, rng, hashes):
        csr = _csr(rng)
        xs = _vectors(rng, csr, 12)
        with ServeFrontend(SpMVEngine("spaden"), workers=2) as frontend:
            frontend.register_matrix("m", csr, warm=False)
            assert hashes == []
            ys = [frontend.submit("m", x).result(timeout=30) for x in xs]
            tickets = [frontend.submit("m", x) for x in xs]
            ys += [ticket.result(timeout=30) for ticket in tickets]
        assert len(hashes) == 1
        assert _same_bytes(ys, _serial(csr, xs) * 2)

    def test_warmed_registration_hashes_once_and_requests_never(self, rng, hashes):
        csr = _csr(rng)
        xs = _vectors(rng, csr, 12)
        engine = SpMVEngine("spaden")
        with ServeFrontend(engine, workers=2) as frontend:
            frontend.register_matrix("m", csr, warm=True)
            assert len(hashes) == 1 and engine.stats.prepare_calls == 1
            tickets = [frontend.submit("m", x) for x in xs]
            ys = [ticket.result(timeout=30) for ticket in tickets]
        assert len(hashes) == 1 and engine.stats.prepare_calls == 1
        assert _same_bytes(ys, _serial(csr, xs))

    def test_every_served_y_equals_a_serial_spmv(self, rng):
        csrs = {name: _csr(rng, nrows=40 + 8 * i) for i, name in enumerate("abc")}
        work = [(name, x) for name, csr in csrs.items() for x in _vectors(rng, csr, 6)]
        expected = [_serial(csrs[name], [x])[0] for name, x in work]
        with ServeFrontend(SpMVEngine("spaden"), workers=3) as frontend:
            for name, csr in csrs.items():
                frontend.register_matrix(name, csr, warm=name == "a")
            tickets = [frontend.submit(name, x) for name, x in work]
            ys = [ticket.result(timeout=30) for ticket in tickets]
        assert _same_bytes(ys, expected)


class TestFrozenOperand:
    def test_in_place_writes_raise(self, rng):
        csr = _csr(rng)
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("m", csr)
            for array in (csr.values, csr.col_indices, csr.row_pointers):
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_rebinding_the_callers_arrays_changes_nothing_served(self, rng):
        csr = _csr(rng)
        xs = _vectors(rng, csr, 3)
        expected = _serial(csr, xs)
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("m", csr)
            before = [frontend.submit("m", x).result(timeout=30) for x in xs]
            csr.values = csr.values * 2
            after = [frontend.submit("m", x).result(timeout=30) for x in xs]
        assert _same_bytes(before, expected) and _same_bytes(after, expected)

    def test_a_view_is_copied_and_the_callers_array_stays_writeable(self, rng):
        source = _csr(rng)
        backing = np.zeros(source.nnz + 4, np.float32)
        backing[: source.nnz] = source.values
        csr = CSRMatrix(
            source.shape, source.row_pointers, source.col_indices, backing[: source.nnz]
        )
        assert csr.values.base is backing
        xs = _vectors(rng, source, 3)
        expected = _serial(source, xs)
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("m", csr)
            before = [frontend.submit("m", x).result(timeout=30) for x in xs]
            backing *= 3
            after = [frontend.submit("m", x).result(timeout=30) for x in xs]
        assert backing.flags.writeable and csr.values.flags.writeable
        assert _same_bytes(before, expected) and _same_bytes(after, expected)


class TestFirstUseRace:
    """Real threads make the first requests on one unwarmed handle at once."""

    @pytest.fixture(autouse=True)
    def tight_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def _race(self, first_request, xs):
        barrier = threading.Barrier(len(xs))

        def run(x):
            barrier.wait(timeout=30)
            return first_request(x)

        with ThreadPoolExecutor(len(xs)) as pool:
            return [f.result(timeout=120) for f in [pool.submit(run, x) for x in xs]]

    def test_racing_engine_requests_hash_and_prepare_once(self, rng, hashes):
        csr = _csr(rng, nrows=256, ncols=256)
        xs = _vectors(rng, csr, THREADS)
        engine = SpMVEngine("spaden")
        handle = engine.register(csr)
        ys = self._race(lambda x: engine.spmv(handle, x), xs)
        assert len(hashes) == 1
        assert engine.stats.prepare_calls == 1
        assert _same_bytes(ys, _serial(csr, xs))

    def test_racing_submissions_hash_and_prepare_once(self, rng, hashes):
        csr = _csr(rng, nrows=256, ncols=256)
        xs = _vectors(rng, csr, THREADS)
        engine = SpMVEngine("spaden")
        with ServeFrontend(engine, workers=THREADS) as frontend:
            frontend.register_matrix("m", csr, warm=False)
            ys = self._race(lambda x: frontend.submit("m", x).result(timeout=60), xs)
        assert len(hashes) == 1
        assert engine.stats.prepare_calls == 1
        assert _same_bytes(ys, _serial(csr, xs))
