"""Persistent keys: the fingerprint and frame digest, and the schema-1 upgrade."""

import hashlib
import json

import numpy as np
import pytest

from repro.engine import OPERAND_CODEC, SpMVEngine, encode_operand, matrix_fingerprint
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.base import get_kernel
from repro.obs import reset_observability
from repro.persist import SCHEMA_VERSION, OperandStore

from tests.conftest import make_random_dense

CODEC = "test-codec/v1"


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    reset_observability()


def _schema1_frame(kernel: str, fingerprint: str, codec: str, payload: bytes) -> bytes:
    """A frame as schema 1 wrote it: blake2b-128 payload digest."""
    header = json.dumps(
        {
            "kernel": kernel,
            "fingerprint": fingerprint,
            "codec": codec,
            "payload_bytes": len(payload),
            "digest": hashlib.blake2b(payload, digest_size=16).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return b"RPRS" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little") + header + payload


class TestGoldenKeys:
    # Store keys outlive the process: files on disk are named by the
    # fingerprint and checked against the digest.  Changing either value
    # below needs a SCHEMA_VERSION bump, or an old store's frames would
    # read as corruption instead of a counted schema miss.

    def test_fingerprint_of_a_fixed_csr(self):
        csr = CSRMatrix(
            (3, 4),
            np.array([0, 1, 3, 4]),
            np.array([0, 1, 3, 2]),
            np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
        )
        assert matrix_fingerprint(csr) == "d2885ed576dad65a528d27ce3cad58f0"

    def test_frame_digest_of_a_fixed_payload(self, tmp_path):
        store = OperandStore(tmp_path, name="golden")
        store.put("spaden", "f1", b"spaden operand payload", codec=CODEC)
        frame = store._path("spaden", "f1").read_bytes()
        hlen = int.from_bytes(frame[8:12], "little")
        header = json.loads(frame[12:12 + hlen])
        assert header["digest"] == "51e5b1914d96d6dd1905ee540eca5da3"
        assert int.from_bytes(frame[4:8], "little") == SCHEMA_VERSION == 2


class TestSchema1Upgrade:
    def test_a_blake2b_frame_is_a_schema_miss_not_corruption(self, tmp_path):
        store = OperandStore(tmp_path, name="up")
        path = store._path("spaden", "f1")
        path.write_bytes(_schema1_frame("spaden", "f1", CODEC, b"old payload"))
        assert store.get("spaden", "f1", codec=CODEC) is None
        assert store.stats.miss_reasons == {"schema": 1}
        assert store.stats.corrupt == 0
        assert not path.exists()  # unreadable: reclaimed

    def test_engine_converts_once_and_the_next_engine_loads(self, rng, tmp_path):
        csr = CSRMatrix.from_coo(COOMatrix.from_dense(make_random_dense(rng, 32, 32, 0.2)))
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        fingerprint = matrix_fingerprint(csr)
        payload = encode_operand(get_kernel("spaden").prepare(csr))
        path = OperandStore(tmp_path, name="seed")._path("spaden", fingerprint)
        path.write_bytes(_schema1_frame("spaden", fingerprint, OPERAND_CODEC, payload))

        first = SpMVEngine("spaden", store=OperandStore(tmp_path, name="first"))
        y_first = first.spmv(csr, x)
        assert first.store.stats.miss_reasons == {"schema": 1}
        assert first.store.stats.corrupt == 0
        assert first.stats.prepare_calls == 1
        assert first.store.stats.puts == 1
        assert int.from_bytes(path.read_bytes()[4:8], "little") == 2

        second = SpMVEngine("spaden", store=OperandStore(tmp_path, name="second"))
        y_second = second.spmv(csr, x)
        assert second.stats.prepare_calls == 0
        assert second.store.stats.hits == 1 and second.store.stats.misses == 0
        assert y_first.tobytes() == y_second.tobytes()
