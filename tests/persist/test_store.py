"""OperandStore adversarial suite: every bad entry is a counted miss."""

import json
import os
import threading
import tracemalloc

import pytest

from repro.errors import PersistError
from repro.obs import get_registry, reset_observability
from repro.persist import SCHEMA_VERSION, OperandStore

CODEC = "test-codec/v1"


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    reset_observability()


def _metric_total(name: str, **want) -> float:
    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    return sum(
        value
        for labels, value in metric.labeled()
        if all(labels.get(k) == v for k, v in want.items())
    )


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = OperandStore(tmp_path, name="rt")
        assert store.put("spaden", "f1", b"payload-bytes", codec=CODEC)
        assert store.get("spaden", "f1", codec=CODEC) == b"payload-bytes"
        assert store.stats.hits == 1 and store.stats.puts == 1
        assert _metric_total("persist_hits_total", store="rt") == 1

    def test_absent_is_structured_miss(self, tmp_path):
        store = OperandStore(tmp_path, name="ab")
        assert store.get("spaden", "nope", codec=CODEC) is None
        assert store.stats.misses == 1
        assert store.stats.miss_reasons == {"absent": 1}
        assert store.stats.corrupt == 0
        assert _metric_total("persist_misses_total", store="ab", reason="absent") == 1

    def test_keys_and_residency(self, tmp_path):
        store = OperandStore(tmp_path, name="keys")
        store.put("spaden", "f1", b"x" * 64, codec=CODEC)
        store.put("csr-scalar", "f2", b"y" * 64, codec=CODEC)
        assert store.keys() == [("csr-scalar", "f2"), ("spaden", "f1")]
        assert len(store) == 2
        assert store.resident_bytes > 128

    def test_cross_instance_same_dir(self, tmp_path):
        writer = OperandStore(tmp_path, name="w")
        reader = OperandStore(tmp_path, name="r")
        writer.put("spaden", "f1", b"shared", codec=CODEC)
        assert reader.get("spaden", "f1", codec=CODEC) == b"shared"

    def test_frame_is_the_single_buffer_formula(self, tmp_path):
        store = OperandStore(tmp_path, name="frame")
        payload = bytes(range(256)) * 5
        store.put("spaden", "f1", payload, codec=CODEC)
        frame = store._path("spaden", "f1").read_bytes()
        header = json.dumps(
            {
                "kernel": "spaden",
                "fingerprint": "f1",
                "codec": CODEC,
                "payload_bytes": len(payload),
                "digest": json.loads(frame[12:-len(payload)])["digest"],
            },
            sort_keys=True,
        ).encode("utf-8")
        assert frame == (
            b"RPRS"
            + SCHEMA_VERSION.to_bytes(4, "little")
            + len(header).to_bytes(4, "little")
            + header
            + payload
        )

    def test_get_returns_a_read_only_view(self, tmp_path):
        store = OperandStore(tmp_path, name="view")
        store.put("spaden", "f1", bytearray(b"payload-bytes"), codec=CODEC)
        got = store.get("spaden", "f1", codec=CODEC)
        assert isinstance(got, memoryview) and got.readonly
        assert got.tobytes() == b"payload-bytes"

    def test_bad_config_raises(self, tmp_path):
        with pytest.raises(PersistError):
            OperandStore(tmp_path, size_budget_bytes=0)
        with pytest.raises(PersistError):
            OperandStore(tmp_path, name="")


class TestAdversarial:
    """Truncation, bit flips, version skew, key mismatch: counted misses."""

    def _seed(self, tmp_path, name):
        store = OperandStore(tmp_path, name=name)
        store.put("spaden", "f1", b"sensitive-payload" * 8, codec=CODEC)
        return store, store._path("spaden", "f1")

    def test_truncated_file(self, tmp_path):
        store, path = self._seed(tmp_path, "tr")
        path.write_bytes(path.read_bytes()[:-5])
        assert store.get("spaden", "f1", codec=CODEC) is None
        assert store.stats.miss_reasons == {"truncated": 1}
        assert store.stats.corrupt == 1
        assert not path.exists()  # bad entry unlinked
        assert _metric_total("persist_corrupt_total", store="tr") == 1

    def test_truncated_below_fixed_header(self, tmp_path):
        store, path = self._seed(tmp_path, "tr2")
        path.write_bytes(path.read_bytes()[:6])
        assert store.get("spaden", "f1", codec=CODEC) is None
        assert store.stats.miss_reasons == {"truncated": 1}

    def test_flipped_payload_byte(self, tmp_path):
        store, path = self._seed(tmp_path, "flip")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get("spaden", "f1", codec=CODEC) is None
        assert store.stats.miss_reasons == {"digest": 1}
        assert store.stats.corrupt == 1

    def test_flipped_magic(self, tmp_path):
        store, path = self._seed(tmp_path, "mag")
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get("spaden", "f1", codec=CODEC) is None
        assert store.stats.miss_reasons == {"magic": 1}

    def test_junk_header_json(self, tmp_path):
        store, path = self._seed(tmp_path, "hdr")
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # first header byte: breaks the JSON
        path.write_bytes(bytes(data))
        assert store.get("spaden", "f1", codec=CODEC) is None
        assert store.stats.corrupt == 1

    def test_schema_version_skew(self, tmp_path):
        old = OperandStore(tmp_path, name="old", schema_version=SCHEMA_VERSION)
        old.put("spaden", "f1", b"payload", codec=CODEC)
        new = OperandStore(tmp_path, name="new", schema_version=SCHEMA_VERSION + 1)
        assert new.get("spaden", "f1", codec=CODEC) is None
        assert new.stats.miss_reasons == {"schema": 1}
        assert new.stats.corrupt == 0  # skew is not corruption
        assert not old._path("spaden", "f1").exists()  # unreadable: reclaimed

    def test_fingerprint_mismatch_inside_frame(self, tmp_path):
        store, path = self._seed(tmp_path, "key")
        # file renamed to another key: frame validates, header key does not
        other = store._path("spaden", "f2")
        os.rename(path, other)
        assert store.get("spaden", "f2", codec=CODEC) is None
        assert store.stats.miss_reasons == {"key-mismatch": 1}
        assert store.stats.corrupt == 1

    def test_codec_skew(self, tmp_path):
        store, path = self._seed(tmp_path, "cod")
        assert store.get("spaden", "f1", codec="other-codec/v9") is None
        assert store.stats.miss_reasons == {"codec": 1}
        assert store.stats.corrupt == 0

    def test_discard_counts_decode_miss(self, tmp_path):
        store, path = self._seed(tmp_path, "dec")
        store.discard("spaden", "f1")
        assert store.stats.miss_reasons == {"decode": 1}
        assert not path.exists()

    def test_every_miss_falls_through_to_a_good_put(self, tmp_path):
        """After any miss, a re-put serves bitwise-correct bytes."""
        store, path = self._seed(tmp_path, "heal")
        path.write_bytes(b"garbage")
        assert store.get("spaden", "f1", codec=CODEC) is None
        assert store.put("spaden", "f1", b"fresh-payload", codec=CODEC)
        assert store.get("spaden", "f1", codec=CODEC) == b"fresh-payload"


class TestEviction:
    def test_lru_by_mtime(self, tmp_path):
        store = OperandStore(tmp_path, name="ev", size_budget_bytes=10**9)
        store.put("k", "a", b"x" * 100, codec=CODEC)
        entry = store._path("k", "a").stat().st_size
        store = OperandStore(tmp_path, name="ev", size_budget_bytes=entry * 2 + 8)
        store.put("k", "b", b"y" * 100, codec=CODEC)
        os.utime(store._path("k", "a"), (1, 1))  # make "a" the LRU
        store.put("k", "c", b"z" * 100, codec=CODEC)
        assert store.stats.evictions == 1
        assert store.get("k", "a", codec=CODEC) is None
        assert store.get("k", "c", codec=CODEC) == b"z" * 100
        assert _metric_total("persist_evictions_total", store="ev") == 1

    def test_hit_refreshes_recency(self, tmp_path):
        store = OperandStore(tmp_path, name="ev2", size_budget_bytes=10**9)
        store.put("k", "a", b"x" * 100, codec=CODEC)
        entry = store._path("k", "a").stat().st_size
        store = OperandStore(tmp_path, name="ev2", size_budget_bytes=entry * 2 + 8)
        store.put("k", "b", b"y" * 100, codec=CODEC)
        os.utime(store._path("k", "a"), (1, 1))
        os.utime(store._path("k", "b"), (2, 2))
        assert store.get("k", "a", codec=CODEC) is not None  # refresh "a"
        store.put("k", "c", b"z" * 100, codec=CODEC)
        assert store.get("k", "a", codec=CODEC) is not None  # survived
        assert store.get("k", "b", codec=CODEC) is None      # evicted

    def test_oversized_payload_rejected_not_written(self, tmp_path):
        store = OperandStore(tmp_path, name="rej", size_budget_bytes=64)
        assert not store.put("k", "big", b"x" * 1000, codec=CODEC)
        assert store.stats.rejected == 1 and store.stats.puts == 0
        assert len(store) == 0
        assert _metric_total("persist_puts_total", store="rej", outcome="rejected") == 1


class TestFootprint:
    """A store round trip holds the payload once, never a second frame."""

    PAYLOAD = 1 << 20
    SLACK = 64 << 10

    def test_get_holds_the_payload_once(self, tmp_path):
        store = OperandStore(tmp_path, name="mem-get")
        store.put("k", "f1", os.urandom(self.PAYLOAD), codec=CODEC)
        tracemalloc.start()
        try:
            got = store.get("k", "f1", codec=CODEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is not None and got.nbytes == self.PAYLOAD
        # the file read once: a second copy would be another megabyte
        assert peak < self.PAYLOAD + self.SLACK, peak

    def test_put_never_builds_the_frame(self, tmp_path):
        store = OperandStore(tmp_path, name="mem-put")
        payload = os.urandom(self.PAYLOAD)
        tracemalloc.start()
        try:
            assert store.put("k", "f1", payload, codec=CODEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.SLACK, peak


class TestConcurrency:
    def test_threaded_put_get_never_tears(self, tmp_path):
        """Concurrent writers/readers see complete frames or clean misses."""
        store = OperandStore(tmp_path, name="thr")
        payloads = {f"f{i}": bytes([i]) * (200 + i) for i in range(8)}
        stop = threading.Event()
        bad: list = []

        def writer():
            while not stop.is_set():
                for fp, payload in payloads.items():
                    store.put("k", fp, payload, codec=CODEC)

        def reader():
            while not stop.is_set():
                for fp, payload in payloads.items():
                    got = store.get("k", fp, codec=CODEC)
                    if got is not None and got != payload:
                        bad.append(fp)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        import time as _time

        _time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join()
        assert not bad  # a served payload is always bitwise what was put
        assert store.stats.corrupt == 0
