"""Content-addressed on-disk store of opaque operand payloads.

File layout of one entry (``<kernel>__<fingerprint>.operand``)::

    magic   4 bytes   b"RPRS"
    schema  u32 LE    store schema version
    hlen    u32 LE    header length in bytes
    header  JSON      {kernel, fingerprint, codec, payload_bytes, digest}
    payload bytes     exactly payload_bytes, SHA-256 (first 128 bits) == digest

Every load re-validates the whole frame: magic, schema, header shape,
payload length, payload digest and the key/codec the caller asked for.
Anything that does not check out is a **structured miss** — counted by
reason, the bad file unlinked, ``None`` returned so the caller falls
through to re-conversion.  A store read can therefore never crash the
engine and never serve bytes that differ from what was written.  A hit
is a read-only :class:`memoryview` of the payload inside the buffer the
file was read into: the payload is validated, hashed and returned
without a copy, and a put writes the header and the payload without
joining them.

The digest is unkeyed and sits in the same file as the payload: it
detects corruption, not forgery.  Schema 2 moved the digest (and the
engine's fingerprint, which names the files) from blake2b to SHA-256,
so a schema-1 frame is a counted ``schema`` miss, not ``digest``
corruption.

Writes are atomic (temp file + ``os.replace``) so concurrent readers —
including other processes sharing the directory — observe either the
old complete entry or the new complete entry, never a torn one.  The
size budget is enforced at put time by evicting least-recently-*used*
entries (hits refresh mtime), mirroring the in-memory cache's LRU.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.errors import PersistError
from repro.obs import get_registry

__all__ = ["DEFAULT_STORE_BYTES", "SCHEMA_VERSION", "OperandStore", "StoreStats"]

#: Bump whenever the entry frame, the payload digest, the fingerprint
#: that names the files or any codec's byte layout changes; entries
#: written under another version are structured misses.  Version 2:
#: SHA-256 digests and fingerprints (version 1 used blake2b).
SCHEMA_VERSION: int = 2

#: Default on-disk budget: 1 GiB of spilled operands.
DEFAULT_STORE_BYTES: int = 1024 * 1024 * 1024

_MAGIC = b"RPRS"
_FIXED = len(_MAGIC) + 4 + 4  # magic + schema u32 + header-length u32
_SUFFIX = ".operand"
_SAFE = re.compile(r"[^A-Za-z0-9._-]")

#: Miss reasons that mean the entry existed but its bytes were damaged
#: (as opposed to absent, version-skewed or written by another codec).
_CORRUPT_REASONS = frozenset(
    {"truncated", "magic", "header", "digest", "key-mismatch"}
)


def _digest(payload) -> str:
    """SHA-256 of a contiguous buffer, truncated to 128 bits (32 hex digits)."""
    return hashlib.sha256(payload).hexdigest()[:32]


@dataclass
class StoreStats:
    """Additive counters for one :class:`OperandStore` instance.

    Process-local (each engine sharing a directory keeps its own), so a
    restart test can reconcile exactly: a fresh process starts from all
    zeros and every disk round trip shows up here.
    """

    #: Loads that returned a validated payload.
    hits: int = 0
    #: Loads that returned nothing, for any reason (``miss_reasons``).
    misses: int = 0
    #: Entries unlinked to respect the size budget.
    evictions: int = 0
    #: Misses whose entry existed but failed frame/digest validation.
    corrupt: int = 0
    #: Payloads durably written.
    puts: int = 0
    #: Puts abandoned on I/O failure (disk full, permissions, ...).
    put_errors: int = 0
    #: Payloads larger than the whole budget, never written.
    rejected: int = 0
    #: Per-reason miss breakdown (``absent``, ``schema``, ``codec``,
    #: ``truncated``, ``magic``, ``header``, ``digest``,
    #: ``key-mismatch``, ``decode``).
    miss_reasons: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class OperandStore:
    """Durable byte store keyed by ``(kernel, fingerprint)``.

    ``name`` labels this store's series in the process-wide metrics
    registry; instances sharing a name aggregate.  Thread-safe: stats
    and directory mutations happen under one lock, with metric emission
    after it is released (values captured while held), matching the
    operand cache's lock-ordering discipline.  Cross-process safety
    comes from atomic replace, full-frame validation on read, and
    treating a concurrently-evicted file as an ordinary ``absent`` miss.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        size_budget_bytes: int = DEFAULT_STORE_BYTES,
        name: str = "default",
        schema_version: int = SCHEMA_VERSION,
    ):
        if size_budget_bytes <= 0:
            raise PersistError("size_budget_bytes must be positive")
        if not name:
            raise PersistError("store name must be non-empty")
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistError(f"cannot create store root {self.root}: {exc}") from exc
        self.size_budget_bytes = int(size_budget_bytes)
        self.name = name
        self.schema_version = int(schema_version)
        self._lock = threading.Lock()
        self.stats = StoreStats()  # concurrency: guarded-by(self._lock)
        self._tmp_seq = 0  # concurrency: guarded-by(self._lock)

    # -- observability -------------------------------------------------------
    def _emit(self, events: list[tuple[str, dict]]) -> None:
        """Emit captured counter events; called with the lock released."""
        registry = get_registry()
        for metric, labels in events:
            if metric == "hit":
                registry.counter(
                    "persist_hits_total",
                    "Operand-store loads served from disk.",
                    labels=("store",),
                ).inc(store=self.name)
            elif metric == "miss":
                registry.counter(
                    "persist_misses_total",
                    "Operand-store loads that fell through, by reason.",
                    labels=("store", "reason"),
                ).inc(store=self.name, reason=labels["reason"])
            elif metric == "corrupt":
                registry.counter(
                    "persist_corrupt_total",
                    "Store entries that existed but failed validation.",
                    labels=("store",),
                ).inc(store=self.name)
            elif metric == "eviction":
                registry.counter(
                    "persist_evictions_total",
                    "Store entries unlinked to respect the size budget.",
                    labels=("store",),
                ).inc(store=self.name)
            elif metric == "put":
                registry.counter(
                    "persist_puts_total",
                    "Operand-store write attempts, by outcome.",
                    labels=("store", "outcome"),
                ).inc(store=self.name, outcome=labels["outcome"])

    def _publish_residency(self, resident_bytes: int, entries: int) -> None:
        registry = get_registry()
        registry.gauge(
            "persist_resident_bytes",
            "Bytes held by persisted operand entries.",
            labels=("store",),
        ).set(resident_bytes, store=self.name)
        registry.gauge(
            "persist_entries",
            "Operand entries currently on disk.",
            labels=("store",),
        ).set(entries, store=self.name)

    # -- paths ---------------------------------------------------------------
    def _path(self, kernel: str, fingerprint: str) -> Path:
        k = _SAFE.sub("_", str(kernel)) or "_"
        f = _SAFE.sub("_", str(fingerprint)) or "_"
        return self.root / f"{k}__{f}{_SUFFIX}"

    def _scan(self) -> list[os.DirEntry]:
        """All committed entry files (temp files excluded)."""
        try:
            with os.scandir(self.root) as it:
                return [e for e in it if e.is_file() and e.name.endswith(_SUFFIX)]
        except OSError:
            return []

    def _residency(self) -> tuple[int, int]:
        entries = self._scan()
        total = 0
        for e in entries:
            try:
                total += e.stat().st_size
            except OSError:
                pass
        return total, len(entries)

    # -- introspection -------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Total bytes of committed entries currently on disk."""
        return self._residency()[0]

    def __len__(self) -> int:
        return self._residency()[1]

    def keys(self) -> list[tuple[str, str]]:
        """``(kernel, fingerprint)`` of committed entries (as filed)."""
        out = []
        for e in self._scan():
            stem = e.name[: -len(_SUFFIX)]
            kernel, sep, fingerprint = stem.rpartition("__")
            if sep:
                out.append((kernel, fingerprint))
        return sorted(out)

    # -- read ----------------------------------------------------------------
    def get(self, kernel: str, fingerprint: str, *, codec: str) -> memoryview | None:
        """Load a validated payload, or ``None`` as a counted miss.

        The payload comes back as a read-only :class:`memoryview` into
        the one buffer the file was read into, so a load holds the
        file's bytes once.  ``codec`` names the serialization the caller
        understands; an entry written under a different codec string is
        a structured miss (reason ``codec``), exactly like a
        schema-version skew.  A hit refreshes the entry's mtime, which is
        the store's LRU recency signal.
        """
        path = self._path(kernel, fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            return self._miss("absent", None)

        reason, payload = self._validate_frame(memoryview(data), kernel, fingerprint, codec)
        if reason is not None:
            return self._miss(reason, path)

        try:
            os.utime(path)
        except OSError:
            pass  # recency refresh is best-effort
        with self._lock:
            self.stats.hits += 1
        self._emit([("hit", {})])
        return payload

    def _validate_frame(
        self, data: memoryview, kernel: str, fingerprint: str, codec: str
    ) -> tuple[str | None, memoryview | None]:
        """``(None, payload)`` for a valid hit, else ``(reason, None)``.

        ``payload`` is a slice of ``data``, never a copy.
        """
        if len(data) < _FIXED:
            return "truncated", None
        if data[: len(_MAGIC)] != _MAGIC:
            return "magic", None
        schema = int.from_bytes(data[len(_MAGIC):len(_MAGIC) + 4], "little")
        if schema != self.schema_version:
            return "schema", None
        hlen = int.from_bytes(data[_FIXED - 4:_FIXED], "little")
        if len(data) < _FIXED + hlen:
            return "truncated", None
        try:
            header = json.loads(str(data[_FIXED:_FIXED + hlen], "utf-8"))
            payload_bytes = int(header["payload_bytes"])
            digest = str(header["digest"])
            h_kernel = str(header["kernel"])
            h_fingerprint = str(header["fingerprint"])
            h_codec = str(header["codec"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return "header", None
        payload = data[_FIXED + hlen:]
        if len(payload) != payload_bytes:
            return "truncated", None
        if _digest(payload) != digest:
            return "digest", None
        if (h_kernel, h_fingerprint) != (str(kernel), str(fingerprint)):
            return "key-mismatch", None
        if h_codec != codec:
            return "codec", None
        return None, payload

    def _miss(self, reason: str, path: Path | None) -> None:
        """Count a structured miss; unlink the offending entry if any."""
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass  # already evicted by a peer, or read-only dir
        corrupt = reason in _CORRUPT_REASONS
        with self._lock:
            self.stats.misses += 1
            self.stats.miss_reasons[reason] = self.stats.miss_reasons.get(reason, 0) + 1
            if corrupt:
                self.stats.corrupt += 1
        events: list[tuple[str, dict]] = [("miss", {"reason": reason})]
        if corrupt:
            events.append(("corrupt", {}))
        self._emit(events)
        if path is not None:
            self._publish_residency(*self._residency())
        return None

    def discard(self, kernel: str, fingerprint: str, *, reason: str = "decode") -> None:
        """Drop an entry whose *payload* the caller could not use.

        The frame (magic/digest/key) can validate while the payload is
        still undecodable by the layer above — e.g. a pickle written by
        an incompatible library version.  The engine reports that here
        so it counts as a structured miss and the entry stops wasting
        budget.
        """
        self._miss(reason, self._path(kernel, fingerprint))

    # -- write ---------------------------------------------------------------
    def put(self, kernel: str, fingerprint: str, payload: bytes, *, codec: str) -> bool:
        """Durably write one entry; ``True`` if it is now on disk.

        ``payload`` may be any contiguous buffer; it is hashed and
        written in place, after the frame's fixed fields and header, so
        the file holds exactly ``prefix + payload`` without that frame
        ever being built in memory.  Failures never raise: a payload
        larger than the whole budget is counted ``rejected``; an I/O
        error (disk full, permissions) is counted ``put_errors`` and the
        temp file cleaned up.  After a successful write,
        least-recently-used peers are unlinked until the directory fits
        the budget again.
        """
        payload = memoryview(payload)
        if payload.nbytes > self.size_budget_bytes:
            with self._lock:
                self.stats.rejected += 1
            self._emit([("put", {"outcome": "rejected"})])
            return False

        header = json.dumps(
            {
                "kernel": str(kernel),
                "fingerprint": str(fingerprint),
                "codec": str(codec),
                "payload_bytes": payload.nbytes,
                "digest": _digest(payload),
            },
            sort_keys=True,
        ).encode("utf-8")
        prefix = (
            _MAGIC
            + self.schema_version.to_bytes(4, "little")
            + len(header).to_bytes(4, "little")
            + header
        )

        path = self._path(kernel, fingerprint)
        with self._lock:
            self._tmp_seq += 1
            seq = self._tmp_seq
        tmp = self.root / f".{path.name}.tmp-{os.getpid()}-{seq}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(prefix)
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            with self._lock:
                self.stats.put_errors += 1
            self._emit([("put", {"outcome": "error"})])
            return False

        evicted = self._evict_to_budget(keep=path.name)
        with self._lock:
            self.stats.puts += 1
            self.stats.evictions += evicted
        events: list[tuple[str, dict]] = [("put", {"outcome": "stored"})]
        events.extend(("eviction", {}) for _ in range(evicted))
        self._emit(events)
        self._publish_residency(*self._residency())
        return True

    def _evict_to_budget(self, keep: str) -> int:
        """Unlink oldest-mtime entries until the budget holds; count them."""
        entries = []
        total = 0
        for e in self._scan():
            try:
                st = e.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, e.name, st.st_size))
            total += st.st_size
        evicted = 0
        for _, name, size in sorted(entries):
            if total <= self.size_budget_bytes:
                break
            if name == keep:
                continue
            try:
                os.unlink(self.root / name)
            except OSError:
                continue  # a peer got there first; its budget, its count
            total -= size
            evicted += 1
        return evicted

    def clear(self) -> None:
        """Unlink every committed entry (counters are preserved)."""
        for e in self._scan():
            try:
                os.unlink(e.path)
            except OSError:
                pass
        self._publish_residency(*self._residency())
