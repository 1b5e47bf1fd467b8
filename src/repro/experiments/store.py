"""Crash-safe on-disk result storage: the sharded record store.

:class:`ShardStore`
    A content-keyed, sharded JSON store.  Keys hash (sha256) onto a fixed
    number of shard files, so a ``put`` rewrites one small shard instead of
    the whole cache, and processes sharing the store merge their records
    instead of racing last-writer-wins.  Safety properties:

    * **per-shard locks** (``flock`` where available) make concurrent puts
      from multiple processes merge instead of clobber;
    * **atomic, fsync'd replace** — a crash between write and rename can
      never surface a torn shard, and a crash right after ``os.replace``
      cannot lose the rename to a dirty page;
    * **per-record integrity** — every record carries a sha256 over its
      canonical JSON payload, verified on read; a tampered or bit-rotted
      record reads as a miss, never as silent bad data;
    * **corrupt-shard quarantine** — an unparseable shard is renamed to
      ``<shard>.corrupt`` (monotonic ``.corrupt.N`` suffixes preserve the
      evidence of repeated corruption) and the store keeps working;
    * **canonical bytes** — shards serialize with sorted keys, so the
      on-disk bytes depend only on the *set* of records, not on insertion
      order: sequential, parallel, and interrupted-then-rerun sweeps
      converge to identical files.

A sweep commits each cell with one fsync'd ``put`` the moment it finishes,
so a killed sweep loses at most its in-flight cells and a plain rerun
computes only what is missing.

Fault injection: shard writes call the ``"cache"`` boundary hooks from
:mod:`repro.testing.faults` — ``exc=OSError`` models disk-full (the put
degrades to memory-only with a warning), ``mode="truncate"`` models a torn
write (the next read quarantines the shard).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path

try:  # POSIX; the store degrades to lockless best-effort elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..obs.metrics_registry import registry as _registry
from ..testing.faults import InjectedFault, check_fault, mangle_write


def canonical_bytes(record) -> bytes:
    """The canonical JSON byte form of a record (sorted keys, no spaces)."""
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def record_digest(record) -> str:
    """sha256 hex digest over a record's canonical JSON payload."""
    return hashlib.sha256(canonical_bytes(record)).hexdigest()


def quarantine_file(path: Path) -> Path | None:
    """Move a corrupt artifact aside, never overwriting older evidence.

    The first quarantine of ``x`` lands at ``x.corrupt``; later ones at
    ``x.corrupt.1``, ``x.corrupt.2``, … (monotonic).  Returns the archive
    path, or ``None`` when the rename itself failed.
    """
    base = path.name + ".corrupt"
    archive = path.with_name(base)
    n = 0
    while archive.exists():
        n += 1
        archive = path.with_name(f"{base}.{n}")
    try:
        os.replace(path, archive)
    except OSError:
        return None
    return archive


def fsync_file(fh) -> None:
    """Flush + fsync one open file object (the crash-safety half of an
    atomic replace: without it, ``os.replace`` can publish a name whose
    *data* never reached the platter)."""
    fh.flush()
    os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


class ShardStore:
    """Sharded, integrity-checked dict-of-records on disk.

    ``root`` is a directory holding ``shard-00.json`` … ``shard-0f.json``
    (created lazily).  Records are plain JSON-serializable dicts; the store
    never interprets them beyond hashing.
    """

    SHARDS = 16

    def __init__(self, root: str | Path, version: int = 1):
        self.root = Path(root)
        self.version = version
        # Parsed shards memoized on (mtime_ns, size); invalidated whenever
        # another process replaced the file.
        self._memo: dict[int, tuple[tuple[int, int], dict]] = {}
        self.integrity_failures = 0
        self.quarantined = 0
        self.write_errors = 0

    # -- layout --------------------------------------------------------------
    @staticmethod
    def shard_of(key: str) -> int:
        return hashlib.sha256(key.encode("utf-8")).digest()[0] % ShardStore.SHARDS

    def shard_path(self, idx: int) -> Path:
        return self.root / f"shard-{idx:02x}.json"

    def shard_paths(self) -> list[Path]:
        """Every existing shard file, sorted by name (byte-compare order)."""
        return sorted(self.root.glob("shard-??.json"))

    def digest(self) -> str:
        """sha256 hex digest over every shard's name and bytes (sorted).

        Shards serialize canonically, so the digest is a pure function of
        the record set: two stores holding the same records — written by
        different processes, engines, or job counts — digest identically.
        This is the byte-identity receipt CI and the chaos sweep compare.
        """
        h = hashlib.sha256()
        for path in self.shard_paths():
            try:
                data = path.read_bytes()
            except OSError:  # pragma: no cover - raced with quarantine
                continue
            h.update(path.name.encode("utf-8"))
            h.update(b"\x00")
            h.update(data)
            h.update(b"\x00")
        return h.hexdigest()

    # -- locking -------------------------------------------------------------
    @contextmanager
    def _shard_lock(self, idx: int):
        """Exclusive advisory lock serializing cross-process shard writes."""
        lock_path = self.root / f".shard-{idx:02x}.lock"
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- read path -----------------------------------------------------------
    def _load_shard(self, idx: int, fresh: bool = False) -> dict:
        path = self.shard_path(idx)
        try:
            st = path.stat()
        except OSError:
            self._memo.pop(idx, None)
            return {}
        sig = (st.st_mtime_ns, st.st_size)
        if not fresh:
            memoized = self._memo.get(idx)
            if memoized is not None and memoized[0] == sig:
                return memoized[1]
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict) or \
                    not isinstance(payload.get("records"), dict):
                raise ValueError("shard payload is not a records object")
        except OSError:
            return {}
        except (json.JSONDecodeError, ValueError):
            self._quarantine_shard(path)
            return {}
        if payload.get("version") != self.version:
            # Stale format: treated as empty; the next put rewrites it.
            return {}
        records = payload["records"]
        self._memo[idx] = (sig, records)
        return records

    def _quarantine_shard(self, path: Path) -> None:
        archive = quarantine_file(path)
        self.quarantined += 1
        self._memo.clear()
        reg = _registry()
        if reg.enabled:
            reg.counter("cache.shards_quarantined").inc()
        warnings.warn(
            f"result-cache shard {path} was corrupt; "
            + (f"archived to {archive} and " if archive else "")
            + "dropped from the store",
            RuntimeWarning,
            stacklevel=4,
        )

    def get(self, key: str) -> dict | None:
        """The record for ``key``, or ``None`` (missing *or* failed its
        integrity check — bad data is indistinguishable from no data)."""
        entry = self._load_shard(self.shard_of(key)).get(key)
        if entry is None:
            return None
        record = entry.get("record") if isinstance(entry, dict) else None
        if record is None or entry.get("sha256") != record_digest(record):
            self.integrity_failures += 1
            reg = _registry()
            if reg.enabled:
                reg.counter("cache.integrity_failures").inc()
            warnings.warn(
                f"result-cache record {key!r} failed its integrity check; "
                "treating as a miss",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return record

    # -- write path ----------------------------------------------------------
    def put(self, key: str, record: dict) -> bool:
        """Write one record; returns False when the disk write failed (the
        caller's in-memory copy is then the only one)."""
        idx = self.shard_of(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._shard_lock(idx):
                # Fresh read under the lock: merge concurrent writers'
                # records instead of clobbering them.
                records = dict(self._load_shard(idx, fresh=True))
                records[key] = {"record": record,
                                "sha256": record_digest(record)}
                self._write_shard(idx, records)
        except (OSError, InjectedFault) as exc:
            self.write_errors += 1
            reg = _registry()
            if reg.enabled:
                reg.counter("cache.write_errors").inc()
            warnings.warn(
                f"result-cache shard write failed ({exc}); record {key!r} "
                "is memory-only for this process",
                RuntimeWarning,
                stacklevel=3,
            )
            return False
        return True

    def _write_shard(self, idx: int, records: dict) -> None:
        path = self.shard_path(idx)
        site = path.name
        check_fault("cache", site)          # disk-full style injection
        payload = json.dumps({"version": self.version, "records": records},
                             sort_keys=True, indent=0).encode("utf-8")
        payload = mangle_write("cache", site, payload)   # torn-write injection
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fsync_file(fh)
        os.replace(tmp, path)
        _fsync_dir(self.root)
        st = path.stat()
        self._memo[idx] = ((st.st_mtime_ns, st.st_size), records)

