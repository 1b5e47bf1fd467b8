"""Sharded store tests: canonical bytes, integrity checks, shard
quarantine, concurrent merge, fsync'd atomic replace, and the ResultCache
that sits on top."""

from __future__ import annotations

import json
import multiprocessing as mp

import pytest

from repro.experiments.common import AppResult, ResultCache
from repro.experiments.store import (
    ShardStore,
    canonical_bytes,
    quarantine_file,
    record_digest,
)
from repro.testing.faults import FaultSpec, inject_faults


def _record(n: int = 1) -> dict:
    return {"value": n, "nested": {"b": 2, "a": 1}}


# -- canonical serialization --------------------------------------------------


def test_canonical_bytes_are_key_order_independent():
    a = canonical_bytes({"x": 1, "y": {"p": 1, "q": 2}})
    b = canonical_bytes({"y": {"q": 2, "p": 1}, "x": 1})
    assert a == b
    assert record_digest({"x": 1}) == record_digest({"x": 1})
    assert record_digest({"x": 1}) != record_digest({"x": 2})


def test_store_bytes_independent_of_insertion_order(tmp_path):
    keys = [f"app{i}|baseline|max|test" for i in range(24)]
    s1 = ShardStore(tmp_path / "fwd")
    for k in keys:
        s1.put(k, {"k": k})
    s2 = ShardStore(tmp_path / "rev")
    for k in reversed(keys):
        s2.put(k, {"k": k})
    for p1, p2 in zip(sorted((tmp_path / "fwd").glob("shard-??.json")),
                      sorted((tmp_path / "rev").glob("shard-??.json"))):
        assert p1.name == p2.name
        assert p1.read_bytes() == p2.read_bytes()
    # The digest is the one-line version of the same property.
    assert s1.digest() == s2.digest() != ""


def test_store_digest_reflects_record_set(tmp_path):
    store = ShardStore(tmp_path / "s")
    empty = store.digest()
    store.put("a|baseline|max|test", _record(1))
    one = store.digest()
    assert one != empty
    store.put("b|baseline|max|test", _record(2))
    assert store.digest() != one


def test_result_cache_digest(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.digest() == ShardStore(tmp_path / "c").digest()
    result = AppResult("A", "baseline", "max", "test", 10, {})
    cache.put("A|baseline|max|test", result)
    # The put wrote through: a second cache over the same directory sees
    # identical bytes.
    assert ResultCache(tmp_path / "c").digest() == cache.digest() != ""
    # Memory-only caches have no disk bytes to digest.
    assert ResultCache("").digest() == ""


# -- round trip / sharding ----------------------------------------------------


def test_store_round_trip_and_sharding(tmp_path):
    store = ShardStore(tmp_path)
    keys = [f"key-{i}" for i in range(64)]
    for i, k in enumerate(keys):
        assert store.put(k, _record(i))
    for i, k in enumerate(keys):
        assert store.get(k) == _record(i)
    shards = list(tmp_path.glob("shard-??.json"))
    assert 2 <= len(shards) <= ShardStore.SHARDS
    # A fresh instance (new process equivalent) sees everything.
    fresh = ShardStore(tmp_path)
    assert fresh.get(keys[0]) == _record(0)


def test_store_version_mismatch_reads_empty(tmp_path):
    old = ShardStore(tmp_path, version=1)
    old.put("k", _record())
    new = ShardStore(tmp_path, version=2)
    assert new.get("k") is None          # stale format, not trusted
    new.put("k", _record(9))             # rewrite upgrades the shard
    assert ShardStore(tmp_path, version=2).get("k") == _record(9)


# -- integrity / quarantine ---------------------------------------------------


def test_tampered_record_reads_as_miss(tmp_path):
    store = ShardStore(tmp_path)
    store.put("k", _record())
    (path,) = tmp_path.glob("shard-??.json")
    payload = json.loads(path.read_text())
    payload["records"]["k"]["record"]["value"] = 999   # bit-rot / tamper
    path.write_text(json.dumps(payload))
    fresh = ShardStore(tmp_path)
    with pytest.warns(RuntimeWarning, match="integrity"):
        assert fresh.get("k") is None
    assert fresh.integrity_failures == 1


def test_corrupt_shard_quarantined_with_monotonic_suffix(tmp_path):
    store = ShardStore(tmp_path)
    store.put("k", _record())
    (path,) = tmp_path.glob("shard-??.json")
    for expected_suffix in ("", ".1"):
        path.write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert ShardStore(tmp_path).get("k") is None
        assert path.with_name(
            path.name + ".corrupt" + expected_suffix).exists()
    # The store still works after losing the shard twice.
    store2 = ShardStore(tmp_path)
    store2.put("k", _record(5))
    assert store2.get("k") == _record(5)


def test_quarantine_file_never_overwrites(tmp_path):
    target = tmp_path / "f"
    archives = []
    for i in range(3):
        target.write_text(str(i))
        archives.append(quarantine_file(target))
    assert [a.name for a in archives] == ["f.corrupt", "f.corrupt.1",
                                          "f.corrupt.2"]
    assert [a.read_text() for a in archives] == ["0", "1", "2"]


# -- fault injection at the cache boundary ------------------------------------


def test_disk_full_put_degrades_to_memory(tmp_path):
    store = ShardStore(tmp_path)
    with inject_faults(FaultSpec(stage="cache", exc=OSError)):
        with pytest.warns(RuntimeWarning, match="write failed"):
            assert store.put("k", _record()) is False
    assert store.write_errors == 1
    assert store.get("k") is None        # nothing reached disk
    assert store.put("k", _record())     # works once the disk recovers
    assert store.get("k") == _record()


def test_torn_write_quarantined_on_next_read(tmp_path):
    store = ShardStore(tmp_path)
    store.put("k0", _record())
    with inject_faults(FaultSpec(stage="cache", mode="truncate")):
        store.put("k1", _record(1))      # write succeeds... half of it
    fresh = ShardStore(tmp_path)
    with pytest.warns(RuntimeWarning, match="corrupt"):
        fresh.get("k1")
    assert fresh.quarantined >= 1


# -- concurrent writers -------------------------------------------------------


def _concurrent_put(args):
    root, n = args
    store = ShardStore(root)
    # Same shard for every worker: "c0".."c9" may spread, so force
    # contention by writing ALL keys from every process.
    for i in range(10):
        store.put(f"c{i}", {"writer": n, "i": i})
    return True


def test_multiprocess_puts_merge_not_clobber(tmp_path):
    with mp.get_context("fork").Pool(4) as pool:
        assert all(pool.map(_concurrent_put,
                            [(tmp_path, n) for n in range(4)]))
    store = ShardStore(tmp_path)
    for i in range(10):
        rec = store.get(f"c{i}")
        assert rec is not None and rec["i"] == i   # no lost keys


# -- ResultCache over the store ----------------------------------------------


def test_result_cache_sharded_backend(tmp_path):
    cache = ResultCache(tmp_path / "store")
    result = AppResult("ATAX", "baseline", "max", "test",
                       total_cycles=123, kernels={})
    key = ResultCache.key("ATAX", "baseline", "max", "test")
    cache.put(key, result)
    fresh = ResultCache(tmp_path / "store")
    got = fresh.get(key)
    assert got is not None and got.total_cycles == 123
    # A ``.json`` suffix is just a directory name: there is one backend.
    ResultCache(tmp_path / "named.json").put(key, result)
    assert (tmp_path / "named.json").is_dir()


def test_result_cache_rejects_a_file_path(tmp_path):
    """The cache is a directory of shards; a path naming an existing file
    (e.g. a single-file JSON cache) is an error, not a silently dead cache."""
    path = tmp_path / "results.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="directory"):
        ResultCache(path)
