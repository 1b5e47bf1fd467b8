"""Experiment-harness robustness: atomic cache writes, corrupt-cache
recovery, and figure sweeps that keep going past degraded cells."""

import json
import re

import pytest

from repro.experiments.common import AppResult, ResultCache, run_app
from repro.experiments.fig7 import build_fig7
from repro.testing import FaultSpec, inject_faults


def _result(app="GSMV", scheme="baseline", cycles=100):
    return AppResult(app=app, scheme=scheme, spec="max", scale="test",
                     total_cycles=cycles, kernels={})


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


def test_cache_write_is_atomic_no_stragglers(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for i in range(5):
        cache.put(f"k{i}", _result(cycles=i + 1))
    # Every put replaced one shard whole; no temp files survive, only
    # shards and their lock files.
    names = [p.name for p in (tmp_path / "cache").iterdir()]
    assert names and all(
        re.fullmatch(r"shard-[0-9a-f]{2}\.json|\.shard-[0-9a-f]{2}\.lock", n)
        for n in names), names
    reloaded = ResultCache(tmp_path / "cache")
    assert reloaded.get("k4").total_cycles == 5


def _only_shard(root):
    (shard,) = root.glob("shard-??.json")
    return shard


def test_corrupt_cache_archived_and_recovered(tmp_path):
    root = tmp_path / "cache"
    ResultCache(root).put("k", _result())
    shard = _only_shard(root)
    shard.write_text('{"records": {"k": {"app": truncated')
    cache = ResultCache(root)
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert cache.get("k") is None
    # Fresh start: the bad shard is preserved for forensics, not deleted.
    assert shard.with_name(shard.name + ".corrupt").exists()
    assert not shard.exists()
    # The cache is fully usable afterwards.
    cache.put("k", _result())
    assert ResultCache(root).get("k").total_cycles == 100


def test_repeated_corruption_archives_monotonically(tmp_path):
    """A second (and third) corrupt shard must never overwrite the archived
    evidence of the first: suffixes count up (.corrupt, .corrupt.1, ...)."""
    root = tmp_path / "cache"
    ResultCache(root).put("k", _result())
    shard = _only_shard(root)
    expected = [shard.name + suffix
                for suffix in (".corrupt", ".corrupt.1", ".corrupt.2")]
    for name in expected:
        shard.write_text(f'{{"broken": {name}')   # unique corrupt bytes
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert ResultCache(root).get("k") is None
        assert (root / name).exists()
    # All three pieces of evidence survived, each with its own content.
    archives = sorted(p.name for p in root.glob(shard.name + ".corrupt*"))
    assert archives == expected
    contents = {(root / a).read_text() for a in archives}
    assert len(contents) == 3


def test_wrong_shape_cache_also_archived(tmp_path):
    root = tmp_path / "cache"
    ResultCache(root).put("k", _result())
    shard = _only_shard(root)
    shard.write_text(json.dumps(
        {"version": ResultCache.VERSION, "records": [1, 2, 3]}))  # not a dict
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert ResultCache(root).get("k") is None
    assert shard.with_name(shard.name + ".corrupt").exists()


def test_put_transient_is_memory_only(tmp_path):
    path = tmp_path / "cache"
    cache = ResultCache(path)
    cache.put_transient("temp", _result())
    assert cache.get("temp") is not None
    assert not path.exists()                  # nothing written to disk
    assert ResultCache(path).get("temp") is None


def test_degraded_result_round_trips_diagnostics(tmp_path):
    diag = {"code": "CATT-E-SIM", "stage": "sim", "message": "boom",
            "severity": "error", "elapsed_seconds": 0.1}
    res = AppResult(app="A", scheme="catt", spec="max", scale="test",
                    total_cycles=0, kernels={}, diagnostics=[diag],
                    degraded=True)
    cache = ResultCache(tmp_path / "c")
    cache.put("k", res)
    back = ResultCache(tmp_path / "c").get("k")
    assert back.degraded and back.diagnostics == [diag]


# ---------------------------------------------------------------------------
# Sweeps continue past degraded cells
# ---------------------------------------------------------------------------


def test_fig7_completes_with_degraded_cells(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    # Kill only the CATT cell: its compile still works under a transform
    # fault (resilient), so break the sim boundary for one scheme by
    # pre-running the others clean.
    for scheme in ("baseline", "bftt"):
        run_app("GSMV", scheme, "max", "test", cache)
    with inject_faults(FaultSpec(stage="sim")):
        degraded = run_app("GSMV", "catt", "max", "test", cache)
    assert degraded.degraded
    data = build_fig7(apps=["GSMV"], scale="test", cache=cache)
    # The figure still materializes; the dead cell contributes neutrally.
    assert data["normalized_time"]["GSMV"]["catt"] == 1.0
    assert data["normalized_time"]["GSMV"]["bftt"] < 1.0


def test_fig7_completes_with_dead_baseline(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with inject_faults(FaultSpec(stage="sim")):
        for scheme in ("baseline", "bftt", "catt"):
            run_app("GSMV", scheme, "max", "test", cache)
        data = build_fig7(apps=["GSMV"], scale="test", cache=cache)
    assert set(data["normalized_time"]["GSMV"]) == {"bftt", "catt"}
    assert data["geomean_speedup"]["catt"] == 1.0
