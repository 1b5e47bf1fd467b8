"""``catt compare`` tests — the all-schemes comparison table."""

from __future__ import annotations

from repro.experiments.common import SCHEMES, ResultCache
from repro.experiments.compare import (
    COMPARE_SCHEMES,
    build_compare,
    format_compare,
)


def _cache(tmp_path):
    return ResultCache(tmp_path / "results")


def test_compare_schemes_are_registered():
    assert set(COMPARE_SCHEMES) <= set(SCHEMES)
    assert "baseline" not in COMPARE_SCHEMES   # implicit 1.0x column


def test_build_compare_small_subset(tmp_path):
    data = build_compare(apps=["ATAX"], scale="test", cache=_cache(tmp_path))
    assert data["schemes"] == list(COMPARE_SCHEMES)
    assert data["degraded_cells"] == 0
    [row] = data["rows"]
    assert row.app == "ATAX" and row.baseline_cycles > 0
    # Every scheme produced a real (non-degraded, nonzero) cell.
    assert set(row.speedups) == set(COMPARE_SCHEMES)
    assert all(v > 0 for v in row.speedups.values())
    assert row.degraded == ()
    # The dynamic/cache-side schemes surfaced their mechanism activity.
    assert "ata" in row.extras
    assert row.extras["ata"].get("ata_first_touch_bypasses", 0) > 0
    for s in COMPARE_SCHEMES:
        assert data["geomean_speedup"][s] > 0


def test_build_compare_reuses_cache(tmp_path):
    cache = _cache(tmp_path)
    first = build_compare(apps=["ATAX"], scale="test", cache=cache)
    again = build_compare(apps=["ATAX"], scale="test", cache=cache)
    assert [r.speedups for r in first["rows"]] == \
        [r.speedups for r in again["rows"]]
    # Extras survive the cache round trip (AppResult.extras is persisted).
    assert [r.extras for r in first["rows"]] == \
        [r.extras for r in again["rows"]]


def test_format_compare_table(tmp_path):
    data = build_compare(apps=["ATAX"], scale="test", cache=_cache(tmp_path))
    text = format_compare(data)
    assert "ATAX" in text
    assert "geomean" in text
    for s in COMPARE_SCHEMES:
        assert s in text
    assert "DEGRADED" not in text
    assert "WARNING" not in text


def test_format_compare_marks_degraded_cells(tmp_path):
    data = build_compare(apps=["ATAX"], scale="test", cache=_cache(tmp_path))
    row = data["rows"][0]
    row.degraded = ("ciao",)
    row.speedups["ciao"] = 0.0
    data["degraded_cells"] = 1
    text = format_compare(data)
    assert "DEGRADED" in text
    assert "WARNING" in text
