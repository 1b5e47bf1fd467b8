"""Experiment-harness tests at test scale (fast, cache-isolated)."""

import pytest

from repro.experiments.common import (
    AppResult,
    ResultCache,
    geomean,
    run_app,
)
from repro.experiments.fig2 import build_fig2, format_fig2, phase_summary
from repro.experiments.fig7 import build_fig7, format_fig7
from repro.experiments.table3 import build_table3, catt_loop_tlps, format_table3
from repro.experiments.overhead import build_overhead, format_overhead


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "results")


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0


def test_run_app_baseline_and_cache_roundtrip(cache, tmp_path):
    r1 = run_app("GSMV", "baseline", "max", "test", cache)
    assert r1.total_cycles > 0
    assert r1.mem_trace
    # Second call: served from cache (same object identity via mem cache).
    r2 = run_app("GSMV", "baseline", "max", "test", cache)
    assert r2 is r1
    # Fresh cache object reads the on-disk store.
    cache2 = ResultCache(cache.path)
    r3 = run_app("GSMV", "baseline", "max", "test", cache2)
    assert r3.total_cycles == r1.total_cycles
    assert r3.kernels.keys() == r1.kernels.keys()


def test_run_app_catt_records_loop_tlps(cache):
    r = run_app("GSMV", "catt", "max", "test", cache)
    assert "gesummv_kernel" in r.loop_tlps
    assert r.total_cycles > 0


def test_run_app_bftt_records_sweep(cache):
    r = run_app("GSMV", "bftt", "max", "test", cache)
    assert r.factors is not None
    assert "1,0" in r.sweep
    assert min(e["total"] for e in r.sweep.values()) == r.total_cycles


def test_unknown_scheme_rejected(cache):
    with pytest.raises(ValueError):
        run_app("GSMV", "nope", "max", "test", cache)


def test_fig7_normalization(cache):
    data = build_fig7(apps=["GSMV"], scale="test", cache=cache)
    norm = data["normalized_time"]["GSMV"]
    assert 0 < norm["catt"] <= 1.5
    assert "geomean speedup" in format_fig7(data)


def test_fig2_trace_and_phases(cache):
    data = build_fig2(apps=["GSMV"], scale="test", cache=cache)
    trace = data["GSMV"]
    assert trace and all(1 <= y <= 32 for _, y in trace)
    phases = phase_summary(trace)
    assert len(phases) == 8
    assert format_fig2(data)


def test_phase_summary_empty():
    assert phase_summary([]) == [0.0] * 8


def test_table3_analysis_only(cache):
    rows = build_table3(apps=["GSMV"], scale="test", include_bftt=False,
                        cache=cache)
    assert rows
    row = rows[0]
    assert row.baseline[0] >= row.catt_max[0] or row.baseline[1] >= row.catt_max[1] \
        or row.baseline == row.catt_max
    assert row.bftt_max is None
    assert "GSMV" in format_table3(rows)


def test_catt_loop_tlps_shape():
    tlps = catt_loop_tlps("ATAX", "max", "test")
    assert set(tlps) == {"atax_kernel1", "atax_kernel2"}
    for rows in tlps.values():
        for loop_id, base, tlp in rows:
            assert tlp[0] <= base[0] and tlp[1] <= base[1]


def test_overhead_rows():
    rows = build_overhead(apps=["GSMV", "ATAX"], scale="test")
    assert len(rows) == 2
    assert all(r.seconds < 2.0 for r in rows)   # §5.1.4's bound
    assert "GSMV" in format_overhead(rows)


def test_cli_table2(capsys):
    from repro.experiments.runner import main

    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "GSMV" in out and "LUD" in out


def test_cli_analyze(capsys):
    from repro.experiments.runner import main

    assert main(["analyze", "ATAX", "--scale", "test"]) == 0
    out = capsys.readouterr().out
    assert "atax_kernel1" in out
