"""Unit coverage for the remaining figure builders (tiny scale, one app)."""

import pytest

from repro.experiments.common import ResultCache
from repro.experiments.fig3 import best_tlp, build_fig3, format_fig3
from repro.experiments.fig6 import build_fig6, format_fig6
from repro.experiments.fig8 import build_fig8, format_fig8
from repro.experiments.fig9 import build_fig9, format_fig9
from repro.experiments.fig10 import build_fig10, format_fig10
from repro.experiments.table3 import build_table3


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "r")


def test_fig3_tiny():
    data = build_fig3(fill_points=(4,), tlps=(4, 32), iters=2, l1d_lines=64)
    assert set(data) == {4}
    assert set(data[4]) == {4, 32}
    assert best_tlp(data[4]) in (4, 32)
    assert "L1D-full-with-4" in format_fig3(data)


def test_fig6_single_app(cache):
    data = build_fig6(apps=["GSMV"], scale="test", cache=cache)
    assert "GSMV#1" in data
    for scheme in ("baseline", "bftt", "catt"):
        assert 0.0 <= data["GSMV#1"][scheme] <= 1.0
    assert "GSMV#1" in format_fig6(data)


def test_fig8_is_fig7_over_ci(cache):
    data = build_fig8(apps=["GEMM"], scale="test", cache=cache)
    assert data["normalized_time"]["GEMM"]["catt"] == 1.0
    assert "CI group" in format_fig8(data)


def test_fig9_curves(cache):
    curves = build_fig9(apps=["GSMV"], scale="test", cache=cache)
    assert len(curves) == 1
    c = curves[0]
    assert c.points[0][0] == "1,0"
    assert c.points[0][1] == 1.0
    assert c.best in dict(c.points)
    assert "GSMV" in format_fig9(curves)


def test_fig10_uses_32k_spec(cache):
    data = build_fig10(apps=["GSMV"], scale="test", cache=cache)
    assert "GSMV" in data["normalized_time"]
    assert "32 KB" in format_fig10(data)
    # The cache must hold 32k-spec entries, not max-spec ones.
    assert cache.get(ResultCache.key("GSMV", "baseline", "32k", "test"))
    assert cache.get(ResultCache.key("GSMV", "baseline", "max", "test")) is None


def test_table3_with_bftt_columns(cache):
    rows = build_table3(apps=["GSMV"], scale="test", include_bftt=True,
                        cache=cache)
    assert all(r.bftt_max is not None for r in rows)
    assert all(r.bftt_32k is not None for r in rows)


def test_cli_compile(tmp_path, capsys):
    from repro.experiments.runner import main

    src = tmp_path / "k.cu"
    src.write_text("""
#define N 1024
__global__ void walk(float *A, float *y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 128; j++) {
        y[i] += A[i * 128 + j];
    }
}
""")
    out = tmp_path / "out.cu"
    ptx = tmp_path / "out.ptx"
    rc = main(["compile", str(src), "--grid", "4", "--block", "256",
               "-o", str(out), "--emit-ptx", str(ptx)])
    assert rc == 0
    text = out.read_text()
    assert "__syncthreads();" in text        # the loop got split
    assert "// CATT report" in text
    assert ".visible .entry walk(" in ptx.read_text()


def test_cli_compile_reports_a_kernel_without_ptx(tmp_path, capsys):
    from repro.experiments.runner import main

    src = tmp_path / "k.cu"
    src.write_text(
        "__global__ void k(float *x, float *y, int n) { "
        "int t = blockIdx.x * blockDim.x + threadIdx.x; "
        "for (int i = 0; i < n; i++) { y[t * 32 + i]++; x[t] += y[t]; } }\n")
    out = tmp_path / "out.cu"
    ptx = tmp_path / "out.ptx"
    rc = main(["compile", str(src), "--grid", "4", "--block", "256",
               "-o", str(out), "--emit-ptx", str(ptx)])
    assert rc == 1
    assert "// CATT report for k:" in out.read_text()
    assert not ptx.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["catt compile: no PTX for kernel 'k': "
                   "++/-- target must be a variable"]


def test_fig7_swl_column_derived_from_sweep(cache):
    from repro.experiments.fig7 import build_fig7

    data = build_fig7(apps=["GSMV"], scale="test", include_swl=True,
                      cache=cache)
    norms = data["normalized_time"]["GSMV"]
    assert "swl" in norms
    # Best-SWL's space is BFTT's restricted to M=0: never better than BFTT.
    assert norms["swl"] >= norms["bftt"] - 1e-9
    assert "swl" in data["geomean_speedup"]
