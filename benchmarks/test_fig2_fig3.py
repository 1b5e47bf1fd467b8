"""Figure 2 (requests over time) and Figure 3 (TLP vs footprint) regenerators."""

from conftest import run_once

from repro.experiments.fig2 import build_fig2, format_fig2, phase_summary
from repro.experiments.fig3 import FILL_POINTS, best_tlp, build_fig3, format_fig3


def test_fig2(benchmark, scale, emit_report):
    data = run_once(benchmark, build_fig2, scale=scale)
    emit_report("fig2", format_fig2(data))
    if scale != "bench":
        return  # shape assertions are calibrated for bench-scale inputs

    # Divergent CS apps show heavy post-coalescing traffic somewhere.
    for app in ("ATAX", "BICG", "MVT", "GSMV"):
        assert max(y for _, y in data[app]) >= 16, app

    # ATAX's two contrasting phases (§3.2): divergent first kernel, coalesced
    # second kernel.
    phases = phase_summary(data["ATAX"], buckets=8)
    assert max(phases[:4]) > 4 * max(min(p for p in phases[4:] if p > 0), 0.5)

    # BFS stays modest per instruction (sparse neighbour lists).
    assert max(y for _, y in data["BFS"]) <= 32


def test_fig3(benchmark, emit_report):
    data = run_once(benchmark, build_fig3)
    emit_report("fig3", format_fig3(data))

    for fill in FILL_POINTS:
        curve = data[fill]
        best = best_tlp(curve)
        # The minimum sits at the fill point, and both curve ends are
        # worse — §3.3's trade-off.
        assert best == fill, (fill, curve)
        assert curve[1] > curve[best]
        assert curve[32] > curve[best]
