"""``analyze_kernel`` memoizes on the kernel object's identity and the
launch; budgeted calls and equal-but-distinct kernels analyse afresh, and
the §5.1.4 overhead table always times a fresh analysis."""

import pytest

from repro.analysis import SearchBudget, analyze_kernel
from repro.experiments.overhead import build_overhead
from repro.frontend import parse
from repro.frontend.parser import clear_parse_cache
from repro.obs.metrics_registry import MetricsRegistry, install
from repro.sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K
from repro.transform import catt_compile
from repro.transform.warp_throttle import split_loop_for_warp_groups
from repro.workloads import get_workload


@pytest.fixture
def counters():
    reg = MetricsRegistry(enabled=True)
    previous = install(reg)

    def read(name: str) -> int:
        return reg.snapshot()["counters"].get(
            f"analysis.analyze_kernel.cache_{name}", 0)

    yield read
    install(previous)


def test_hit_returns_the_callers_own_loop_statements(atax_src, counters):
    unit = parse(atax_src)
    first = analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=2)
    again = analyze_kernel(unit, "atax_kernel1", (256, 1, 1), TITAN_V_SIM,
                           grid=(2, 1, 1))
    assert again is first
    assert (counters("misses"), counters("hits")) == (1, 1)
    # The warp split finds the loop statement by identity in the kernel.
    kernel = unit.kernel("atax_kernel1")
    loop = again.loops[0].record.stmt
    split = split_loop_for_warp_groups(kernel, loop, 2,
                                       again.occupancy.warps_per_tb,
                                       again.block_dim)
    assert split != kernel
    assert isinstance(again.loops, tuple)
    assert isinstance(again.loops[0].localities, tuple)


def test_every_key_part_separates_entries(atax_src, counters):
    unit = parse(atax_src)
    base = analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=2)
    others = [
        analyze_kernel(unit, "atax_kernel1", 128, TITAN_V_SIM, grid=2),
        analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=4),
        analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM_32K, grid=2),
        analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=2,
                       irregular_req=32),
    ]
    assert all(a is not base for a in others)
    assert (counters("misses"), counters("hits")) == (5, 0)


def test_equal_but_distinct_kernel_misses(atax_src, counters):
    unit = parse(atax_src)
    first = analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=2)
    clear_parse_cache()
    twin = parse(atax_src)
    assert twin == unit and twin.kernel("atax_kernel1") \
        is not unit.kernel("atax_kernel1")
    second = analyze_kernel(twin, "atax_kernel1", 256, TITAN_V_SIM, grid=2)
    assert second is not first
    assert (counters("misses"), counters("hits")) == (2, 0)
    # Each analysis holds its own kernel's loop statements.
    assert second.loops[0].record.stmt is not first.loops[0].record.stmt
    assert second.kernel is twin.kernel("atax_kernel1")


def test_budgeted_call_bypasses_the_memo(atax_src, counters):
    unit = parse(atax_src)
    cached = analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=2)
    budgeted = analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=2,
                              budget=SearchBudget(max_candidates=1))
    assert budgeted is not cached
    assert analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM,
                          grid=2) is cached
    assert (counters("misses"), counters("hits")) == (1, 1)


def test_overhead_table_times_fresh_analyses(counters):
    apps = ["ATAX", "GSMV"]
    for app in apps:  # warm both memos with the very same kernels
        wl = get_workload(app, "test")
        catt_compile(wl.unit(), dict(wl.launch_configs()), TITAN_V_SIM)
    warm = counters("misses")
    rows = build_overhead(apps=apps, scale="test")
    kernels = sum(r.kernels for r in rows)
    assert counters("misses") - warm == kernels
    assert counters("hits") == 0
