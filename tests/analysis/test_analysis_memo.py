"""``analyze_kernel`` memoizes on the kernel's content and the launch.

Equal kernels share one analysis, so its loop statements may belong to
another caller's kernel: transforms resolve each ``loop_id`` in their own
kernel (``loop_statements``).  The §5.1.4 overhead table always times a
fresh analysis."""

import dataclasses
import hashlib

import pytest

from repro.analysis import analyze_kernel, find_loops
from repro.analysis.loops import loop_statements
from repro.analysis.throttle import candidate_ns
from repro.experiments.common import SPECS
from repro.experiments.overhead import build_overhead
from repro.frontend import emit, parse
from repro.frontend.parser import parse_memo
from repro.memo import clear_memos
from repro.obs.metrics_registry import MetricsRegistry, install
from repro.sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K
from repro.transform import catt_compile, force_throttle
from repro.transform.diagnostics import I_SKIP_LOOP
from repro.transform.validate import STATIC_SAFE
from repro.transform.warp_throttle import split_loop_for_warp_groups
from repro.workloads import WORKLOADS, get_workload


@pytest.fixture
def counters():
    reg = MetricsRegistry(enabled=True)
    previous = install(reg)

    def read(name: str) -> int:
        return reg.snapshot()["counters"].get(
            f"analysis.analyze_kernel.cache_{name}", 0)

    yield read
    install(previous)


def _twin(source: str):
    """An equal unit parsed separately from ``parse(source)``'s."""
    unit = parse(source)
    parse_memo.clear()
    twin = parse(source)
    assert twin == unit and twin is not unit
    return unit, twin


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


def test_equal_but_distinct_kernel_hits(atax_src, counters):
    unit, twin = _twin(atax_src)
    kernel, twin_kernel = unit.kernel("atax_kernel1"), twin.kernel(
        "atax_kernel1")
    assert twin_kernel is not kernel
    first = analyze_kernel(unit, "atax_kernel1", 256, TITAN_V_SIM, grid=2)
    second = analyze_kernel(twin, "atax_kernel1", 256, TITAN_V_SIM, grid=2)
    assert second is first
    assert (counters("misses"), counters("hits")) == (1, 1)
    # The shared analysis holds the first kernel's statements; the twin
    # resolves the same loop_id to its own.
    assert second.kernel is kernel
    (rec,) = second.kernel_loops.loops
    assert loop_statements(kernel)[rec.loop_id] is rec.stmt
    twin_loop = loop_statements(twin_kernel)[rec.loop_id]
    assert twin_loop is not rec.stmt and twin_loop == rec.stmt


@pytest.mark.parametrize("app,kernel", [("ATAX", "atax_kernel1"),
                                        ("MVT", "mvt_kernel1")])
def test_equal_unit_keeps_its_warp_split(app, kernel, counters):
    """An analysis memoized from one unit drives the Fig. 4 split of an
    equal, separately parsed unit: the split resolves loop 0 in the unit
    it transforms, so it is neither skipped nor misplaced."""
    wl = get_workload(app, "test")
    launches = dict(wl.launch_configs())
    unit, twin = _twin(wl.source())
    for name, (grid, block) in launches.items():
        analyze_kernel(unit, name, block, TITAN_V_SIM_32K, grid=grid)
    comp = catt_compile(twin, launches, TITAN_V_SIM_32K, validate=True)
    assert (counters("misses"), counters("hits")) == \
        (len(launches), len(launches))
    t = comp.transforms[kernel]
    assert t.warp_splits == [(0, 4)]
    # The static proof matches the split in the twin's own kernel.
    assert t.transformed and t.validation.status == STATIC_SAFE
    codes = [d.code for d in comp.diagnostics]
    assert I_SKIP_LOOP not in codes
    direct = catt_compile(unit, launches, TITAN_V_SIM_32K, validate=True)
    assert emit(comp.unit) == emit(direct.unit)
    assert codes == [d.code for d in direct.diagnostics]


# ``emit`` digests of ``force_throttle(..., n, 0)`` for the kernels with
# several top-level loops, pinned before loops were found by ``loop_id``.
# Each split adds loops, so an id resolved in the partly split kernel
# instead of the untransformed one would split the wrong loop.  HW and LUD
# run one warp per TB in the registry, so they are split at 128 threads;
# LUD's loops hold barriers and refuse the split.
FORCED_DIGESTS = {
    ("HW", "hw_track", 128, 2): "47595de9eef5410f",
    ("HW", "hw_track", 128, 4): "edc58ebb8c607de8",
    ("LUD", "lud_diagonal", 128, 2): "WarpSplitError",
    ("LUD", "lud_diagonal", 128, 4): "WarpSplitError",
    ("PF", "pf_likelihood", None, 2): "6fd4159c0c389523",
    ("PF", "pf_likelihood", None, 4): "1b0b20be800a7d48",
    ("PF", "pf_likelihood", None, 8): "6e15f9baf8c6bf3b",
    ("PF", "pf_likelihood", None, 16): "3d1ed8243958905e",
}


@pytest.mark.parametrize("spec", ["max", "32k"])
def test_forced_splits_match_their_digests(spec):
    got = {}
    for app, name, threads in {k[:3] for k in FORCED_DIGESTS}:
        wl = get_workload(app, "test")
        unit = wl.unit()
        grid, block = dict(wl.launch_configs())[name]
        block = threads or block
        warps = analyze_kernel(unit, name, block, SPECS[spec],
                               grid=grid).occupancy.warps_per_tb
        for n in candidate_ns(warps)[1:]:
            try:
                out = force_throttle(unit, name, block, SPECS[spec], n, 0,
                                     grid=grid)
                digest = hashlib.sha256(
                    emit(out.kernel(name)).encode()).hexdigest()[:16]
            except ValueError as exc:
                digest = type(exc).__name__
            got[app, name, threads, n] = digest
    assert got == FORCED_DIGESTS


@pytest.mark.parametrize("scale", ["test", "bench"])
def test_loop_statements_follow_find_loops(scale):
    for app in WORKLOADS:
        wl = get_workload(app, scale)
        unit = wl.unit()
        for name, (grid, block) in wl.launch_configs().items():
            kernel = unit.kernel(name)
            loops = loop_statements(kernel)
            records = find_loops(kernel).loops
            assert len(loops) == len(records)
            assert all(loops[r.loop_id] is r.stmt for r in records)


def test_loop_records_are_frozen(atax_src):
    kernel_loops = find_loops(parse(atax_src).kernel("atax_kernel1"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernel_loops.loops[0].contains_sync = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernel_loops.loops = ()


def _compile_records(requests) -> list:
    """Compile, analyse and run validated CATT per (app, spec) request, as
    the compile-registry benchmark does."""
    out = []
    for app, spec in requests:
        wl = get_workload(app, "bench")
        launches = dict(wl.launch_configs())
        unit = parse(wl.source())
        tlps = {name: [la.decision.tlp for la in analyze_kernel(
                    unit, name, block, SPECS[spec], grid=grid).loops]
                for name, (grid, block) in launches.items()}
        comp = catt_compile(unit, launches, SPECS[spec], validate=True)
        out.append(((app, spec), tlps, [
            (name, t.warp_splits, t.transformed,
             t.validation.status if t.validation else None)
            for name, t in comp.transforms.items()],
            [d.code for d in comp.diagnostics]))
    return sorted(out)


def test_request_order_does_not_change_the_records():
    requests = [(app, spec) for app in ("ATAX", "BFS", "GSMV", "MVT")
                for spec in ("max", "32k")]
    forward = _compile_records(requests)
    clear_memos()
    assert _compile_records(requests[::-1]) == forward
    assert any(splits for _, _, kernels, _ in forward
               for _, splits, _, _ in kernels)


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
