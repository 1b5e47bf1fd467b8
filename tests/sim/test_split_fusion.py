"""Warp-split fusion on the tape engine.

The Fig. 4 warp split turns one loop into N copies, each guarded by a range
of warp ids and followed by ``__syncthreads()``.  When the loop writes no
memory, or its stores are proved race-free, the tape runs the copies as one
masked loop and splices each warp's loop events back between its own copy's
guard and barrier (``TapeExecutor._split``).  The proof is the race
analysis's PROVED-SAFE verdict on every (array, barrier interval) the loop
touches in the kernel with the copies replaced by the one loop, at the
launch's block and grid.  The splice must be exact:

* for every kernel that a BFTT candidate with N > 1, ``catt_compile`` or the
  Fig. 3 microbenchmark splits, at test scale under both L1D specs, every
  timed warp's event list and the device memory after each launch equal the
  record made with fusion declined (the handler is monkeypatched to decline;
  no option selects it), and results equal the AST interpreter's;
* hand-written regions that must not fuse (a loop whose stores another
  warp group reads or writes, also by an increment or through a local
  pointer; pointer arguments bound to one allocation; a proof that fails; a
  warp in two copies; atomics; ``__device__`` calls; the sanitizer) still
  run copy by copy and match the interpreter, while loops that only read
  ``__shared__`` data or store race-free fuse;
* an array the kernel touches only outside the loop does not block fusion,
  and one the race analysis leaves UNKNOWN inside it does.

Every run pins ``SimOptions`` explicitly: a process-wide engine choice set
before the suite runs must not change what these tests compare.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dataflow import races
from repro.analysis.dataflow.races import (
    UNKNOWN,
    analyze_races,
    loop_conflicts,
)
from repro.analysis.kernel_info import analyze_kernel
from repro.baselines.bftt import apply_fixed_throttle, candidate_factors
from repro.experiments.common import SPECS
from repro.obs import metrics_registry
from repro.options import SimOptions, use_options
from repro.runtime import Device, device
from repro.sim import launch, tape
from repro.sim.arch import TITAN_V, as_dim3
from repro.transform import catt_compile
from repro.workloads import WORKLOADS, get_workload
from repro.workloads.base import run_workload
from repro.workloads.microbench import run_microbench

TAPE = SimOptions()
INTERP = SimOptions(engine="interp", dedup=False)
# Apps whose split loops must keep taking the fused path.
MUST_FUSE = {"KM", "PF", "GRAM", "CORR", "LVMD", "MVT", "SYRK"}


def _observe(monkeypatch, run, options: SimOptions, fuse: bool = True):
    """Run ``run()`` under ``options`` on a cold record memo.

    Returns the launches (kernel, metrics summary, every allocation's bytes
    after the launch), the per-warp event streams of every tape record, and
    the ``sim.tape.split_{fused,unfused}`` counts.
    """
    launches: list = []
    records: list = []
    real_launch = device.launch_kernel
    real_record = tape.record_tape_streams
    real_split = tape.TapeExecutor._split

    def observe_launch(*args, **kwargs):
        result = real_launch(*args, **kwargs)
        launches.append((result.kernel_name, result.metrics.summary(),
                         [a.buffer.tobytes() for a in args[5]._allocs]))
        return result

    def observe_record(*args, **kwargs):
        streams, shadows = real_record(*args, **kwargs)
        records.append(streams)
        return streams, shadows

    def declined(self, u, cur, frame):
        real_split(self, (*u[:6], False, u[7]), cur, frame)

    reg = metrics_registry.MetricsRegistry(enabled=True)
    prev = metrics_registry.install(reg)
    launch.record_memo.clear()
    try:
        with monkeypatch.context() as m, use_options(options):
            m.setattr(device, "launch_kernel", observe_launch)
            m.setattr(tape, "record_tape_streams", observe_record)
            if not fuse:
                m.setattr(tape.TapeExecutor, "_split", declined)
            run()
    finally:
        metrics_registry.install(prev)
        launch.record_memo.clear()
    counts = {k: reg.counter(f"sim.tape.split_{k}").value
              for k in ("fused", "unfused")}
    return launches, records, counts


def _fusable(unit, kernels) -> bool:
    """Does any of ``kernels`` lower to a split region that may fuse?"""
    return any(u[0] == tape.OP_SPLIT and u[6]
               for k in kernels for u in tape.lower_kernel(unit, k).uops)


def _split_units(app: str, spec) -> list:
    """The units that BFTT's candidates with N > 1 and ``catt_compile``
    make of ``app``, keeping those with a region that may fuse (in the
    others both paths run the same copy-by-copy code)."""
    wl = get_workload(app, "test")
    kernels = list(wl.launch_configs())
    units = [catt_compile(wl.unit(), dict(wl.launch_configs()), spec).unit]
    for n, m in candidate_factors(wl, spec, max_tb_reductions=2):
        if n > 1:
            try:
                units.append(apply_fixed_throttle(wl, spec, n, m))
            except ValueError:
                continue  # BFTT skips a candidate it cannot express
    return [u for u in units if _fusable(u, kernels)]


@pytest.mark.parametrize("app", sorted(WORKLOADS))
def test_fused_regions_record_the_unfused_streams(app, monkeypatch):
    fused = 0
    checked_interp = False
    for spec in SPECS.values():
        for unit in _split_units(app, spec):
            def run():
                run_workload(get_workload(app, "test"), spec, unit=unit)

            got = _observe(monkeypatch, run, TAPE)
            want = _observe(monkeypatch, run, TAPE, fuse=False)
            assert got[1] == want[1], f"{app}: fused streams differ"
            assert got[0] == want[0], f"{app}: fused results differ"
            assert want[2]["fused"] == 0
            fused += got[2]["fused"]
            if got[2]["fused"] and not checked_interp:
                ref = _observe(monkeypatch, run, INTERP)
                assert got[0] == ref[0], f"{app}: fused tape != interp"
                checked_interp = True
    if app in MUST_FUSE:
        assert fused > 0, f"{app}: no split region took the fused path"


def test_fig3_fuses_and_matches_interp(monkeypatch):
    def run():
        for tlp in (1, 2, 4, 8, 16):
            run_microbench(16, tlp, iters=1)

    got = _observe(monkeypatch, run, TAPE)
    want = _observe(monkeypatch, run, TAPE, fuse=False)
    assert got[2] == {"fused": 5, "unfused": 0}
    assert want[2] == {"fused": 0, "unfused": 5}
    assert got[1] == want[1]
    assert got[0] == want[0]
    assert got[0] == _observe(monkeypatch, run, INTERP)[0]


# ---------------------------------------------------------------------------
# Hand-written split regions
# ---------------------------------------------------------------------------

THREADS = 128  # four warps per TB
ITEMS = 8


def _split_source(w: str, cuts: tuple[int, ...], loop: str,
                  prologue: str = "", helper: str = "") -> str:
    """A kernel holding ``loop`` split into copies guarded by ``W`` ranges
    ``[cuts[i], cuts[i + 1])`` -- the shape the Fig. 4 transform emits."""
    copies = "".join(
        f"    if ({w} >= {lo} && {w} < {hi}) {{\n        {loop}\n    }}\n"
        "    __syncthreads();\n"
        for lo, hi in zip(cuts, cuts[1:]))
    return f"""
{helper}
__global__ void k(float *x, float *out, float *y) {{
    __shared__ float sh[{THREADS}];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    float acc = 0.0f;
{prologue}
{copies}
    out[gid] += acc;
}}
"""


def _loop(body: str) -> str:
    return f"for (int j = 0; j < {ITEMS}; j++) {{ {body} }}"


WARP = "threadIdx.x / 32"
STAGE = "    sh[tid] = x[gid];"
SHARED_READ = _loop(f"acc += sh[(tid + 32 * j) % {THREADS}];")
# Only the loops of (a)-(c) touch ``y``; each TB owns 2 * THREADS elements
# of it from BASE on.
BASE = f"blockIdx.x * {2 * THREADS}"
KERNELS = {
    # (a) warps 2-3 read in the loop what warps 0-1 store in it: run as
    # written they see the stored values, in lockstep the old ones
    "cross_group_read": (_split_source(
        WARP, (0, 2, 4),
        _loop(f"y[{BASE} + tid + 64] += x[gid * {ITEMS} + j]; "
              f"acc += y[{BASE} + tid];")),
        False),
    # (b) thread t of warps 0-1 and thread t + 64 of warps 2-3 add into one
    # element (the analysis cannot separate ``tid % 64``: UNKNOWN)
    "cross_group_write": (_split_source(
        WARP, (0, 2, 4),
        _loop(f"y[{BASE} + tid % 64] += x[gid * {ITEMS} + j];")),
        False),
    # (a) and (b) with increments, which store as ``+=`` does
    "cross_group_read_inc": (_split_source(
        WARP, (0, 2, 4),
        _loop(f"y[{BASE} + tid + 64]++; acc += y[{BASE} + tid];")),
        False),
    "cross_group_write_inc": (_split_source(
        WARP, (0, 2, 4), _loop(f"++y[{BASE} + tid % 64];")),
        False),
    # (c) as (a), storing through a local pointer: the analysis resolves
    # ``row`` to ``y``, which a match on array names would miss
    "local_pointer": (_split_source(
        WARP, (0, 2, 4),
        _loop(f"row[tid] += x[gid * {ITEMS} + j]; "
              f"acc += y[{BASE} + tid];"),
        prologue=f"    float *row = y + {BASE} + 64;"),
        False),
    # (d) each thread stores only its own element: race-free, so it fuses
    "store": (_split_source(
        WARP, (0, 2, 4), _loop(f"out[gid] += x[gid * {ITEMS} + j];")),
        True),
    # (e) half-warp guards: warp 1 has lanes in both copies, and merging its
    # two loop segments into one would change its memory events
    "half_warp": (_split_source(
        "threadIdx.x / 16", (0, 3, 8), _loop(f"acc += x[gid * {ITEMS} + j];")),
        False),
    # (f) the loop makes an atomic update or calls a __device__ function
    "atomic": (_split_source(
        WARP, (0, 1, 2, 3, 4),
        _loop(f"atomicAdd(&out[0], x[gid * {ITEMS} + j]);")),
        False),
    "device_call": (_split_source(
        WARP, (0, 2, 4), _loop(f"acc += twice(x[gid * {ITEMS} + j]);"),
        helper="__device__ float twice(float v) { return 2.0f * v; }"),
        False),
    # (g) the loop only reads __shared__ data staged before the region;
    # uneven groups, and warp 3 belongs to no copy
    "shared_read": (_split_source(
        WARP, (0, 1, 3), SHARED_READ,
        prologue=STAGE + "\n    __syncthreads();"),
        True),
}


def _launch(src: str, results: list, alias: bool = False):
    """Two TBs on the full part: TB 0 is timed, TB 1 runs untimed.  With
    ``alias`` one allocation is bound to both ``x`` and ``y``."""
    def run():
        dev = Device(TITAN_V)
        x = dev.to_device(np.arange(2 * THREADS * ITEMS, dtype=np.float32))
        out = dev.zeros(2 * THREADS, np.float32)
        y = x if alias else dev.zeros(4 * THREADS, np.float32)
        results.append(dev.launch(src, "k", 2, THREADS, [x, out, y]))
    return run


@pytest.mark.parametrize("case", sorted(KERNELS))
def test_hand_written_regions_match_interp(case, monkeypatch):
    src, fuses = KERNELS[case]
    results: list = []
    got = _observe(monkeypatch, _launch(src, results), TAPE)
    ref = _observe(monkeypatch, _launch(src, results), INTERP)
    assert got[0] == ref[0]
    assert [r.engine for r in results] == ["tape", "interp"]
    if fuses:
        assert got[2] == {"fused": 1, "unfused": 0}
    else:
        assert got[2] == {"fused": 0, "unfused": 1}


@pytest.mark.parametrize("alias", [False, True])
def test_aliased_pointer_arguments_keep_the_copies(alias, monkeypatch):
    """Each thread stores its own element of ``y`` and reads ``x``: proved
    race-free, so it fuses.  The proof takes each pointer parameter for its
    own array, so a launch that binds one allocation to ``x`` and ``y``
    runs the copies as written: there warps 0-1 read in the loop the
    elements that warps 2-3 store."""
    src = _split_source(WARP, (0, 2, 4), _loop(
        f"y[{BASE} + tid] += x[{BASE} + tid + 64];"))
    results: list = []
    got = _observe(monkeypatch, _launch(src, results, alias), TAPE)
    ref = _observe(monkeypatch, _launch(src, results, alias), INTERP)
    assert got[0] == ref[0]
    if alias:
        assert got[2] == {"fused": 0, "unfused": 1}
    else:
        assert got[2] == {"fused": 1, "unfused": 0}


def test_failed_proof_runs_the_copies(monkeypatch):
    """A proof that raises proves nothing: the launch runs (d)'s copies as
    written instead of failing."""
    def broken(analysis, loop):
        raise RuntimeError("prover failure")

    monkeypatch.setattr(races, "loop_conflicts", broken)
    src = KERNELS["store"][0]
    results: list = []
    got = _observe(monkeypatch, _launch(src, results), TAPE)
    ref = _observe(monkeypatch, _launch(src, results), INTERP)
    assert got[2] == {"fused": 0, "unfused": 1}
    assert got[0] == ref[0]
    assert [r.engine for r in results] == ["tape", "interp"]


@pytest.mark.parametrize("staged", ["barrier", "race"])
def test_sanitized_launch_runs_the_copies(staged, monkeypatch):
    """(h) The sanitizer counts barrier intervals, so its launches run the
    copies one after another.  Without the barrier after the staging store,
    only the first copy's reads share the store's interval; fused, every
    loop would run after all the barriers and no race would show."""
    barrier = "\n    __syncthreads();" if staged == "barrier" else ""
    prologue = STAGE + barrier
    src = _split_source(WARP, (0, 1, 2, 3, 4), SHARED_READ, prologue=prologue)
    results: list = []
    got = _observe(monkeypatch, _launch(src, results),
                   SimOptions(sanitize=True))
    ref = _observe(monkeypatch, _launch(src, results),
                   SimOptions(engine="interp", dedup=False, sanitize=True))
    assert got[2] == {"fused": 0, "unfused": 1}
    tape_san, interp_san = (r.sanitizer for r in results)
    assert (tape_san.accesses, tape_san.truncated) == (3072, False)
    assert interp_san.report_count == tape_san.report_count
    if staged == "barrier":
        assert got[0] == ref[0]
        assert tape_san == interp_san
        assert tape_san.report_count == 0
    else:
        # The copy-by-copy verdict: one race per TB, between warp 1's store
        # and a warp-0 read in barrier interval 0.  (The racy kernel's
        # results depend on the warp schedule, so interp may differ.)
        assert [(r.tb, r.epoch, r.word, r.kind, r.first, r.second)
                for r in tape_san.reports] == [
            ((tb, 0, 0), 0, 0x80, "write-read", (1, 0, "write"),
             (0, 0, "read"))
            for tb in (0, 1)]


def test_sanitized_launch_runs_proved_storing_copies(monkeypatch):
    """A storing loop the proof lets fuse still runs copy by copy under the
    sanitizer, and its verdict equals the interpreter's."""
    src = KERNELS["store"][0]
    results: list = []
    got = _observe(monkeypatch, _launch(src, results),
                   SimOptions(sanitize=True))
    ref = _observe(monkeypatch, _launch(src, results),
                   SimOptions(engine="interp", dedup=False, sanitize=True))
    assert got[2] == {"fused": 0, "unfused": 1}
    assert got[0] == ref[0]
    tape_san, interp_san = (r.sanitizer for r in results)
    assert tape_san == interp_san
    assert tape_san.report_count == 0


def _candidate_run(app: str, spec, n: int, m: int):
    unit = apply_fixed_throttle(get_workload(app, "test"), spec, n, m)
    return unit, lambda: run_workload(get_workload(app, "test"), spec,
                                      unit=unit)


def test_array_touched_outside_the_loop_does_not_block_fusion(monkeypatch):
    """Fig. 5's dummy ``__shared__`` array is UNKNOWN in every (N, M > 0)
    candidate, but only the code around the split loop touches it, so
    SYRK's (8, 1) candidate still fuses."""
    spec = SPECS["max"]
    assert (8, 1) in candidate_factors(get_workload("SYRK", "test"), spec,
                                       max_tb_reductions=2)
    unit, run = _candidate_run("SYRK", spec, 8, 1)
    (grid, block), = get_workload("SYRK", "test").launch_configs().values()
    report = analyze_races(analyze_kernel(unit, "syrk_kernel", block, spec,
                                          grid=grid))
    assert {v.verdict for v in report.verdicts
            if v.array == "__catt_dummy_shared"} == {UNKNOWN}
    got = _observe(monkeypatch, run, TAPE)
    assert got[2] == {"fused": 1, "unfused": 0}
    assert got[0] == _observe(monkeypatch, run, TAPE, fuse=False)[0]


def test_unknown_store_in_the_loop_keeps_hp_copies(monkeypatch):
    """HP's split loop stores ``tOut``, which the race analysis leaves
    UNKNOWN (its loop also holds ternaries, the lowerer's own blocker): every
    HP candidate runs its copies as written."""
    wl = get_workload("HP", "test")
    (grid, block), = wl.launch_configs().values()
    spec = SPECS["max"]
    analysis = analyze_kernel(wl.unit(), "hotspot_kernel", block, spec,
                              grid=grid)
    assert [v.array for v in analyze_races(analysis).unknowns()] == ["tOut"]
    (record,) = analysis.kernel_loops.loops
    assert loop_conflicts(analysis, record.stmt)
    for n, m in candidate_factors(wl, spec, max_tb_reductions=2):
        if n > 1:
            got = _observe(monkeypatch, _candidate_run("HP", spec, n, m)[1],
                           TAPE)
            assert got[2]["fused"] == 0 and got[2]["unfused"] > 0


def test_unknown_store_in_the_loop_keeps_the_validators_copies():
    """At bench scale under the 32 KB L1D, CATT splits BFS's
    ``bfs_kernel1`` loop, which stores ``cost`` and ``updating``: UNKNOWN,
    so the validator's tape runs the transformed kernel's copies as written.
    The proof is kept on the program that every equal kernel shares."""
    tape.lowering_memo.clear()
    spec = SPECS["32k"]
    wl = get_workload("BFS", "bench")
    grid, block = wl.launch_configs()["bfs_kernel1"]
    analysis = analyze_kernel(wl.unit(), "bfs_kernel1", block, spec,
                              grid=grid)
    assert sorted(v.array for v in analyze_races(analysis).unknowns()) == [
        "cost", "updating"]
    compiled = catt_compile(wl.unit(), dict(wl.launch_configs()), spec,
                            validate=True)
    program = tape.lower_kernel(compiled.unit, "bfs_kernel1")
    assert len(program.splits) == 1
    shape = (as_dim3(block), as_dim3(grid))
    assert list(program._proved) == [shape]
    assert program.proved_splits(*shape) == frozenset()
