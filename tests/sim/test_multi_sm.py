"""Multi-SM shared-L2 engine tests.

Pins the three properties the :class:`~repro.sim.gpu.GPUEngine` is built
around: (1) its turn-based interleave of ``SMEngine.step(until)`` issues
events in the same global order as the one-event-at-a-time interleave it
replaced (per-SM metrics pinned as literals at 1-4 SMs, with and without
governors and ATA), (2) co-resident SMs genuinely share one L2 (hit rates
move with ``sms`` while functional results stay correct), and (3) the
global interleave is deterministic — bit-identical metrics across repeated
runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.options import SimOptions, use_options
from repro.runtime import Device
from repro.sim.arch import TITAN_V, TITAN_V_SIM, SMConfig
from repro.sim.cache import AggregatedTagArray
from repro.sim.events import SYNC_EVENT, ComputeEvent, mem_event
from repro.sim.gpu import GPUEngine
from repro.sim.metrics import SMMetrics, aggregate_metrics
from repro.sim.sm import SMEngine


# -- synthetic event streams -------------------------------------------------
# Drive the engines directly (no interpreter) so the differential below pins
# the timing model alone: compute bursts, divergent loads that miss L1, a
# barrier, and a store per warp.  Memory events are built the way every
# producer builds them, so the pinned literals also pin the line ids the
# timing loop consumes.

def _stream_factory(warps_per_tb=2, insts=24):
    line = TITAN_V_SIM.cache_line

    def factory(tb_id):
        def warp(w):
            base = (tb_id * warps_per_tb + w) * (1 << 16)
            yield ComputeEvent(6)
            for j in range(insts):
                stride = 4 * (1 + (w + j) % 3)
                addrs = base + j * 128 + np.arange(32, dtype=np.int64) * stride
                yield mem_event(addrs, 4, False, "global", line)
            yield SYNC_EVENT
            yield ComputeEvent(3)
            yield mem_event(base + np.arange(32, dtype=np.int64) * 4, 4, True,
                            "global", line)
        return [warp(w) for w in range(warps_per_tb)]
    return factory


def test_gpu_engine_repeat_runs_bit_identical():
    config = SMConfig(TITAN_V_SIM, 0)
    runs = []
    for _ in range(2):
        gpu = GPUEngine(TITAN_V_SIM, config, 3)
        per_sm = gpu.run(list(range(9)), _stream_factory(), resident_limit=2)
        runs.append([m.summary() for m in per_sm])
    assert runs[0] == runs[1]


def test_gpu_engine_tb_deal_is_round_robin_with_overflow():
    config = SMConfig(TITAN_V_SIM, 0)
    gpu = GPUEngine(TITAN_V_SIM, config, 2)
    per_sm = gpu.run(list(range(7)), _stream_factory(), resident_limit=2)
    assert sum(m.tbs_executed for m in per_sm) == 7
    # Both SMs got work (initial deal is i % n), and every SM executed at
    # least its dealt share.
    assert all(m.tbs_executed >= 2 for m in per_sm)


def test_gpu_engine_rejects_bad_sms():
    with pytest.raises(ValueError):
        GPUEngine(TITAN_V_SIM, SMConfig(TITAN_V_SIM, 0), 0)


def test_aggregate_metrics_requires_records():
    with pytest.raises(ValueError):
        aggregate_metrics([])


# -- launch-level behaviour --------------------------------------------------

# Every TB reads the same a[] lines (the index depends on threadIdx only),
# so co-resident SMs genuinely share data: one SM's L1 compulsory misses
# prefetch the shared L2 for the others.
REUSE = """
__global__ void k(float *a, float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0f;
    for (int j = 0; j < 16; j++) {
        s += a[(j * 1024 + threadIdx.x * 4) % 4096];
    }
    out[i] = s;
}
"""


def _launch_reuse(sms, grid=16, block=256, n=4096):
    dev = Device(TITAN_V_SIM)
    a = dev.to_device(np.arange(n, dtype=np.float32))
    out = dev.zeros(grid * block)
    res = dev.launch(REUSE, "k", grid, block, [a, out], sms=sms)
    host_a = np.arange(n, dtype=np.float32)
    tid = np.arange(grid * block) % block
    ref = np.zeros(grid * block, dtype=np.float32)
    for j in range(16):
        ref += host_a[(j * 1024 + tid * 4) % n]
    np.testing.assert_allclose(out.to_host(), ref, rtol=1e-5)
    return res


def test_sms1_launch_is_the_single_sm_model():
    default = _launch_reuse(sms=None)     # resolves from SimOptions (1)
    explicit = _launch_reuse(sms=1)
    assert default.sms == explicit.sms == 1
    assert default.per_sm is None and explicit.per_sm is None
    assert explicit.metrics.summary() == default.metrics.summary()


def test_shared_l2_hit_rate_moves_with_co_residency():
    """Co-resident SMs pull each other's lines into the shared L2: the
    aggregate L2 hit rate must rise with ``sms`` on a reuse-heavy kernel —
    the inter-SM effect the single-SM slice model hides by construction."""
    by_sms = {sms: _launch_reuse(sms) for sms in (1, 2, 4)}
    rates = {sms: r.l2_hit_rate for sms, r in by_sms.items()}
    assert rates[2] > rates[1]
    assert rates[4] > rates[2]
    # Same grid split over more SMs: the critical path shrinks.
    assert by_sms[4].cycles < by_sms[1].cycles


def test_multi_sm_launch_shapes_and_aggregation():
    res = _launch_reuse(sms=4)
    assert res.sms == 4
    assert res.per_sm is not None and len(res.per_sm) == 4
    agg = res.metrics
    assert agg.cycles == max(m.cycles for m in res.per_sm)
    counters = [f.name for f in dataclasses.fields(SMMetrics)
                if isinstance(getattr(agg, f.name), int)
                and f.name != "cycles"]
    for counter in counters:
        assert getattr(agg, counter) == sum(
            getattr(m, counter) for m in res.per_sm), counter
    # Per-SM L1 and shared-L2 attribution sums to the aggregate view.
    for cache in ("l1_load", "l2_load"):
        for stat in ("accesses", "hits", "misses", "evictions"):
            assert getattr(getattr(agg, cache), stat) == sum(
                getattr(getattr(m, cache), stat) for m in res.per_sm), \
                (cache, stat)
    assert agg.mem_trace is res.per_sm[0].mem_trace
    assert sum(m.tbs_executed for m in res.per_sm) == res.tbs_simulated


def test_multi_sm_launch_deterministic():
    a = _launch_reuse(sms=4)
    b = _launch_reuse(sms=4)
    assert a.metrics.summary() == b.metrics.summary()
    assert [m.summary() for m in a.per_sm] == [m.summary() for m in b.per_sm]


def test_sms_resolves_from_active_options():
    with use_options(SimOptions(sms=2)):
        res = _launch_reuse(sms=None)
    assert res.sms == 2
    assert len(res.per_sm) == 2


def test_odd_sms_on_full_part_times_subset_but_runs_all():
    """TITAN_V (80 SMs), grid 160, sms=3: SMs 0-2 time their round-robin
    share (6 TBs); the rest shadow-execute so memory is complete."""
    dev = Device(TITAN_V)
    out = dev.zeros(160 * 32)
    res = dev.launch(
        """__global__ void k(float *out) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = (float)blockIdx.x;
        }""",
        "k", 160, 32, [out], sms=3,
    )
    assert res.sms == 3 and res.tbs_simulated == 6
    ref = np.repeat(np.arange(160, dtype=np.float32), 32)
    np.testing.assert_array_equal(out.to_host(), ref)


@pytest.mark.parametrize("dedup", [False, True])
def test_multi_sm_functional_correctness_with_engines(dedup):
    with use_options(SimOptions(engine="compiled", dedup=dedup, sms=2)):
        res = _launch_reuse(sms=None)
    assert res.sms == 2


def test_dedup_replay_matches_direct_execution_at_multi_sm():
    """Widened-replay streams feed the same timing engine: dedup on/off must
    agree bit-for-bit on every metric, per SM, at sms > 1."""
    results = {}
    for dedup in (False, True):
        with use_options(SimOptions(engine="compiled", dedup=dedup, sms=2)):
            results[dedup] = _launch_reuse(sms=None)
    on, off = results[True], results[False]
    assert on.engine == "compiled+dedup"
    assert off.engine == "compiled"
    assert on.metrics.summary() == off.metrics.summary()
    assert [m.summary() for m in on.per_sm] == \
        [m.summary() for m in off.per_sm]


def test_governor_cloned_per_sm_at_multi_sm():
    """A cloneable governor is accepted at sms > 1: GPUEngine hands every SM
    its own instance, so per-SM epoch state never cross-talks."""
    from repro.baselines.dyncta import DynCtaGovernor

    dev = Device(TITAN_V_SIM)
    out = dev.zeros(4 * 256)
    res = dev.launch(
        """__global__ void k(float *o) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            o[i] = 1.0f;
        }""",
        "k", 4, 256, [out], sms=2, governor=DynCtaGovernor())
    assert res.sms == 2
    np.testing.assert_array_equal(out.to_host(),
                                  np.ones(4 * 256, dtype=np.float32))


def test_cloneless_governor_rejected_at_multi_sm():
    """Sharing one stateful governor across SMs would corrupt its epoch
    baselines; a governor without clone() must be refused up front."""
    from repro.sim.sm import GovernorProtocolError

    dev = Device(TITAN_V_SIM)
    out = dev.zeros(256)
    with pytest.raises(GovernorProtocolError, match="clone"):
        dev.launch("__global__ void k(float *o) { o[threadIdx.x] = 1.0f; }",
                   "k", 1, 256, [out], sms=2, governor=lambda eng: None)


# -- spec-level L2 sizing ----------------------------------------------------

def test_l2_shared_bytes_scales_and_validates():
    assert TITAN_V_SIM.l2_shared_bytes(1) == TITAN_V_SIM.l2_slice_bytes()
    assert TITAN_V_SIM.l2_shared_bytes(2) == 2 * TITAN_V_SIM.l2_shared_bytes(1)
    # TITAN_V_SIM keeps the 80-SM part's share via l2_share_sms.
    assert TITAN_V_SIM.l2_shared_bytes(80) == TITAN_V_SIM.l2_total_bytes
    for bad in (0, -1, 81):
        with pytest.raises(ValueError):
            TITAN_V_SIM.l2_shared_bytes(bad)


def test_sim_options_rejects_bad_sms():
    with pytest.raises(ValueError):
        SimOptions(sms=0)


# -- the interleave, pinned -------------------------------------------------

# Per-SM ``summary()`` rows for 9 TBs of ``_stream_factory`` streams at two
# resident TBs per SM, in ``SMMetrics.summary()`` key order.  Recorded from
# the two-loop engine (a fused ``run()`` for one SM, a one-event ``step()``
# interleave for several) before both folded into ``step(until)``: any
# change in the global event order moves the per-SM cycles, the backfill
# split or the governor and ATA counters.
_SUMMARY_KEYS = tuple(SMMetrics().summary())
_PINNED = {
    ("plain", 1): [
        (13126, 612, 450, 450, 0.4688, 0.0, 0, 864, 18, 459, 9, 0, 0, 0, 0, 0, 0),
    ],
    ("plain", 2): [
        (10176, 340, 250, 250, 0.4688, 0.0, 0, 480, 10, 255, 5, 0, 0, 0, 0, 0, 0),
        (8620, 272, 200, 200, 0.4688, 0.0, 0, 384, 8, 204, 4, 0, 0, 0, 0, 0, 0),
    ],
    ("plain", 3): [
        (9525, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 0, 0, 0),
        (9657, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 0, 0, 0),
        (9849, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 0, 0, 0),
    ],
    ("plain", 4): [
        (9045, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 0, 0, 0),
        (6877, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 0, 0, 0),
        (6941, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 0, 0, 0),
        (7005, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 0, 0, 0),
    ],
    ("dyncta", 1): [
        (21653, 612, 450, 450, 0.4688, 0.0, 0, 864, 18, 459, 9, 0, 0, 0, 1, 0, 0),
    ],
    ("dyncta", 2): [
        (13593, 340, 250, 250, 0.4688, 0.0, 0, 480, 10, 255, 5, 0, 0, 0, 1, 0, 0),
        (11828, 272, 200, 200, 0.4688, 0.0, 0, 384, 8, 204, 4, 0, 0, 0, 1, 0, 0),
    ],
    ("dyncta", 3): [
        (10073, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
        (10217, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
        (10361, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
    ],
    ("dyncta", 4): [
        (10201, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
        (8074, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 1, 0, 0),
        (8314, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 1, 0, 0),
        (8446, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 1, 0, 0),
    ],
    ("ciao", 1): [
        (21650, 612, 450, 450, 0.4688, 0.0, 0, 864, 18, 459, 9, 0, 0, 0, 1, 0, 0),
    ],
    ("ciao", 2): [
        (15014, 340, 250, 250, 0.4688, 0.0, 0, 480, 10, 255, 5, 0, 0, 0, 1, 0, 0),
        (12232, 272, 200, 200, 0.4688, 0.0, 0, 384, 8, 204, 4, 0, 0, 0, 1, 0, 0),
    ],
    ("ciao", 3): [
        (10534, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
        (10678, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
        (11286, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
    ],
    ("ciao", 4): [
        (10150, 204, 150, 150, 0.4688, 0.0, 0, 288, 6, 153, 3, 0, 0, 0, 1, 0, 0),
        (7878, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 1, 0, 0),
        (7926, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 1, 0, 0),
        (8218, 136, 100, 100, 0.4688, 0.0, 0, 192, 4, 102, 2, 0, 0, 0, 1, 0, 0),
    ],
    ("ata", 1): [
        (14259, 612, 450, 450, 0.0, 0.4796, 0, 864, 18, 459, 9, 0, 405, 459, 0, 0, 0),
    ],
    ("ata", 2): [
        (10120, 340, 250, 250, 0.0, 0.4796, 0, 480, 10, 255, 5, 0, 225, 255, 0, 0, 0),
        (8066, 272, 200, 200, 0.0, 0.4796, 0, 384, 8, 204, 4, 0, 180, 204, 0, 0, 0),
    ],
    ("ata", 3): [
        (9006, 204, 150, 150, 0.0, 0.4796, 0, 288, 6, 153, 3, 0, 135, 153, 0, 0, 0),
        (9130, 204, 150, 150, 0.0, 0.4796, 0, 288, 6, 153, 3, 0, 135, 153, 0, 0, 0),
        (9256, 204, 150, 150, 0.0, 0.4796, 0, 288, 6, 153, 3, 0, 135, 153, 0, 0, 0),
    ],
    ("ata", 4): [
        (9422, 204, 150, 150, 0.0, 0.4796, 0, 288, 6, 153, 3, 0, 135, 153, 0, 0, 0),
        (6877, 136, 100, 100, 0.0, 0.4796, 0, 192, 4, 102, 2, 0, 90, 102, 0, 0, 0),
        (6941, 136, 100, 100, 0.0, 0.4796, 0, 192, 4, 102, 2, 0, 90, 102, 0, 0, 0),
        (7005, 136, 100, 100, 0.0, 0.4796, 0, 192, 4, 102, 2, 0, 90, 102, 0, 0, 0),
    ],
}


def _setup_kwargs(setup, sms, config, period=64):
    from repro.baselines.ciao import CiaoGovernor
    from repro.baselines.dyncta import DynCtaGovernor

    if setup == "dyncta":
        return {"governor": DynCtaGovernor(), "governor_period": period}
    if setup == "ciao":
        return {"governor": CiaoGovernor(), "governor_period": period}
    if setup == "ata":
        lines = config.l1d_bytes // TITAN_V_SIM.cache_line
        return {"ata": AggregatedTagArray(
            TITAN_V_SIM.ata_tag_factor * lines * sms)}
    return {}


@pytest.mark.parametrize("setup,sms", sorted(_PINNED))
def test_interleave_matches_pinned_per_sm_metrics(setup, sms):
    config = SMConfig(TITAN_V_SIM, 0)
    gpu = GPUEngine(TITAN_V_SIM, config, sms,
                    **_setup_kwargs(setup, sms, config))
    per_sm = gpu.run(list(range(9)), _stream_factory(), resident_limit=2)
    expected = [dict(zip(_SUMMARY_KEYS, row)) for row in _PINNED[setup, sms]]
    assert [m.summary() for m in per_sm] == expected
    if sms == 1:
        # The single-SM entry point runs the same loop to completion.
        engine = SMEngine(TITAN_V_SIM, config,
                          **_setup_kwargs(setup, 1, config))
        ref = engine.run(list(range(9)), _stream_factory(), resident_limit=2)
        assert [ref.summary()] == expected


# Four resident TBs per SM and faster governor ticks put a paused warp at
# an SM's heap top when its turn's bound is checked.  The bound is checked
# once, on that warp: the SM defers it and issues its next warp in the same
# check.  Re-checking after the deferral ends the turn early and hands
# the shared ports to another SM out of order, which moves these rows.
_PINNED_PAUSED = {
    ("dyncta", 16, 3): [
        (18022, 408, 300, 300, 0.4688, 0.0, 0, 576, 12, 306, 6, 0, 0, 0, 3, 0, 0),
        (15778, 340, 250, 250, 0.4688, 0.0, 0, 480, 10, 255, 5, 0, 0, 0, 3, 0, 0),
        (15618, 340, 250, 250, 0.4688, 0.0, 0, 480, 10, 255, 5, 0, 0, 0, 3, 0, 0),
    ],
    ("ciao", 32, 4): [
        (15473, 272, 200, 200, 0.4688, 0.0, 0, 384, 8, 204, 4, 0, 0, 0, 3, 0, 0),
        (15793, 272, 200, 200, 0.4688, 0.0, 0, 384, 8, 204, 4, 0, 0, 0, 3, 0, 0),
        (16213, 272, 200, 200, 0.4688, 0.0, 0, 384, 8, 204, 4, 0, 0, 0, 3, 0, 0),
        (16473, 272, 200, 200, 0.4688, 0.0, 0, 384, 8, 204, 4, 0, 0, 0, 3, 0, 0),
    ],
}


@pytest.mark.parametrize("setup,period,sms", sorted(_PINNED_PAUSED))
def test_paused_heap_top_is_checked_once(setup, period, sms):
    config = SMConfig(TITAN_V_SIM, 0)
    gpu = GPUEngine(TITAN_V_SIM, config, sms,
                    **_setup_kwargs(setup, sms, config, period))
    per_sm = gpu.run(list(range(16)), _stream_factory(), resident_limit=4)
    expected = [dict(zip(_SUMMARY_KEYS, row))
                for row in _PINNED_PAUSED[setup, period, sms]]
    assert [m.summary() for m in per_sm] == expected


# -- governor cadence ---------------------------------------------------------

class _CountingGovernor:
    """Counts invocations; never throttles (pure cadence probe)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, engine):
        self.calls += 1

    def clone(self):
        return _CountingGovernor()


# sms -> (TBs launched, per-SM governor calls at period 64).
_CADENCE = {1: (6, [5]), 2: (9, [4, 3]), 3: (9, [2, 2, 2]),
            4: (9, [2, 1, 1, 1])}


@pytest.mark.parametrize("sms", sorted(_CADENCE))
def test_governor_ticks_once_per_warp_advance(sms):
    """The governor ticks before every ``next()`` on a warp — each issued
    event plus the call that retires the warp — on the run-ahead fast path
    as on the slow path, so each SM calls it
    floor(TBs executed x warps per TB x advances per warp / period) times."""
    tbs, calls = _CADENCE[sms]
    warps_per_tb = 2
    advances = len(list(_stream_factory(warps_per_tb)(0)[0])) + 1
    assert advances == 29
    period = 64
    gov = _CountingGovernor()
    gpu = GPUEngine(TITAN_V_SIM, SMConfig(TITAN_V_SIM, 0), sms, governor=gov,
                    governor_period=period)
    per_sm = gpu.run(list(range(tbs)), _stream_factory(warps_per_tb),
                     resident_limit=2)
    observed = [engine.governor.calls for engine in gpu.engines]
    assert observed == [
        m.tbs_executed * warps_per_tb * advances // period for m in per_sm]
    assert observed == calls
