"""BFTT / Best-SWL / DynCTA baseline tests."""

import pytest

from repro.baselines import (
    apply_fixed_throttle,
    best_swl_search,
    bftt_search,
    candidate_factors,
    run_with_dyncta,
)
from repro.baselines.dyncta import DynCtaGovernor
from repro.sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K
from repro.sim.metrics import SMMetrics
from repro.workloads import get_workload, run_workload


def factory(name="GSMV"):
    return lambda: get_workload(name, scale="test")


def test_candidate_factors_structure():
    factors = candidate_factors(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert (1, 0) in factors
    ns = [n for n, m in factors if m == 0]
    assert ns == sorted(ns)
    assert all(m >= 0 for _, m in factors)


def test_apply_fixed_throttle_produces_runnable_unit():
    wl = get_workload("GSMV", "test")
    unit = apply_fixed_throttle(wl, TITAN_V_SIM, 2, 0)
    run = run_workload(get_workload("GSMV", "test"), TITAN_V_SIM, unit=unit)
    assert run.verified


def test_bftt_finds_no_worse_than_baseline():
    res = bftt_search(factory("GSMV"), TITAN_V_SIM)
    base = run_workload(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert res.best_cycles <= base.total_cycles
    assert (1, 0) in res.runs  # the untouched configuration was tried


def test_bftt_best_is_min_of_sweep():
    res = bftt_search(factory("GSMV"), TITAN_V_SIM)
    assert res.best_cycles == min(r.total_cycles for r in res.runs.values())


def test_bftt_tlp_for_reporting():
    res = bftt_search(factory("GSMV"), TITAN_V_SIM)
    warps, tbs = res.tlp_for("gesummv_kernel", (8, 2))
    assert 1 <= warps <= 8 and 1 <= tbs <= 2


@pytest.mark.parametrize("spec", [TITAN_V_SIM, TITAN_V_SIM_32K],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("search", [bftt_search, best_swl_search],
                         ids=lambda f: f.__name__)
def test_bp_barrier_loop_candidates_are_skipped_not_timed(search, spec):
    """BP's tree-reduction loop holds a __syncthreads(): every N > 1
    candidate would copy it into warp-divergent code and compute wrong
    output, so the search skips them and times only verified programs."""
    res = search(factory("BP"), spec, verify=True)
    assert sorted(res.runs) == [(1, 0)]
    assert res.best_factors == (1, 0)
    assert all(run.verified for run in res.runs.values())


def test_best_swl_subset_of_bftt_space():
    res = best_swl_search(factory("GSMV"), TITAN_V_SIM)
    assert all(m == 0 for _, m in res.runs)


def test_dyncta_runs_and_verifies():
    run = run_with_dyncta(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert run.verified


class FakeStats:
    def __init__(self, accesses=0, misses=0):
        self.accesses = accesses
        self.misses = misses


class FakeL1:
    def __init__(self):
        self.stats = FakeStats()


class FakeSlot:
    def __init__(self, tb, slot_index=0):
        self.tb_index = tb
        self.slot_index = slot_index
        self.done = False


class FakeEngine:
    def __init__(self, tbs=3):
        self.l1 = FakeL1()
        self.paused_tbs = set()
        self.bypass_warps = set()
        self.slots = [FakeSlot(t, i) for i, t in enumerate(range(tbs))]
        self.metrics = SMMetrics()


def test_dyncta_governor_pauses_on_high_miss_rate():
    gov = DynCtaGovernor()
    engine = FakeEngine()
    engine.l1.stats = FakeStats(1000, 900)
    gov(engine)
    assert engine.paused_tbs == {2}
    assert engine.metrics.governor_pauses == 1
    # Low miss rate resumes.
    engine.l1.stats.accesses, engine.l1.stats.misses = 3000, 950
    gov(engine)
    assert engine.paused_tbs == set()
    assert engine.metrics.governor_resumes == 1


def test_dyncta_accumulates_light_traffic_epochs():
    """Regression: epochs below the access floor must accumulate, not be
    discarded — a light-traffic kernel (<64 loads per governor period) still
    deserves a throttle decision once enough signal has built up."""
    gov = DynCtaGovernor()
    engine = FakeEngine()
    stats = engine.l1.stats
    # Three light epochs at 90% miss rate: 30 accesses per epoch, below the
    # 64-access floor.  The broken governor advanced its baselines anyway
    # and never saw more than 30; the fixed one accumulates to 90.
    for epoch in range(3):
        stats.accesses += 30
        stats.misses += 27
        gov(engine)
        if epoch < 2:
            assert engine.paused_tbs == set()  # not enough signal yet
    assert engine.paused_tbs == {2}
    assert engine.metrics.governor_pauses == 1


def test_dyncta_rebaselines_on_counter_restart():
    """A fresh launch restarts the L1 counters; a stale governor must
    re-baseline instead of treating the wraparound as empty epochs."""
    gov = DynCtaGovernor()
    engine = FakeEngine()
    engine.l1.stats = FakeStats(100000, 10000)
    gov(engine)  # large first epoch; baselines now at 100000
    engine.paused_tbs.clear()
    # New launch: counters restart near zero.  The first call only
    # re-baselines; the second sees a real epoch again.
    engine.l1.stats = FakeStats(50, 45)
    gov(engine)
    assert engine.paused_tbs == set()
    engine.l1.stats.accesses, engine.l1.stats.misses = 150, 135
    gov(engine)
    assert engine.paused_tbs == {2}


def test_engine_slots_raises_typed_error_without_slot_table():
    """Regression: a governor attached to a non-engine must fail loudly,
    not silently observe zero live warps forever."""
    from repro.sim.sm import GovernorProtocolError, engine_slots

    class NotAnEngine:
        pass

    with pytest.raises(GovernorProtocolError, match="slots"):
        engine_slots(NotAnEngine())
    # And the governor surfaces the same error end to end.
    gov = DynCtaGovernor()
    bad = FakeEngine()
    del bad.slots
    bad.l1.stats = FakeStats(1000, 900)
    with pytest.raises(GovernorProtocolError):
        gov(bad)


def test_bypass_runs_and_verifies():
    from repro.baselines import run_with_bypass

    run = run_with_bypass(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert run.verified
    # Bypassed loads never touch the L1D.
    assert all(r.metrics.l1_load.accesses == 0 for r in run.results)


def test_bypass_destroys_reuse_catt_keeps_it():
    from repro.baselines import run_with_bypass
    from repro.transform import catt_compile

    wl = get_workload("GSMV", "test")
    byp = run_with_bypass(get_workload("GSMV", "test"), TITAN_V_SIM)
    comp = catt_compile(wl.unit(), dict(wl.launch_configs()), TITAN_V_SIM)
    catt = run_workload(get_workload("GSMV", "test"), TITAN_V_SIM,
                        unit=comp.unit)
    assert catt.total_cycles < byp.total_cycles


# -- CIAO (interference-aware bypass) ----------------------------------------

def test_ciao_runs_and_verifies():
    from repro.baselines import run_with_ciao

    run = run_with_ciao(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert run.verified


def test_ciao_governor_bypasses_most_interfering_warp():
    from repro.baselines.ciao import CiaoGovernor

    gov = CiaoGovernor()
    engine = FakeEngine(tbs=3)
    gov.attach(engine)
    assert engine.l1.monitor is gov
    # Warp slot 2 thrashes the others: heavy eviction attribution.
    for _ in range(40):
        gov.on_evict(victim_owner=0, aggressor=2)
    engine.l1.stats = FakeStats(1000, 900)
    gov(engine)
    assert engine.bypass_warps == {2}
    assert engine.metrics.warps_bypassed == 1
    assert engine.paused_tbs == set()   # bypass is tried before pausing


def test_ciao_governor_pauses_when_no_warp_stands_out():
    from repro.baselines.ciao import CiaoGovernor

    gov = CiaoGovernor()
    engine = FakeEngine(tbs=3)
    gov.attach(engine)
    # High miss rate but diffuse interference (no score reaches the
    # aggression threshold): escalate to TB-level throttling instead.
    engine.l1.stats = FakeStats(1000, 900)
    gov(engine)
    assert engine.bypass_warps == set()
    assert len(engine.paused_tbs) == 1
    assert engine.metrics.governor_pauses == 1


def test_ciao_governor_unwinds_when_pressure_drops():
    from repro.baselines.ciao import CiaoGovernor

    gov = CiaoGovernor()
    engine = FakeEngine(tbs=3)
    gov.attach(engine)
    for _ in range(40):
        gov.on_evict(victim_owner=0, aggressor=2)
    engine.l1.stats = FakeStats(1000, 900)
    gov(engine)
    assert engine.bypass_warps == {2}
    # Pressure collapses: the calmest bypassed warp is re-admitted.
    engine.l1.stats.accesses, engine.l1.stats.misses = 3000, 950
    gov(engine)
    assert engine.bypass_warps == set()


def test_ciao_clone_shares_no_state():
    from repro.baselines.ciao import CiaoGovernor

    gov = CiaoGovernor()
    gov.on_evict(0, 2)
    twin = gov.clone()
    assert twin.high_watermark == gov.high_watermark
    e1, e2 = FakeEngine(), FakeEngine()
    gov.attach(e1)
    twin.attach(e2)
    assert e1.l1.monitor is gov and e2.l1.monitor is twin
    gov.on_miss(1)
    assert twin._epoch_misses == {}


# -- ATA-Cache (aggregated tag array L1 mode) --------------------------------

def test_ata_runs_and_verifies():
    from repro.baselines import run_with_ata

    run = run_with_ata(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert run.verified
    # The mechanism actually engaged: first touches bypassed allocation and
    # at least some reuse was admitted through the tag filter.
    first = sum(r.metrics.ata_first_touch_bypasses for r in run.results)
    assert first > 0


def test_ata_remote_hits_at_multi_sm():
    from repro.baselines import run_with_ata
    from repro.options import SimOptions, use_options

    with use_options(SimOptions(sms=2)):
        run = run_with_ata(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert run.verified
    remote = sum(r.metrics.l1_remote_hits for r in run.results)
    assert remote > 0   # peer L1 probes resolve cross-SM reuse


def test_mode_purity_baseline_unaffected_by_ata_and_ciao():
    """The plain load path must stay byte-identical when ATA / CIAO code is
    merely present: an unconfigured run before and after scheme runs agrees
    on every metric, and scheme-only counters stay zero."""
    from repro.baselines import run_with_ata, run_with_ciao

    before = run_workload(get_workload("GSMV", "test"), TITAN_V_SIM)
    run_with_ata(get_workload("GSMV", "test"), TITAN_V_SIM, verify=False)
    run_with_ciao(get_workload("GSMV", "test"), TITAN_V_SIM, verify=False)
    after = run_workload(get_workload("GSMV", "test"), TITAN_V_SIM)
    assert [r.metrics.summary() for r in before.results] == \
        [r.metrics.summary() for r in after.results]
    for r in after.results:
        m = r.metrics
        assert m.l1_remote_hits == m.ata_second_touches == 0
        assert m.ata_first_touch_bypasses == m.warps_bypassed == 0
