"""Fault-injection harness tests, ending in the acceptance sweep: every
injection boundary x every scheme completes a run_app matrix without an
unhandled exception."""

import pytest

from repro.experiments.common import SCHEMES, ResultCache, run_app
from repro.testing import (
    BOUNDARIES,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    check_fault,
    inject_faults,
)

# ---------------------------------------------------------------------------
# Harness mechanics
# ---------------------------------------------------------------------------


def test_no_active_injector_is_noop():
    check_fault("analysis", "anything")   # must not raise


def test_targeted_spec_fires_and_context_restores():
    with inject_faults(FaultSpec(stage="analysis", match="kern")) as inj:
        check_fault("frontend", "kern")          # wrong stage: no fire
        check_fault("analysis", "other")         # wrong site: no fire
        with pytest.raises(InjectedFault):
            check_fault("analysis", "kern_a")    # substring match fires
        assert [f[:2] for f in inj.fired] == [("analysis", "kern_a")]
    check_fault("analysis", "kern_a")            # restored: no-op again


def test_count_limit_caps_firings():
    with inject_faults(FaultSpec(stage="sim", count=2)) as inj:
        for _ in range(2):
            with pytest.raises(InjectedFault):
                check_fault("sim", "site")
        check_fault("sim", "site")               # third visit: spent
        assert len(inj.fired) == 2


def test_custom_exception_type():
    class Boom(OSError):
        pass

    with inject_faults(FaultSpec(stage="transform", exc=Boom("disk on fire"))):
        with pytest.raises(Boom):
            check_fault("transform", "x")


def test_invalid_stage_rejected():
    with pytest.raises(ValueError):
        FaultSpec(stage="linker")


def test_seeded_injection_is_deterministic():
    def pattern(seed):
        fired = []
        with inject_faults(seed=seed, rate=0.5) as inj:
            for stage in BOUNDARIES:
                for site in ("a", "b", "c"):
                    for _ in range(3):           # repeat visits roll again
                        try:
                            check_fault(stage, site)
                            fired.append(0)
                        except InjectedFault:
                            fired.append(1)
            assert len(inj.fired) == sum(fired)
        return fired

    first = pattern(99)
    assert pattern(99) == first                  # same seed, same pattern
    assert pattern(100) != first                 # different seed differs
    assert 0 < sum(first) < len(first)           # rate=0.5 actually mixes


def test_nested_injectors_restore_in_order():
    with inject_faults(FaultSpec(stage="frontend")):
        with inject_faults(FaultSpec(stage="sim")):
            check_fault("frontend", "x")         # inner masks outer
            with pytest.raises(InjectedFault):
                check_fault("sim", "x")
        with pytest.raises(InjectedFault):
            check_fault("frontend", "x")         # outer back in force


def test_injector_without_context_manager():
    inj = FaultInjector(specs=(FaultSpec(stage="analysis"),))
    with pytest.raises(InjectedFault):
        inj.check("analysis", "s")
    inj.check("frontend", "s")
    assert len(inj.fired) == 1


# ---------------------------------------------------------------------------
# Acceptance: full matrix under injection at every boundary
# ---------------------------------------------------------------------------


# The worker boundary is process-level (WorkerFault/ChaosPlan, exercised in
# tests/experiments/test_supervisor.py); the cache boundary fires on sharded
# store writes and gets its own matrix below.
PIPELINE_BOUNDARIES = ("frontend", "analysis", "transform", "sim")


@pytest.mark.parametrize("stage", PIPELINE_BOUNDARIES)
def test_run_app_matrix_survives_boundary_faults(stage, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with inject_faults(FaultSpec(stage=stage)) as inj:
        for scheme in SCHEMES:
            result = run_app("GSMV", scheme, "max", "test", cache)
            assert result.app == "GSMV" and result.scheme == scheme
            if result.degraded:
                assert result.total_cycles == 0 and result.diagnostics
                d = result.diagnostics[0]
                assert d["code"] == "CATT-E-SIM" and d["severity"] == "error"
                assert "InjectedFault" in d["exception"]
    # frontend/sim faults kill every cell; analysis/transform faults are
    # absorbed inside the resilient compile (baseline never compiles).
    assert inj.fired


def test_run_app_matrix_survives_cache_faults(tmp_path):
    """A cache write that fails never kills the run: every cell still
    produces a clean result, merely memory-only for this process."""
    cache = ResultCache(tmp_path / "store")
    with inject_faults(FaultSpec(stage="cache")) as inj:
        with pytest.warns(RuntimeWarning, match="write failed"):
            for scheme in SCHEMES:
                result = run_app("GSMV", scheme, "max", "test", cache)
                assert not result.degraded and result.total_cycles > 0
    assert inj.fired
    # Nothing reached disk; a fresh sweep simply recomputes.
    fresh = ResultCache(tmp_path / "store")
    key = ResultCache.key("GSMV", "baseline", "max", "test")
    assert fresh.get(key) is None
    clean = run_app("GSMV", "baseline", "max", "test", fresh)
    assert not clean.degraded
    assert ResultCache(tmp_path / "store").get(key) is not None


def test_degraded_cells_not_persisted(tmp_path):
    """A degraded cell memoizes for this sweep only — a fresh cache retries."""
    cache = ResultCache(tmp_path / "cache")
    with inject_faults(FaultSpec(stage="sim", count=1)):
        first = run_app("GSMV", "baseline", "max", "test", cache)
        assert first.degraded
        again = run_app("GSMV", "baseline", "max", "test", cache)
        assert again.degraded                    # memoized within the run
    fresh = ResultCache(tmp_path / "cache")
    clean = run_app("GSMV", "baseline", "max", "test", fresh)
    assert not clean.degraded and clean.total_cycles > 0


def test_run_app_on_error_raise_propagates(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with inject_faults(FaultSpec(stage="sim")):
        with pytest.raises(InjectedFault):
            run_app("GSMV", "baseline", "max", "test", cache, on_error="raise")
