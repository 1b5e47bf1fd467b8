"""Sweep supervisor tests: crash/hang/fail recovery, retries, quarantine,
cells committed before an interrupt or kill, and the CLI wiring."""

from __future__ import annotations

import pytest

from repro.experiments.common import AppResult, ResultCache
from repro.experiments.sweep import (
    SweepPolicy,
    format_sweep_health,
    run_sweep,
)
from repro.testing.faults import ChaosPlan, WorkerFault

CELLS = [("ATAX", "baseline", "max", "test"),
         ("BP", "baseline", "max", "test"),
         ("MVT", "baseline", "max", "test")]


# -- policy -------------------------------------------------------------------


def test_sweep_policy_validation():
    with pytest.raises(ValueError):
        SweepPolicy(cell_timeout=0)
    with pytest.raises(ValueError):
        SweepPolicy(retries=-1)
    with pytest.raises(ValueError):
        SweepPolicy(backoff=-0.1)
    with pytest.raises(ValueError):
        SweepPolicy(poll=0)


def test_format_sweep_health_mentions_only_nonzero():
    from repro.experiments.sweep import SweepReport

    text = format_sweep_health(SweepReport(
        cells=5, computed=3, cached=2, degraded=0, jobs=2, seconds=1.5,
        retried=1, crashes=2))
    assert "5 cells" in text and "3 computed" in text and "2 cached" in text
    assert "1 retried" in text and "2 crashes" in text
    assert "timeouts" not in text and "quarantined" not in text


# -- supervised recovery ------------------------------------------------------


def test_worker_crash_is_retried_to_clean_result(tmp_path):
    """An os._exit'd worker must be detected, respawned, and the cell
    recomputed — converging to the same bytes as an undisturbed run."""
    clean = ResultCache(tmp_path / "clean")
    run_sweep(CELLS, jobs=1, cache=clean)

    plan = ChaosPlan(faults=(
        WorkerFault(kind="crash", match="ATAX|baseline", attempts=1),))
    chaos = ResultCache(tmp_path / "chaos")
    report = run_sweep(CELLS, jobs=2, cache=chaos,
                       policy=SweepPolicy(retries=2, backoff=0.01, poll=0.02),
                       chaos=plan)
    assert report.crashes == 1
    assert report.retried == 1
    assert report.quarantined == 0
    assert report.degraded == 0
    assert clean.digest() == chaos.digest() != ""


def test_hung_worker_killed_by_deadline(tmp_path):
    plan = ChaosPlan(faults=(
        WorkerFault(kind="hang", match="BP|baseline", attempts=1,
                    hang_seconds=120.0),))
    cache = ResultCache(tmp_path / "c")
    report = run_sweep(CELLS, jobs=2, cache=cache,
                       policy=SweepPolicy(cell_timeout=3.0, retries=2,
                                          backoff=0.01, poll=0.05),
                       chaos=plan)
    assert report.timeouts == 1
    assert report.quarantined == 0
    got = cache.get(ResultCache.key("BP", "baseline", "max", "test"))
    assert got is not None and not got.degraded


def test_transient_worker_fault_is_retried(tmp_path):
    plan = ChaosPlan(faults=(
        WorkerFault(kind="fail", match="MVT|baseline", attempts=2),))
    cache = ResultCache(tmp_path / "c")
    report = run_sweep(CELLS, jobs=2, cache=cache,
                       policy=SweepPolicy(retries=3, backoff=0.01, poll=0.02),
                       chaos=plan)
    assert report.retried == 2
    assert report.quarantined == 0
    assert report.degraded == 0


def test_poison_cell_quarantined_as_degraded(tmp_path):
    """A cell that fails every attempt collapses to the degraded AppResult
    path with a diagnostic — and never reaches the disk cache."""
    plan = ChaosPlan(faults=(
        WorkerFault(kind="crash", match="ATAX|baseline", attempts=99),))
    cache = ResultCache(tmp_path / "c")
    report = run_sweep(CELLS, jobs=2, cache=cache,
                       policy=SweepPolicy(retries=1, backoff=0.01, poll=0.02),
                       chaos=plan)
    assert report.quarantined == 1
    assert report.degraded == 1
    key = ResultCache.key("ATAX", "baseline", "max", "test")
    got = cache.get(key)
    assert got.degraded and got.total_cycles == 0
    assert any("quarantined" in d["message"] for d in got.diagnostics)
    # put_transient only: a fresh cache over the same directory misses.
    assert ResultCache(tmp_path / "c").get(key) is None
    # The other cells completed normally despite the poison cell.
    for cell in CELLS[1:]:
        assert ResultCache(tmp_path / "c").get(ResultCache.key(*cell))


def test_sequential_path_retries_degraded_cells(monkeypatch, tmp_path):
    """jobs=1 honours the retry policy too: a transiently degrading cell is
    re-attempted in-process before the degraded result is accepted."""
    from repro.experiments import sweep as sweep_mod

    cell = CELLS[0]
    calls = {"n": 0}

    def flaky_run_cell(c):
        calls["n"] += 1
        degraded = calls["n"] == 1
        return c, AppResult(c[0], c[1], c[2], c[3],
                            total_cycles=0 if degraded else 42, kernels={},
                            degraded=degraded), None

    monkeypatch.setattr(sweep_mod, "_run_cell", flaky_run_cell)
    cache = ResultCache(tmp_path / "c")
    report = run_sweep([cell], jobs=1, cache=cache,
                       policy=SweepPolicy(retries=2, backoff=0.0))
    assert calls["n"] == 2
    assert report.retried == 1
    assert report.degraded == 0
    assert cache.get(ResultCache.key(*cell)).total_cycles == 42


# -- commit on completion -----------------------------------------------------


class _Kill(BaseException):
    """Stands in for SIGKILL: bypasses the KeyboardInterrupt handler."""


def _stop_after(n: int, exc: type[BaseException]):
    """A checkpoint hook that raises ``exc`` at the ``n``-th completion."""
    seen = []

    def hook(cell):
        seen.append(cell)
        if len(seen) == n:
            raise exc

    return hook


@pytest.mark.parametrize("stop, jobs", [(KeyboardInterrupt, 1), (_Kill, 1),
                                        (_Kill, 2)],
                         ids=["interrupt", "kill", "kill-parallel"])
def test_stopped_sweep_keeps_completed_cells(monkeypatch, tmp_path, stop,
                                             jobs):
    """A sweep interrupted or hard-killed after 2 of 3 cells has already
    committed exactly those 2; a plain rerun computes only the third and
    converges on a clean run's bytes."""
    from repro.experiments import sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", _stop_after(2, stop))
    with pytest.raises(stop):
        run_sweep(CELLS, jobs=jobs, cache=ResultCache(tmp_path / "c"),
                  policy=SweepPolicy(poll=0.02))
    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", None)
    fresh = ResultCache(tmp_path / "c")
    committed = [c for c in CELLS if fresh.get(ResultCache.key(*c))]
    assert len(committed) == 2
    if jobs == 1:
        assert committed == CELLS[:2]
    report = run_sweep(CELLS, jobs=1, cache=fresh)
    assert (report.cached, report.computed) == (2, 1)
    clean = ResultCache(tmp_path / "clean")
    run_sweep(CELLS, jobs=1, cache=clean)
    assert fresh.digest() == clean.digest() != ""


def test_concurrent_sweep_keeps_first_sweeps_cells(monkeypatch, tmp_path):
    """Sweep B runs to completion on the same store between sweep A's cells,
    then A is killed: B cannot drop A's committed cell, so rerunning A
    computes only A's unfinished cell."""
    from repro.experiments import sweep as sweep_mod

    a_cells, b_cells = CELLS[:2], CELLS[2:]
    ran_b = []

    def hook(cell):
        if ran_b:
            return   # B's own completion, or nothing left to do
        ran_b.append(cell)
        run_sweep(b_cells, jobs=1, cache=ResultCache(tmp_path / "c"))
        raise _Kill

    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", hook)
    with pytest.raises(_Kill):
        run_sweep(a_cells, jobs=1, cache=ResultCache(tmp_path / "c"))
    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", None)
    report = run_sweep(a_cells, jobs=1, cache=ResultCache(tmp_path / "c"))
    assert (report.cached, report.computed) == (1, 1)
    assert run_sweep(b_cells, jobs=1,
                     cache=ResultCache(tmp_path / "c")).cached == 1


# -- CLI wiring ---------------------------------------------------------------


def test_runner_all_passes_supervision_flags(monkeypatch, capsys):
    from repro.experiments import sweep as sweep_mod
    from repro.experiments.runner import main

    captured = {}

    def stub_run_sweep(cells, jobs=1, cache=None, options=None, policy=None,
                       chaos=None):
        captured.update(jobs=jobs, policy=policy, cells=len(cells))
        raise KeyboardInterrupt   # stop before the per-figure builders run

    monkeypatch.setattr(sweep_mod, "run_sweep", stub_run_sweep)
    code = main(["all", "--scale", "test", "--jobs", "2",
                 "--cell-timeout", "45", "--retries", "5"])
    out = capsys.readouterr()
    assert code == 130                       # interrupted sweeps exit 130
    assert "rerun the same command" in out.err   # and say how to go on
    assert captured["jobs"] == 2
    assert captured["policy"].cell_timeout == 45.0
    assert captured["policy"].retries == 5
    assert captured["cells"] > 0


def test_render_tree_surfaces_sweep_health():
    from repro.obs.exporters import render_tree

    metrics = {"counters": {"sweep.crashes": 2, "sweep.retries": 3,
                            "cache.integrity_failures": 1,
                            "sim.launches": 7},
               "histograms": {}}
    text = render_tree([], metrics)
    assert "sweep health:" in text
    assert "worker crashes survived" in text
    assert "cell attempts retried" in text
    assert "cache records failing sha256" in text
    # Untroubled runs show no health section at all.
    assert "sweep health" not in render_tree(
        [], {"counters": {"sim.launches": 7}, "histograms": {}})
