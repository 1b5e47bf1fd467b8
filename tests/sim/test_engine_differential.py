"""Differential gate: compiled and tape engines vs AST-walk interpreter.

For every workload in the registry at test scale, the closure-compiled
engine — with and without homogeneous-block dedup — and the launch-wide
vectorized tape engine must produce bit-identical functional results
(``verify`` recomputes the kernel on the host and compares the device
buffers) and identical cache/IPC metrics to the reference AST-walk
interpreter.  This is the acceptance gate for both performance engines:
any divergence in cycles, hit rates, transaction counts or verified
output fails the corresponding app's test.  The tape engine runs under
the default ``SimOptions()``, so the gate also pins that the default
reaches the tape on every registry launch.
"""

from __future__ import annotations

import pytest

from repro.options import SimOptions, use_options
from repro.sim.arch import TITAN_V
from repro.workloads import WORKLOADS, get_workload
from repro.workloads.base import run_workload

CONFIGS = {
    "interp": SimOptions(engine="interp", dedup=False),
    "compiled": SimOptions(engine="compiled", dedup=False),
    "compiled+dedup": SimOptions(engine="compiled", dedup=True),
    "default": SimOptions(),
    "tape": SimOptions(engine="tape", dedup=False),
}


def _run(app: str, label: str):
    with use_options(CONFIGS[label]):
        run = run_workload(get_workload(app, scale="test"))
    signature = [
        (r.kernel_name, tuple(sorted(r.metrics.summary().items())))
        for r in run.results
    ]
    engines = {r.engine for r in run.results}
    return signature, run.verified, engines


@pytest.mark.parametrize("app", sorted(WORKLOADS))
def test_engines_match_interpreter(app):
    """Three-way differential: interp vs compiled (±dedup) vs tape."""
    ref_sig, ref_verified, ref_engines = _run(app, "interp")
    assert ref_verified is True
    assert ref_engines == {"interp"}

    for label in ("compiled", "compiled+dedup", "default"):
        sig, verified, engines = _run(app, label)
        assert sig == ref_sig, f"{app}: {label} metrics diverge from interp"
        assert verified is True, f"{app}: {label} functional results diverge"
        # Every configuration must actually exercise its engine — a silent
        # fallback to the interpreter (or, under the default, to the
        # compiled closures) would let the perf path rot while this gate
        # stays green.
        assert "interp" not in engines, (
            f"{app}: {label} fell back to the interpreter"
        )
        if label == "default":
            assert engines == {"tape"}, (
                f"{app}: the default engine ran {sorted(engines)}, not tape"
            )


def test_dedup_engine_label():
    """A dedup-eligible multi-TB app reports the widened-replay engine."""
    _, _, engines = _run("ATAX", "compiled+dedup")
    assert "compiled+dedup" in engines


def test_tape_engine_label():
    """The tape engine labels every launch it records."""
    _, _, engines = _run("ATAX", "tape")
    assert engines == {"tape"}


@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("app", sorted(WORKLOADS))
def test_untimed_tbs_compute_the_kernel_result(app, engine):
    """On the 80-SM part SM 0 times every 80th TB and the launch runs the
    other TBs functionally.  Their warps must still meet at every barrier,
    or cross-warp shared-memory reductions (BP, LVMD) read stale data."""
    with use_options(SimOptions(engine=engine)):
        run = run_workload(get_workload(app, scale="test"), spec=TITAN_V)
    assert run.verified is True
