"""Slot-widened replay tests: dedup execution must be invisible.

``record_block_streams`` executes every (TB, warp) slot of a homogeneous
launch in widened lockstep and replays the recorded per-slot event streams
into the timing engine.  These tests pin the invariants the differential
gate relies on: metrics and functional results are identical with dedup on
and off, and the answer does not depend on how the slots are chunked
(``max_wide_slots``).
"""

from __future__ import annotations

import pytest

from repro.options import SimOptions, use_options
from repro.sim import replay
from repro.workloads import get_workload
from repro.workloads.base import run_workload


def run_app(app: str, dedup: bool):
    with use_options(SimOptions(engine="compiled", dedup=dedup)):
        return run_workload(get_workload(app, scale="test"))


def signature(run):
    return [
        (r.kernel_name, tuple(sorted(r.metrics.summary().items())))
        for r in run.results
    ]


@pytest.mark.parametrize("app", ["ATAX", "GEMM"])
def test_dedup_matches_per_tb_execution(app):
    plain = run_app(app, dedup=False)
    dedup = run_app(app, dedup=True)
    assert signature(dedup) == signature(plain)
    assert dedup.verified is True
    assert "compiled+dedup" in {r.engine for r in dedup.results}


def test_chunking_is_invisible(monkeypatch):
    """Forcing tiny widened chunks (many ``record_block_streams`` passes
    per launch) must not change metrics or results: chunk boundaries are a
    perf knob, not a semantic one."""
    baseline = run_app("ATAX", dedup=True)
    # ``max_wide_slots`` is a keyword default bound at def time — patch the
    # defaults tuple, as the launch path calls it without the argument.
    monkeypatch.setattr(replay.record_block_streams, "__defaults__", (8,))
    chunked = run_app("ATAX", dedup=True)
    assert signature(chunked) == signature(baseline)
    assert chunked.verified is True


SAXPY = """
__global__ void saxpy(float *x, float *y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) y[i] = a * x[i] + y[i];
}
"""


def _saxpy_launch(grid, block, n, dedup=True):
    import numpy as np

    from repro.runtime import Device
    from repro.sim.arch import TITAN_V_SIM

    with use_options(SimOptions(engine="compiled", dedup=dedup)):
        dev = Device(TITAN_V_SIM)
        x = dev.to_device(np.arange(n, dtype=np.float32))
        y = dev.to_device(np.ones(n, dtype=np.float32))
        res = dev.launch(SAXPY, "saxpy", grid, block, [x, y, 2.0, n])
    return res, y.to_host()


def test_single_slot_launch_skips_dedup():
    """A one-TB, one-warp launch has nothing to deduplicate; the launch
    gate must keep it on the plain compiled path."""
    res, out = _saxpy_launch(grid=1, block=32, n=32)
    assert res.engine == "compiled"
    assert out[5] == 2.0 * 5 + 1.0


def test_multi_slot_launch_uses_dedup():
    import numpy as np

    res, out = _saxpy_launch(grid=4, block=64, n=200)
    assert res.engine == "compiled+dedup"
    ref = 2.0 * np.arange(200, dtype=np.float32) + 1.0
    assert np.array_equal(out, ref)
    plain_res, plain_out = _saxpy_launch(grid=4, block=64, n=200,
                                         dedup=False)
    assert np.array_equal(out, plain_out)
    assert plain_res.metrics.summary() == res.metrics.summary()
