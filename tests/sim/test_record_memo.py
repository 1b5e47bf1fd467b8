"""Record memo: a stored tape record must give exactly the fresh result.

Schemes that only change the timing model (DynCTA, CIAO, ATA, bypass)
replay the baseline launch's functional record.  Each app runs every such
scheme twice — once with the memo cleared before every launch, once letting
later schemes reuse the baseline's records — and every launch must report
identical metrics, per-SM views and device memory.  The inputs that must
miss, the ``sanitize`` exclusion and the LRU bound are pinned below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ciao import CiaoGovernor
from repro.baselines.dyncta import DynCtaGovernor
from repro.obs import metrics_registry, trace
from repro.options import SimOptions, use_options
from repro.runtime import Device, device
from repro.sim import launch
from repro.sim.arch import TITAN_V, TITAN_V_SIM
from repro.workloads import get_workload
from repro.workloads.base import run_workload

SCHEMES = {
    "baseline": dict,
    "dyncta": lambda: {"governor": DynCtaGovernor()},
    "ciao": lambda: {"governor": CiaoGovernor()},
    "ata": lambda: {"l1_ata": True},
    "bypass": lambda: {"l1_bypass": True},
}


@pytest.fixture
def counters():
    """A fresh enabled metrics registry and an empty memo."""
    launch.record_memo.clear()
    reg = metrics_registry.MetricsRegistry(enabled=True)
    prev = metrics_registry.install(reg)
    try:
        yield lambda name: reg.counter(name).value
    finally:
        metrics_registry.install(prev)
        launch.record_memo.clear()


def _observed_launches(monkeypatch, clear_each: bool) -> list:
    """Route device launches through a recorder of each launch's outcome:
    engine, metrics, per-SM metrics and the bytes of every allocation."""
    seen: list = []
    real = launch.launch_kernel

    def recorder(*args, **kwargs):
        if clear_each:
            launch.record_memo.clear()
        result = real(*args, **kwargs)
        memory = args[5]
        seen.append((
            result.kernel_name, result.engine, result.metrics.summary(),
            None if result.per_sm is None
            else [m.summary() for m in result.per_sm],
            [a.buffer.tobytes() for a in memory._allocs],
        ))
        return result

    monkeypatch.setattr(device, "launch_kernel", recorder)
    return seen


def _run_schemes(monkeypatch, app: str, sms: int, clear_each: bool) -> dict:
    seen = _observed_launches(monkeypatch, clear_each)
    out = {}
    with use_options(SimOptions(sms=sms)):
        for scheme, launch_kw in SCHEMES.items():
            start = len(seen)
            run = run_workload(get_workload(app, "test"), TITAN_V_SIM,
                               **launch_kw())
            assert run.verified is True
            out[scheme] = seen[start:]
    return out


@pytest.mark.parametrize("sms", [1, 2])
@pytest.mark.parametrize("app", ["BFS", "LUD", "PF", "GEMM"])
def test_stored_record_matches_fresh_record(app, sms, monkeypatch, counters):
    fresh = _run_schemes(monkeypatch, app, sms, clear_each=True)
    assert counters("sim.tape.record_hits") == 0
    launch.record_memo.clear()
    reused = _run_schemes(monkeypatch, app, sms, clear_each=False)
    assert reused == fresh
    # Every launch after the baseline's is served from the memo.
    later = sum(len(reused[s]) for s in SCHEMES if s != "baseline")
    assert counters("sim.tape.record_hits") == later
    assert all(engine == "tape" for launches in reused.values()
               for _, engine, *_ in launches)


N = 160 * 32  # two TBs per SM of the full part
SCALE = """
__global__ void k(float *x, float *out, float a) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = x[i] * a;
}
"""


def _scale(x: np.ndarray, a: float, sms: int = 1, sanitize: bool = False):
    # The full part: its timed TBs (those dealt to SMs [0, sms)) change
    # with ``sms``.  On a one-SM spec every TB is timed at any ``sms``, and
    # the record is rightly shared.
    with use_options(SimOptions(sms=sms, sanitize=sanitize)):
        dev = Device(TITAN_V)
        dx = dev.to_device(x)
        dout = dev.zeros(x.size, np.float32)
        result = dev.launch(SCALE, "k", N // 32, 32, [dx, dout, a])
    return result, dout.to_host()


def test_repeat_launch_hits_and_restores_the_writes(counters):
    x = np.arange(N, dtype=np.float32)
    first, out1 = _scale(x, 2.0)
    second, out2 = _scale(x, 2.0)
    assert counters("sim.tape.record_misses") == 1
    assert counters("sim.tape.record_hits") == 1
    # The second device started zeroed: the hit wrote the stored result.
    np.testing.assert_array_equal(out2, 2.0 * x)
    assert second.metrics.summary() == first.metrics.summary()


@pytest.mark.parametrize("change", ["element", "signed_zero", "sms"])
def test_changed_input_misses(change, counters):
    x = np.arange(N, dtype=np.float32)
    _scale(x, 0.0)
    if change == "element":
        x2 = x.copy()
        x2[77] += 1.0
        _, out = _scale(x2, 0.0)
        np.testing.assert_array_equal(out, np.zeros(N, np.float32))
    elif change == "signed_zero":
        _, out = _scale(x, -0.0)
        # x[0] * -0.0 is -0.0; a stale 0.0 record would lose the sign.
        assert np.signbit(out[0])
    else:
        _scale(x, 0.0, sms=2)
    assert counters("sim.tape.record_hits") == 0
    assert counters("sim.tape.record_misses") == 2


def test_sanitize_neither_stores_nor_reuses(counters):
    x = np.arange(N, dtype=np.float32)
    _scale(x, 2.0)
    assert len(launch.record_memo) == 1
    result, out = _scale(x, 2.0, sanitize=True)
    assert result.sanitizer is not None
    assert result.sanitizer.accesses > 0
    np.testing.assert_array_equal(out, 2.0 * x)
    assert len(launch.record_memo) == 1
    assert counters("sim.tape.record_hits") == 0
    assert counters("sim.tape.record_misses") == 1


def test_lru_keeps_at_most_the_limit(counters):
    x = np.arange(N, dtype=np.float32)
    limit = launch.record_memo.limit
    for a in range(limit + 4):
        _scale(x, float(a))
    assert len(launch.record_memo) == limit
    _scale(x, float(limit + 3))   # most recent: still stored
    assert counters("sim.tape.record_hits") == 1
    _scale(x, 0.0)                # oldest: evicted
    assert counters("sim.tape.record_hits") == 1
    assert counters("sim.tape.record_misses") == limit + 5


def test_launch_span_says_how_the_streams_were_obtained(counters):
    prev = trace.install(trace.Tracer(enabled=True))
    try:
        x = np.arange(N, dtype=np.float32)
        _scale(x, 2.0)
        _scale(x, 2.0)
        _scale(x, 2.0, sanitize=True)
        tracer = trace.install(prev)
    finally:
        trace.install(prev)
    recorded = [s.attrs["recorded"] for root in tracer.roots
                for s in root.walk() if s.name == "sim.launch"]
    assert recorded == ["fresh", "memo", "fresh"]
