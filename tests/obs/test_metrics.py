"""MetricsRegistry unit tests: instruments, disabled null path, snapshot
determinism, and the commutative worker merge."""

from __future__ import annotations

from repro.obs.metrics_registry import (
    NULL_INSTRUMENT,
    MetricsRegistry,
    install,
    registry,
)


def test_disabled_registry_hands_out_shared_null():
    reg = MetricsRegistry(enabled=False)
    assert reg.counter("a") is NULL_INSTRUMENT
    assert reg.histogram("c") is NULL_INSTRUMENT
    # No-ops do not create instruments.
    reg.counter("a").inc(5)
    reg.histogram("c").record(1.0)
    assert reg.snapshot() == {"counters": {}, "histograms": {}}


def test_counters_and_histograms():
    reg = MetricsRegistry(enabled=True)
    reg.counter("hits").inc()
    reg.counter("hits").inc(9)
    for v in (1.0, 2.0, 6.0):
        reg.histogram("lat").record(v)
    snap = reg.snapshot()
    assert list(snap) == ["counters", "histograms"]
    assert snap["counters"] == {"hits": 10}
    assert snap["histograms"]["lat"] == {
        "count": 3, "sum": 9.0, "min": 1.0, "max": 6.0, "mean": 3.0,
    }


def test_snapshot_is_sorted_and_plain():
    reg = MetricsRegistry(enabled=True)
    for name in ("zeta", "alpha", "mid"):
        reg.counter(name).inc()
    assert list(reg.snapshot()["counters"]) == ["alpha", "mid", "zeta"]


def test_merge_is_commutative():
    def snap(counter, hist_vals):
        r = MetricsRegistry(enabled=True)
        r.counter("cells").inc(counter)
        for v in hist_vals:
            r.histogram("secs").record(v)
        return r.snapshot()

    a = snap(2, [1.0, 3.0])
    b = snap(5, [0.5])

    ab = MetricsRegistry(enabled=True)
    ab.merge(a)
    ab.merge(b)
    ba = MetricsRegistry(enabled=True)
    ba.merge(b)
    ba.merge(a)
    assert ab.snapshot() == ba.snapshot()
    assert ab.snapshot()["counters"]["cells"] == 7
    h = ab.snapshot()["histograms"]["secs"]
    assert (h["count"], h["min"], h["max"]) == (3, 0.5, 3.0)


def test_merge_into_disabled_registry_is_noop():
    reg = MetricsRegistry(enabled=False)
    reg.merge({"counters": {"x": 3}})
    assert reg.snapshot()["counters"] == {}


def test_reset_clears_everything():
    reg = MetricsRegistry(enabled=True)
    reg.counter("x").inc()
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "histograms": {}}


def test_install_swaps_global():
    fresh = MetricsRegistry(enabled=True)
    prev = install(fresh)
    try:
        assert registry() is fresh
    finally:
        install(prev)
    assert registry() is prev
