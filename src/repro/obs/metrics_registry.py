"""Process-wide metrics: counters and histograms.

The simulator already counts everything per launch (``SMMetrics``,
``CacheStats``) — this registry is the *cross-launch* aggregation layer the
experiment harness and ``catt profile`` read.  Feeds happen at launch/phase
granularity (never inside the event loop), and a disabled registry hands out
shared null instruments whose methods are no-ops, so the disabled cost is
one attribute check per feed site.

Merging is commutative (counters sum, histograms combine), so worker
snapshots can be merged in deterministic caller order by the sweep
executor without caring about completion order.
"""

from __future__ import annotations


class Counter:
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Streaming summary: count/sum/min/max (enough for phase timings)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.total / self.count if self.count else 0.0,
        }


class _NullInstrument:
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def record(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments, created lazily on first use."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors ----------------------------------------------
    def counter(self, name: str):
        if not self.enabled:
            return NULL_INSTRUMENT
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str):
        if not self.enabled:
            return NULL_INSTRUMENT
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- aggregation --------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic (sorted) plain-dict view, picklable across workers."""
        return {
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "histograms": {k: self._histograms[k].summary()
                           for k in sorted(self._histograms)},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker snapshot into this registry (no-op when disabled)."""
        if not self.enabled or not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, s in snapshot.get("histograms", {}).items():
            h = self.histogram(name)
            if not s.get("count"):
                continue
            h.count += s["count"]
            h.total += s["sum"]
            h.min = min(h.min, s["min"])
            h.max = max(h.max, s["max"])

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()


_GLOBAL = MetricsRegistry(enabled=False)


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL


def install(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _GLOBAL
    prev = _GLOBAL
    _GLOBAL = new
    return prev
