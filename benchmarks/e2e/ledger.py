"""In-memory span ledger for the traced benchmark pass.

Every wrapped layer function records one span per call: its layer name,
start, end, and the span that caused it.  A layer's *self time* is a span's
duration minus the time its child spans cover.  The wrapper itself costs
time on both sides of a call, so the ledger measures that cost once
(:meth:`Ledger.calibrate`) and removes it: the part inside the span's
interval from the span's self time, the part outside from its parent's.
Self times therefore estimate what the untraced program spends in each
layer; the removed cost is reported separately as tracing overhead.

Fine-grained layers (one span per cache access or warp event) are only
aggregated.  Coarse layers are also kept as events, bounded by
``max_events``, and written as a Chrome ``trace_event`` file at the end.
"""

from __future__ import annotations

import functools
import time


class Layer:
    """Aggregate of every span one layer recorded."""

    __slots__ = ("name", "calls", "total", "self_time", "counts",
                 "generator")

    def __init__(self, name: str):
        self.name = name
        self.generator = False
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Ledger:
    def __init__(self, clock=time.perf_counter, max_events: int = 200_000):
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        # One frame per open span: [time covered by its children].  The
        # bottom frame belongs to no span and collects top-level coverage.
        self._stack: list[list[float]] = [[0.0]]
        self._open: list[int] = []      # ids of open spans kept as events
        self._next_id = 0
        self.events: list[tuple] = []
        self.max_events = max_events
        self.dropped = 0
        self.cell = -1                  # the operation spans belong to
        self.origin = clock()
        # Wrapper cost per call inside / outside the span's interval.
        self.inner = self.outer = 0.0
        self.gen_inner = self.gen_outer = 0.0

    # -- results -----------------------------------------------------------
    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer(name)
        return layer

    @property
    def covered(self) -> float:
        """Seconds covered by top-level spans, wrapper cost included."""
        return self._stack[0][0]

    def overhead(self) -> float:
        """Wrapper cost removed from the self times, in seconds."""
        return sum(
            layer.calls * (self.gen_inner + self.gen_outer if layer.generator
                           else self.inner + self.outer)
            for layer in self.layers.values())

    def summary(self) -> dict:
        return {
            name: {"calls": layer.calls, "total_s": layer.total,
                   "self_s": layer.self_time, **layer.counts}
            for name, layer in sorted(self.layers.items())
        }

    def chrome_trace(self) -> dict:
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": (t0 - self.origin) * 1e6, "dur": (t1 - t0) * 1e6,
             "pid": 1, "tid": 1,
             "args": {"id": sid, "parent": parent, "cell": cell}}
            for name, t0, t1, sid, parent, cell in self.events
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_events": self.dropped}}

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name, fn, *, emit: bool = True, pick=None, pre=None,
             post=None):
        """Wrap ``fn`` so each call records a span of layer ``name``.

        ``pick(first_arg)`` chooses the layer per call instead (the L1/L2
        split of ``Cache`` methods).  ``pre(args, kwargs)`` runs before the
        span and its return value reaches ``post(layer, token, result)``,
        which runs after it, for counts taken where the work happens.
        """
        layer = self.layer(name) if pick is None else None
        stack, clock, ledger = self._stack, self.clock, self

        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            lay = layer if pick is None else pick(args[0])
            if emit:
                sid = ledger._next_id
                ledger._next_id += 1
                parent = ledger._open[-1] if ledger._open else -1
                ledger._open.append(sid)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                lay.calls += 1
                lay.total += dur
                lay.self_time += dur - frame[0] - ledger.inner
                stack[-1][0] += dur + ledger.outer
                if emit:
                    ledger._open.pop()
                    ledger._event(lay.name, t0, t1, sid, parent)
            if post is not None:
                post(lay, token, result)
            return result

        return functools.update_wrapper(traced, fn)

    def wrap_generator(self, name, fn):
        """Wrap a generator function: each ``next()`` is one span."""
        layer = self.layer(name)
        layer.generator = True

        def traced(*args, **kwargs):
            return self._iterate(layer, fn(*args, **kwargs))

        return functools.update_wrapper(traced, fn)

    def _iterate(self, layer: Layer, gen):
        stack, clock = self._stack, self.clock
        step = gen.__next__
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            done = False
            try:
                item = step()
            except StopIteration:
                done = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                layer.calls += 1
                layer.total += dur
                layer.self_time += dur - frame[0] - self.gen_inner
                stack[-1][0] += dur + self.gen_outer
            if done:
                return
            yield item

    def _event(self, name, t0, t1, sid, parent) -> None:
        if len(self.events) < self.max_events:
            self.events.append((name, t0, t1, sid, parent, self.cell))
        else:
            self.dropped += 1

    # -- calibration -------------------------------------------------------
    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure the wrapper's cost per call on a function that does
        nothing, and on a generator that yields nothing but items."""
        clock = self.clock

        def noop():
            return None

        def items():
            for _ in range(calls):
                yield None

        def best(run) -> float:
            times = []
            for _ in range(repeats):
                t0 = clock()
                run()
                times.append(clock() - t0)
            return min(times)

        def call_loop(fn):
            def run():
                for _ in range(calls):
                    fn()
            return run

        def drain(make):
            def run():
                for _ in make():
                    pass
            return run

        probe = Ledger(clock)
        wrapped = probe.wrap("calibration", noop, emit=False)
        plain = best(call_loop(noop)) / calls
        cost = best(call_loop(wrapped)) / calls - plain
        recorded = probe.layers["calibration"]
        self.inner = max(recorded.total / recorded.calls - plain, 0.0)
        self.outer = max(cost - self.inner, 0.0)

        wrapped_gen = probe.wrap_generator("calibration.gen", items)
        plain = best(drain(items)) / calls
        cost = best(drain(wrapped_gen)) / calls - plain
        recorded = probe.layers["calibration.gen"]
        self.gen_inner = max(recorded.total / recorded.calls - plain, 0.0)
        self.gen_outer = max(cost - self.gen_inner, 0.0)
