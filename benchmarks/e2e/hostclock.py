"""Host time in units of a fixed pure-Python loop, sampled during a pass.

The host's speed drifts by tens of percent within seconds (README.md,
"Host speed and the reference unit"), so a wall time alone does not hold a
bound.  ``Sampler`` times a short chunk of the reference loop every
INTERVAL_S of wall time while the pass runs, from a SIGALRM handler in the
pass's own process.  The samples see the host as the workload does, on the
same CPU and in the same seconds, and the pass's time divided by their mean
(scaled to REF_ITERATIONS) is its time in reference units.  The time spent
in the handler is taken out of the pass's time.  The worker's set-up, just
before the pass, is scaled by the same samples to NOMINAL_UNIT_S.
"""

from __future__ import annotations

import signal
import time

#: One reference unit is the time of this many loop iterations.
REF_ITERATIONS = 400_000
#: About one reference unit on an idle 2.1 GHz Xeon vCPU.  Set-up time is
#: reported as the seconds it would take on a host of this speed.
NOMINAL_UNIT_S = 0.05
#: Iterations in one sample (about 3 ms on a 2.1 GHz Xeon).
CHUNK = 20_000
#: Wall time from the end of one sample to the start of the next.
INTERVAL_S = 0.03


def reference_loop(n: int) -> int:
    """Fixed pure-Python work of the kind the simulator's hot loops do:
    integer arithmetic and dict stores."""
    total, table = 0, {}
    for i in range(n):
        total += i * i % 7
        table[i & 4095] = total
    return total


class Sampler:
    """Samples the reference loop every ``interval_s`` between ``start()``
    and ``stop()``.  ``spent_s`` is the wall time spent sampling."""

    def __init__(self, interval_s: float = INTERVAL_S, chunk: int = CHUNK):
        self.interval_s = interval_s
        self.chunk = chunk
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop(self.chunk)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        # One-shot timer, re-armed here, so samples never nest.
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit_s(self) -> float:
        """The mean sample, scaled to one reference unit (0 with no
        samples)."""
        if not self.samples:
            return 0.0
        mean = sum(self.samples) / len(self.samples)
        return mean * REF_ITERATIONS / self.chunk
