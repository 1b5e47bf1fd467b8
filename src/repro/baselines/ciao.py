"""CIAO — interference-aware warp throttling with selective L1 bypass.

CIAO (PAPERS.md) observes that thrashing is rarely uniform: a few
*aggressor* warps with streaming footprints evict the reused lines of
everyone else.  Instead of throttling blindly, it (1) attributes L1 misses
and evictions to the warp that caused them, (2) redirects the accesses of
the most-interfering warps around the L1 (selective bypass — the polluter
pays, victims keep their locality), and (3) only when bypass saturates
falls back to throttling the most-interfering thread block.

The simulator feeds the attribution from
:meth:`~repro.sim.cache.Cache.access_lines` with an ``owner``: every
monitored load stores its warp-slot index as the line's allocator, so a
later eviction reports *which* warp displaced *whose* line.
:class:`CiaoGovernor` folds those reports into exponentially-decayed
per-warp interference scores and drives ``engine.bypass_warps`` (the
per-warp bypass predicate of the event loop behind
:meth:`~repro.sim.sm.SMEngine.step`) plus the standard ``paused_tbs``
throttle — both through the same governor hook DynCTA uses, so the two
dynamic schemes differ only in policy, never in mechanism.

Like DynCTA, the epoch baselines only advance when an epoch actually fires,
so light-traffic kernels accumulate signal instead of being discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.arch import GPUSpec
from ..sim.sm import engine_slots
from ..workloads.base import Workload, WorkloadRun, run_workload


@dataclass
class CiaoGovernor:
    """Interference monitor + selective-bypass policy for :class:`SMEngine`.

    Doubles as the cache's victim monitor (:meth:`on_miss` /
    :meth:`on_evict` are the callbacks a monitored ``Cache.access_lines``
    invokes);
    :meth:`attach` wires both sides up at launch start.
    """

    high_watermark: float = 0.5    # miss-rate above this → act
    low_watermark: float = 0.2     # miss-rate below this → relax
    min_epoch_accesses: int = 64   # minimum signal before a decision fires
    aggression_threshold: float = 8.0  # min score to call a warp an aggressor
    max_bypass_fraction: float = 0.5   # cap on the bypassed share of warps
    decay: float = 0.5             # per-epoch score decay (history fades)
    _last_accesses: int = 0
    _last_misses: int = 0
    # slot_index -> decayed interference score / current-epoch attribution.
    _scores: dict[int, float] = field(default_factory=dict)
    _epoch_evictions: dict[int, int] = field(default_factory=dict)
    _epoch_misses: dict[int, int] = field(default_factory=dict)

    # -- victim-monitor callbacks (hot path: keep them two dict ops) -------
    def on_miss(self, owner: int) -> None:
        d = self._epoch_misses
        d[owner] = d.get(owner, 0) + 1

    def on_evict(self, victim_owner: int, aggressor: int) -> None:
        d = self._epoch_evictions
        d[aggressor] = d.get(aggressor, 0) + 1

    # -- engine protocol ---------------------------------------------------
    def attach(self, engine) -> None:
        """Launch start: reset state and install the monitor on the L1."""
        self._last_accesses = engine.l1.stats.accesses
        self._last_misses = engine.l1.stats.misses
        self._scores.clear()
        self._epoch_evictions.clear()
        self._epoch_misses.clear()
        engine.l1_monitor = self
        engine.l1.monitor = self
        engine.bypass_warps.clear()

    def clone(self) -> "CiaoGovernor":
        """A fresh same-policy instance (per-SM copies for multi-SM runs)."""
        return CiaoGovernor(
            high_watermark=self.high_watermark,
            low_watermark=self.low_watermark,
            min_epoch_accesses=self.min_epoch_accesses,
            aggression_threshold=self.aggression_threshold,
            max_bypass_fraction=self.max_bypass_fraction,
            decay=self.decay,
        )

    def __call__(self, engine) -> None:
        stats = engine.l1.stats
        if stats.accesses < self._last_accesses:
            # Counters restarted under a stale governor: re-baseline.
            self._last_accesses = stats.accesses
            self._last_misses = stats.misses
            return
        accesses = stats.accesses - self._last_accesses
        misses = stats.misses - self._last_misses
        if accesses < self.min_epoch_accesses:
            return  # keep accumulating; see module docstring
        self._last_accesses = stats.accesses
        self._last_misses = stats.misses
        # Fold this epoch's attribution into the decayed scores.  An
        # eviction you caused is the strong signal; your own misses weigh
        # in at 1/8 so a pure streamer still ranks without evictions.
        scores = self._scores
        decay = self.decay
        for k in scores:
            scores[k] *= decay
        for k, v in self._epoch_evictions.items():
            scores[k] = scores.get(k, 0.0) + v
        for k, v in self._epoch_misses.items():
            scores[k] = scores.get(k, 0.0) + v / 8.0
        self._epoch_evictions.clear()
        self._epoch_misses.clear()

        miss_rate = misses / accesses
        live = [s for s in engine_slots(engine) if not s.done]
        bypass = engine.bypass_warps
        m = engine.metrics
        if miss_rate > self.high_watermark:
            limit = max(1, int(len(live) * self.max_bypass_fraction))
            if len(bypass) < limit:
                candidates = [
                    s.slot_index for s in live
                    if s.slot_index not in bypass
                    and scores.get(s.slot_index, 0.0)
                    >= self.aggression_threshold
                ]
                if candidates:
                    worst = min(candidates, key=lambda i: (-scores[i], i))
                    bypass.add(worst)
                    m.warps_bypassed += 1
                    return
            # Bypass saturated (or nobody crosses the aggression bar) and
            # the L1 still thrashes: throttle the most-interfering TB.
            unpaused = {s.tb_index for s in live} - engine.paused_tbs
            if len(unpaused) > 1:
                tb_score: dict[int, float] = dict.fromkeys(unpaused, 0.0)
                for s in live:
                    if s.tb_index in tb_score:
                        tb_score[s.tb_index] += scores.get(s.slot_index, 0.0)
                worst_tb = min(tb_score, key=lambda t: (-tb_score[t], t))
                engine.paused_tbs.add(worst_tb)
                m.governor_pauses += 1
        elif miss_rate < self.low_watermark:
            if bypass:
                # Contention subsided: give the calmest bypassed warp its
                # L1 back first; resume paused TBs only once none remain.
                calm = min(bypass, key=lambda i: (scores.get(i, 0.0), i))
                bypass.discard(calm)
            elif engine.paused_tbs:
                engine.paused_tbs.discard(max(engine.paused_tbs))
                m.governor_resumes += 1


def run_with_ciao(
    workload: Workload,
    spec: GPUSpec,
    governor: CiaoGovernor | None = None,
    verify: bool = True,
) -> WorkloadRun:
    """Run a workload under the CIAO-style interference-aware governor."""
    return run_workload(
        workload, spec, verify=verify,
        governor=governor or CiaoGovernor(),
    )
