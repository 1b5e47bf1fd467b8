"""Multi-SM co-resident simulation with a genuinely shared L2.

One :class:`GPUEngine` runs ``sms`` :class:`~repro.sim.sm.SMEngine`
instances against a single shared :class:`~repro.sim.cache.Cache` L2 and a
single :class:`L2Ports` bandwidth budget, interleaving their event-driven
progress in global event order.  This makes the two inter-SM effects the
single-SM model hides visible by construction:

* **capacity/conflict interference** — every SM's misses allocate into the
  same tag store, so one SM's streaming working set can evict another's
  reused lines (the contention CIAO/ATA-Cache manage at the shared-cache
  level);
* **bandwidth serialization** — L2 and DRAM transactions from all SMs queue
  on one port-availability pair, so divergence floods on one SM delay every
  SM's misses.

Thread blocks are dealt round-robin over the SMs up to each SM's occupancy
limit; the overflow sits in one shared queue that whichever SM retires a TB
first backfills from — occupancy-aware, and deterministic because TB
completion is a simulated-time event.

Determinism: the interleave goes in turns.  Each turn the SM whose next
event issues earliest (``max(ready, now, issue_free)``; ties to the lowest
SM index) runs :meth:`~repro.sim.sm.SMEngine.step` until its next event
would pass the runner-up's.  No wall-clock or iteration-order
nondeterminism enters the model, so a multi-SM launch is bit-reproducible
across runs and process counts.  At ``sms == 1`` the one turn runs the
whole launch, exactly as ``SMEngine.run`` does.
"""

from __future__ import annotations

from math import nextafter
from typing import Callable, Iterator

from .arch import GPUSpec, SMConfig
from .cache import Cache
from .metrics import SMMetrics
from .sm import GovernorProtocolError, SMEngine

_INF = float("inf")


class L2Ports:
    """Shared L2/DRAM port-availability times (the bandwidth budget).

    The single-SM engine keeps these two floats on itself; under the
    multi-SM engine every SM reads and advances this one object instead, so
    transactions serialize across SMs exactly as they do within one SM.
    """

    __slots__ = ("l2_free", "dram_free")

    def __init__(self) -> None:
        self.l2_free = 0.0
        self.dram_free = 0.0


class GPUEngine:
    """Runs a launch's TBs across ``sms`` SMs sharing one L2."""

    def __init__(self, spec: GPUSpec, config: SMConfig, sms: int,
                 scheduler: str = "gto", l1_bypass: bool = False,
                 governor=None, governor_period: int = 256, ata=None):
        """``governor`` throttles residency at run time, exactly as on
        :class:`SMEngine` — but each SM observes only its own L1 and pauses
        only its own TBs, so multi-SM launches get one governor instance per
        SM: the given instance drives SM 0 and ``governor.clone()`` supplies
        fresh peers.  A shared instance would conflate the SMs' epoch
        deltas, so a governor without ``clone()`` is rejected.

        ``ata`` (an :class:`~repro.sim.cache.AggregatedTagArray`) is shared:
        every SM's L1 registers as a member, which is what makes peer-L1
        remote hits visible across the co-simulated SMs.
        """
        if sms < 1:
            raise ValueError(f"sms must be >= 1, got {sms}")
        self.spec = spec
        self.sms = sms
        self.l2 = Cache(spec.l2_shared_bytes(sms), spec.cache_line,
                        spec.l2_assoc, "L2")
        self.ports = L2Ports()
        governors = [governor] + [None] * (sms - 1)
        if governor is not None and sms > 1:
            clone = getattr(governor, "clone", None)
            if clone is None:
                raise GovernorProtocolError(
                    f"multi-SM launches need one governor instance per SM; "
                    f"{type(governor).__name__} has no clone()")
            governors[1:] = [clone() for _ in range(sms - 1)]
        self.engines = [
            SMEngine(spec, config, scheduler=scheduler, l2=self.l2,
                     ports=self.ports, sm_id=i, l1_bypass=l1_bypass,
                     governor=governors[i], governor_period=governor_period,
                     ata=ata)
            for i in range(sms)
        ]

    def run(
        self,
        tb_ids: list[int],
        warp_factory: Callable[[int], list[Iterator]],
        resident_limit: int,
    ) -> list[SMMetrics]:
        """Execute ``tb_ids`` across the SMs; returns per-SM metrics.

        ``resident_limit`` is the per-SM occupancy cap (Eqs. 1-4), same as
        ``SMEngine.run``.
        """
        n = self.sms
        initial: list[list[int]] = [[] for _ in range(n)]
        pending: list[int] = []
        for i, tb_id in enumerate(tb_ids):
            dealt = initial[i % n]
            if len(dealt) < resident_limit:
                dealt.append(tb_id)
            else:
                pending.append(tb_id)
        engines = self.engines
        for engine, dealt in zip(engines, initial):
            engine.begin(dealt, warp_factory, resident_limit, pending)
        # Each SM's next issue time.  An SM's time changes only while it
        # runs: the shared queue, L2, ports and ATA tag array never touch
        # another SM's heap, ``now`` or ``issue_free``.  Every SM starts at
        # 0; one dealt no TB reports inf after its first turn.
        times = [0.0] * n
        while True:
            first = min(times)
            if first == _INF:
                break
            i = times.index(first)  # ties go to the lowest-indexed SM
            # Run SM i until it would pass the runner-up.  A lower-indexed
            # runner-up wins a tie, so it bounds strictly: the float below.
            times[i] = _INF  # excluded from the runner-up search
            until = min(times)
            if times.index(until) < i:
                until = nextafter(until, -_INF)
            times[i] = engines[i].step(until)
        return [engine.finish() for engine in engines]
