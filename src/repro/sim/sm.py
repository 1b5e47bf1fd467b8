"""Event-driven SM timing engine.

One :class:`SMEngine` simulates a single streaming multiprocessor executing
the thread blocks assigned to it.  Warps are generators (see
:mod:`repro.sim.interp`); the engine advances simulated time only to the
points where a warp issues an instruction, so the cost is O(dynamic
instructions), not O(cycles).

The model captures exactly the mechanisms the paper's argument rests on:

* latency hiding — more ready warps means memory stalls overlap;
* L1D contention — all resident warps share one set-associative L1D, so a
  divergent loop thrashes it and destroys intra-thread reuse;
* bandwidth pressure — L2/DRAM ports serialize per transaction, so floods of
  uncoalesced misses queue up;
* real throttling semantics — ``__syncthreads`` barriers (warp-level
  throttling) and shared-memory occupancy limits (TB-level throttling) are
  honored structurally; there is no "throttle" flag anywhere in the engine.

One event loop serves every SM count.  :meth:`SMEngine.begin` starts it
as a generator and each :meth:`SMEngine.step` resumes it for one turn: a
single-SM launch runs one turn to completion (:meth:`SMEngine.run`), and
the multi-SM :class:`~repro.sim.gpu.GPUEngine` runs each SM in turn up to
the time the next SM would issue.  A memory instruction is handled inside
the loop, with one L1D probe call for all of its lines
(:meth:`~repro.sim.cache.Cache.access_lines`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .arch import GPUSpec, SMConfig
from .cache import ATA_REMOTE, ATA_SEEN, Cache
from .events import ComputeEvent, MemEvent, SyncEvent
from .metrics import SMMetrics

_INF = float("inf")


class GovernorProtocolError(TypeError):
    """An object handed to a run-time-governor path does not satisfy the
    engine protocol (e.g. it has no warp-slot table, or a multi-SM launch
    needs per-SM instances and the governor cannot provide them)."""


def engine_slots(engine) -> list:
    """The engine's warp-slot table, for run-time governors.

    Raises :class:`GovernorProtocolError` when ``engine`` exposes no
    ``slots`` — silently treating such an object as "no live warps" would
    make a mis-attached governor no-op forever.
    """
    slots = getattr(engine, "slots", None)
    if slots is None:
        raise GovernorProtocolError(
            f"{type(engine).__name__} exposes no warp-slot table ('slots'); "
            f"run-time governors require an SMEngine-compatible engine "
            f"whose begin() has run")
    return slots


@dataclass
class WarpSlot:
    gen: Iterator
    tb_index: int          # index into the engine's active-TB table
    warp_in_tb: int
    age: int               # global launch order, for GTO tie-breaking
    slot_index: int = -1   # position in the engine's slot table
    ready: float = 0.0
    done: bool = False
    at_barrier: bool = False
    # Completion times of in-flight loads (bounded by mem_pipeline_depth).
    outstanding: list[float] = field(default_factory=list)


@dataclass
class TBSlot:
    tb_id: int
    warps: list[WarpSlot] = field(default_factory=list)
    arrived: int = 0       # warps waiting at the current barrier
    live: int = 0          # warps not yet finished
    barrier_drain: float = 0.0  # latest in-flight load among arrived warps


class SMEngine:
    """Executes TBs on one SM under the event-driven timing model."""

    def __init__(self, spec: GPUSpec, config: SMConfig,
                 scheduler: str = "gto", l2: Cache | None = None,
                 governor=None, governor_period: int = 256,
                 l1_bypass: bool = False,
                 sm_id: int = 0, ports=None, ata=None):
        """``governor`` is an optional callback ``governor(engine) -> None``
        invoked every ``governor_period`` issued events; it may mutate
        ``engine.paused_tbs`` (active-TB indexes) to throttle residency at
        run time — the hook the DynCTA-style baseline uses.  A governor with
        an ``attach(engine)`` method gets it called from :meth:`begin`, so
        stateful policies (CIAO) can reset and wire their monitors per
        launch.

        ``l1_bypass`` models the §2.2 cache-bypassing comparators (-dlcm=cg):
        global loads skip the L1D entirely.  ``engine.bypass_warps`` is the
        selective per-warp form (CIAO): only the listed slot indexes bypass.

        ``ata`` is an optional shared
        :class:`~repro.sim.cache.AggregatedTagArray`; when given, this SM's
        L1 registers as a member and global loads run the ATA-Cache
        miss-resolution path (peer-L1 remote hits, allocate on second touch).

        ``ports`` is where L2/DRAM availability times live.  By default the
        engine owns its ports (the single-SM model); the multi-SM
        :class:`~repro.sim.gpu.GPUEngine` passes one shared
        :class:`~repro.sim.gpu.L2Ports` so transactions from all SMs
        serialize against the same L2/DRAM bandwidth."""
        if scheduler not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler policy {scheduler!r}")
        self.spec = spec
        self.config = config
        self.scheduler = scheduler
        self.sm_id = sm_id
        self.metrics = SMMetrics()
        self.l1 = Cache(config.l1d_bytes, spec.cache_line, spec.l1_assoc, "L1D")
        self.l2 = l2 or Cache(spec.l2_slice_bytes(), spec.cache_line,
                              spec.l2_assoc, "L2")
        # Expose the live cache counters through the metrics object.  With a
        # shared L2 (ports supplied) each SM keeps its own attribution
        # record instead: the event loop probes the L2 into ``l2_load``, so
        # hits/misses land on the SM that issued them.
        self.metrics.l1_load = self.l1.stats
        self.ports = ports if ports is not None else self
        if self.ports is self:
            self.metrics.l2_load = self.l2.stats
        # Port availability times (queueing model).
        self.now = 0.0
        self.issue_free = 0.0
        self.lsu_free = 0.0
        self.l2_free = 0.0
        self.dram_free = 0.0
        self._age = 0
        self._issue_seq = 0
        self.governor = governor
        self.governor_period = governor_period
        self.paused_tbs: set[int] = set()
        self._events_since_governor = 0
        self.pause_quantum = 512.0
        self.l1_bypass = l1_bypass
        # Per-warp selective bypass (CIAO): slot indexes whose global loads
        # skip the L1D.  Governors mutate this at run time; empty = off.
        self.bypass_warps: set[int] = set()
        # CIAO interference monitor: when set, global loads probe the L1D
        # with the warp's slot index as owner, so misses and evictions
        # attribute per warp.
        self.l1_monitor = None
        self.ata = ata
        self.ata_member = ata.register(self.l1) if ata is not None else -1

    # ------------------------------------------------------------------
    def begin(
        self,
        tb_ids: list[int],
        warp_factory: Callable[[int], list[Iterator]],
        resident_limit: int,
        pending: list[int],
    ) -> None:
        """Stage a launch: activate ``tb_ids[:resident_limit]``.

        ``warp_factory(tb_id)`` materializes the warp generators of one TB —
        lazily, so shared-memory blocks are created at TB activation, exactly
        when a real SM would allocate them.  ``pending`` is the overflow queue
        retired TBs backfill from; the multi-SM engine passes one list shared
        by all SMs, so whichever SM drains a TB first claims the next one
        (occupancy-aware backfill).  After ``begin`` the launch is driven by
        :meth:`step` and sealed by :meth:`finish`.
        """
        if resident_limit < 1:
            raise ValueError("resident_limit must be >= 1")
        self._warp_factory = warp_factory
        self._active: list[TBSlot] = []
        # (ready, tie, slot_index)
        self._heap: list[tuple[float, int, int]] = []
        self._slots: list[WarpSlot] = []
        self.slots = self._slots  # exposed for run-time governors
        governor = self.governor
        if governor is not None:
            attach = getattr(governor, "attach", None)
            if attach is not None:
                attach(self)
        self._pending = pending
        for tb_id in tb_ids[:resident_limit]:
            self._activate(tb_id, 0.0)
        self._loop = self._event_loop()
        next(self._loop)  # set up the loop; the first step runs a turn

    def _activate(self, tb_id: int, start: float) -> None:
        tb = TBSlot(tb_id)
        tb_index = len(self._active)
        self._active.append(tb)
        slots = self._slots
        for w, gen in enumerate(self._warp_factory(tb_id)):
            slot = WarpSlot(gen, tb_index, w, self._age,
                            slot_index=len(slots), ready=start)
            self._age += 1
            tb.warps.append(slot)
            tb.live += 1
            slots.append(slot)
            heapq.heappush(self._heap,
                           (slot.ready, self._tie(slot), slot.slot_index))

    def run(
        self,
        tb_ids: list[int],
        warp_factory: Callable[[int], list[Iterator]],
        resident_limit: int,
    ) -> SMMetrics:
        """Execute ``tb_ids`` with at most ``resident_limit`` TBs resident."""
        self.begin(tb_ids, warp_factory, resident_limit,
                   tb_ids[resident_limit:])
        self.step()
        return self.finish()

    def step(self, until: float = _INF) -> float:
        """Issue every event whose issue time is at most ``until``.

        An event issues at ``max(ready, now, issue_free)``.  Returns the
        SM's next issue time, ``inf`` once it is drained: the multi-SM
        engine runs the earliest SM until it would pass the runner-up.  The
        bound is checked once per issued event, on the first live heap
        entry — when that warp's TB is governor-paused, the warp is deferred
        and the SM's next warp issues without a second check.

        A step is one turn of the event loop :meth:`begin` started: the
        loop resumes where the last turn stopped.
        """
        return self._loop.send(until)

    def finish(self) -> SMMetrics:
        """Seal the launch: end the event loop, record the cycle count and
        return the metrics."""
        # Closing releases the loop's frame, which refers back to this
        # engine, so the launch's state is freed without waiting for a
        # garbage collection.
        self._loop.close()
        self.metrics.cycles = int(max(self.now, self.issue_free))
        return self.metrics

    # ------------------------------------------------------------------
    def _event_loop(self):
        """The event loop behind :meth:`step`, as a generator.

        Each ``send(until)`` runs one turn and yields the SM's next issue
        time.  The constants are read once per launch, before the first
        turn.  The SM's own times (``now``, ``issue_free``, ``lsu_free``)
        live in locals; they are written back to the engine at the end of
        every turn and before any call out of the loop (``_retire_warp``,
        ``_do_sync``, the governor), so code outside the loop always reads
        current values.  The L2/DRAM port times are shared between SMs, so
        a memory instruction reads them from ``ports`` and writes them back
        only when it has lines to send past the L1.  State a governor may
        change (``paused_tbs``, ``bypass_warps``, ``l1_monitor``) is re-read
        after each governor call.
        """
        # Hot loop: one iteration per issued event.  Dispatch is on exact
        # event class (events are final); the GTO tie-break and both event
        # kinds' timing are inlined.
        heap = self._heap
        slots = self._slots
        active = self._active
        heappop = heapq.heappop
        heappush = heapq.heappush
        gto = self.scheduler == "gto"
        tie = self._tie
        governor = self.governor
        governor_period = self.governor_period
        pause_quantum = self.pause_quantum
        metrics = self.metrics
        trace = metrics.mem_trace.record
        timing = self.spec.timing
        issue_cycles = timing.issue_cycles
        compute_cycles = timing.compute_cycles
        sfu_cycles = timing.sfu_cycles
        shared_latency = timing.shared_latency
        depth = timing.mem_pipeline_depth
        lsu_txn = timing.lsu_txn_cycles
        l2_txn = timing.l2_txn_cycles
        dram_txn = timing.dram_txn_cycles
        l1_lat = timing.l1_latency
        l2_lat = timing.l2_latency
        dram_lat = timing.dram_latency
        remote_lat = timing.l1_remote_latency
        l1 = self.l1
        l1_lines = l1.access_lines
        l1_stats = l1.stats
        l1_write_stats = l1.write_stats
        # An engine that owns its L2 has ``l2_load is l2.stats``.
        l2_lines = self.l2.access_lines
        l2_stats = metrics.l2_load
        ports = self.ports
        l1_bypass = self.l1_bypass
        ata = self.ata
        if ata is not None:
            touch = l1.touch
            fill = l1.fill
            lookup = ata.lookup
            member = self.ata_member
        ticks = self._events_since_governor
        until = yield
        paused = self.paused_tbs
        bypass_warps = self.bypass_warps
        monitor = self.l1_monitor
        now = self.now
        issue_free = self.issue_free
        lsu_free = self.lsu_free
        while True:
            # One turn.  ``next_time`` is set when the turn's bound stops it.
            deferred = False
            next_time = None
            while heap:
                ready, entry_tie, slot_idx = heappop(heap)
                warp = slots[slot_idx]
                if warp.done or warp.at_barrier or warp.ready != ready:
                    continue  # stale heap entry
                if not deferred and (ready > until or now > until
                                     or issue_free > until):
                    heappush(heap, (ready, entry_tie, slot_idx))
                    next_time = max(ready, now, issue_free)
                    break
                if paused and warp.tb_index in paused:
                    live_tbs = {s.tb_index for s in slots if not s.done}
                    if live_tbs <= paused:
                        # Pausing must never deadlock, but relief should
                        # shed as little throttling as possible: release
                        # exactly one TB (lowest index, deterministic) and
                        # keep the rest paused.
                        paused.discard(min(live_tbs))
                    if warp.tb_index in paused:
                        # Governor-paused TB: defer this warp by one quantum.
                        warp.ready = max(now, ready) + pause_quantum
                        heappush(heap, (warp.ready, tie(warp), slot_idx))
                        deferred = True
                        continue
                deferred = False
                while True:
                    if ready > now:
                        now = ready
                    if governor is not None:
                        ticks += 1
                        if ticks >= governor_period:
                            ticks = 0
                            self.now = now
                            self.issue_free = issue_free
                            self.lsu_free = lsu_free
                            governor(self)
                            paused = self.paused_tbs
                            bypass_warps = self.bypass_warps
                            monitor = self.l1_monitor
                    try:
                        event = next(warp.gen)
                    except StopIteration:
                        self.now = now
                        self.issue_free = issue_free
                        self.lsu_free = lsu_free
                        self._retire_warp(warp)
                        now = self.now
                        break
                    cls = event.__class__
                    if cls is ComputeEvent:
                        start = issue_free if issue_free > now else now
                        ops = event.ops
                        sfu = event.sfu_ops
                        issue_free = start + (ops + sfu) * issue_cycles
                        latency = compute_cycles if ops else 0
                        if sfu and sfu_cycles > latency:
                            latency = sfu_cycles
                        warp.ready = issue_free + latency
                        metrics.instructions += ops + sfu
                    elif cls is MemEvent:
                        metrics.instructions += 1
                        metrics.warp_mem_insts += 1
                        write = event.write
                        start = issue_free if issue_free > now else now
                        outstanding = warp.outstanding
                        if not write and len(outstanding) >= depth:
                            # MLP window full: the warp stalls on its oldest
                            # in-flight load.
                            outstanding.sort()
                            oldest = outstanding.pop(0)
                            if oldest > start:
                                start = oldest
                        issue_free = start + issue_cycles
                        if event.space == "shared":
                            metrics.shared_transactions += 1
                            warp.ready = start + (issue_cycles if write
                                                  else shared_latency)
                        else:
                            lines = event.lines
                            n = len(lines)
                            metrics.coalescer_requests += 1
                            trace(n)
                            # Line i enters the LSU at lsu + i * lsu_txn.
                            lsu = lsu_free if lsu_free > start else start
                            lsu_free = lsu + n * lsu_txn
                            finish = start
                            if write:
                                # Stores write-allocate in the L1; a store
                                # hit has no downstream traffic.  A miss
                                # goes past the LSU fire-and-forget but
                                # takes L2/DRAM bandwidth.
                                metrics.global_store_transactions += n
                                missed = l1_lines(lines, l1_write_stats)
                                metrics.l1_store_hits += n - len(missed)
                                metrics.l1_store_misses += len(missed)
                            elif l1_bypass or (bypass_warps
                                               and slot_idx in bypass_warps):
                                # Blanket or CIAO per-warp bypass: every
                                # line skips the L1D.
                                metrics.global_load_transactions += n
                                missed = range(n)
                            elif ata is None:
                                metrics.global_load_transactions += n
                                missed = l1_lines(
                                    lines, l1_stats,
                                    True if monitor is None else slot_idx)
                                hits = n - len(missed)
                                if hits:
                                    # Hits take no port, so the last one
                                    # finishes last.
                                    last = n - 1
                                    if hits < n:
                                        j = len(missed) - 1
                                        while j >= 0 and missed[j] == last:
                                            last -= 1
                                            j -= 1
                                    finish = lsu + last * lsu_txn + l1_lat
                            else:
                                # ATA-Cache miss resolution: a local tag
                                # probe without allocation, then the
                                # aggregated tag array decides: remote hit
                                # (no L2/DRAM bandwidth, the data moves SM
                                # to SM), allocate on second touch, or
                                # bypass on first touch.
                                metrics.global_load_transactions += n
                                missed = []
                                remote = seen = 0
                                for i, line in enumerate(lines):
                                    if touch(line):
                                        done = lsu + i * lsu_txn + l1_lat
                                    else:
                                        verdict = lookup(line, member)
                                        if verdict != ATA_REMOTE:
                                            if verdict == ATA_SEEN:
                                                seen += 1
                                                fill(line)
                                            missed.append(i)
                                            continue
                                        remote += 1
                                        done = lsu + i * lsu_txn + remote_lat
                                    if done > finish:
                                        finish = done
                                metrics.l1_remote_hits += remote
                                metrics.ata_second_touches += seen
                                metrics.ata_first_touch_bypasses += \
                                    len(missed) - seen
                            if missed:
                                # The lines that left the L1 go through the
                                # L2 port in order, and each L2 miss through
                                # the DRAM port.
                                sub = (lines if len(missed) == n
                                       else [lines[i] for i in missed])
                                l2_missed = l2_lines(sub, l2_stats)
                                dram_txns = len(l2_missed)
                                metrics.dram_transactions += dram_txns
                                next_miss = l2_missed[0] if dram_txns else -1
                                k = 0
                                l2_free = ports.l2_free
                                dram_free = ports.dram_free
                                for j, i in enumerate(missed):
                                    txn_start = lsu + i * lsu_txn
                                    l2_start = (l2_free if l2_free > txn_start
                                                else txn_start)
                                    l2_free = l2_start + l2_txn
                                    if j == next_miss:
                                        k += 1
                                        next_miss = (l2_missed[k]
                                                     if k < dram_txns else -1)
                                        dram_start = (dram_free
                                                      if dram_free > l2_start
                                                      else l2_start)
                                        dram_free = dram_start + dram_txn
                                        done = dram_start + dram_lat
                                    else:
                                        done = l2_start + l2_lat
                                    if done > finish:
                                        finish = done
                                ports.l2_free = l2_free
                                ports.dram_free = dram_free
                            if not write:
                                # The warp keeps issuing; it stalls later
                                # when its MLP window fills (above) or at a
                                # barrier/retire drain point.
                                outstanding.append(finish)
                            warp.ready = issue_free
                    elif cls is SyncEvent:
                        self.now = now
                        self.issue_free = issue_free
                        self.lsu_free = lsu_free
                        self._do_sync(warp, active[warp.tb_index])
                        break  # parked; re-queued at barrier release
                    else:  # pragma: no cover - defensive
                        raise TypeError(f"unknown event {event!r}")
                    ready = warp.ready
                    entry = (ready, warp.age if gto else tie(warp), slot_idx)
                    # GTO issues the oldest ready warp until it stalls past
                    # another warp's ready time, so this warp is usually
                    # still the heap minimum.  push-then-pop would hand it
                    # straight back; keep issuing inline and skip both heap
                    # operations.  (entry <= heap[0] is exactly the
                    # heappushpop condition, so the event order is
                    # unchanged; a governor pause always re-enters the slow
                    # path for the pause bookkeeping.)
                    if paused or (heap and heap[0] < entry):
                        heappush(heap, entry)
                        break
                    # The warp issues next, at max(ready, issue_free): a
                    # compute or memory event leaves now <= issue_free.
                    if ready > until or issue_free > until:
                        heappush(heap, entry)
                        next_time = ready if ready > issue_free else issue_free
                        break
                if next_time is not None:
                    break
            self.now = now
            self.issue_free = issue_free
            self.lsu_free = lsu_free
            self._events_since_governor = ticks
            until = yield _INF if next_time is None else next_time

    def _tie(self, warp: WarpSlot) -> int:
        if self.scheduler == "gto":
            return warp.age  # oldest-first among equally-ready warps
        self._issue_seq += 1
        return self._issue_seq  # FIFO re-queue order = loose round-robin

    def _retire_warp(self, warp) -> None:
        warp.done = True
        if warp.outstanding:
            # A warp is not finished until its in-flight loads complete.
            self.now = max(self.now, max(warp.outstanding))
            warp.outstanding.clear()
        tb = self._active[warp.tb_index]
        tb.live -= 1
        self._maybe_release_barrier(tb)
        if tb.live == 0:
            self.metrics.tbs_executed += 1
            if self._pending:
                # One TB out, one in: residency stays at the limit.  With a
                # shared pending queue the fastest SM claims the next TB.
                self._activate(self._pending.pop(0), self.now)

    # ------------------------------------------------------------------
    def _do_sync(self, warp: WarpSlot, tb: TBSlot) -> None:
        warp.at_barrier = True
        warp.ready = _INF
        if warp.outstanding:
            # Loads must drain before the barrier releases.
            tb.barrier_drain = max(tb.barrier_drain, max(warp.outstanding))
            warp.outstanding.clear()
        tb.arrived += 1
        self.metrics.barriers += 1
        self._maybe_release_barrier(tb)

    def _maybe_release_barrier(self, tb: TBSlot) -> None:
        if tb.arrived == 0 or tb.arrived < tb.live:
            return
        release = max(self.now, tb.barrier_drain) + self.spec.timing.barrier_cycles
        tb.barrier_drain = 0.0
        heap = self._heap
        for w in tb.warps:
            if w.at_barrier:
                w.at_barrier = False
                w.ready = release
                heapq.heappush(heap, (w.ready, self._tie(w), w.slot_index))
        tb.arrived = 0
