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

One event loop, :meth:`SMEngine.step`, serves every SM count: a single-SM
launch runs it to completion (:meth:`SMEngine.run`), and the multi-SM
:class:`~repro.sim.gpu.GPUEngine` runs each SM in turn up to the time the
next SM would issue.
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
        # record instead; ``_do_mem`` installs it as ``l2.stats`` around its
        # accesses so hits/misses land on the SM that issued them.
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
        # CIAO interference monitor: when set, global loads route through
        # Cache.access_owned so misses and evictions attribute per warp.
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
        """
        # Hot loop: one iteration per issued event.  Dispatch is on exact
        # event class (events are final), method lookups and timing
        # constants are hoisted, and the GTO tie-break and ComputeEvent
        # timing (the most frequent event) are inlined.
        heap = self._heap
        slots = self._slots
        active = self._active
        gto = self.scheduler == "gto"
        governor = self.governor
        do_mem = self._do_mem
        heappop = heapq.heappop
        heappush = heapq.heappush
        timing = self.spec.timing
        issue_cycles = timing.issue_cycles
        compute_cycles = timing.compute_cycles
        sfu_cycles = timing.sfu_cycles
        metrics = self.metrics
        deferred = False
        while heap:
            ready, tie, slot_idx = heappop(heap)
            warp = slots[slot_idx]
            if warp.done or warp.at_barrier or warp.ready != ready:
                continue  # stale heap entry
            if not deferred and (ready > until or self.now > until
                                 or self.issue_free > until):
                heappush(heap, (ready, tie, slot_idx))
                return max(ready, self.now, self.issue_free)
            if self.paused_tbs and warp.tb_index in self.paused_tbs:
                live_tbs = {s.tb_index for s in slots if not s.done}
                if live_tbs <= self.paused_tbs:
                    # Pausing must never deadlock, but relief should shed as
                    # little throttling as possible: release exactly one TB
                    # (lowest index, deterministic) and keep the rest paused.
                    self.paused_tbs.discard(min(live_tbs))
                if warp.tb_index in self.paused_tbs:
                    # Governor-paused TB: defer this warp by one quantum.
                    warp.ready = max(self.now, ready) + self.pause_quantum
                    heappush(heap, (warp.ready, self._tie(warp), slot_idx))
                    deferred = True
                    continue
            deferred = False
            while True:
                if ready > self.now:
                    self.now = ready
                if governor is not None:
                    self._events_since_governor += 1
                    if self._events_since_governor >= self.governor_period:
                        self._events_since_governor = 0
                        governor(self)
                try:
                    event = next(warp.gen)
                except StopIteration:
                    self._retire_warp(warp)
                    break
                cls = event.__class__
                if cls is ComputeEvent:
                    start = self.issue_free
                    now = self.now
                    if start < now:
                        start = now
                    ops = event.ops
                    sfu = event.sfu_ops
                    self.issue_free = free = start + (ops + sfu) * issue_cycles
                    latency = compute_cycles if ops else 0
                    if sfu and sfu_cycles > latency:
                        latency = sfu_cycles
                    warp.ready = free + latency
                    metrics.instructions += ops + sfu
                elif cls is MemEvent:
                    do_mem(warp, event)
                elif cls is SyncEvent:
                    self._do_sync(warp, active[warp.tb_index])
                    break  # parked; re-queued at barrier release
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown event {event!r}")
                ready = warp.ready
                entry = (ready, warp.age if gto else self._tie(warp), slot_idx)
                # GTO issues the oldest ready warp until it stalls past
                # another warp's ready time, so this warp is usually still
                # the heap minimum.  push-then-pop would hand it straight
                # back; keep issuing inline and skip both heap operations.
                # (entry <= heap[0] is exactly the heappushpop condition,
                # so the event order is unchanged; a governor pause always
                # re-enters the slow path for the pause bookkeeping.)
                if self.paused_tbs or (heap and heap[0] < entry):
                    heappush(heap, entry)
                    break
                # The warp issues next, at max(ready, issue_free): a compute
                # or memory event leaves now <= issue_free.
                issue_free = self.issue_free
                if ready > until or issue_free > until:
                    heappush(heap, entry)
                    return ready if ready > issue_free else issue_free
        return _INF

    def finish(self) -> SMMetrics:
        """Seal the launch: record the cycle count and return the metrics."""
        self.metrics.cycles = int(max(self.now, self.issue_free))
        return self.metrics

    # ------------------------------------------------------------------
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
    def _do_mem(self, warp: WarpSlot, event: MemEvent) -> None:
        # Hot path: one call per warp memory instruction.  Port-availability
        # state is staged in locals (written back once) and two-way ``max``
        # calls are spelled as comparisons; the queueing model itself is
        # unchanged from the straightforward form.
        t = self.spec.timing
        m = self.metrics
        m.instructions += 1
        m.warp_mem_insts += 1
        write = event.write
        start = self.issue_free
        if start < self.now:
            start = self.now
        if not write and len(warp.outstanding) >= t.mem_pipeline_depth:
            # MLP window full: the warp stalls on its oldest in-flight load.
            warp.outstanding.sort()
            oldest = warp.outstanding.pop(0)
            if oldest > start:
                start = oldest
        issue_cycles = t.issue_cycles
        self.issue_free = start + issue_cycles
        if event.space == "shared":
            m.shared_transactions += 1
            warp.ready = start + (issue_cycles if write else t.shared_latency)
            return
        lines = event.lines
        ntxn = len(lines)
        m.coalescer_requests += 1
        m.mem_trace.record(ntxn)
        lsu = self.lsu_free
        if lsu < start:
            lsu = start
        lsu_txn = t.lsu_txn_cycles
        l2_txn = t.l2_txn_cycles
        dram_txn = t.dram_txn_cycles
        # L2/DRAM availability lives on ``ports`` — this engine itself in the
        # single-SM model, a shared L2Ports under the multi-SM engine (so
        # transactions from all SMs serialize on one bandwidth budget).
        ports = self.ports
        l2_free = ports.l2_free
        dram_free = ports.dram_free
        l2 = self.l2
        # Attribute this instruction's L2 hits/misses to this SM.  A no-op
        # store when the engine owns its L2 (stats is already l2_load).
        l2.stats = m.l2_load
        l2_access = l2.access
        dram_txns = 0
        if write:
            m.global_store_transactions += ntxn
            l1_write = self.l1.write
            hits = misses = 0
            for line in lines:
                txn_start = lsu
                lsu += lsu_txn
                if l1_write(line):
                    # Store hit: coalesces into the resident line; no
                    # downstream traffic (write-back behaviour).
                    hits += 1
                    continue
                misses += 1
                # Store miss: fire-and-forget past the LSU, but it consumes
                # L2/DRAM bandwidth.
                l2_start = l2_free if l2_free > txn_start else txn_start
                l2_free = l2_start + l2_txn
                if not l2_access(line, write=True):
                    dram_start = dram_free if dram_free > l2_start else l2_start
                    dram_free = dram_start + dram_txn
                    dram_txns += 1
            m.l1_store_hits += hits
            m.l1_store_misses += misses
            m.dram_transactions += dram_txns
            self.lsu_free = lsu
            ports.l2_free = l2_free
            ports.dram_free = dram_free
            warp.ready = self.issue_free
            return
        m.global_load_transactions += ntxn
        l1_lat = t.l1_latency
        l2_lat = t.l2_latency
        dram_lat = t.dram_latency
        bypass = self.l1_bypass
        if not bypass:
            bw = self.bypass_warps
            if bw and warp.slot_index in bw:
                # CIAO selective bypass: this warp's loads skip the L1D.
                bypass = True
        finish = start
        ata = self.ata
        monitor = self.l1_monitor
        if ata is not None and not bypass:
            # ATA-Cache miss resolution: local tag probe without allocation,
            # then the aggregated tag array decides remote hit / allocate-on
            # -second-touch / first-touch bypass.  Remote hits consume no
            # L2/DRAM port bandwidth — the data moves SM-to-SM.
            touch = self.l1.touch
            fill = self.l1.fill
            lookup = ata.lookup
            member = self.ata_member
            remote_lat = t.l1_remote_latency
            for line in lines:
                txn_start = lsu
                lsu += lsu_txn
                if touch(line):
                    done = txn_start + l1_lat
                else:
                    verdict = lookup(line, member)
                    if verdict == ATA_REMOTE:
                        m.l1_remote_hits += 1
                        done = txn_start + remote_lat
                    else:
                        if verdict == ATA_SEEN:
                            m.ata_second_touches += 1
                            fill(line)
                        else:
                            m.ata_first_touch_bypasses += 1
                        l2_start = l2_free if l2_free > txn_start else txn_start
                        l2_free = l2_start + l2_txn
                        if l2_access(line):
                            done = l2_start + l2_lat
                        else:
                            dram_start = (dram_free if dram_free > l2_start
                                          else l2_start)
                            dram_free = dram_start + dram_txn
                            dram_txns += 1
                            done = dram_start + dram_lat
                if done > finish:
                    finish = done
        elif monitor is not None and not bypass:
            # CIAO-monitored loads: identical timing to the plain path, plus
            # per-warp miss/eviction attribution through access_owned.
            acc_owned = self.l1.access_owned
            owner = warp.slot_index
            for line in lines:
                txn_start = lsu
                lsu += lsu_txn
                if acc_owned(line, owner):
                    done = txn_start + l1_lat
                else:
                    l2_start = l2_free if l2_free > txn_start else txn_start
                    l2_free = l2_start + l2_txn
                    if l2_access(line):
                        done = l2_start + l2_lat
                    else:
                        dram_start = (dram_free if dram_free > l2_start
                                      else l2_start)
                        dram_free = dram_start + dram_txn
                        dram_txns += 1
                        done = dram_start + dram_lat
                if done > finish:
                    finish = done
        else:
            l1_access = self.l1.access
            for line in lines:
                txn_start = lsu
                lsu += lsu_txn
                if not bypass and l1_access(line):
                    done = txn_start + l1_lat
                else:
                    l2_start = l2_free if l2_free > txn_start else txn_start
                    l2_free = l2_start + l2_txn
                    if l2_access(line):
                        done = l2_start + l2_lat
                    else:
                        dram_start = (dram_free if dram_free > l2_start
                                      else l2_start)
                        dram_free = dram_start + dram_txn
                        dram_txns += 1
                        done = dram_start + dram_lat
                if done > finish:
                    finish = done
        m.dram_transactions += dram_txns
        self.lsu_free = lsu
        ports.l2_free = l2_free
        ports.dram_free = dram_free
        # The warp keeps issuing; it stalls later when its MLP window
        # fills (see above) or at a barrier/retire drain point.
        warp.outstanding.append(finish)
        warp.ready = self.issue_free

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
