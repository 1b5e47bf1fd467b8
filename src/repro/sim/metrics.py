"""Simulation metrics: cache statistics, cycle counts, and the Fig.-2 trace.

``MemTrace`` records the number of post-coalescing transactions of each
warp-level off-chip memory instruction in issue order — exactly the series
Figure 2 of the paper plots.  It downsamples transparently once the trace
exceeds ``max_points`` so long simulations stay O(1) in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .cache import CacheStats


class MemTrace:
    """Bounded trace of (instruction sequence number, transactions)."""

    def __init__(self, max_points: int = 4096):
        self.max_points = max_points
        self.stride = 1
        self.seq = 0
        self.points: list[tuple[int, int]] = []

    def record(self, transactions: int) -> None:
        # stride is always a power of two (starts at 1, only ever doubles),
        # so the decimation test is a bitmask, not a modulo.
        if not (self.seq & (self.stride - 1)):
            self.points.append((self.seq, transactions))
            if len(self.points) >= self.max_points:
                # Keep every other point and double the stride.
                self.points = self.points[::2]
                self.stride *= 2
        self.seq += 1

    def series(self) -> tuple[list[int], list[int]]:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        return xs, ys


@dataclass
class SMMetrics:
    """Counters for one simulated kernel launch on one SM."""

    cycles: int = 0
    instructions: int = 0
    warp_mem_insts: int = 0
    coalescer_requests: int = 0   # off-chip warp accesses entering the coalescer
    global_load_transactions: int = 0
    global_store_transactions: int = 0
    shared_transactions: int = 0
    l1_load: CacheStats = field(default_factory=CacheStats)
    l1_store_hits: int = 0
    l1_store_misses: int = 0
    l2_load: CacheStats = field(default_factory=CacheStats)
    dram_transactions: int = 0
    barriers: int = 0
    tbs_executed: int = 0
    # ATA-Cache mode: load misses serviced from a peer SM's L1 (no L2/DRAM
    # traffic), misses allocated on their second touch, and first-touch
    # misses serviced downstream without allocating.
    l1_remote_hits: int = 0
    ata_second_touches: int = 0
    ata_first_touch_bypasses: int = 0
    # Run-time governor activity (DynCTA/CIAO): TB pause/resume decisions
    # and warps placed on (not removed from) the per-warp bypass list.
    governor_pauses: int = 0
    governor_resumes: int = 0
    warps_bypassed: int = 0
    mem_trace: MemTrace = field(default_factory=MemTrace)

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_load.hit_rate

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_load.hit_rate

    def summary(self) -> dict:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "warp_mem_insts": self.warp_mem_insts,
            "coalescer_requests": self.coalescer_requests,
            "l1_hit_rate": round(self.l1_hit_rate, 4),
            "l2_hit_rate": round(self.l2_hit_rate, 4),
            "l1_evictions": self.l1_load.evictions,
            "global_load_transactions": self.global_load_transactions,
            "global_store_transactions": self.global_store_transactions,
            "dram_transactions": self.dram_transactions,
            "tbs_executed": self.tbs_executed,
            "l1_remote_hits": self.l1_remote_hits,
            "ata_second_touches": self.ata_second_touches,
            "ata_first_touch_bypasses": self.ata_first_touch_bypasses,
            "governor_pauses": self.governor_pauses,
            "governor_resumes": self.governor_resumes,
            "warps_bypassed": self.warps_bypassed,
        }


def aggregate_metrics(per_sm: list[SMMetrics]) -> SMMetrics:
    """Fold per-SM launch metrics into one whole-launch record.

    ``cycles`` is the max over SMs (the launch finishes when the slowest SM
    does); every other counter and cache-stat field is summed, so
    ``l2_hit_rate`` on the aggregate is the shared-L2 hit rate across all
    SMs' attributed accesses.  The Fig.-2 memory trace is taken from SM 0 —
    a representative sample, not a merge; the figure is a per-SM view.
    The fold walks the dataclass fields, so a new counter is aggregated
    without being listed here.
    """
    if not per_sm:
        raise ValueError("aggregate_metrics needs at least one SMMetrics")
    agg = SMMetrics()
    for f in fields(SMMetrics):
        name = f.name
        values = [getattr(m, name) for m in per_sm]
        if name == "cycles":
            agg.cycles = max(values)
        elif name == "mem_trace":
            agg.mem_trace = values[0]
        elif isinstance(values[0], CacheStats):
            stats = getattr(agg, name)
            for v in values:
                stats.merge(v)
        else:
            setattr(agg, name, sum(values))
    return agg
