"""GPU architecture descriptions for the simulator.

The default specification mirrors the Nvidia Titan V (Volta) used in the
paper's Table 1, scaled to the single-SM simulation the substrate performs
(see DESIGN.md §2).  All sizes are bytes unless a field name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024


def as_dim3(value) -> tuple[int, int, int]:
    """An int or a 1–3 element sequence as a ``dim3`` triple (missing axes
    are 1)."""
    if isinstance(value, int):
        return (value, 1, 1)
    return (tuple(value) + (1, 1, 1))[:3]


@dataclass(frozen=True)
class TimingModel:
    """Latency/bandwidth parameters for the event-driven timing model.

    The values are not cycle-exact Volta numbers; they are chosen in the
    published ballpark (L1 ~28 cy, L2 ~190 cy, DRAM ~400-600 cy on Volta) so
    the *ratios* that drive the paper's trade-off (TLP latency hiding vs. L1D
    thrashing) are realistic.
    """

    issue_cycles: int = 1          # per-instruction issue slot
    compute_cycles: int = 4        # ALU dependent-issue latency
    sfu_cycles: int = 16           # transcendental (sqrt/exp/...) latency
    l1_latency: int = 28
    l2_latency: int = 190
    dram_latency: int = 450
    shared_latency: int = 24
    # Per-transaction serialization in the LSU (address divergence cost) and
    # in the DRAM channel (bandwidth bottleneck under divergence floods).
    lsu_txn_cycles: int = 2
    l2_txn_cycles: int = 4
    dram_txn_cycles: int = 16
    barrier_cycles: int = 8
    # ATA-Cache remote hit: data forwarded from a peer SM's L1 over the
    # intra-cluster interconnect — slower than a local L1 hit, much faster
    # than the L2 round trip, and it consumes no L2/DRAM port bandwidth.
    l1_remote_latency: int = 60
    # Per-warp memory-level parallelism: how many warp-level loads may be in
    # flight before the warp stalls on the oldest one.  Models the unrolling
    # + scoreboarding every real kernel gets from nvcc; 1 = fully blocking.
    mem_pipeline_depth: int = 4


@dataclass(frozen=True)
class GPUSpec:
    """Static hardware description (Table 1 of the paper, Titan V)."""

    name: str = "TitanV"
    num_sms: int = 80
    warp_size: int = 32
    max_warps_per_sm: int = 64
    max_tbs_per_sm: int = 32
    max_threads_per_tb: int = 1024
    registers_per_sm: int = 65536          # 256 KB / 4 B
    max_registers_per_thread: int = 255
    unified_cache_bytes: int = 128 * KB    # shared between L1D and SMEM
    shared_carveouts_kb: tuple[int, ...] = (0, 8, 16, 32, 64, 96)
    cache_line: int = 128
    sector_size: int = 32                  # Volta caches fill 32 B sectors
    l1_assoc: int = 8   # Volta's L1D is highly associative; 8-way suffices
    l2_assoc: int = 16
    l2_total_bytes: int = 4608 * KB
    # Cap on the L1D regardless of carveout (models older architectures /
    # the Fig. 10 32 KB study). None = carveout fully determines the L1D.
    l1d_cap_bytes: int | None = None
    # SM count used for the L2-slice share; lets a single-SM simulation keep
    # the per-SM L2 share of the full 80-SM part. None = use num_sms.
    l2_share_sms: int | None = None
    # ATA-Cache reuse-filter reach, in multiples of the member L1s' combined
    # line capacity: the aggregated tag array remembers this many times more
    # line addresses than the data stores hold, so "second touch" can be
    # recognized after the first touch's bypass.
    ata_tag_factor: int = 2
    timing: TimingModel = field(default_factory=TimingModel)

    # ----- derived helpers -------------------------------------------------
    def l1d_bytes_for_carveout(self, shared_kb: int) -> int:
        """L1D capacity left once ``shared_kb`` is carved out for SMEM."""
        if shared_kb not in self.shared_carveouts_kb:
            raise ValueError(
                f"shared carveout {shared_kb} KB not configurable; "
                f"options are {self.shared_carveouts_kb}"
            )
        l1d = self.unified_cache_bytes - shared_kb * KB
        if self.l1d_cap_bytes is not None:
            l1d = min(l1d, self.l1d_cap_bytes)
        return max(l1d, self.l1_assoc * self.cache_line)

    def min_carveout_for(self, shared_bytes: int) -> int:
        """Smallest configurable carveout (KB) covering ``shared_bytes`` (Eq. 4)."""
        for kb in self.shared_carveouts_kb:
            if kb * KB >= shared_bytes:
                return kb
        raise ValueError(
            f"shared memory demand {shared_bytes} B exceeds the largest "
            f"carveout ({self.shared_carveouts_kb[-1]} KB)"
        )

    def l2_slice_bytes(self) -> int:
        """Effective L2 share for a single simulated SM.

        All SMs run homothetic TBs, so each SM's working set competes for
        roughly ``1/num_sms`` of the L2.  A floor of 4 cache lines per way
        keeps the model well-formed for tiny configurations.
        """
        return self.l2_shared_bytes(1)

    def l2_shared_bytes(self, sms: int) -> int:
        """L2 capacity shared by ``sms`` co-simulated SMs.

        The multi-SM engine models ``sms`` SMs contending for one L2 whose
        capacity is their combined share of the full part — the remaining
        (untimed) SMs still claim their slices.  At ``sms == 1`` this is
        exactly :meth:`l2_slice_bytes`, preserving the single-SM model
        bit-for-bit.  The same 4-lines-per-way floor applies.
        """
        physical = self.l2_share_sms or self.num_sms
        if not 1 <= sms <= physical:
            raise ValueError(
                f"sms must be in [1, {physical}] for {self.name}, got {sms}")
        shared = sms * self.l2_total_bytes // physical
        floor = self.l2_assoc * self.cache_line * 4
        return max(shared, floor)

    def with_l1_capped(self, l1_kb: int) -> "GPUSpec":
        """A spec whose L1D is capped at ``l1_kb`` KB regardless of carveout.

        Models the paper's 32 KB L1D sensitivity study (Fig. 10) and older
        architectures (Maxwell/Pascal) with fixed L1D capacities.
        """
        return replace(self, l1d_cap_bytes=l1_kb * KB, name=f"{self.name}-L1D{l1_kb}K")

    def single_sm(self) -> "GPUSpec":
        """Single-SM simulation variant keeping the full part's L2 share.

        Workloads launch grids sized for one SM (see DESIGN.md §2); all TBs
        are then both timed and functionally executed.
        """
        return replace(self, num_sms=1, l2_share_sms=self.num_sms,
                       name=f"{self.name}-1SM")


TITAN_V = GPUSpec()

# The Fig. 10 configuration: L1D fixed at 32 KB ("configured the L1D to
# 32KB" in §5.1.3).
TITAN_V_32K = TITAN_V.with_l1_capped(32)

# Default simulation target: one SM of a Titan V.
TITAN_V_SIM = TITAN_V.single_sm()
TITAN_V_SIM_32K = TITAN_V_32K.single_sm()


@dataclass(frozen=True)
class SMConfig:
    """Per-launch SM configuration resolved at 'compile time'.

    ``shared_carveout_kb`` follows Eq. 4; ``l1d_bytes`` is what remains of the
    unified cache.
    """

    spec: GPUSpec
    shared_carveout_kb: int

    @property
    def l1d_bytes(self) -> int:
        return self.spec.l1d_bytes_for_carveout(self.shared_carveout_kb)

    @property
    def shared_bytes(self) -> int:
        return self.shared_carveout_kb * KB
