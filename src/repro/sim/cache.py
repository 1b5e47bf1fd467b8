"""Set-associative LRU cache model.

Used for both the L1D (per SM) and the simulated L2 slice.  The model tracks
tags only — data always lives in the runtime's backing NumPy buffers — so an
access is a dictionary probe, keeping simulation O(1) per transaction.

Addresses entering a :class:`Cache` are **line addresses** (byte address
right-shifted by the line-size log2); the coalescer produces them.  The
timing loop probes a whole memory instruction with one
:meth:`Cache.access_lines` call; the single-line methods are that call on
one line.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into this record (per-SM -> aggregate)."""
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions


class Cache:
    """A tag-only, write-allocate, set-associative LRU cache.

    Parameters
    ----------
    size_bytes:
        Total capacity.  Rounded down to a whole number of sets; must hold at
        least one set of ``assoc`` lines.
    line_size:
        Cache line (and allocation) granularity in bytes.
    assoc:
        Associativity.  ``assoc <= 0`` means fully associative.
    """

    def __init__(self, size_bytes: int, line_size: int = 128, assoc: int = 4,
                 name: str = "cache", index_hash: bool = True):
        if size_bytes < line_size * max(assoc, 1):
            raise ValueError(
                f"{name}: capacity {size_bytes} B below one set "
                f"({max(assoc,1)} lines of {line_size} B)"
            )
        self.name = name
        self.line_size = line_size
        num_lines = size_bytes // line_size
        if assoc <= 0 or assoc > num_lines:
            assoc = num_lines
        self.assoc = assoc
        self.num_sets = max(num_lines // assoc, 1)
        self.size_bytes = self.num_sets * assoc * line_size
        # One insertion-ordered dict per set: line_addr -> True, LRU at the
        # front.  A plain dict beats OrderedDict here: move-to-end becomes
        # delete + reinsert and eviction pops ``next(iter(set))``, all of
        # which are faster than the linked-list bookkeeping.
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(self.num_sets)
        ]
        # GPU L1/L2 caches hash upper address bits into the set index so
        # power-of-two strides (ubiquitous in row-major GPU arrays) do not
        # collapse onto a few sets.  XOR-folding reproduces that behaviour;
        # without it, capacity-based footprint reasoning (Eq. 8) would be
        # defeated by conflict misses the real hardware does not exhibit.
        # The set index folds the line address with this shift.  A shift
        # past the 64-bit line range folds in nothing (x ^ (x >> 64) ^
        # (x >> 128) == x for every int64 x), which is the unhashed index,
        # so one expression serves both.
        self.index_hash = index_hash
        self._fold = (max(self.num_sets.bit_length() - 1, 1) if index_hash
                      else 64)
        self.stats = CacheStats()        # loads
        self.write_stats = CacheStats()  # stores
        # Optional interference monitor (the CIAO feed).  When set, loads
        # probed with an ``owner`` report per-owner misses and cross-owner
        # evictions to it; unowned probes never consult it, so un-monitored
        # runs pay nothing.
        self.monitor = None

    def _set_of(self, line_addr: int) -> dict:
        sh = self._fold
        return self._sets[(line_addr ^ (line_addr >> sh)
                           ^ (line_addr >> (2 * sh))) % self.num_sets]

    # ------------------------------------------------------------------
    def access_lines(self, lines, stats: CacheStats,
                     owner: int | bool = True) -> list[int]:
        """Probe one memory instruction's lines in order; allocate on miss.

        This is the timing loop's one cache call per instruction.  Each
        line is looked up, moved to the MRU end of its set on a hit, and
        allocated (evicting the set's LRU line when full) on a miss.
        ``stats`` — ``self.stats`` for loads, ``self.write_stats`` for
        stores, or one SM's share of a shared L2 — is added to once, for
        the whole instruction.  Returns the positions in ``lines`` that
        missed, in ascending order.

        ``owner`` (a warp-slot index) makes the probe monitored, as CIAO
        needs: each line records its allocator, each miss is reported to
        ``monitor`` and so is each eviction of a line another owner
        allocated.  Lines probed without an owner hold ``True``, which is
        not an ``int`` owner, so evicting one reports nothing.
        """
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        sh = self._fold
        sh2 = 2 * sh
        monitor = None if owner is True else self.monitor
        missed = []
        evictions = 0
        for i, line in enumerate(lines):
            s = sets[(line ^ (line >> sh) ^ (line >> sh2)) % num_sets]
            if line in s:
                del s[line]
                s[line] = owner
                continue
            missed.append(i)
            if monitor is not None:
                monitor.on_miss(owner)
            if len(s) >= assoc:
                evictions += 1
                prev = s.pop(next(iter(s)))
                # ``type(prev) is int`` excludes the unowned ``True``.
                if monitor is not None and type(prev) is int \
                        and prev != owner:
                    monitor.on_evict(prev, owner)
            s[line] = owner
        n = len(lines)
        n_missed = len(missed)
        stats.accesses += n
        stats.hits += n - n_missed
        stats.misses += n_missed
        stats.evictions += evictions
        return missed

    def access(self, line_addr: int) -> bool:
        """Probe (and on miss, allocate) one load line. Returns True on hit."""
        return not self.access_lines((line_addr,), self.stats)

    def write(self, line_addr: int) -> bool:
        """Write-allocate store probe of one line.  Returns True on hit.

        Store hits coalesce in the cache (no downstream traffic); store
        misses allocate, so divergent store footprints occupy L1D capacity —
        consistent with Eq. 8 counting stores among the memory instructions
        that fill the cache.  Tracked in ``write_stats`` so the load hit
        rate (``stats``, what nvprof-style figures report) stays clean.
        Dirty-eviction write-back traffic is not modeled (DESIGN.md §6).
        """
        return not self.access_lines((line_addr,), self.write_stats)

    def access_owned(self, line_addr: int, owner: int) -> bool:
        """Monitored load probe of one line: :meth:`access` plus victim
        attribution to ``owner`` (see :meth:`access_lines`)."""
        return not self.access_lines((line_addr,), self.stats, owner)

    def touch(self, line_addr: int) -> bool:
        """Load probe with LRU/stat updates but **no allocation** on miss.

        The ATA-mode L1 front end: a first-touch line must not displace a
        resident one, so the miss is recorded (and serviced downstream) while
        the tag store stays untouched.  Allocation, when the aggregated tag
        array approves it, goes through :meth:`fill`.
        """
        s = self._set_of(line_addr)
        st = self.stats
        st.accesses += 1
        if line_addr in s:
            st.hits += 1
            del s[line_addr]
            s[line_addr] = True
            return True
        st.misses += 1
        return False

    def fill(self, line_addr: int) -> None:
        """Allocate a line whose miss was already counted by :meth:`touch`.

        Only eviction accounting happens here — the access/miss landed on
        the touch, so a touch-then-fill pair costs exactly one access like
        the fused :meth:`access` path.
        """
        s = self._set_of(line_addr)
        if line_addr in s:
            del s[line_addr]
            s[line_addr] = True
            return
        if len(s) >= self.assoc:
            del s[next(iter(s))]
            self.stats.evictions += 1
        s[line_addr] = True

    def probe(self, line_addr: int) -> bool:
        """Check residency without updating LRU state or stats."""
        return line_addr in self._set_of(line_addr)

    def invalidate_all(self) -> None:
        for s in self._sets:
            s.clear()

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cache({self.name}, {self.size_bytes}B, {self.num_sets}x"
            f"{self.assoc}way, hit_rate={self.stats.hit_rate:.3f})"
        )


# :meth:`AggregatedTagArray.lookup` verdicts for a local L1 load miss.
ATA_REMOTE = 0   # line resident in a peer L1 — remote hit, no allocation
ATA_SEEN = 1     # second touch within tag reach — allocate locally
ATA_NEW = 2      # first touch — service downstream, bypass allocation


class AggregatedTagArray:
    """ATA-Cache's shared tag directory over the member L1Ds.

    The aggregated tag array (PAPERS.md, ATA-Cache) keeps one logical tag
    store spanning every SM's L1 so a local miss can be resolved three ways
    before touching L2: a **remote hit** in a peer L1 (data forwarded at
    ``l1_remote_latency``, no local allocation), a **second touch** of a
    line the array has seen recently (allocate locally — the line has
    demonstrated reuse), or a **first touch** (service from L2/DRAM without
    allocating, so streaming footprints stop evicting reused lines).

    Peer residency is answered by :meth:`Cache.probe` against the live
    member tag stores — always exact, no shadow-directory coherence to
    maintain.  The reuse filter is a bounded LRU over recently-touched line
    addresses; its reach (``tag_entries``) scales with the members' combined
    capacity via ``GPUSpec.ata_tag_factor``.
    """

    def __init__(self, tag_entries: int):
        self.tag_entries = max(int(tag_entries), 1)
        self._tags: dict[int, bool] = {}
        self._members: list[Cache] = []

    def register(self, l1: Cache) -> int:
        """Enroll one member L1; returns its member index."""
        self._members.append(l1)
        return len(self._members) - 1

    def lookup(self, line_addr: int, member: int) -> int:
        """Classify a load miss from ``member``; returns an ``ATA_*`` verdict."""
        members = self._members
        if len(members) > 1:
            for i, l1 in enumerate(members):
                if i != member and l1.probe(line_addr):
                    return ATA_REMOTE
        tags = self._tags
        if line_addr in tags:
            del tags[line_addr]
            tags[line_addr] = True
            return ATA_SEEN
        if len(tags) >= self.tag_entries:
            del tags[next(iter(tags))]
        tags[line_addr] = True
        return ATA_NEW
