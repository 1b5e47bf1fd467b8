"""Cache model tests: LRU semantics, write policy, hashing, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import Cache


def make(size=1024, line=128, assoc=2, hash_=False):
    return Cache(size, line, assoc, index_hash=hash_)


def test_cold_miss_then_hit():
    c = make()
    assert not c.access(5)
    assert c.access(5)
    assert c.stats.accesses == 2
    assert c.stats.hits == 1


def test_lru_eviction_order():
    # 1 set of 2 ways (256 B, 2-way, no hashing, addresses map to set 0)
    c = Cache(256, 128, 2, index_hash=False)
    c.access(0)
    c.access(2)     # set 0 again (2 % 2 == 0)
    c.access(4)     # evicts 0 (LRU)
    assert not c.probe(0)
    assert c.probe(2) and c.probe(4)


def test_access_refreshes_lru():
    c = Cache(256, 128, 2, index_hash=False)
    c.access(0)
    c.access(2)
    c.access(0)     # refresh 0
    c.access(4)     # now evicts 2
    assert c.probe(0) and not c.probe(2)


def test_write_allocate():
    c = make()
    assert not c.write(7)
    assert c.probe(7)               # stores allocate (write-allocate)
    assert c.write(7)               # and subsequent stores coalesce
    assert c.write_stats.accesses == 2
    assert c.write_stats.hits == 1
    assert c.stats.accesses == 0    # load stats stay clean


def test_write_refreshes_lru():
    c = Cache(256, 128, 2, index_hash=False)
    c.access(0)
    c.access(2)
    assert c.write(0)
    c.access(4)
    assert c.probe(0) and not c.probe(2)


def test_capacity_rounding():
    c = Cache(1000, 128, 4)
    assert c.size_bytes <= 1000
    assert c.size_bytes % (128 * 4) == 0


def test_too_small_capacity_rejected():
    with pytest.raises(ValueError):
        Cache(100, 128, 4)


def test_fully_associative():
    c = Cache(512, 128, 0)
    assert c.num_sets == 1
    assert c.assoc == 4


def test_invalidate_all():
    c = make()
    for i in range(4):
        c.access(i)
    c.invalidate_all()
    assert c.resident_lines() == 0


def test_hashing_spreads_power_of_two_strides():
    """With modulo indexing a stride of num_sets collapses into one set;
    hashing must spread it (the GPU-L1 behaviour DESIGN.md documents)."""
    plain = Cache(128 * 128, 128, 1, index_hash=False)   # 128 sets, direct
    hashed = Cache(128 * 128, 128, 1, index_hash=True)
    lines = [i * 128 for i in range(64)]  # stride = num_sets
    for ln in lines:
        plain.access(ln)
        hashed.access(ln)
    # plain: all map to set 0 -> only 1 resident line; hashed: most survive.
    assert plain.resident_lines() == 1
    assert hashed.resident_lines() > 32


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4096), min_size=1, max_size=300))
def test_cache_invariants(addresses):
    c = Cache(2048, 128, 4)
    for a in addresses:
        c.access(a)
        assert c.probe(a)   # just-accessed line is always resident
    stats = c.stats
    assert stats.hits + stats.misses == stats.accesses == len(addresses)
    assert c.resident_lines() <= c.num_sets * c.assoc
    assert stats.evictions == stats.misses - c.resident_lines()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=64))
def test_small_working_set_always_hits_after_warmup(addresses):
    """A working set no larger than capacity never misses after first touch."""
    c = Cache(16 * 128, 128, 0)  # fully associative, 16 lines
    seen = set()
    for a in addresses:
        hit = c.access(a)
        assert hit == (a in seen)
        seen.add(a)


# ---------------------------------------------------------------------------
# LRU edge cases
# ---------------------------------------------------------------------------


def test_lru_order_under_repeated_rereference():
    """Re-referencing must rotate the victim, not just refresh once: with a
    4-way set, the eviction order tracks recency exactly."""
    c = Cache(4 * 128, 128, 4, index_hash=False)  # one set, 4 ways
    for a in (0, 1, 2, 3):
        c.access(a)
    # Recency now 0 < 1 < 2 < 3.  Touch 0 and 1 again -> victim becomes 2.
    c.access(0)
    c.access(1)
    c.access(4)                     # evicts 2
    assert not c.probe(2)
    assert all(c.probe(a) for a in (0, 1, 3, 4))
    c.access(5)                     # next victim is 3
    assert not c.probe(3)
    assert all(c.probe(a) for a in (0, 1, 4, 5))


def test_single_set_degenerate_config():
    """Capacity == one set: every address maps to set 0 and the cache
    behaves as a recency list of ``assoc`` lines."""
    c = Cache(2 * 128, 128, 2, index_hash=False)
    assert c.num_sets == 1
    # Wildly spread addresses still share the single set.
    c.access(0)
    c.access(10_000)
    c.access(123_456)               # evicts 0
    assert c.resident_lines() == 2
    assert not c.probe(0)
    assert c.probe(10_000) and c.probe(123_456)
    assert c.stats.evictions == 1


def test_hit_does_not_evict():
    c = Cache(2 * 128, 128, 2, index_hash=False)
    c.access(0)
    c.access(1)
    for _ in range(5):
        c.access(0)
        c.access(1)
    assert c.stats.evictions == 0
    assert c.resident_lines() == 2


def test_cachestats_reset():
    c = make()
    c.access(0)
    c.access(0)
    c.write(0)
    st_ = c.stats
    assert (st_.accesses, st_.hits, st_.misses) == (2, 1, 1)
    st_.reset()
    assert (st_.accesses, st_.hits, st_.misses, st_.evictions) == (0, 0, 0, 0)
    assert st_.hit_rate == 0.0      # no division by zero after reset
    c.write_stats.reset()
    assert c.write_stats.accesses == 0
    # Reset clears counters only — residency is untouched.
    assert c.probe(0)
    assert c.access(0)              # still a hit
    assert c.stats.accesses == 1


# ---------------------------------------------------------------------------
# Edge configurations: degenerate set counts and hash/probe consistency
# ---------------------------------------------------------------------------


def test_single_set_with_index_hash():
    """num_sets == 1 and hashing on: every address must still land in the
    one set (h % 1 == 0) and the cache degenerates to a recency list."""
    c = Cache(2 * 128, 128, 2, index_hash=True)
    assert c.num_sets == 1
    c.access(0)
    c.access(10_000)
    c.access(123_456)               # evicts the LRU line
    assert c.resident_lines() == 2
    assert not c.probe(0)
    assert c.probe(10_000) and c.probe(123_456)
    assert c.stats.evictions == 1


@pytest.mark.parametrize("assoc", [0, -1, -16])
def test_fully_associative_nonpositive_assoc(assoc):
    """assoc <= 0 means fully associative: one set holding every line."""
    c = Cache(8 * 128, 128, assoc)
    assert c.num_sets == 1
    assert c.assoc == 8
    for a in range(8):
        c.access(a * 1000)          # wildly spread; all resident
    assert c.resident_lines() == 8
    assert all(c.probe(a * 1000) for a in range(8))
    c.access(9_999_999)             # ninth line evicts exactly one
    assert c.resident_lines() == 8
    assert c.stats.evictions == 1


def test_assoc_larger_than_line_count_clamped():
    # Fully-associative request (assoc=0) on a capacity that rounds to a
    # single 4-line set; an explicit assoc above the line count is rejected
    # by the one-set capacity check instead.
    c = Cache(4 * 128, 128, 0, index_hash=False)
    assert c.assoc == 4 and c.num_sets == 1
    with pytest.raises(ValueError):
        Cache(4 * 128, 128, 8)


@settings(max_examples=60, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=128),
    hash_=st.booleans(),
    assoc=st.sampled_from([0, 1, 2, 4]),
    sets_lines=st.sampled_from([4, 16, 64]),
)
def test_probe_access_write_agree_on_set_selection(addresses, hash_, assoc,
                                                   sets_lines):
    """``probe`` (shared ``_set_of``) and the inlined index math in
    ``access``/``write`` must pick the same set for every address — on any
    config, including num_sets == 1 and hashed indexes."""
    c = Cache(sets_lines * 128, 128, assoc, index_hash=hash_)
    for a in addresses:
        c.access(a)
        assert c.probe(a)           # just-allocated line is visible to probe
        c.write(a)                  # ...and the store path finds it: a hit
    assert c.write_stats.misses == 0
    assert c.stats.hits + c.stats.misses == len(addresses)


# -- monitored (CIAO) and ATA access paths -----------------------------------

def _stats_tuple(st):
    return (st.accesses, st.hits, st.misses, st.evictions)


class RecordingMonitor:
    """Captures the victim-attribution callbacks the CIAO governor consumes."""

    def __init__(self):
        self.misses = []
        self.evicts = []

    def on_miss(self, owner):
        self.misses.append(owner)

    def on_evict(self, victim_owner, aggressor):
        self.evicts.append((victim_owner, aggressor))


def test_access_owned_matches_access_stats():
    plain = Cache(256, 128, 2, index_hash=False)
    owned = Cache(256, 128, 2, index_hash=False)
    seq = [0, 2, 0, 4, 2, 6, 0]
    for a in seq:
        assert plain.access(a) == owned.access_owned(a, owner=7)
    assert _stats_tuple(plain.stats) == _stats_tuple(owned.stats)


def test_access_owned_attributes_evictions_to_allocator():
    c = Cache(256, 128, 2, index_hash=False)   # one 2-way set
    mon = RecordingMonitor()
    c.monitor = mon
    c.access_owned(0, owner=3)
    c.access_owned(2, owner=5)
    c.access_owned(4, owner=9)      # evicts line 0, allocated by warp 3
    assert mon.misses == [3, 5, 9]
    assert mon.evicts == [(3, 9)]


def test_access_owned_self_eviction_not_reported():
    c = Cache(256, 128, 2, index_hash=False)
    mon = RecordingMonitor()
    c.monitor = mon
    c.access_owned(0, owner=3)
    c.access_owned(2, owner=3)
    c.access_owned(4, owner=3)      # evicts its own line: no interference
    assert mon.evicts == []
    assert c.stats.evictions == 1   # ...but the eviction itself still counts


def test_access_owned_skips_plain_path_sentinels():
    """Lines allocated by the unmonitored path carry a ``True`` sentinel;
    evicting one must not produce a bogus (True, owner) report."""
    c = Cache(256, 128, 2, index_hash=False)
    mon = RecordingMonitor()
    c.monitor = mon
    c.access(0)                     # plain allocation (value True)
    c.access(2)
    c.access_owned(4, owner=9)      # evicts the plain line 0
    assert mon.evicts == []
    assert mon.misses == [9]


def test_touch_never_allocates_on_miss():
    c = Cache(256, 128, 2, index_hash=False)
    assert not c.touch(0)
    assert not c.probe(0)           # miss recorded, line NOT resident
    assert c.stats.accesses == 1 and c.stats.misses == 1
    assert not c.touch(0)           # still a miss: nothing was allocated
    assert c.stats.misses == 2


def test_touch_hit_refreshes_lru():
    c = Cache(256, 128, 2, index_hash=False)
    c.fill(0)
    c.fill(2)
    assert c.touch(0)               # hit; 0 becomes MRU
    c.fill(4)                       # evicts 2, not 0
    assert c.probe(0) and not c.probe(2)
    assert c.stats.hits == 1


def test_touch_then_fill_costs_one_access():
    """The ATA split path must account exactly like the fused ``access``:
    one access + one miss per load, evictions only on allocation."""
    fused = Cache(256, 128, 2, index_hash=False)
    split = Cache(256, 128, 2, index_hash=False)
    for a in (0, 2, 4, 0):
        fused.access(a)
        if not split.touch(a):
            split.fill(a)
    assert _stats_tuple(fused.stats) == _stats_tuple(split.stats)
    assert fused.resident_lines() == split.resident_lines()


def test_fill_is_idempotent_on_resident_line():
    c = Cache(256, 128, 2, index_hash=False)
    c.fill(0)
    c.fill(0)
    assert c.resident_lines() == 1
    assert c.stats.accesses == 0    # fill never counts accesses


def test_ata_first_touch_then_second_touch():
    from repro.sim.cache import ATA_NEW, ATA_SEEN, AggregatedTagArray

    ata = AggregatedTagArray(tag_entries=4)
    l1 = Cache(256, 128, 2, index_hash=False)
    m = ata.register(l1)
    assert ata.lookup(0, m) == ATA_NEW      # first touch: bypass allocation
    assert ata.lookup(0, m) == ATA_SEEN     # demonstrated reuse: allocate


def test_ata_remote_hit_beats_reuse_filter():
    from repro.sim.cache import ATA_REMOTE, ATA_SEEN, AggregatedTagArray

    ata = AggregatedTagArray(tag_entries=4)
    a = Cache(256, 128, 2, index_hash=False)
    b = Cache(256, 128, 2, index_hash=False)
    ma, mb = ata.register(a), ata.register(b)
    ata.lookup(0, ma)
    a.fill(0)                               # line now resident in peer A
    assert ata.lookup(0, mb) == ATA_REMOTE  # B's miss resolves peer-side
    # A's own residency never counts as remote for A itself.
    assert ata.lookup(0, ma) == ATA_SEEN


def test_ata_tag_filter_is_bounded_lru():
    from repro.sim.cache import ATA_NEW, ATA_SEEN, AggregatedTagArray

    ata = AggregatedTagArray(tag_entries=2)
    l1 = Cache(256, 128, 2, index_hash=False)
    m = ata.register(l1)
    ata.lookup(0, m)
    ata.lookup(128, m)
    ata.lookup(256, m)                      # pushes tag 0 out (LRU bound)
    assert ata.lookup(0, m) == ATA_NEW      # forgotten: first touch again
    assert ata.lookup(256, m) == ATA_SEEN


def test_access_lines_matches_probing_line_by_line():
    """One call per instruction gives the hits, LRU state and stats of
    probing its lines one at a time, and returns the missed positions."""
    lines = [0, 2, 0, 4, 2, 1, 3, 1, 0, 5]
    batched = Cache(512, 128, 2, index_hash=False)   # 2 sets of 2 ways
    single = Cache(512, 128, 2, index_hash=False)
    missed = batched.access_lines(lines, batched.stats)
    assert missed == [i for i, a in enumerate(lines) if not single.access(a)]
    assert 0 < len(missed) < len(lines)
    assert _stats_tuple(batched.stats) == _stats_tuple(single.stats)
    assert all(batched.probe(a) == single.probe(a) for a in range(12))
