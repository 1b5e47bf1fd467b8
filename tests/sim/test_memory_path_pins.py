"""Per-SM pins of every branch of the timing loop's memory path.

``test_multi_sm.py`` pins the interleave on streams that never evict an
L1D line, never hit the L2 outside ATA and carry no shared access or SFU
op.  The streams below reach the rest, at one and two SMs:

* a private footprint larger than a 32-KB L1D, re-read after other warps
  streamed theirs (L1D evictions, L2 hits, loads that hit on some lines
  and miss on others, MLP-window stalls);
* a region every TB reads (L1D hits, peer-L1 remote hits under ATA, L2
  hits across SMs);
* stores that hit and miss, shared-memory loads and stores, and compute
  events with SFU ops;
* blanket bypass (``l1_bypass``), the LRR scheduler, ATA, and a stub
  governor that drives a victim monitor and the per-warp bypass list.

Each row holds, per SM: ``summary()``, the L1 ``stats`` and
``write_stats``, the SM's share of the L2 ``stats`` (``l2_load``), the
L2's ``write_stats``, and the length and a digest of
``mem_trace.series()``; the monitor row adds the miss and eviction
reports the stub received.  The literals were recorded before the memory
path moved into the event loop, and every later change must reproduce
them exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sim.arch import TITAN_V_SIM, SMConfig
from repro.sim.cache import AggregatedTagArray
from repro.sim.events import SYNC_EVENT, ComputeEvent, mem_event
from repro.sim.gpu import GPUEngine
from repro.sim.sm import SMEngine

LINE = TITAN_V_SIM.cache_line
WARPS_PER_TB = 4
TBS = 8
# 96 KB of shared memory leaves a 32-KB L1D (256 lines).
CONFIG = SMConfig(TITAN_V_SIM, 96)
SHARED_REGION = 1 << 30


def _load(addrs):
    return mem_event(np.asarray(addrs, dtype=np.int64), 4, False, "global",
                     LINE)


def _store(addrs):
    return mem_event(np.asarray(addrs, dtype=np.int64), 4, True, "global",
                     LINE)


def _lanes(base, stride):
    return base + np.arange(32, dtype=np.int64) * stride


def _factory(tb_id):
    def warp(w):
        own = (tb_id * WARPS_PER_TB + w) * (1 << 16)
        yield ComputeEvent(4, 1)
        yield mem_event(np.arange(32), 4, True, "shared", LINE)
        # Stream 48 private lines: 4 warps x 2 resident TBs overrun the
        # 256-line L1D.
        yield _load(_lanes(own, LINE))                   # lines 0-31
        yield _load(_lanes(own + 32 * LINE, LINE // 2))  # lines 32-47
        for j in range(6):
            # One line each, read by every TB.
            yield _load(_lanes(SHARED_REGION + j * LINE, 4))
            yield ComputeEvent(2)
        yield mem_event(np.arange(32), 4, False, "shared", LINE)
        yield SYNC_EVENT
        # Re-read: the oldest lines mostly left the L1D, the newest stayed.
        yield _load(_lanes(own, 2 * LINE // 2))          # lines 0-31
        yield _load(_lanes(own + 16 * LINE, LINE))       # lines 16-47
        # Old and recent lines in one instruction, in both orders.
        yield _load(np.concatenate([_lanes(own, LINE)[:16],
                                    _lanes(own + 40 * LINE, 4)[:16]]))
        yield _load(np.concatenate([_lanes(own + 44 * LINE, 4)[:16],
                                    _lanes(own + 64 * LINE, LINE)[:16]]))
        yield ComputeEvent(0, 2)
        yield _store(_lanes(own, 4))                     # store hit
        yield _store(_lanes(own + (1 << 15), LINE))      # 32 store misses
        yield _store(_lanes(own + 8 * LINE, LINE))       # hits and misses
        yield _store(_lanes(SHARED_REGION + 7 * LINE, 4))
        yield _load(_lanes(SHARED_REGION, 4))
        yield ComputeEvent(3, 1)
    return [warp(w) for w in range(WARPS_PER_TB)]


class _BypassingMonitor:
    """A CIAO-shaped stub: the L1's victim monitor, and a governor that
    bypasses one more live warp per odd call and releases one per even
    call."""

    def __init__(self):
        self.calls = self.misses = self.evictions = 0

    def attach(self, engine):
        engine.l1_monitor = self
        engine.l1.monitor = self
        engine.bypass_warps.clear()

    def on_miss(self, owner):
        self.misses += 1

    def on_evict(self, victim_owner, aggressor):
        self.evictions += 1

    def __call__(self, engine):
        self.calls += 1
        bypass = engine.bypass_warps
        if self.calls % 2:
            live = [s.slot_index for s in engine.slots
                    if not s.done and s.slot_index not in bypass]
            if live:
                bypass.add(live[self.calls % len(live)])
                engine.metrics.warps_bypassed += 1
        elif bypass:
            bypass.discard(min(bypass))

    def clone(self):
        return _BypassingMonitor()


def _kwargs(setup, sms):
    if setup == "lrr":
        return {"scheduler": "lrr"}
    if setup == "bypass":
        return {"l1_bypass": True}
    if setup == "monitor":
        return {"governor": _BypassingMonitor(), "governor_period": 16}
    if setup == "ata":
        lines = CONFIG.l1d_bytes // LINE
        return {"ata": AggregatedTagArray(
            TITAN_V_SIM.ata_tag_factor * lines * sms)}
    return {}


def _stats(s):
    return (s.accesses, s.hits, s.misses, s.evictions)


def _row(engine):
    m = engine.metrics
    xs, ys = m.mem_trace.series()
    series = hashlib.sha256(repr((xs, ys)).encode()).hexdigest()[:16]
    row = (tuple(m.summary().values()), _stats(engine.l1.stats),
           _stats(engine.l1.write_stats), _stats(m.l2_load),
           _stats(engine.l2.write_stats), len(xs), series)
    governor = engine.governor
    if isinstance(governor, _BypassingMonitor):
        row += ((governor.calls, governor.misses, governor.evictions),)
    return row


def _run(setup, sms):
    gpu = GPUEngine(TITAN_V_SIM, CONFIG, sms, **_kwargs(setup, sms))
    gpu.run(list(range(TBS)), _factory, resident_limit=2)
    return [_row(engine) for engine in gpu.engines]


_PINNED = {
    ("plain", 1): [
        ((71699, 1344, 608, 544, 0.3513, 0.2114, 2920, 4896, 2112, 4104,
          8, 0, 0, 0, 0, 0, 0),
         (4896, 1720, 3176, 2920), (2112, 84, 2028, 2028),
         (5204, 1100, 4104, 3656), (0, 0, 0, 0),
         544, "cf103e5927daeed6"),
    ],
    ("plain", 2): [
        ((52976, 672, 304, 272, 0.4191, 0.1732, 1166, 2448, 1056, 2015, 4,
          0, 0, 0, 0, 0, 0),
         (2448, 1026, 1422, 1166), (1056, 41, 1015, 1015),
         (2437, 422, 2015, 1498), (0, 0, 0, 0),
         272, "fbc20c753595a004"),
        ((65634, 672, 304, 272, 0.3137, 0.1957, 1424, 2448, 1056, 2137, 4,
          0, 0, 0, 0, 0, 0),
         (2448, 768, 1680, 1424), (1056, 79, 977, 977),
         (2657, 520, 2137, 1742), (0, 0, 0, 0),
         272, "e401f3f82e31e346"),
    ],
    ("lrr", 1): [
        ((72387, 1344, 608, 544, 0.3484, 0.2077, 2934, 4896, 2112, 4136,
          8, 0, 0, 0, 0, 0, 0),
         (4896, 1706, 3190, 2934), (2112, 82, 2030, 2030),
         (5220, 1084, 4136, 3688), (0, 0, 0, 0),
         544, "069f32a97624b993"),
    ],
    ("lrr", 2): [
        ((64643, 672, 304, 272, 0.3378, 0.1819, 1365, 2448, 1056, 2141, 4,
          0, 0, 0, 0, 0, 0),
         (2448, 827, 1621, 1365), (1056, 60, 996, 996),
         (2617, 476, 2141, 1624), (0, 0, 0, 0),
         272, "5cf18a83cd5406a9"),
        ((61555, 672, 304, 272, 0.3378, 0.2461, 1365, 2448, 1056, 1967, 4,
          0, 0, 0, 0, 0, 0),
         (2448, 827, 1621, 1365), (1056, 68, 988, 988),
         (2609, 642, 1967, 1572), (0, 0, 0, 0),
         272, "8ccf8b92c5899f5e"),
    ],
    ("bypass", 1): [
        ((74248, 1344, 608, 544, 0.0, 0.3796, 0, 4896, 2112, 4331, 8, 0,
          0, 0, 0, 0, 0),
         (0, 0, 0, 0), (2112, 27, 2085, 1829),
         (6981, 2650, 4331, 3883), (0, 0, 0, 0),
         544, "8d823b62cefc0181"),
    ],
    ("bypass", 2): [
        ((56140, 672, 304, 272, 0.0, 0.4512, 0, 2448, 1056, 1916, 4, 0, 0,
          0, 0, 0, 0),
         (0, 0, 0, 0), (1056, 13, 1043, 787),
         (3491, 1575, 1916, 1418), (0, 0, 0, 0),
         272, "c73f7db98a9b9b4e"),
        ((62284, 672, 304, 272, 0.0, 0.4307, 0, 2448, 1056, 1987, 4, 0, 0,
          0, 0, 0, 0),
         (0, 0, 0, 0), (1056, 14, 1042, 786),
         (3490, 1503, 1987, 1573), (0, 0, 0, 0),
         272, "789d5207ebb917c8"),
    ],
    ("monitor", 1): [
        ((70153, 1344, 608, 544, 0.363, 0.1772, 2740, 4896, 2112, 4294, 8,
          0, 0, 0, 0, 0, 30),
         (4703, 1707, 2996, 2740), (2112, 82, 2030, 2030),
         (5219, 925, 4294, 3846), (0, 0, 0, 0),
         544, "cb2d2fa6cb7a9278", (60, 2996, 1502)),
    ],
    ("monitor", 2): [
        ((52848, 672, 304, 272, 0.4202, 0.201, 1055, 2448, 1056, 2008, 4,
          0, 0, 0, 0, 0, 15),
         (2261, 950, 1311, 1055), (1056, 41, 1015, 1015),
         (2513, 505, 2008, 1491), (0, 0, 0, 0),
         272, "fbc20c753595a004", (30, 1311, 565)),
        ((65538, 672, 304, 272, 0.3322, 0.1871, 1254, 2448, 1056, 2138, 4,
          0, 0, 0, 0, 0, 15),
         (2261, 751, 1510, 1254), (1056, 123, 933, 933),
         (2630, 492, 2138, 1743), (0, 0, 0, 0),
         272, "e401f3f82e31e346", (30, 1510, 635)),
    ],
    ("ata", 1): [
        ((71554, 1344, 608, 544, 0.2036, 0.2651, 1630, 4896, 2112, 4222,
          8, 0, 1828, 2071, 0, 0, 0),
         (4896, 997, 3899, 1630), (2112, 266, 1846, 1788),
         (5745, 1523, 4222, 3774), (0, 0, 0, 0),
         544, "8832bb346b340c10"),
    ],
    ("ata", 2): [
        ((51128, 672, 304, 272, 0.2059, 0.3164, 644, 2448, 1056, 1919, 4,
          75, 836, 1033, 0, 0, 0),
         (2448, 504, 1944, 644), (1056, 118, 938, 874),
         (2807, 888, 1919, 1421), (0, 0, 0, 0),
         272, "c939a709b9f34a46"),
        ((63592, 672, 304, 272, 0.223, 0.2218, 646, 2448, 1056, 2098, 4,
          32, 844, 1026, 0, 0, 0),
         (2448, 546, 1902, 646), (1056, 230, 826, 768),
         (2696, 598, 2098, 1684), (0, 0, 0, 0),
         272, "a9d95101b78f26d9"),
    ],
}


@pytest.mark.parametrize("setup,sms", sorted(_PINNED))
def test_memory_path_matches_pinned_rows(setup, sms):
    assert _run(setup, sms) == _PINNED[setup, sms]


@pytest.mark.parametrize("setup", sorted({s for s, _ in _PINNED}))
def test_single_sm_entry_point_matches(setup):
    engine = SMEngine(TITAN_V_SIM, CONFIG, **_kwargs(setup, 1))
    engine.run(list(range(TBS)), _factory, resident_limit=2)
    assert [_row(engine)] == _PINNED[setup, 1]
