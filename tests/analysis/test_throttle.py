"""Throttling-factor search tests (Eq. 9)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.footprint import AccessFootprint, LoopFootprint
from repro.analysis.locality import AccessLocality
from repro.analysis.loops import MemAccess
from repro.analysis.affine import AffineForm
from repro.analysis.throttle import candidate_ns, find_throttle


def make_footprint(req_per_warp_parts, warps, tbs):
    per_access = tuple(
        AccessFootprint(
            AccessLocality(
                MemAccess("a", AffineForm.constant(0), 4, True, False, 0),
                inter_thread_elems=1, intra_thread_elems=0, cache_line=128,
            ),
            req, 1,
        )
        for req in req_per_warp_parts
    )
    return LoopFootprint(0, per_access, warps, tbs, 128)


def const_cap(lines):
    return lambda tbs: lines


def test_no_throttle_when_fits():
    fp = make_footprint([34], 8, 4)          # 1088 lines
    dec = find_throttle(fp, const_cap(2048))
    assert not dec.needed and dec.fits
    assert dec.tlp == (8, 4)


def test_warp_level_first():
    fp = make_footprint([34], 8, 4)          # 1088 lines
    dec = find_throttle(fp, const_cap(1024))
    assert dec.needed and dec.fits
    assert dec.n == 2 and dec.m == 0
    assert dec.tlp == (4, 4)


def test_deeper_warp_throttle():
    fp = make_footprint([34], 8, 4)
    dec = find_throttle(fp, const_cap(256))
    # N=8 -> 34*1*4 = 136 <= 256
    assert dec.n == 8 and dec.m == 0
    assert dec.tlp == (1, 4)


def test_tb_level_engages_after_warp_max():
    fp = make_footprint([34], 8, 4)
    dec = find_throttle(fp, const_cap(100))
    # N=8 min warps: 136 > 100; M=1 -> 34*1*3=102 > 100; M=2 -> 68 <= 100.
    assert dec.n == 8 and dec.m == 2
    assert dec.tlp == (1, 2)


def test_unresolvable_left_untouched():
    fp = make_footprint([34], 8, 4)
    dec = find_throttle(fp, const_cap(10))
    assert dec.needed and not dec.fits
    assert dec.tlp == (8, 4)  # untouched


def test_unbounded_footprint_unresolvable():
    per_access = (AccessFootprint(
        AccessLocality(
            MemAccess("a", AffineForm.constant(0), 4, True, False, 0),
            1, 0, 128,
        ), 1, None,
    ),)
    fp = LoopFootprint(0, per_access, 8, 4, 128)
    dec = find_throttle(fp, const_cap(100000))
    assert not dec.fits and dec.needed


def test_tb_capacity_callback_consulted_per_m():
    """TB throttling that shrinks the L1D must be checked against the
    shrunken capacity, not the original one."""
    fp = make_footprint([34], 8, 4)

    def cap(tbs):
        return 136 if tbs >= 4 else 16  # carving out shared memory kills L1D

    dec = find_throttle(fp, cap)
    # N=8 fits at M=0 (136 <= 136); TB level never needed.
    assert dec.n == 8 and dec.m == 0


def test_candidate_ns_power_of_two():
    assert candidate_ns(8) == [1, 2, 4, 8]
    assert candidate_ns(16) == [1, 2, 4, 8, 16]
    assert candidate_ns(6) == [1, 2, 6]   # 6 warps: halves, then all
    assert candidate_ns(1) == [1]


@settings(max_examples=100, deadline=None)
@given(
    req=st.integers(1, 200),
    warps=st.sampled_from([1, 2, 4, 6, 8, 16, 32]),
    tbs=st.integers(1, 16),
    cap=st.integers(1, 4096),
)
def test_decision_invariants(req, warps, tbs, cap):
    fp = make_footprint([req], warps, tbs)
    dec = find_throttle(fp, const_cap(cap))
    assert 1 <= dec.active_warps <= warps
    assert 1 <= dec.active_tbs <= tbs
    if dec.fits and dec.needed:
        # The chosen TLP's footprint respects the capacity.
        assert fp.throttled_lines(dec.n, dec.m) <= cap
        # Minimality of N at M=0: N/2 would not have fit.
        if dec.m == 0 and dec.n > 1:
            prev = [n for n in candidate_ns(warps) if n < dec.n][-1]
            assert fp.throttled_lines(prev, 0) > cap
    if not dec.needed:
        assert fp.size_req_lines <= cap
        assert dec.n == 1 and dec.m == 0


def test_tb_only_decision_counts_as_throttling():
    """A (n=1, m=1) decision — the only reachable shape at 1 warp per TB —
    reduces residency by one TB and must report ``throttles``."""
    fp = make_footprint([34], 1, 4)          # 136 lines, single warp
    dec = find_throttle(fp, const_cap(110))
    # N search is exhausted immediately (candidate_ns(1) == [1]); M=1 gives
    # 34 * 1 * 3 = 102 <= 110.
    assert (dec.n, dec.m) == (1, 1)
    assert dec.tlp == (1, 3)
    assert dec.throttles is True
