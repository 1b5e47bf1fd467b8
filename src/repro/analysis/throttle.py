"""Throttling-factor search (Eq. 9 and §4.3's ordering rules).

Finds the smallest warp-division factor ``N`` (then, only if needed, the TB
reduction ``M``) that brings a loop's footprint inside the L1D:

    SIZE'_req = Σ REQ_warp × (#Warps_TB / N) × (#TB_SM − M)  ≤  L1D capacity

Rules from the paper:

* ``N`` is searched over powers of two and cannot exceed ``#Warps_TB``;
* warp-level throttling is preferred — ``M`` only grows once ``N`` is maxed;
* if even the minimum TLP (1 warp, 1 TB) does not fit, the loop is left
  untouched (the CORR case: "optimization ... is not taken into account");
* on unified-cache architectures TB-level throttling costs L1D capacity
  (the dummy ``__shared__`` array raises the carveout), so the capacity used
  to test a candidate ``M`` is supplied per-TB-count by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .footprint import LoopFootprint


@dataclass(frozen=True)
class ThrottleDecision:
    """The (N, M) choice for one loop, plus the resulting TLP."""

    loop_id: int
    n: int                 # warp division factor (1 = no warp throttling)
    m: int                 # TB reduction (0 = no TB throttling)
    warps_per_tb: int      # original warps per TB
    tb_sm: int             # original TBs per SM
    size_req_lines: int | None  # Eq. 8 footprint; None = unbounded
    l1d_lines: int         # capacity the decision was tested against
    fits: bool             # False = contention unresolvable (CORR case)
    needed: bool           # True when the original footprint exceeded the L1D

    @property
    def active_warps(self) -> int:
        return max(self.warps_per_tb // self.n, 1)

    @property
    def active_tbs(self) -> int:
        return max(self.tb_sm - self.m, 1)

    @property
    def tlp(self) -> tuple[int, int]:
        """Table-3 style ``(#warps_TB, #TBs)`` pair."""
        return (self.active_warps, self.active_tbs)

    @property
    def throttles(self) -> bool:
        # m > 0 (not m > 1): a TB-only decision of (n=1, m=1) — the only
        # reachable shape when warps_per_tb == 1 — still reduces residency
        # by one TB and must count as throttling.
        return self.needed and self.fits and (self.n > 1 or self.m > 0)


def candidate_ns(warps_per_tb: int) -> list[int]:
    """Allowed warp-division factors: powers of two dividing ``warps_per_tb``
    (plus ``warps_per_tb`` itself so 1 active warp is always reachable)."""
    ns = [1]
    n = 2
    while n <= warps_per_tb:
        if warps_per_tb % n == 0:
            ns.append(n)
        n *= 2
    if ns[-1] != warps_per_tb:
        ns.append(warps_per_tb)
    return ns


def find_throttle(
    footprint: LoopFootprint,
    l1d_lines_for_tbs: Callable[[int], int],
) -> ThrottleDecision:
    """Resolve Eq. 9 for one loop.

    ``l1d_lines_for_tbs(tbs)`` returns the L1D capacity (in lines) available
    when ``tbs`` TBs are resident — constant for warp-level candidates
    (``tbs = tb_sm``), and accounting for the dummy-shared carveout cost for
    TB-level candidates.
    """
    warps, tbs0 = footprint.warps_per_tb, footprint.tb_sm
    cap0 = l1d_lines_for_tbs(tbs0)
    base = footprint.size_req_lines
    common = dict(
        loop_id=footprint.loop_id,
        warps_per_tb=warps,
        tb_sm=tbs0,
        size_req_lines=base,
    )
    if base is None:
        # Unbounded footprint (unknown nested trip count, or a nested sweep
        # too large to ever fit): no throttling level can protect the reuse.
        return ThrottleDecision(n=1, m=0, l1d_lines=cap0, fits=False,
                                needed=True, **common)
    if base <= cap0:
        return ThrottleDecision(n=1, m=0, l1d_lines=cap0, fits=True,
                                needed=False, **common)
    # Phase 1 — warp-level throttling only (M = 0).
    for n in candidate_ns(warps):
        if footprint.throttled_lines(n, 0) <= cap0:
            return ThrottleDecision(n=n, m=0, l1d_lines=cap0, fits=True,
                                    needed=True, **common)
    # Phase 2 — add TB-level throttling with N at its maximum.
    n_max = candidate_ns(warps)[-1]
    for m in range(1, tbs0):
        cap = l1d_lines_for_tbs(tbs0 - m)
        if footprint.throttled_lines(n_max, m) <= cap:
            return ThrottleDecision(n=n_max, m=m, l1d_lines=cap, fits=True,
                                    needed=True, **common)
    # Unresolvable: leave the loop alone (paper's CORR case).
    cap_min = l1d_lines_for_tbs(1)
    return ThrottleDecision(n=1, m=0, l1d_lines=cap_min, fits=False,
                            needed=True, **common)
