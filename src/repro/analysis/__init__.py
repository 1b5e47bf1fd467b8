"""CATT static analysis (the paper's §4.1–§4.2).

Layers, bottom-up:

* :mod:`affine` — Eq. 5: index expressions as linear forms;
* :mod:`loops` — loop discovery + off-chip reference collection;
* :mod:`locality` — §3.1/Eq. 6: intra-/inter-thread distances;
* :mod:`coalescing` — Eq. 7: per-warp request counts;
* :mod:`footprint` — Eq. 8: per-loop L1D footprints;
* :mod:`occupancy` — Eqs. 1–4: resident TBs and carveout choice;
* :mod:`throttle` — Eq. 9: the (N, M) search;
* :mod:`kernel_info` — the orchestration producing :class:`KernelAnalysis`.
"""

from .affine import AffineForm, SymbolicEnv, analyze_expr
from .coalescing import paper_req_warp, requests_per_warp, requests_per_warp_enumerated
from .footprint import AccessFootprint, LoopFootprint, loop_footprint
from .kernel_info import (
    KernelAnalysis,
    LoopAnalysis,
    TBThrottlePlan,
    analyze_kernel,
    tb_throttle_plan,
)
from .locality import AccessLocality, classify_access, classify_loop, loop_has_reuse
from .loops import KernelLoops, LoopRecord, MemAccess, find_loops
from .occupancy import (
    OccupancyResult,
    compute_occupancy,
    estimate_registers,
    occupancy_for_kernel,
    shared_usage_bytes,
)
from .report import format_analysis
from .throttle import ThrottleDecision, candidate_ns, find_throttle

__all__ = [
    "AffineForm",
    "SymbolicEnv",
    "analyze_expr",
    "paper_req_warp",
    "requests_per_warp",
    "requests_per_warp_enumerated",
    "AccessFootprint",
    "LoopFootprint",
    "loop_footprint",
    "KernelAnalysis",
    "LoopAnalysis",
    "TBThrottlePlan",
    "analyze_kernel",
    "tb_throttle_plan",
    "AccessLocality",
    "classify_access",
    "classify_loop",
    "loop_has_reuse",
    "KernelLoops",
    "LoopRecord",
    "MemAccess",
    "find_loops",
    "OccupancyResult",
    "compute_occupancy",
    "estimate_registers",
    "occupancy_for_kernel",
    "shared_usage_bytes",
    "format_analysis",
    "ThrottleDecision",
    "candidate_ns",
    "find_throttle",
]
