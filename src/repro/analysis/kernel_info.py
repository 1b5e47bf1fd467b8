"""Whole-kernel CATT analysis: loops → localities → footprints → decisions.

:func:`analyze_kernel` is the compile-time half of CATT (§4.1 + §4.2): it
resolves occupancy (Eqs. 1–4), classifies every loop's memory references,
evaluates footprints (Eq. 8), and searches throttling factors (Eq. 9),
including the carveout cost of TB-level throttling on unified-cache parts.
The transform pipeline (:mod:`repro.transform.pipeline`) consumes the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.ast_nodes import FunctionDef, TranslationUnit
from ..memo import Memo
from ..sim.arch import KB, GPUSpec, as_dim3
from .footprint import LoopFootprint, loop_footprint
from .locality import AccessLocality, classify_loop, loop_has_reuse
from .loops import KernelLoops, LoopRecord, find_loops
from .occupancy import OccupancyResult, compute_occupancy, estimate_registers, shared_usage_bytes
from .throttle import ThrottleDecision, find_throttle

MAX_SHARED_PER_TB = 96 * KB  # Volta per-TB shared memory limit


@dataclass(frozen=True)
class TBThrottlePlan:
    """How to reach ``target_tbs`` resident TBs via a dummy shared array."""

    target_tbs: int
    carveout_kb: int
    dummy_bytes: int     # extra shared memory to allocate per TB
    l1d_bytes: int


def tb_throttle_plan(
    spec: GPUSpec, existing_shared: int, target_tbs: int
) -> TBThrottlePlan | None:
    """Self-limiting dummy-shared plan pinning residency at ``target_tbs``.

    The dummy array must throttle under Eq. 4's own carveout choice (the
    launcher re-derives occupancy from source), so the per-TB usage is sized
    against the *largest* carveout: ``target_tbs + 1`` TBs must not fit even
    at 96 KB — exactly the paper's Fig. 5 (48 KB dummy → 2 resident TBs).
    Returns None when no dummy size can express the limit.
    """
    if target_tbs < 1:
        return None
    cap = spec.shared_carveouts_kb[-1] * KB
    hi = cap // target_tbs                      # usage still fitting N TBs
    lo = cap // (target_tbs + 1) + 1            # usage excluding N+1 TBs
    usage = _align(max(existing_shared, lo), 8)
    if usage > hi or usage > MAX_SHARED_PER_TB:
        return None
    carveout = spec.min_carveout_for(usage * target_tbs)
    return TBThrottlePlan(
        target_tbs=target_tbs,
        carveout_kb=carveout,
        dummy_bytes=usage - existing_shared,
        l1d_bytes=spec.l1d_bytes_for_carveout(carveout),
    )


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class LoopAnalysis:
    """Everything CATT derived about one loop."""

    record: LoopRecord
    localities: tuple[AccessLocality, ...]
    has_reuse: bool
    footprint: LoopFootprint
    decision: ThrottleDecision

    @property
    def loop_id(self) -> int:
        return self.record.loop_id


@dataclass(frozen=True)
class KernelAnalysis:
    """The CATT compile-time report for one kernel launch configuration.

    Shared by every caller that analyses an equal kernel under the same
    launch (see :func:`analyze_kernel`), so it is read-only, and its loop
    statements belong to ``kernel``, which may be another caller's.
    """

    kernel: FunctionDef
    occupancy: OccupancyResult
    loops: tuple[LoopAnalysis, ...]
    kernel_loops: KernelLoops
    spec: GPUSpec
    block_dim: tuple[int, int, int]

    @property
    def tb_m(self) -> int:
        """Kernel-wide TB reduction: the max M any loop asked for (§4.3 —
        the dummy shared array throttles the whole kernel)."""
        return max((l.decision.m for l in self.loops
                    if l.decision.fits and l.decision.needed), default=0)

    @property
    def throttled_loops(self) -> list[LoopAnalysis]:
        return [l for l in self.loops if l.decision.throttles]

    def loop(self, loop_id: int) -> LoopAnalysis:
        return self.loops[loop_id]   # loops are in loop_id (walk) order

    def baseline_tlp(self) -> tuple[int, int]:
        return (self.occupancy.warps_per_tb, self.occupancy.tb_sm)


# Analysis memo, keyed on everything the analysis reads: the kernel's
# content, block, grid, spec and ``irregular_req``.  Equal kernels share one
# analysis, so its loop statements may be another caller's: transforms find
# their loops by ``loop_id`` in their own kernel (``loop_statements``).
analysis_memo = Memo("analysis.analyze_kernel.cache", 256)


def analyze_kernel(
    unit: TranslationUnit,
    kernel_name: str,
    block,
    spec: GPUSpec,
    grid=None,
    irregular_req: int = 1,
) -> KernelAnalysis:
    """Run the full CATT static analysis for one kernel + launch config.

    ``irregular_req`` overrides the conservative per-warp request count for
    data-dependent accesses (§4.2 uses 1; the A2 ablation uses 32).

    Memoized (a bounded LRU) on the kernel's content and the launch.
    """
    kernel = unit.kernel(kernel_name)
    block3 = as_dim3(block)
    grid3 = as_dim3(grid) if grid is not None else None
    key = (kernel, block3, grid3, spec, irregular_req)
    analysis = analysis_memo.get(key)
    if analysis is None:
        analysis = _analyze(kernel, block3, grid3, spec, irregular_req)
        analysis_memo.put(key, analysis)
    return analysis


def _analyze(kernel: FunctionDef, block3: tuple[int, int, int],
             grid3: tuple[int, int, int] | None, spec: GPUSpec,
             irregular_req: int) -> KernelAnalysis:
    from ..obs.trace import span

    kernel_name = kernel.name
    threads = block3[0] * block3[1] * block3[2]

    shared0 = shared_usage_bytes(kernel)
    with span("analysis.occupancy", kernel=kernel_name) as sp:
        occ = compute_occupancy(
            spec, threads, shared0, estimate_registers(kernel)
        )
        if grid3 is not None:
            # Residency cannot exceed the grid's per-SM share (e.g. the
            # paper's ATAX launches 4 TBs per SM even though occupancy
            # allows more).
            from dataclasses import replace

            total_tbs = grid3[0] * grid3[1] * grid3[2]
            share = -(-total_tbs // spec.num_sms)
            if share < occ.tb_sm:
                occ = replace(occ, tb_sm=max(share, 1))
        sp.set(warps_per_tb=occ.warps_per_tb, tb_sm=occ.tb_sm)
    with span("analysis.loops", kernel=kernel_name) as sp:
        kernel_loops = find_loops(kernel, block_dim=block3, grid_dim=grid3)
        sp.set(loops=len(kernel_loops.loops))

    line = spec.cache_line
    l1d_lines_base = occ.l1d_bytes // line

    def l1d_lines_for_tbs(tbs: int) -> int:
        if tbs >= occ.tb_sm:
            return l1d_lines_base
        plan = tb_throttle_plan(spec, shared0, tbs)
        if plan is None:
            return 0
        return plan.l1d_bytes // line

    analyses: list[LoopAnalysis] = []
    loops_by_id = {l.loop_id: l for l in kernel_loops.loops}
    for rec in kernel_loops.loops:
        with span("analysis.footprint", kernel=kernel_name,
                  loop=rec.loop_id) as sp:
            localities = classify_loop(rec, line)
            reuse = loop_has_reuse(localities)
            fp = loop_footprint(
                rec, localities, occ.warps_per_tb, occ.tb_sm, block3, line,
                loops_by_id=loops_by_id, irregular_req=irregular_req,
            )
            sp.set(reuse=reuse, size_req_lines=fp.size_req_lines)
        with span("analysis.throttle", kernel=kernel_name,
                  loop=rec.loop_id) as sp:
            if reuse and localities:
                decision = find_throttle(fp, l1d_lines_for_tbs)
            else:
                # No reuse to protect (or no off-chip accesses): never
                # throttle.
                decision = ThrottleDecision(
                    loop_id=rec.loop_id, n=1, m=0,
                    warps_per_tb=occ.warps_per_tb, tb_sm=occ.tb_sm,
                    size_req_lines=fp.size_req_lines,
                    l1d_lines=l1d_lines_base, fits=True, needed=False,
                )
            sp.set(needed=decision.needed, fits=decision.fits,
                   n=decision.n, m=decision.m)
        analyses.append(LoopAnalysis(rec, tuple(localities), reuse, fp,
                                     decision))

    return KernelAnalysis(
        kernel=kernel,
        occupancy=occ,
        loops=tuple(analyses),
        kernel_loops=kernel_loops,
        spec=spec,
        block_dim=block3,
    )
