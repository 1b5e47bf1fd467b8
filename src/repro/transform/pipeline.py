"""The CATT source-to-source compiler pipeline (§4) — resilient driver.

``catt_compile`` = static analysis (§4.1–4.2) + code transformation (§4.3):

1. resolve occupancy and the shared-memory carveout (Eqs. 1–4);
2. per loop, estimate the L1D footprint (Eqs. 5–8);
3. per loop, search throttling factors (Eq. 9) — warp level first, TB level
   only if warp level cannot fit the footprint;
4. split throttled loops into guarded warp groups (Fig. 4) and/or add a dummy
   shared array (Fig. 5).

``force_throttle`` applies a *fixed* (N, M) to every top-level loop — the
building block of the BFTT baseline (§5), which searches fixed TLPs with
"warp-level throttling and TB-level throttling methods".

Resilience contract
-------------------
The paper builds graceful degradation into the design (§4.2: when even the
minimum TLP cannot fit the L1D, the loop is left untouched — the CORR case).
The driver extends that posture to *failures*: with ``resilient=True`` (the
default), any frontend/analysis/transform exception degrades the affected
kernel (or loop) to its untransformed form and is recorded as a structured
:class:`~repro.transform.diagnostics.Diagnostic` on
``CattCompilation.diagnostics`` — one bad kernel can no longer abort a
translation unit or an experiment sweep.  ``validate=True`` additionally runs
every transformed kernel through the differential gate
(:mod:`repro.transform.validate`) and reverts provably unsafe transforms.  See
docs/ROBUSTNESS.md for the full degradation-mode catalogue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analysis.kernel_info import (
    KernelAnalysis,
    LoopAnalysis,
    TBThrottlePlan,
    analyze_kernel,
    tb_throttle_plan,
)
from ..analysis.loops import loop_statements
from ..analysis.occupancy import shared_usage_bytes
from ..analysis.throttle import candidate_ns
from ..errors import ThrottleSearchError, WarpSplitError
from ..frontend.ast_nodes import FunctionDef, TranslationUnit
from ..frontend.errors import FrontendError
from ..obs.trace import span as _span
from ..sim.arch import GPUSpec
from ..testing.faults import check_fault
from .diagnostics import (
    E_ANALYSIS,
    E_FRONTEND,
    E_PROVED_RACE,
    E_TRANSFORM,
    I_SKIP_LOOP,
    I_STATIC_SAFE,
    I_VALIDATE_SKIP,
    W_REVERTED,
    W_STATIC_PROOF,
    DiagnosticLog,
)
from .tb_throttle import add_dummy_shared
from .utils import with_function
from .validate import (
    INCONCLUSIVE,
    STATIC_SAFE,
    ValidationReport,
    differential_validate,
)
from .warp_throttle import split_loop_for_warp_groups


@dataclass
class KernelTransform:
    """What CATT did to one kernel."""

    kernel_name: str
    analysis: KernelAnalysis | None
    warp_splits: list[tuple[int, int]] = field(default_factory=list)  # (loop_id, N)
    tb_plan: TBThrottlePlan | None = None
    tiles: list[tuple[int, int]] = field(default_factory=list)  # (loop_id, T)
    analysis_seconds: float = 0.0
    reverted: bool = False                      # validation gate said no
    validation: ValidationReport | None = None
    # Barrier-interval race verdicts (repro.analysis.dataflow.races); None
    # when the race analysis failed.  A shared PROVED-RACE region, or a
    # failed analysis, blocks warp-split and TB-throttle for the kernel
    # (race_blocked).
    race_report: object | None = None
    race_blocked: bool = False

    @property
    def changed(self) -> bool:
        """A rewrite was *attempted* (whether or not it survived the gate)."""
        return bool(self.warp_splits) or self.tb_plan is not None \
            or bool(self.tiles)

    @property
    def transformed(self) -> bool:
        """The emitted unit actually carries this kernel's rewrite."""
        return self.changed and not self.reverted


@dataclass
class CattCompilation:
    """Result of compiling a translation unit with CATT.

    ``diagnostics`` records every degradation the resilient driver took; an
    empty log means every kernel compiled cleanly.
    """

    original: TranslationUnit
    unit: TranslationUnit
    transforms: dict[str, KernelTransform]
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)

    @property
    def ok(self) -> bool:
        """True when no kernel degraded with an error-severity diagnostic."""
        return not self.diagnostics.errors

    def diagnostics_for(self, kernel_name: str):
        return self.diagnostics.for_kernel(kernel_name)


def _select_loops(analysis: KernelAnalysis) -> list[LoopAnalysis]:
    """Throttled loops, skipping ones nested inside another throttled loop."""
    selected: list[LoopAnalysis] = []
    selected_ids: set[int] = set()
    for la in sorted(analysis.loops, key=lambda l: l.record.depth):
        if not (la.decision.throttles and la.decision.n > 1):
            continue
        ancestor = la.record.parent_id
        while ancestor is not None and ancestor not in selected_ids:
            ancestor = analysis.kernel_loops.loops[ancestor].parent_id
        if ancestor is None:
            selected.append(la)
            selected_ids.add(la.loop_id)
    return selected


def catt_compile(
    unit: TranslationUnit,
    launches: dict[str, tuple],
    spec: GPUSpec,
    enable_tiling: bool = False,
    irregular_req: int = 1,
    resilient: bool = True,
    validate: bool = False,
) -> CattCompilation:
    """Compile every kernel in ``launches`` (name -> (grid, block)) with CATT.

    ``enable_tiling`` turns on the future-work reduction-tiling transform
    (:mod:`repro.transform.tiling`) for loops whose contention is otherwise
    unresolvable — the paper's CORR case.  Off by default, as in the paper.
    ``irregular_req`` is §4.2's conservative request count for irregular
    accesses (1); the A2 ablation passes 32.

    ``resilient`` (default) isolates faults per kernel and per stage: the
    failing kernel passes through untransformed with a structured diagnostic
    instead of aborting the unit (pass ``False`` to re-raise, for debugging).
    ``validate`` runs every transformed kernel through the differential gate
    and reverts divergent/deadlocking transforms.
    """
    with _span("transform.pipeline", kernels=len(launches),
               validate=validate, tiling=enable_tiling) as sp:
        comp = _catt_compile(
            unit, launches, spec, enable_tiling, irregular_req, resilient,
            validate)
        sp.set(
            transformed=sum(1 for t in comp.transforms.values()
                            if t.transformed),
            reverted=sum(1 for t in comp.transforms.values() if t.reverted),
            diagnostics=len(comp.diagnostics.records),
            errors=len(comp.diagnostics.errors),
        )
        return comp


def _catt_compile(
    unit: TranslationUnit,
    launches: dict[str, tuple],
    spec: GPUSpec,
    enable_tiling: bool,
    irregular_req: int,
    resilient: bool,
    validate: bool,
) -> CattCompilation:
    from .tiling import try_tile_unresolvable

    log = DiagnosticLog()
    out = unit
    transforms: dict[str, KernelTransform] = {}
    for name, (grid, block) in launches.items():
        t0 = time.perf_counter()

        # -- stage: frontend (kernel lookup) -----------------------------
        try:
            check_fault("frontend", name)
            kernel = out.kernel(name)
        except Exception as exc:
            if not resilient:
                raise
            log.emit(E_FRONTEND, "frontend",
                     f"kernel unavailable: {exc}", kernel=name,
                     elapsed=time.perf_counter() - t0, exc=exc)
            transforms[name] = KernelTransform(name, None)
            continue

        # -- stage: analysis ---------------------------------------------
        try:
            with _span("transform.analysis", kernel=name) as asp:
                check_fault("analysis", name)
                analysis = analyze_kernel(out, name, block, spec, grid=grid,
                                          irregular_req=irregular_req)
                asp.set(loops=len(analysis.loops),
                        throttled=len(analysis.throttled_loops))
        except Exception as exc:
            if not resilient:
                raise
            code = E_FRONTEND if isinstance(exc, FrontendError) else E_ANALYSIS
            log.emit(code, "analysis",
                     f"static analysis failed: {exc}", kernel=name,
                     elapsed=time.perf_counter() - t0, exc=exc)
            transforms[name] = KernelTransform(name, None)
            continue

        record = KernelTransform(name, analysis)

        # -- stage: analysis (race verdicts) -----------------------------
        # A proved cross-thread race on a shared region means the kernel's
        # correctness already depends on scheduling; reordering execution
        # (warp split) or changing residency (TB throttle) could flip the
        # observed outcome, so both transforms are blocked.  Without
        # verdicts nothing is proved race-free, so a crash blocks them too.
        try:
            from ..analysis.dataflow.races import analyze_races

            record.race_report = analyze_races(analysis)
        except Exception as exc:
            if not resilient:
                raise
            record.race_blocked = True
            log.emit(E_ANALYSIS, "analysis",
                     f"race analysis failed: {exc}; warp-split and "
                     f"TB-throttle blocked", kernel=name,
                     elapsed=time.perf_counter() - t0, exc=exc)
        if record.race_report is not None:
            proved = record.race_report.races("shared")
            if proved:
                record.race_blocked = True
                v = proved[0]
                log.emit(E_PROVED_RACE, "analysis",
                         f"shared array {v.array!r} provably races in "
                         f"barrier interval #{v.interval} ({v.reason}); "
                         f"warp-split and TB-throttle blocked", kernel=name)

        # -- stage: transform (tiling, optional) -------------------------
        selected = () if record.race_blocked else _select_loops(analysis)
        # The analysis may be an equal kernel's: find loops in this one.
        loops = loop_statements(kernel) if enable_tiling or selected else ()
        if enable_tiling:
            for la in analysis.loops:
                if not (la.decision.needed and not la.decision.fits):
                    continue
                try:
                    check_fault("transform", f"{name}:tiling{la.loop_id}")
                    l1d_lines = analysis.occupancy.l1d_bytes // spec.cache_line
                    tiled = try_tile_unresolvable(
                        kernel, loops[la.loop_id], la, l1d_lines)
                except Exception as exc:
                    if not resilient:
                        raise
                    log.emit(E_TRANSFORM, "transform",
                             f"reduction tiling failed: {exc}", kernel=name,
                             loop_id=la.loop_id, exc=exc)
                    continue
                if tiled is not None:
                    kernel, tile = tiled
                    record.tiles.append((la.loop_id, tile))

        # -- stage: transform (Fig. 4 warp splits, per loop) -------------
        for la in selected:
            with _span("transform.warp_split", kernel=name,
                       loop=la.record.loop_id, n=la.decision.n) as wsp:
                try:
                    check_fault("transform", f"{name}:loop{la.record.loop_id}")
                    kernel = split_loop_for_warp_groups(
                        kernel,
                        loops[la.loop_id],
                        la.decision.n,
                        analysis.occupancy.warps_per_tb,
                        analysis.block_dim,
                        spec.warp_size,
                    )
                except WarpSplitError as exc:
                    # Expected degradation: the loop holds a barrier, or an
                    # earlier transform (tiling) restructured the loop
                    # object; skip this loop only.
                    log.emit(I_SKIP_LOOP, "transform",
                             f"warp split skipped: {exc}", kernel=name,
                             loop_id=la.record.loop_id)
                    wsp.set(skipped=True)
                    continue
                except Exception as exc:
                    if not resilient:
                        raise
                    log.emit(E_TRANSFORM, "transform",
                             f"warp split failed: {exc}", kernel=name,
                             loop_id=la.record.loop_id, exc=exc)
                    wsp.set(failed=True)
                    continue
            record.warp_splits.append((la.record.loop_id, la.decision.n))

        # -- stage: transform (Fig. 5 dummy shared) ----------------------
        tb_m = analysis.tb_m
        if tb_m > 0 and not record.race_blocked:
            with _span("transform.tb_throttle", kernel=name, m=tb_m) as tsp:
                try:
                    check_fault("transform", f"{name}:tb")
                    plan = tb_throttle_plan(
                        spec,
                        shared_usage_bytes(out.kernel(name)),
                        analysis.occupancy.tb_sm - tb_m,
                    )
                    if plan is not None and plan.dummy_bytes > 0:
                        kernel = add_dummy_shared(kernel, plan.dummy_bytes)
                        record.tb_plan = plan
                        tsp.set(dummy_bytes=plan.dummy_bytes,
                                target_tbs=plan.target_tbs)
                except Exception as exc:
                    if not resilient:
                        raise
                    log.emit(E_TRANSFORM, "transform",
                             f"TB-level throttle failed: {exc}", kernel=name,
                             exc=exc)

        # -- stage: validate (static proof, then differential gate) ------
        if validate and record.changed:
            with _span("transform.validate", kernel=name) as vsp:
                # Statically proven-safe transforms skip the lockstep run:
                # the semantic legality of every warp split plus a structural
                # match against the Fig. 4/5 shape is a proof, not a spot
                # check.
                verdict = None
                try:
                    from ..analysis.dataflow.safety import (
                        verify_transform_static,
                    )

                    verdict = verify_transform_static(
                        analysis, record, out.kernel(name), kernel)
                except Exception as exc:
                    # No proof: say why, then the dynamic gate decides.
                    log.emit(W_STATIC_PROOF, "validate",
                             f"static safety proof failed: {exc!r}; "
                             f"running the differential gate",
                             kernel=name, exc=exc)
                if verdict is not None and verdict.safe:
                    record.validation = ValidationReport(
                        name, STATIC_SAFE,
                        "warp-split legality proven statically; differential "
                        "gate skipped")
                    log.emit(I_STATIC_SAFE, "validate",
                             record.validation.detail, kernel=name)
                    vsp.set(status=STATIC_SAFE, reverted=False)
                    record.analysis_seconds = time.perf_counter() - t0
                    out = with_function(out, kernel)
                    transforms[name] = record
                    continue
                try:
                    report = differential_validate(
                        out, with_function(out, kernel), name, grid, block)
                except Exception as exc:
                    if not resilient:
                        raise
                    report = ValidationReport(
                        name, INCONCLUSIVE, f"validator crashed: {exc!r}")
                record.validation = report
                vsp.set(status=report.status, reverted=report.must_revert,
                        executor=report.executor)
                if report.must_revert:
                    record.reverted = True
                    log.emit(W_REVERTED, "validate",
                             f"transform reverted ({report.status}): "
                             f"{report.detail}", kernel=name)
                elif report.status == INCONCLUSIVE:
                    log.emit(I_VALIDATE_SKIP, "validate", report.detail,
                             kernel=name)

        record.analysis_seconds = time.perf_counter() - t0
        if record.transformed:
            out = with_function(out, kernel)
        transforms[name] = record
    return CattCompilation(original=unit, unit=out, transforms=transforms,
                           diagnostics=log)


def force_throttle(
    unit: TranslationUnit,
    kernel_name: str,
    block,
    spec: GPUSpec,
    n: int,
    m: int,
    grid=None,
) -> TranslationUnit:
    """Apply a fixed (N, M) throttle to every top-level loop of one kernel.

    This is the mechanism BFTT (and the Fig. 9 sensitivity sweep) uses to
    realize an arbitrary TLP: the same Fig. 4 / Fig. 5 transformations, with
    factors chosen by search instead of analysis.

    Invalid factors raise :class:`repro.errors.ThrottleSearchError` (a
    ``ValueError`` subclass); a loop the warp split cannot copy raises
    :class:`repro.errors.WarpSplitError`.
    """
    analysis = analyze_kernel(unit, kernel_name, block, spec, grid=grid)
    warps = analysis.occupancy.warps_per_tb
    if n not in candidate_ns(warps):
        raise ThrottleSearchError(
            f"N={n} not a valid division of {warps} warps",
            kernel=kernel_name)
    kernel = unit.kernel(kernel_name)
    if n > 1:
        loops = loop_statements(kernel)   # before each split adds loops
        for la in analysis.loops:
            if la.record.depth == 0:
                kernel = split_loop_for_warp_groups(
                    kernel, loops[la.loop_id], n, warps, analysis.block_dim,
                    spec.warp_size,
                )
    if m > 0:
        target = analysis.occupancy.tb_sm - m
        if target < 1:
            raise ThrottleSearchError(
                f"M={m} leaves no resident TBs", kernel=kernel_name)
        plan = tb_throttle_plan(
            spec, shared_usage_bytes(unit.kernel(kernel_name)), target
        )
        if plan is None:
            raise ThrottleSearchError(
                f"cannot express a {target}-TB limit via carveout",
                kernel=kernel_name)
        if plan.dummy_bytes > 0:
            kernel = add_dummy_shared(kernel, plan.dummy_bytes)
    return with_function(unit, kernel)


def specialize_kernel(
    unit: TranslationUnit,
    kernel_name: str,
    block,
    spec: GPUSpec,
    factors: list[tuple[int, int]],
    grid=None,
) -> tuple[TranslationUnit, dict[tuple[int, int], str]]:
    """§4.3's dynamic-parameter fallback: emit one specialized copy of the
    kernel per (N, M) so the host can pick at run time.

    Returns the augmented unit and a (N, M) -> specialized-kernel-name map.
    """
    names: dict[tuple[int, int], str] = {}
    out = unit
    for n, m in factors:
        variant_unit = force_throttle(out, kernel_name, block, spec, n, m, grid)
        variant = variant_unit.kernel(kernel_name)
        new_name = f"{kernel_name}__catt_n{n}_m{m}"
        renamed = FunctionDef(
            new_name, variant.return_type, variant.params, variant.body,
            is_kernel=True, is_device=False, loc=variant.loc,
        )
        out = TranslationUnit(out.functions + (renamed,), out.defines)
        names[(n, m)] = new_name
    return out, names
