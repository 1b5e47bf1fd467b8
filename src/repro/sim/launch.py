"""Kernel launch orchestration for the simulated GPU.

Resolves the launch configuration (occupancy, shared-memory carveout, TB
assignment), builds per-TB warp interpreters, and runs them on the
:class:`~repro.sim.sm.SMEngine`.  This is the piece the runtime's
``Device.launch`` calls.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..analysis.occupancy import (
    OccupancyResult,
    compute_occupancy,
    estimate_registers,
    shared_usage_bytes,
)
from ..frontend.ast_nodes import CType, DeclStmt, FunctionDef, TranslationUnit, statements_in
from ..memo import Memo
from ..obs.metrics_registry import registry as _metrics_registry
from ..obs.trace import span as _span
from ..options import current_options
from .arch import GPUSpec, SMConfig, as_dim3
from .cache import CacheStats
from .compile import CompiledWarp, compile_kernel
from .events import EventBudgetExceeded, SyncEvent
from .interp import (
    KernelArgs,
    SharedBlock,
    SimulationError,
    WarpInterpreter,
    np_dtype_for,
)
from .memory import GlobalMemory
from .metrics import SMMetrics
from .replay import record_block_streams
from .sanitize import SanitizerResult, ShadowState, merge_shadows

Dim3 = tuple[int, int, int]


@dataclass(frozen=True)
class LaunchResult:
    """Everything a caller needs to compare configurations."""

    kernel_name: str
    metrics: SMMetrics
    occupancy: OccupancyResult
    grid: Dim3
    block: Dim3
    tbs_simulated: int
    # Which execution engine produced the event streams: "interp",
    # "compiled", "compiled+dedup" (widened homogeneous-block replay), or
    # "tape" (launch-wide vectorized uop tape).
    engine: str = "interp"
    # Co-simulated SMs.  At sms == 1, ``metrics`` is SM 0's record and
    # ``per_sm`` is None; at sms > 1, ``metrics`` is the aggregate
    # (cycles = max over SMs, counters summed) and ``per_sm`` holds each
    # SM's attributed view — including its share of shared-L2 hits/misses.
    sms: int = 1
    per_sm: tuple[SMMetrics, ...] | None = None
    # Shadow-memory race sanitizer outcome; None unless SimOptions.sanitize.
    sanitizer: SanitizerResult | None = None

    @property
    def cycles(self) -> int:
        return self.metrics.cycles

    @property
    def l1_hit_rate(self) -> float:
        return self.metrics.l1_hit_rate

    @property
    def l2_hit_rate(self) -> float:
        return self.metrics.l2_hit_rate


def shared_layout_of(kernel: FunctionDef, dynamic_bytes: int = 0
                     ) -> dict[str, tuple[int, CType, tuple[int, ...]]]:
    """Bump-allocate the kernel's ``__shared__`` declarations.

    Returns name -> (byte offset, element CType, dims).  Static arrays come
    first (matching :func:`repro.analysis.occupancy.shared_usage_bytes`);
    an ``extern __shared__`` array — if present — gets the launch-provided
    ``dynamic_bytes`` at the end, like the CUDA runtime does.
    """
    layout: dict[str, tuple[int, CType, tuple[int, ...]]] = {}
    offset = 0
    dynamic_decl: tuple[str, CType] | None = None
    for stmt in statements_in(kernel.body):
        if not (isinstance(stmt, DeclStmt) and stmt.is_shared):
            continue
        elem = stmt.type.element_size
        for d in stmt.declarators:
            if d.dynamic:
                if dynamic_decl is not None:
                    raise SimulationError(
                        "multiple extern __shared__ arrays are not allowed"
                    )
                dynamic_decl = (d.name, stmt.type)
                continue
            if not d.array_sizes:
                raise SimulationError(
                    f"__shared__ scalar {d.name!r} is unsupported; use a "
                    f"1-element array"
                )
            count = 1
            for n in d.array_sizes:
                count *= n
            offset = (offset + 7) & ~7
            layout[d.name] = (offset, stmt.type, tuple(d.array_sizes))
            offset += count * elem
    if dynamic_decl is not None:
        name, ctype = dynamic_decl
        count = dynamic_bytes // ctype.element_size
        offset = (offset + 7) & ~7
        layout[name] = (offset, ctype, (max(count, 1),))
    return layout


def run_lockstep(tbs, max_events: int | None = None) -> tuple[int, bool]:
    """Execute TBs functionally (no timing), one after another.

    ``tbs`` yields one list of warp generators per TB.  Within a TB each
    warp advances until it parks at a ``__syncthreads()`` (yields a
    :class:`~repro.sim.events.SyncEvent`) or terminates, and the barrier
    releases once every live warp has arrived, so warps communicate through
    shared memory in program order.  A warp terminating while siblings wait
    at a barrier is the CUDA barrier-divergence hazard: the barrier releases
    anyway (the timing engine's semantics) and the hazard is reported.

    Returns ``(events, hazard)``.  Raises :class:`EventBudgetExceeded` once
    more than ``max_events`` events have run.
    """
    budget = max_events if max_events is not None else float("inf")
    events = 0
    hazard = False
    for warps in tbs:
        state = ["run"] * len(warps)
        while True:
            for w, gen in enumerate(warps):
                if state[w] != "run":
                    continue
                state[w] = "done"
                for ev in gen:
                    events += 1
                    if events > budget:
                        raise EventBudgetExceeded(
                            f"exceeded {max_events} events")
                    if isinstance(ev, SyncEvent):
                        state[w] = "barrier"
                        break
            waiting = [w for w, s in enumerate(state) if s == "barrier"]
            if not waiting:
                break                       # every warp terminated
            if "done" in state:
                hazard = True
            for w in waiting:
                state[w] = "run"
    return events, hazard


# ---------------------------------------------------------------------------
# Record memo: every scheme that only changes the timing model (DynCTA, CIAO,
# ATA, bypass) replays the functional record of the baseline launch.  Keyed
# on everything a tape record reads, a later launch with the same inputs
# takes the stored streams and the record's device writes instead of
# executing the tape again; the timing loop still runs for every launch.
# Sound because recorded streams are never mutated (repro.sim.events).
# ---------------------------------------------------------------------------

# key -> (streams, snapshot of the allocations the record changed)
record_memo = Memo("sim.tape.record", 16)


def _exact(value):
    """``value`` as a key part that tells ``0.0`` from ``-0.0``."""
    if isinstance(value, (float, np.floating)):
        return struct.pack("<d", value)
    return value


def _record_key(unit: TranslationUnit, kernel_name: str, grid: Dim3,
                block: Dim3, warps_per_tb: int, layout: dict,
                shared_capacity: int, args: KernelArgs, tb_ids: list[int],
                line_size: int, memory: GlobalMemory) -> tuple:
    """Everything a tape record of this launch reads.

    The kernel and the unit's device functions compare structurally
    (``unit.kernel_key``), scalar arguments bit-exactly, and device memory
    through one content digest per allocation.
    """
    return (
        unit.kernel_key(kernel_name),
        grid, block, warps_per_tb,
        tuple(layout.items()), shared_capacity,
        tuple((name, _exact(value), ctype)
              for name, value, ctype in args.bindings),
        tuple(tb_ids), line_size,
        memory.digests(),
    )


def _recall(key: tuple, memory: GlobalMemory) -> dict | None:
    """The stored streams for ``key`` with the record's device writes
    restored, or None."""
    entry = record_memo.get(key)
    if entry is None:
        return None
    streams, writes = entry
    memory.restore(writes)
    return streams


def _store(key: tuple, memory: GlobalMemory, streams: dict) -> None:
    """Remember a fresh record: its streams plus copies of the
    allocations whose digest it changed."""
    before = key[-1]  # _record_key ends with the pre-record digests
    changed = [i for i, (old, new) in enumerate(zip(before, memory.digests()))
               if old != new]
    record_memo.put(key, (streams, memory.snapshot(changed)))


def launch_kernel(
    unit: TranslationUnit,
    kernel_name: str,
    grid,
    block,
    args: list[tuple[str, float | int, CType]],
    memory: GlobalMemory,
    spec: GPUSpec,
    **kwargs,
) -> LaunchResult:
    """Simulate one kernel launch on the timed SM(s).

    Parameters mirror a CUDA ``<<<grid, block>>>`` launch; ``args`` carries
    (param name, resolved scalar or device address, declared CType).  The
    timed SMs execute the TBs assigned to SMs ``[0, sms)`` under round-robin
    distribution over ``spec.num_sms`` (``sms`` defaults to
    :func:`~repro.options.current_options`; at 1 this is the classic
    single-SM model on SM 0).  The engine, dedup and sanitizer also come
    from the current options, read once per launch.  ``max_tbs`` optionally
    caps the simulated TB count (for quick tests).  ``carveout_kb``
    overrides the Eq.-4 carveout choice.
    """
    with _span("sim.launch", kernel=kernel_name) as sp:
        result, recorded = _launch_kernel(unit, kernel_name, grid, block,
                                          args, memory, spec, **kwargs)
        sp.set(engine=result.engine, cycles=result.cycles,
               tbs=result.tbs_simulated, recorded=recorded)
        return result


def _feed_launch_metrics(m: SMMetrics, l1_write_stats, engine_used: str,
                         dedup_slots: int,
                         per_sm: list[SMMetrics] | None = None,
                         sanitizer: SanitizerResult | None = None) -> None:
    """Publish one launch's aggregate counters into the metrics registry.

    Called once per launch (never inside the event loop), so the disabled
    cost is a single ``enabled`` check.  ``per_sm`` (multi-SM launches only)
    additionally publishes each SM's attributed shared-L2 view.
    """
    reg = _metrics_registry()
    if not reg.enabled:
        return
    c = reg.counter
    c("sim.launches").inc()
    c(f"sim.engine.{engine_used}").inc()
    c("sim.cycles").inc(m.cycles)
    c("sim.instructions").inc(m.instructions)
    c("sim.l1.load.hits").inc(m.l1_load.hits)
    c("sim.l1.load.misses").inc(m.l1_load.misses)
    c("sim.l1.load.evictions").inc(m.l1_load.evictions)
    c("sim.l1.store.hits").inc(l1_write_stats.hits)
    c("sim.l1.store.misses").inc(l1_write_stats.misses)
    c("sim.l1.store.evictions").inc(l1_write_stats.evictions)
    c("sim.l2.load.hits").inc(m.l2_load.hits)
    c("sim.l2.load.misses").inc(m.l2_load.misses)
    c("sim.l2.load.evictions").inc(m.l2_load.evictions)
    c("sim.coalescer.requests").inc(m.coalescer_requests)
    c("sim.coalescer.transactions").inc(
        m.global_load_transactions + m.global_store_transactions)
    c("sim.dram.transactions").inc(m.dram_transactions)
    c("sim.barriers").inc(m.barriers)
    # Contention-aware-baseline activity; only emitted when the launch ran
    # under an ATA/governed configuration, so plain runs add no counters.
    if m.l1_remote_hits or m.ata_second_touches or m.ata_first_touch_bypasses:
        c("sim.ata.remote_hits").inc(m.l1_remote_hits)
        c("sim.ata.second_touches").inc(m.ata_second_touches)
        c("sim.ata.first_touch_bypasses").inc(m.ata_first_touch_bypasses)
    if m.governor_pauses or m.governor_resumes or m.warps_bypassed:
        c("sim.governor.pauses").inc(m.governor_pauses)
        c("sim.governor.resumes").inc(m.governor_resumes)
        c("sim.governor.warps_bypassed").inc(m.warps_bypassed)
    if dedup_slots:
        # Slots whose execution was collapsed into the widened pass: the
        # replay savings the dedup engine buys.
        c("sim.dedup.launches").inc()
        c("sim.dedup.slots_replayed").inc(dedup_slots)
    if sanitizer is not None:
        c("sanitize.launches").inc()
        c("sanitize.reports").inc(sanitizer.report_count)
    if per_sm is not None:
        c("sim.multi_sm.launches").inc()
        for i, sm in enumerate(per_sm):
            c(f"sim.sm{i}.cycles").inc(sm.cycles)
            c(f"sim.sm{i}.l2.load.hits").inc(sm.l2_load.hits)
            c(f"sim.sm{i}.l2.load.misses").inc(sm.l2_load.misses)
            c(f"sim.sm{i}.tbs_executed").inc(sm.tbs_executed)
    reg.histogram("sim.launch.cycles").record(m.cycles)


def _launch_kernel(
    unit: TranslationUnit,
    kernel_name: str,
    grid,
    block,
    args: list[tuple[str, float | int, CType]],
    memory: GlobalMemory,
    spec: GPUSpec,
    scheduler: str = "gto",
    max_tbs: int | None = None,
    carveout_kb: int | None = None,
    governor=None,
    governor_period: int = 256,
    l1_bypass: bool = False,
    l1_ata: bool = False,
    shared_bytes: int = 0,
    sms: int | None = None,
) -> tuple[LaunchResult, str]:
    """Returns the result and how the event streams were obtained:
    ``"memo"`` (a stored tape record), ``"fresh"`` (recorded up front by
    this launch) or ``"none"`` (generated while the timing loop runs)."""
    from .sm import SMEngine  # local import to avoid cycles in tooling

    opts = current_options()
    if sms is None:
        sms = opts.sms

    kernel = unit.kernel(kernel_name)
    grid3, block3 = as_dim3(grid), as_dim3(block)
    threads_per_tb = block3[0] * block3[1] * block3[2]

    occ = compute_occupancy(
        spec,
        threads_per_tb,
        shared_usage_bytes(kernel),
        estimate_registers(kernel),
        extra_shared_bytes_tb=shared_bytes,
    )
    if carveout_kb is not None:
        occ = _override_carveout(spec, occ, carveout_kb)
    config = SMConfig(spec, occ.shared_carveout_kb)

    total_tbs = grid3[0] * grid3[1] * grid3[2]
    # The timed SMs' share under round-robin TB distribution over the full
    # part: TBs landing on SMs [0, sms).  At sms == 1 this is exactly the
    # historical ``range(0, total_tbs, num_sms)`` single-SM share.
    if sms == 1:
        tb_ids = list(range(0, total_tbs, spec.num_sms))  # SM 0's share
    else:
        tb_ids = [t for t in range(total_tbs) if t % spec.num_sms < sms]
    if max_tbs is not None:
        tb_ids = tb_ids[:max_tbs]

    warps_per_tb = occ.warps_per_tb
    layout = shared_layout_of(kernel, dynamic_bytes=shared_bytes)
    kargs = KernelArgs(tuple(args))

    # Shadow-memory race sanitizer: one ShadowState per TB, shared by the
    # TB's warps.  Disables dedup below (every slot must execute for real).
    sanitize = opts.sanitize
    shadows: list[ShadowState] = []
    global_bases = [(value, name) for name, value, ctype in args
                    if ctype.is_pointer]

    # Engine selection.  The default tape engine lowers the kernel once to a
    # flat uop tape and records every (TB, warp) slot of the launch in one
    # vectorized pass.  A kernel the lowerer rejects (the rejection is
    # memoized) falls back to "compiled" — widened by homogeneous-block
    # dedup when eligible — and from there to the "interp" AST walk when the
    # closure compiler does not cover a construct either.
    engine_used = "interp"
    recorded = "none"
    compiled = None
    tape_streams = None
    choice = opts.engine
    if choice == "tape":
        from .tape import lower_kernel, record_tape_streams

        program = None
        try:
            program = lower_kernel(unit, kernel_name)
        except (SimulationError, NotImplementedError):
            program = None
        if program is not None:
            capacity = max(occ.shared_usage_tb, 1)
            # The sanitizer must watch every access, so it never reuses or
            # stores a record.
            key = None
            if not sanitize:
                key = _record_key(unit, kernel_name, grid3, block3,
                                  warps_per_tb, layout, capacity, kargs,
                                  tb_ids, spec.cache_line, memory)
                tape_streams = _recall(key, memory)
            if tape_streams is not None:
                recorded = "memo"
            else:
                recorded = "fresh"
                with _span("sim.tape.record", kernel=kernel_name,
                           tbs=total_tbs, warps_per_tb=warps_per_tb):
                    tape_streams, tape_shadows = record_tape_streams(
                        program, memory, layout, capacity, kargs, grid3,
                        block3, warps_per_tb, set(tb_ids), spec.cache_line,
                        sanitize=sanitize, kernel_name=kernel_name,
                        global_bases=global_bases)
                if sanitize:
                    shadows.extend(tape_shadows)
                if key is not None:
                    _store(key, memory, tape_streams)
            engine_used = "tape"
        else:
            choice = "compiled"
    if choice == "compiled":
        with _span("sim.compile", kernel=kernel_name):
            try:
                compiled = compile_kernel(unit, kernel_name)
                engine_used = "compiled"
            except (SimulationError, NotImplementedError):
                compiled = None

    # Homogeneous-block dedup: when the launch provably has no cross-thread
    # memory dependences, execute every (TB, warp) slot in widened lockstep
    # once and replay the recorded per-warp event streams into the timing
    # engine.  Any launch with more than one slot benefits — many TBs, or a
    # single TB with many warps.
    dedup_streams = None
    if compiled is not None and tape_streams is None and opts.dedup \
            and not sanitize and total_tbs * warps_per_tb > 1:
        from ..analysis.dataflow import block_homogeneity

        with _span("sim.dedup.analyze", kernel=kernel_name) as _sp:
            eligible = block_homogeneity(kernel, block3, grid3,
                                         kargs.bindings, memory).eligible
            _sp.set(eligible=eligible)
        if eligible:
            with _span("sim.dedup.record", kernel=kernel_name,
                       tbs=total_tbs, warps_per_tb=warps_per_tb):
                dedup_streams = record_block_streams(
                    unit, kernel, memory, layout,
                    max(occ.shared_usage_tb, 1), kargs, grid3, block3,
                    warps_per_tb, line_size=spec.cache_line,
                )
            engine_used = "compiled+dedup"
            recorded = "fresh"

    streams = dedup_streams if dedup_streams is not None else tape_streams
    if streams is not None:
        def warp_factory(tb_id: int):
            return [iter(warp) for warp in streams[tb_id]]
    else:
        def warp_factory(tb_id: int):
            bx = tb_id % grid3[0]
            by = (tb_id // grid3[0]) % grid3[1]
            bz = tb_id // (grid3[0] * grid3[1])
            shared = SharedBlock(max(occ.shared_usage_tb, 1))
            shadow = None
            if sanitize:
                shadow = ShadowState(kernel_name, (bx, by, bz), layout,
                                     global_bases)
                shadows.append(shadow)
            gens = []
            for w in range(warps_per_tb):
                if compiled is not None:
                    warp = CompiledWarp(
                        unit, kernel, memory, shared, layout, kargs,
                        (bx, by, bz), block3, grid3, w,
                    )
                    warp.sanitizer = shadow
                    warp.line_size = spec.cache_line
                    gens.append(warp.run_compiled(compiled))
                else:
                    interp = WarpInterpreter(
                        unit, kernel, memory, shared, layout, kargs,
                        (bx, by, bz), block3, grid3, w,
                    )
                    interp.sanitizer = shadow
                    interp.line_size = spec.cache_line
                    gens.append(interp.run())
            return gens

    # ATA-Cache mode: one aggregated tag array spanning the timed SMs' L1s.
    # The reuse filter's reach scales with the members' combined capacity.
    ata = None
    if l1_ata:
        from .cache import AggregatedTagArray

        ata = AggregatedTagArray(
            spec.ata_tag_factor * (config.l1d_bytes // spec.cache_line) * sms)

    per_sm: list[SMMetrics] | None = None
    if sms == 1:
        engine = SMEngine(spec, config, scheduler=scheduler,
                          governor=governor, governor_period=governor_period,
                          l1_bypass=l1_bypass, ata=ata)
        with _span("sim.engine", kernel=kernel_name, engine=engine_used,
                   tbs=len(tb_ids)) as _sp:
            result_metrics = engine.run(tb_ids, warp_factory,
                                        resident_limit=occ.tb_sm)
            _sp.set(cycles=result_metrics.cycles)
        l1_write_stats = engine.l1.write_stats
    else:
        from .gpu import GPUEngine
        from .metrics import aggregate_metrics

        gpu = GPUEngine(spec, config, sms, scheduler=scheduler,
                        l1_bypass=l1_bypass, governor=governor,
                        governor_period=governor_period, ata=ata)
        with _span("sim.engine", kernel=kernel_name, engine=engine_used,
                   tbs=len(tb_ids), sms=sms) as _sp:
            per_sm = gpu.run(tb_ids, warp_factory, resident_limit=occ.tb_sm)
            result_metrics = aggregate_metrics(per_sm)
            _sp.set(cycles=result_metrics.cycles)
        l1_write_stats = CacheStats()
        for e in gpu.engines:
            l1_write_stats.merge(e.l1.write_stats)

    # Functionally execute the TBs not assigned to the simulated SM (or cut
    # by max_tbs) so device memory holds the full kernel result.  They do not
    # contribute to timing — other SMs run them "in parallel" — but their
    # warps still meet at every barrier.  The widened dedup and tape passes
    # already performed every TB's memory effects exactly once, so they must
    # not (and do not) re-execute anything here.
    if streams is None:
        timed = set(tb_ids)
        if len(timed) < total_tbs:
            with _span("sim.shadow_exec", kernel=kernel_name,
                       tbs=total_tbs - len(timed)):
                run_lockstep(warp_factory(tb_id) for tb_id in range(total_tbs)
                             if tb_id not in timed)

    sanitizer_result = merge_shadows(shadows) if sanitize else None

    _feed_launch_metrics(result_metrics, l1_write_stats, engine_used,
                         total_tbs * warps_per_tb if dedup_streams else 0,
                         per_sm=per_sm, sanitizer=sanitizer_result)

    return LaunchResult(
        kernel_name=kernel_name,
        metrics=result_metrics,
        occupancy=occ,
        grid=grid3,
        block=block3,
        tbs_simulated=len(tb_ids),
        engine=engine_used,
        sms=sms,
        per_sm=tuple(per_sm) if per_sm is not None else None,
        sanitizer=sanitizer_result,
    ), recorded


def _override_carveout(spec: GPUSpec, occ: OccupancyResult,
                       carveout_kb: int) -> OccupancyResult:
    """Re-resolve occupancy under a forced shared-memory carveout."""
    from dataclasses import replace

    if carveout_kb * 1024 < occ.shared_usage_tb:
        raise ValueError(
            f"carveout {carveout_kb} KB below one TB's shared usage "
            f"({occ.shared_usage_tb} B)"
        )
    tb_shm = (carveout_kb * 1024 // occ.shared_usage_tb
              if occ.shared_usage_tb > 0 else occ.tb_hw)
    tb_sm = max(min(tb_shm, occ.tb_reg, occ.tb_hw), 1)
    return replace(
        occ,
        tb_shm=tb_shm,
        tb_sm=tb_sm,
        shared_carveout_kb=carveout_kb,
        l1d_bytes=spec.l1d_bytes_for_carveout(carveout_kb),
    )


def resolve_args(
    kernel: FunctionDef,
    values: list,
) -> list[tuple[str, float | int, CType]]:
    """Pair positional launch arguments with kernel parameters.

    ``values`` entries are device base addresses (int) for pointer params or
    Python/NumPy scalars for value params.
    """
    if len(values) != len(kernel.params):
        raise ValueError(
            f"kernel {kernel.name} takes {len(kernel.params)} arguments, "
            f"got {len(values)}"
        )
    out = []
    for param, value in zip(kernel.params, values):
        if param.type.is_pointer:
            out.append((param.name, int(value), param.type))
        else:
            dtype = np_dtype_for(param.type)
            out.append((param.name, dtype.type(value).item(), param.type))
    return out
