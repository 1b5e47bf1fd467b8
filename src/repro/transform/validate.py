"""Differential validation gate for CATT transforms.

CATT's transformations are supposed to be *semantics-preserving* (§4.3: the
warp-group guards operate at warp granularity; the dummy shared array is
dead weight).  The resilient driver does not take that on faith: when
``catt_compile(..., validate=True)`` transforms a kernel, this gate runs the
original and the transformed kernel functionally with small deterministic
inputs and compares every output buffer.  A transform whose outputs diverge
— or that introduces a ``__syncthreads()`` barrier-divergence hazard the
original did not have — is reverted and recorded as a ``CATT-W-REVERTED``
diagnostic.

Each functional run (no timing) executes the first ``max_tbs`` TBs on one
:class:`~repro.sim.tape.TapeExecutor` chunk with every (TB, warp) slot
recorded.  The tape advances a TB's warps in lockstep, uop by uop, which
orders shared-memory communication across every ``__syncthreads()`` as
barrier-to-barrier execution does.  The event count is the length of the
recorded streams, and a TB whose warps recorded different numbers of
barrier (``SYNC``) events is the CUDA barrier-divergence hazard: a warp
exited while its siblings waited at a barrier (undefined behaviour on
hardware).  That is the rule of :func:`repro.sim.launch.run_lockstep`,
which runs each warp's AST interpreter until it parks at a barrier or
terminates and releases the barrier once every live warp has arrived; the
gate falls back to it when :func:`~repro.sim.tape.lower_kernel` rejects a
kernel, and the tests hold both executors to identical reports.
Validation is bounded by a TB cap and an event budget.  Both executors
also charge every loop trip against that budget, so a loop that never exits
ends the run once its recorded events or its trips pass the budget, even a
loop whose trips record nothing (``for (;;) { }``).  The original runs
under ``max_events``; the transformed kernel computes the same thing, so its
budget follows from the original's recorded events (a small multiple plus an
allowance per warp slot for the copies' guards and barriers, capped at
``max_events``), and a runaway transform ends after about as much work as
the original did rather than after ``max_events`` trips.

Inputs are synthesized deterministically from a fixed seed: pointer
parameters get small random arrays, scalar parameters get fixed small
values.  Unmapped guard gaps separate the arrays, so a kernel that indexes
past its buffer faults instead of reading or writing its neighbour.  When
the *original* faults, the buffers grow ×8 and the run retries; a kernel
that still cannot run makes the run inconclusive, and the transform is kept
with a ``CATT-I-VALIDATE-SKIP`` diagnostic (the gate refuses to guess).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.occupancy import shared_usage_bytes
from ..frontend.ast_nodes import FunctionDef, TranslationUnit
from ..sim.arch import as_dim3
from ..sim.events import SYNC_EVENT, EventBudgetExceeded
from ..sim.interp import (
    KernelArgs,
    SharedBlock,
    SimulationError,
    WarpInterpreter,
    np_dtype_for,
)
from ..sim.launch import resolve_args, run_lockstep, shared_layout_of
from ..sim.memory import GlobalMemory, MemoryError_
from ..testing.faults import check_fault

WARP_SIZE = 32
# Unmapped bytes after each synthesized buffer: as far as a 32-bit index of
# an 8-byte element reaches, so an overrun faults instead of landing in the
# next buffer.
GUARD_BYTES = 1 << 34
# Coalescing granularity of the tape's recorded memory events; only their
# count matters here.
_LINE_SIZE = 128
# The transformed run's event and trip budget: BUDGET_RATIO times the
# original run's recorded events plus BUDGET_PER_SLOT per warp slot, capped
# at ``max_events``.  Over the registry's 159 distinct test-scale factor-pair
# validations the transformed run records at most 1.73 times the original's
# events (PF's ``pf_weights``, 704 -> 1,216) and runs fewer loop trips than
# the original records events.
BUDGET_RATIO = 4
BUDGET_PER_SLOT = 64

# Statuses, from best to worst.  STATIC_SAFE means the static verifier
# (:mod:`repro.analysis.dataflow.safety`) proved the transform without any
# functional run.
STATIC_SAFE = "static-safe"
PASS = "pass"
INCONCLUSIVE = "inconclusive"
DIVERGED = "diverged"
DEADLOCK = "deadlock"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one transformed kernel (statically proven or
    differentially executed)."""

    kernel: str
    status: str            # STATIC_SAFE | PASS | INCONCLUSIVE | DIVERGED | DEADLOCK
    detail: str = ""
    # Which functional executor ran ("tape" or "interp"); "" when none did.
    # Provenance, not verdict: reports compare equal without it.
    executor: str = field(default="", compare=False)

    @property
    def ok(self) -> bool:
        return self.status in (PASS, STATIC_SAFE)

    @property
    def must_revert(self) -> bool:
        return self.status in (DIVERGED, DEADLOCK)


@dataclass
class _FunctionalRun:
    buffers: dict[str, np.ndarray]   # final contents per pointer param
    barrier_hazard: bool             # warp exited while siblings waited
    events: int
    slots: int                       # (TB, warp) slots that ran


def synthesize_inputs(
    kernel: FunctionDef,
    grid,
    block,
    elems: int | None = None,
) -> tuple[list, dict[str, np.ndarray]]:
    """Deterministic launch arguments for a validation run.

    Returns ``(arg_values, host_arrays)`` where ``arg_values`` is positional
    (host arrays stand in for device pointers and are allocated by the
    executor) and ``host_arrays`` maps pointer-parameter names to their
    initial contents.
    """
    grid3, block3 = as_dim3(grid), as_dim3(block)
    threads = (grid3[0] * grid3[1] * grid3[2]
               * block3[0] * block3[1] * block3[2])
    if elems is None:
        elems = int(max(4096, min(threads * 16, 1 << 18)))
    rng = np.random.default_rng(0)
    values: list = []
    arrays: dict[str, np.ndarray] = {}
    for param in kernel.params:
        if param.type.is_pointer:
            dtype = np_dtype_for(param.type.pointee())
            if np.issubdtype(dtype, np.floating):
                arr = (rng.standard_normal(elems)).astype(dtype)
            else:
                arr = rng.integers(0, 8, elems).astype(dtype)
            arrays[param.name] = arr
            values.append(arr)             # placeholder; executor allocates
        elif np_dtype_for(param.type).kind == "f":
            values.append(0.5)
        else:
            # Small enough to be a safe stride, large enough to exercise a
            # size-bound or trip-count use.
            values.append(4)
    return values, arrays


def run_functional(
    unit: TranslationUnit,
    kernel_name: str,
    grid,
    block,
    arrays: dict[str, np.ndarray],
    scalars: list,
    program=None,
    max_tbs: int = 4,
    max_events: int = 2_000_000,
) -> _FunctionalRun:
    """Execute ``kernel_name`` functionally (no timing) in lockstep.

    ``arrays`` provides initial pointer-parameter contents (copied into a
    private memory space, a guard gap after each); ``scalars`` is the full
    positional argument list where pointer slots are ignored.  At most
    ``max_tbs`` TBs run: on the kernel's tape ``program``, or on the
    interpreter when it is None.  Raises :class:`EventBudgetExceeded` once
    more than ``max_events`` events or loop trips have run.
    """
    kernel = unit.kernel(kernel_name)
    grid3, block3 = as_dim3(grid), as_dim3(block)
    threads_per_tb = block3[0] * block3[1] * block3[2]
    warps_per_tb = max(-(-threads_per_tb // WARP_SIZE), 1)
    tbs = min(grid3[0] * grid3[1] * grid3[2], max_tbs)

    memory = GlobalMemory()
    addrs: dict[str, int] = {}
    values: list = []
    for param, fallback in zip(kernel.params, scalars):
        if param.type.is_pointer:
            addr = memory.alloc(arrays[param.name].copy(), guard=GUARD_BYTES)
            addrs[param.name] = addr
            values.append(addr)
        else:
            values.append(fallback)
    kargs = KernelArgs(tuple(resolve_args(kernel, values)))
    layout = shared_layout_of(kernel)
    shared_bytes = max(shared_usage_bytes(kernel), 1)
    if program is not None:
        events, hazard = _run_tape(program, memory, layout, shared_bytes,
                                   kargs, grid3, block3, warps_per_tb, tbs,
                                   max_events)
    else:
        def tb_warps(tb_id: int) -> list:
            bx = tb_id % grid3[0]
            by = (tb_id // grid3[0]) % grid3[1]
            bz = tb_id // (grid3[0] * grid3[1])
            shared = SharedBlock(shared_bytes)
            warps = []
            for w in range(warps_per_tb):
                warp = WarpInterpreter(unit, kernel, memory, shared, layout,
                                       kargs, (bx, by, bz), block3, grid3, w)
                warp.max_trips = max_events
                warps.append(warp.run())
            return warps

        events, hazard = run_lockstep(
            (tb_warps(tb_id) for tb_id in range(tbs)), max_events)
    final = {name: np.array(memory.find(addr).buffer)
             for name, addr in addrs.items()}
    return _FunctionalRun(buffers=final, barrier_hazard=hazard, events=events,
                          slots=tbs * warps_per_tb)


def _run_tape(program, memory: GlobalMemory, layout: dict,
              shared_bytes: int, kargs: KernelArgs, grid3, block3,
              warps_per_tb: int, tbs: int,
              max_events: int) -> tuple[int, bool]:
    """TBs ``0..tbs-1`` on one tape chunk, every slot recorded.

    Returns ``(events, hazard)`` as :func:`run_lockstep` does: the recorded
    event count, and whether some TB's warps recorded different numbers of
    ``SYNC`` events (a warp exited while its siblings waited).
    """
    from ..sim.replay import WideShared
    from ..sim.tape import TapeExecutor

    tb = np.arange(tbs, dtype=np.int64)
    block_idxs = np.stack([tb % grid3[0], (tb // grid3[0]) % grid3[1],
                           tb // (grid3[0] * grid3[1])], axis=1)
    ex = TapeExecutor(program, memory, WideShared(tbs, shared_bytes), layout,
                      kargs, block_idxs, block3, grid3, warps_per_tb,
                      np.arange(tbs * warps_per_tb, dtype=np.int64),
                      _LINE_SIZE, max_events=max_events)
    ex.run()
    streams = ex.tstreams
    syncs = [sum(1 for ev in stream if ev is SYNC_EVENT)
             for stream in streams]
    hazard = any(len(set(syncs[t:t + warps_per_tb])) > 1
                 for t in range(0, len(syncs), warps_per_tb))
    return sum(map(len, streams)), hazard


def _program(unit: TranslationUnit, kernel_name: str):
    """The kernel's tape program, or None when the lowerer rejects it."""
    from ..sim.tape import lower_kernel

    try:
        return lower_kernel(unit, kernel_name)
    except (SimulationError, NotImplementedError):
        return None


def _compare(base: dict[str, np.ndarray], test: dict[str, np.ndarray]
             ) -> str | None:
    """Return a mismatch description, or None when all buffers agree."""
    for name, expected in base.items():
        got = test[name]
        if np.issubdtype(expected.dtype, np.floating):
            close = np.allclose(got, expected, rtol=1e-4, atol=1e-5,
                                equal_nan=True)
        else:
            close = np.array_equal(got, expected)
        if not close:
            bad = int(np.sum(~np.isclose(got, expected, rtol=1e-4, atol=1e-5,
                                         equal_nan=True)))
            return f"buffer {name!r} diverged in {bad}/{expected.size} elements"
    return None


def differential_validate(
    original: TranslationUnit,
    transformed: TranslationUnit,
    kernel_name: str,
    grid,
    block,
    max_tbs: int = 4,
    max_events: int = 2_000_000,
) -> ValidationReport:
    """Differentially validate ``kernel_name`` between two units.

    Never raises: any failure mode maps onto a :class:`ValidationReport`
    status.  ``inconclusive`` means the gate could not judge (the *original*
    kernel itself would not run on synthesized inputs) and the caller should
    keep the transform; ``diverged``/``deadlock`` mean the transform is
    provably unsafe and must be reverted.
    """
    kernel = original.kernel(kernel_name)
    # Both runs use one executor: the tape, unless the lowerer rejects
    # either kernel.
    base_prog = _program(original, kernel_name)
    test_prog = _program(transformed, kernel_name)
    if base_prog is None or test_prog is None:
        base_prog = test_prog = None
    executor = "interp" if base_prog is None else "tape"

    def report(status: str, detail: str) -> ValidationReport:
        return ValidationReport(kernel_name, status, detail, executor)

    # Buffer sizes are a heuristic; when the *original* kernel indexes past
    # them, grow and retry (functional cost is independent of buffer size).
    base = None
    elems = None
    for _ in range(4):
        scalars, arrays = synthesize_inputs(kernel, grid, block, elems=elems)
        elems = 8 * len(next(iter(arrays.values()))) if arrays else None
        try:
            check_fault("sim", f"validate:{kernel_name}")
            base = run_functional(original, kernel_name, grid, block, arrays,
                                  scalars, base_prog, max_tbs=max_tbs,
                                  max_events=max_events)
            break
        except MemoryError_ as exc:
            last_exc: Exception = exc
            if elems is None or elems > (1 << 24):
                break
        except (SimulationError, EventBudgetExceeded,
                ZeroDivisionError, OverflowError) as exc:
            return report(INCONCLUSIVE, f"original kernel not runnable: {exc}")
    if base is None:
        return report(INCONCLUSIVE,
                      f"original kernel not runnable: {last_exc}")
    budget = min(max_events, BUDGET_RATIO * base.events
                 + BUDGET_PER_SLOT * base.slots)
    try:
        test = run_functional(transformed, kernel_name, grid, block, arrays,
                              scalars, test_prog, max_tbs=max_tbs,
                              max_events=budget)
    except EventBudgetExceeded as exc:
        # The original did the same computation in a fraction of this
        # budget; the transform runs away.
        return report(DEADLOCK, str(exc))
    except (SimulationError, MemoryError_, ZeroDivisionError,
            OverflowError) as exc:
        return report(DIVERGED, f"transformed kernel failed: {exc}")
    if test.barrier_hazard and not base.barrier_hazard:
        return report(
            DEADLOCK,
            "transform introduced a __syncthreads() barrier-divergence "
            "hazard (warp exits while siblings wait)")
    mismatch = _compare(base.buffers, test.buffers)
    if mismatch is not None:
        return report(DIVERGED, mismatch)
    return report(PASS, f"{test.events} events compared equal")
