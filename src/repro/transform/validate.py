"""Differential validation gate for CATT transforms.

CATT's transformations are supposed to be *semantics-preserving* (§4.3: the
warp-group guards operate at warp granularity; the dummy shared array is
dead weight).  The resilient driver does not take that on faith: when
``catt_compile(..., validate=True)`` transforms a kernel, this gate runs the
original and the transformed kernel on the functional interpreter with small
deterministic inputs and compares every output buffer.  A transform whose
outputs diverge — or that introduces a ``__syncthreads()`` barrier-divergence
hazard the original did not have — is reverted and recorded as a
``CATT-W-REVERTED`` diagnostic.

The executor here is *functional and lockstep*, not the timing simulator
(:func:`repro.sim.launch.run_lockstep`, which also runs a launch's untimed
TBs): each warp of a TB advances until it parks at a barrier (yields
:class:`~repro.sim.events.SyncEvent`) or terminates; the barrier releases
when every non-terminated warp has arrived.  A warp terminating while
siblings wait at a barrier is exactly the CUDA barrier-divergence hazard
(undefined behaviour on hardware), so it is tracked and compared across the
two versions.  Validation is deliberately bounded — a TB cap and an event
budget — so the gate can never hang a compile.

Inputs are synthesized deterministically from a seed: pointer parameters get
small random arrays, scalar parameters get fixed small values.  Kernels that
index past the synthesized buffers fail on the *original* already; that makes
the run inconclusive and the transform is kept with a
``CATT-I-VALIDATE-SKIP`` diagnostic (the gate refuses to guess).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.occupancy import shared_usage_bytes
from ..frontend.ast_nodes import FunctionDef, TranslationUnit
from ..sim.arch import as_dim3
from ..sim.interp import (
    KernelArgs,
    SharedBlock,
    SimulationError,
    WarpInterpreter,
    np_dtype_for,
)
from ..sim.launch import (
    EventBudgetExceeded,
    resolve_args,
    run_lockstep,
    shared_layout_of,
)
from ..sim.memory import GlobalMemory, MemoryError_
from ..testing.faults import check_fault

WARP_SIZE = 32

# Statuses, from best to worst.  STATIC_SAFE means the static verifier
# (:mod:`repro.analysis.dataflow.safety`) proved the transform without
# running the lockstep interpreter at all.
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


def synthesize_inputs(
    kernel: FunctionDef,
    grid,
    block,
    seed: int = 0,
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
    rng = np.random.default_rng(seed)
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
    max_tbs: int = 4,
    max_events: int = 2_000_000,
) -> _FunctionalRun:
    """Execute ``kernel_name`` functionally (no timing) in lockstep.

    ``arrays`` provides initial pointer-parameter contents (copied into a
    private memory space); ``scalars`` is the full positional argument list
    where pointer slots are ignored.  At most ``max_tbs`` TBs run, warps
    advancing barrier-to-barrier so shared-memory communication is ordered
    the same way on every call.
    """
    kernel = unit.kernel(kernel_name)
    grid3, block3 = as_dim3(grid), as_dim3(block)
    threads_per_tb = block3[0] * block3[1] * block3[2]
    warps_per_tb = max(-(-threads_per_tb // WARP_SIZE), 1)

    memory = GlobalMemory()
    addrs: dict[str, int] = {}
    values: list = []
    for param, fallback in zip(kernel.params, scalars):
        if param.type.is_pointer:
            addr = memory.alloc(arrays[param.name].copy())
            addrs[param.name] = addr
            values.append(addr)
        else:
            values.append(fallback)
    kargs = KernelArgs(tuple(resolve_args(kernel, values)))
    layout = shared_layout_of(kernel)
    shared_bytes = max(shared_usage_bytes(kernel), 1)

    def tb_warps(tb_id: int) -> list:
        bx = tb_id % grid3[0]
        by = (tb_id // grid3[0]) % grid3[1]
        bz = tb_id // (grid3[0] * grid3[1])
        shared = SharedBlock(shared_bytes)
        return [WarpInterpreter(unit, kernel, memory, shared, layout, kargs,
                                (bx, by, bz), block3, grid3, w).run()
                for w in range(warps_per_tb)]

    total_tbs = grid3[0] * grid3[1] * grid3[2]
    events, hazard = run_lockstep(
        (tb_warps(tb_id) for tb_id in range(min(total_tbs, max_tbs))),
        max_events)
    final = {name: np.array(memory.find(addr).buffer)
             for name, addr in addrs.items()}
    return _FunctionalRun(buffers=final, barrier_hazard=hazard, events=events)


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
    seed: int = 0,
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
    # Buffer sizes are a heuristic; when the *original* kernel indexes past
    # them, grow and retry (functional cost is independent of buffer size).
    base = None
    elems = None
    for _ in range(4):
        scalars, arrays = synthesize_inputs(kernel, grid, block, seed=seed,
                                            elems=elems)
        elems = 8 * len(next(iter(arrays.values()))) if arrays else None
        try:
            check_fault("sim", f"validate:{kernel_name}")
            base = run_functional(original, kernel_name, grid, block, arrays,
                                  scalars, max_tbs=max_tbs,
                                  max_events=max_events)
            break
        except MemoryError_ as exc:
            last_exc: Exception = exc
            if elems is None or elems > (1 << 24):
                break
        except (SimulationError, EventBudgetExceeded,
                ZeroDivisionError, OverflowError) as exc:
            return ValidationReport(kernel_name, INCONCLUSIVE,
                                    f"original kernel not runnable: {exc}")
    if base is None:
        return ValidationReport(kernel_name, INCONCLUSIVE,
                                f"original kernel not runnable: {last_exc}")
    try:
        test = run_functional(transformed, kernel_name, grid, block, arrays,
                              scalars, max_tbs=max_tbs, max_events=max_events)
    except EventBudgetExceeded as exc:
        # The original fit the same budget; the transform runs away.
        return ValidationReport(kernel_name, DEADLOCK, str(exc))
    except (SimulationError, MemoryError_, ZeroDivisionError,
            OverflowError) as exc:
        return ValidationReport(kernel_name, DIVERGED,
                                f"transformed kernel failed: {exc}")
    if test.barrier_hazard and not base.barrier_hazard:
        return ValidationReport(
            kernel_name, DEADLOCK,
            "transform introduced a __syncthreads() barrier-divergence "
            "hazard (warp exits while siblings wait)")
    mismatch = _compare(base.buffers, test.buffers)
    if mismatch is not None:
        return ValidationReport(kernel_name, DIVERGED, mismatch)
    return ValidationReport(kernel_name, PASS,
                            f"{test.events} events compared equal")
