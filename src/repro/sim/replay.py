"""Homogeneous-block dedup: widened execution + per-warp event replay.

When :func:`repro.analysis.dataflow.block_homogeneity` proves a launch has no
cross-thread memory dependences, the whole launch can be executed in
*lockstep* by one widened warp whose lane vector covers every (thread block,
warp) **slot** at once — slot-major lane layout: lane ``s*32 + l`` is lane
``l`` of slot ``s``, and slot ``tb * warps_per_tb + w`` is warp ``w`` of
block ``tb``.  The :class:`WideWarp` below runs the closure-compiled kernel
(:mod:`repro.sim.compile`) over those wide vectors, performing every
functional load/store exactly once, while slicing compute/memory/sync events
into one recorded stream per slot.  The timing engine then replays the
per-warp streams instead of re-interpreting every warp of every TB.

Widening across the *warp* dimension (not only across TBs) is what makes
single-TB launches with many warps — e.g. the Fig. 3 microbenchmark's one
1024-thread block — collapse into a single pass.  It is sound for exactly
the same reason TB-widening is: homogeneity guarantees no thread observes
another thread's write, so warps may execute in any interleaving (including
lockstep) without changing functional results or per-warp event streams.

The recorded streams are bit-identical to what per-warp narrow execution
would emit: ops are tallied per slot only when that slot has an active lane
in the governing mask, memory events carry exactly the slot's active lanes'
addresses in lane order, and flush points coincide with the narrow engine's
(both run the same compiled statement closures).
"""

from __future__ import annotations

import numpy as np

from ..frontend.ast_nodes import CType, FunctionDef, TranslationUnit
from .compile import CompiledWarp, compile_kernel
from .events import SYNC_EVENT, Event, compute_event, mem_event
from .interp import (
    WARP_SIZE,
    KernelArgs,
    SimulationError,
    TypedValue,
    Var,
    np_dtype_for,
)
from .memory import GlobalMemory

# Lane-vector cap for one widened pass: 128 slots x 32 lanes.  Larger
# launches are processed in whole-TB chunks so per-variable vectors stay
# cache-friendly.
MAX_WIDE_SLOTS = 128


class WideShared:
    """Per-chunk shared memory: one scratchpad row per thread block."""

    def __init__(self, ntbs: int, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.buffer = np.zeros((ntbs, max(capacity_bytes, 1)), dtype=np.uint8)

    def load(self, offsets: np.ndarray, tbs: np.ndarray,
             dtype: np.dtype) -> np.ndarray:
        itemsize = dtype.itemsize
        out = np.empty(offsets.shape, dtype=dtype)
        raw = out.view(np.uint8).reshape(offsets.size, itemsize)
        for b in range(itemsize):
            raw[:, b] = self.buffer[tbs, offsets + b]
        return out

    def store(self, offsets: np.ndarray, tbs: np.ndarray,
              values: np.ndarray) -> None:
        itemsize = values.dtype.itemsize
        raw = np.ascontiguousarray(values).view(np.uint8).reshape(
            offsets.size, itemsize)
        for b in range(itemsize):
            self.buffer[tbs, offsets + b] = raw[:, b]


class WideWarp(CompiledWarp):
    """Every (TB, warp) slot of a chunk executing in lockstep.

    ``self.ops``/``self.sfu_ops``/``self.pending`` keep their narrow meaning
    of "flush needed" flags for the compiled closures' fast guards, but the
    real accounting lives in the per-slot vectors and per-slot pending
    queues; ``_flush`` distributes into ``self.streams[slot]``.
    """

    def __init__(
        self,
        unit: TranslationUnit,
        kernel: FunctionDef,
        memory: GlobalMemory,
        wide_shared: WideShared,
        shared_layout: dict[str, tuple[int, CType, tuple[int, ...]]],
        args: KernelArgs,
        block_idxs: np.ndarray,  # (ntbs, 3) int — blockIdx per TB of the chunk
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        warps_per_tb: int,
    ):
        ntbs = block_idxs.shape[0]
        nslots = ntbs * warps_per_tb
        lanes_per_tb = warps_per_tb * WARP_SIZE
        nlanes = nslots * WARP_SIZE
        self.unit = unit
        self.kernel = kernel
        self.memory = memory
        self.shared = wide_shared
        self.shared_layout = shared_layout
        self.warps_per_tb = warps_per_tb
        self.ntbs = ntbs
        self.nslots = nslots
        self.nlanes = nlanes
        self.env: dict[str, Var] = {}
        self.pending: list = []
        self.ops = 0
        self.sfu_ops = 0
        self.returned = np.zeros(nlanes, dtype=bool)
        self._const_cache: dict[int, TypedValue] = {}
        self._ret_store: np.ndarray | None = None

        # Per-slot accounting and recorded streams.  ``_block_pending`` maps
        # only the slots that actually queued memory events since the last
        # flush, so flushing never scans idle slots.
        self.ops_vec = np.zeros(nslots, dtype=np.int64)
        self.sfu_vec = np.zeros(nslots, dtype=np.int64)
        self._block_pending: dict[int, list[Event]] = {}
        self.streams: list[list[Event]] = [[] for _ in range(nslots)]
        # Identity-keyed memo for the mask -> slot-activity reduction: the
        # compiled closures reuse one governing-mask array object for every
        # tally inside a statement (and across iterations for hoisted loop
        # masks), and mask arrays are never mutated after first use.  Keeping
        # the key reference pins its id against recycling.
        self._any_key: np.ndarray | None = None
        self._any_val: np.ndarray | None = None
        # Precomputed slicing for the all-lanes-active fast path of
        # ``_emit_mem``: every slot contributes exactly its 32 lanes.
        self._full_bounds = list(range(0, nlanes + 1, WARP_SIZE))
        self._all_slots = list(range(nslots))
        # Identity-keyed memo for partial-mask run decomposition (same
        # soundness argument as the ``_block_any`` memo above).
        self._emit_key: np.ndarray | None = None
        self._emit_val: tuple[list[int], list[int]] | None = None
        # Shared-memory row (chunk-local TB index) per lane.
        self._lane_tb = np.repeat(np.arange(ntbs), lanes_per_tb)

        threads_per_block = block_dim[0] * block_dim[1] * block_dim[2]
        flat = np.arange(lanes_per_tb)
        alive = flat < threads_per_block
        flat = np.minimum(flat, threads_per_block - 1)
        tx = (flat % block_dim[0]).astype(np.int32)
        ty = ((flat // block_dim[0]) % block_dim[1]).astype(np.int32)
        tz = (flat // (block_dim[0] * block_dim[1])).astype(np.int32)
        self.alive0 = np.tile(alive, ntbs)
        bx = np.repeat(block_idxs[:, 0].astype(np.int32), lanes_per_tb)
        by = np.repeat(block_idxs[:, 1].astype(np.int32), lanes_per_tb)
        bz = np.repeat(block_idxs[:, 2].astype(np.int32), lanes_per_tb)
        self.builtins = {
            ("threadIdx", "x"): np.tile(tx, ntbs),
            ("threadIdx", "y"): np.tile(ty, ntbs),
            ("threadIdx", "z"): np.tile(tz, ntbs),
            ("blockIdx", "x"): bx,
            ("blockIdx", "y"): by,
            ("blockIdx", "z"): bz,
            ("blockDim", "x"): np.full(nlanes, block_dim[0], dtype=np.int32),
            ("blockDim", "y"): np.full(nlanes, block_dim[1], dtype=np.int32),
            ("blockDim", "z"): np.full(nlanes, block_dim[2], dtype=np.int32),
            ("gridDim", "x"): np.full(nlanes, grid_dim[0], dtype=np.int32),
            ("gridDim", "y"): np.full(nlanes, grid_dim[1], dtype=np.int32),
            ("gridDim", "z"): np.full(nlanes, grid_dim[2], dtype=np.int32),
        }
        for name, value, ctype in args.bindings:
            dtype = np_dtype_for(ctype)
            space = "global" if ctype.is_pointer else "none"
            self.env[name] = Var(
                ctype, np.full(nlanes, value, dtype=dtype), "scalar", space
            )
        for name, (offset, ctype, dims) in shared_layout.items():
            self.env[name] = Var(
                ctype, np.zeros(nlanes, dtype=np.int64), "shared_array",
                "shared", dims, offset,
            )

    # -- per-slot event plumbing -----------------------------------------
    def _block_any(self, mask: np.ndarray) -> np.ndarray:
        if mask is self._any_key:
            return self._any_val
        slots = mask.reshape(self.nslots, WARP_SIZE).any(axis=1)
        self._any_key = mask
        self._any_val = slots
        return slots

    def tally(self, mask: np.ndarray, n: int = 1) -> None:
        self.ops = 1  # flush-needed flag
        if n == 1:
            # bool adds as 0/1; a full-vector add over nslots beats a
            # boolean fancy-index for warp-scale slot counts.
            self.ops_vec += self._block_any(mask)
        else:
            self.ops_vec[self._block_any(mask)] += n

    def tally_sfu(self, mask: np.ndarray) -> None:
        self.sfu_ops = 1
        self.sfu_vec += self._block_any(mask)

    def _emit_mem(self, addresses: np.ndarray, itemsize: int, write: bool,
                  space: str, mask: np.ndarray) -> None:
        if addresses.size == self.nlanes:
            # Every lane is active (addresses are the gathered active lanes,
            # so a full-length vector implies a full mask): per-slot runs
            # are the fixed 32-lane strides.
            bounds = self._full_bounds
            ids = self._all_slots
        elif mask is self._emit_key:
            bounds, ids = self._emit_val
            if not ids:
                return
        else:
            lanes = np.nonzero(mask)[0]
            slots = lanes >> 5
            # Active lanes are in ascending order, so per-slot address
            # slices are consecutive runs.
            cuts = np.flatnonzero(slots[1:] != slots[:-1])
            cuts += 1
            bounds = [0, *cuts.tolist(), slots.size]
            ids = slots[bounds[:-1]].tolist() if lanes.size else []
            self._emit_key = mask
            self._emit_val = (bounds, ids)
            if not ids:
                return
        bp = self._block_pending
        line_size = self.line_size
        for i, slot in enumerate(ids):
            ev = mem_event(addresses[bounds[i]:bounds[i + 1]], itemsize,
                           write, space, line_size)
            q = bp.get(slot)
            if q is None:
                bp[slot] = [ev]
            else:
                q.append(ev)
        self.pending.append(True)  # flush-needed flag

    def _flush(self):
        if self.ops or self.sfu_ops:
            ov = self.ops_vec
            streams = self.streams
            if self.sfu_ops:
                sv = self.sfu_vec
                busy = np.nonzero((ov != 0) | (sv != 0))[0]
                if busy.size:
                    for slot, o, sf in zip(busy.tolist(), ov[busy].tolist(),
                                           sv[busy].tolist()):
                        streams[slot].append(compute_event(o, sf))
                    ov[busy] = 0
                    sv[busy] = 0
                self.sfu_ops = 0
            elif (ol := ov.tolist()) and min(ol) > 0:
                # All slots busy (the common full-mask case): no index
                # gymnastics needed.
                ov.fill(0)
                for slot, o in enumerate(ol):
                    streams[slot].append(compute_event(o))
            else:
                busy = np.nonzero(ov)[0]
                if busy.size:
                    for slot, o in zip(busy.tolist(), ov[busy].tolist()):
                        streams[slot].append(compute_event(o))
                    ov[busy] = 0
            self.ops = 0
        if self.pending:
            self.pending = []
            bp = self._block_pending
            for slot, queue in bp.items():
                self.streams[slot].extend(queue)
            bp.clear()
        return ()

    def sync_point(self, mask: np.ndarray):
        self._flush()
        for slot in np.nonzero(self._block_any(mask))[0].tolist():
            self.streams[slot].append(SYNC_EVENT)
        return ()

    # -- shared-memory hooks ----------------------------------------------
    def _shared_load(self, offsets: np.ndarray, dtype: np.dtype,
                     mask: np.ndarray) -> np.ndarray:
        tbs = self._lane_tb[np.nonzero(mask)[0]]
        return self.shared.load(offsets, tbs, dtype)

    def _shared_store(self, offsets: np.ndarray, values: np.ndarray,
                      mask: np.ndarray) -> None:
        tbs = self._lane_tb[np.nonzero(mask)[0]]
        self.shared.store(offsets, tbs, values)

    def _shared_rmw_add(self, offsets, values, dtype, mask):
        raise SimulationError("atomics are not supported in widened execution")

    def atomic_add_op(self, addr, elem, space, val, mask):
        raise SimulationError("atomics are not supported in widened execution")


def record_block_streams(
    unit: TranslationUnit,
    kernel: FunctionDef,
    memory: GlobalMemory,
    shared_layout: dict[str, tuple[int, CType, tuple[int, ...]]],
    shared_capacity: int,
    args: KernelArgs,
    grid: tuple[int, int, int],
    block: tuple[int, int, int],
    warps_per_tb: int,
    max_wide_slots: int = MAX_WIDE_SLOTS,
    *,
    line_size: int,
) -> list[list[list[Event]]]:
    """Execute *all* warps of a launch via widened (TB, warp) slots.

    Returns ``streams[tb_id][warp_id] -> [Event, ...]``.  All functional
    memory effects happen here, exactly once per thread — the caller must not
    re-execute any TB.
    """
    total_tbs = grid[0] * grid[1] * grid[2]
    gx, gy = grid[0], grid[1]
    tb_ids = np.arange(total_tbs, dtype=np.int64)
    block_idxs = np.stack(
        [tb_ids % gx, (tb_ids // gx) % gy, tb_ids // (gx * gy)], axis=1
    )
    streams: list[list[list[Event]]] = [
        [[] for _ in range(warps_per_tb)] for _ in range(total_tbs)
    ]
    # Chunk by whole TBs so every warp of a TB shares one WideShared row.
    from ..obs.metrics_registry import registry as _registry
    from ..obs.trace import span as _span

    reg = _registry()
    tbs_per_chunk = max(max_wide_slots // warps_per_tb, 1)
    if reg.enabled:
        reg.counter("sim.dedup.wide_passes").inc(
            -(-total_tbs // tbs_per_chunk))
        reg.counter("sim.dedup.wide_lanes").inc(
            total_tbs * warps_per_tb * WARP_SIZE)
    for chunk_start in range(0, total_tbs, tbs_per_chunk):
        chunk = block_idxs[chunk_start:chunk_start + tbs_per_chunk]
        ntbs = chunk.shape[0]
        with _span("sim.dedup.wide_pass", kernel=kernel.name, tbs=ntbs):
            compiled = compile_kernel(unit, kernel.name,
                                      nlanes=ntbs * warps_per_tb * WARP_SIZE)
            shared = WideShared(ntbs, shared_capacity)
            warp = WideWarp(unit, kernel, memory, shared, shared_layout,
                            args, chunk, block, grid, warps_per_tb)
            warp.line_size = line_size
            for _ in warp.run_compiled(compiled):
                pass  # wide flushes record in place; nothing is yielded
        for slot in range(ntbs * warps_per_tb):
            streams[chunk_start + slot // warps_per_tb][
                slot % warps_per_tb] = warp.streams[slot]
    return streams
