"""Launch-wide vectorized uop-tape engine (``SimOptions.engine="tape"``).

The default execution engine.  A kernel is lowered **once** into a flat
SSA-style uop tape (:func:`lower_kernel`); the tape is then executed over
*every* (TB, warp) slot of a launch at once (:class:`TapeExecutor`): one
NumPy step per uop across a ``(TB × warp × lane)`` batch axis laid out
slot-major, exactly like the dedup engine's :class:`~repro.sim.replay.
WideWarp` — lane ``s * 32 + l`` is lane ``l`` of slot ``s``, and slot
``tb * warps_per_tb + w`` is warp ``w`` of chunk-local block ``tb``.

Where dedup (:mod:`repro.sim.replay`) needs a homogeneity *proof* before it
may collapse the batch axis, the tape executes arbitrary divergent control
flow: structured control uops re-enter the tape on sub-ranges under
partition masks (if/else), and loop uops iterate their condition/body/step
ranges while any slot still has active lanes, so per-slot trip counts fall
out of the masks.  Dedup is thus the degenerate case where every mask stays
full and the loop trip counts agree — the tape needs no proof because it
keeps the masks.

Event-stream parity
-------------------
The lowering mirrors :mod:`repro.sim.compile` closure by closure: every
``tally`` site, flush point and mask rule has a corresponding uop or
handler branch, so per-warp event streams (compute batches, MemEvents in
order, SYNC markers) are bit-identical to narrow execution — the registry
differential suite (``tests/sim/test_engine_differential.py``) enforces
this.  Soundness of lockstep execution: warps of a TB run uop-by-uop in
lockstep, which satisfies every ``__syncthreads()`` ordering constraint;
for kernels that are race-free per barrier interval (the sanitizer's exact
property), any schedule — including lockstep — produces the same functional
results and per-warp streams.  Racy kernels may differ from narrow
execution exactly as any two schedules may; the shadow-memory sanitizer
(:mod:`repro.sim.sanitize`) runs under the tape too and flags them.

Known narrow-execution divergences (none exercised by the workload
registry, all caught by the differential suite if a kernel hits them):

* a ternary whose branches have *different* C types promotes globally,
  while a narrow warp with only one side active keeps that side's type;
* ``atomicAdd`` interleaves in deterministic slot-major order rather than
  the narrow scheduler's warp interleaving (same caveat as any schedule);
* re-declaring a caller variable with a different dtype inside a
  ``__device__`` callee replaces the caller's slot instead of a scoped
  copy.

Events are recorded only for *timed* slots (the TBs the timing engine will
replay); untimed TBs execute purely functionally, which is most of the
engine's speedup on large grids.

Warp-split regions
------------------
The Fig. 4 warp split (:func:`repro.transform.split_loop_for_warp_groups`)
turns one loop into N copies, ``if (W >= lo && W < hi) { <loop> }`` each
followed by ``__syncthreads()``, so run as written the tape executes the
loop N times with one warp group live.  The lowerer wraps such a run (N >= 2,
W built from ``threadIdx``/``blockDim`` and integer literals only, ranges
consecutive from 0, all loops equal) in one ``SPLIT`` uop.  The copies may
run as one loop when the loop holds no atomic, ``__device__`` call, return,
barrier, ternary or local-array declaration, and either no store or stores
the race analysis proves safe: rebuilt with the 2N statements replaced by
the one loop, the kernel must get PROVED-SAFE for every (array, barrier
interval) the loop accesses at the launch's block and grid, and the loop
must hold no reference the analysis cannot place: the conflicts
:func:`~repro.analysis.dataflow.races.loop_conflicts` names, which are
also the static gate's checks 3-4 (:meth:`TapeProgram.proved_splits`,
decided once per program and launch shape; a proof that fails proves
nothing).  The analysis takes each pointer parameter for its own array,
so a launch that binds one allocation to two pointer arguments uses no
proof.  When the copies may run as one loop, no
warp has lanes in two copies, the launch is not sanitized and the region is
not inside a ``__device__`` call, the executor runs each copy's guard and
barrier as the copies would, runs the loop *once* under the union of the
copies' members, and splices each timed warp's loop events into its
stream between its own copy's guard events and barrier.  This is exact.
Run as written, the barriers make group k finish
the loop before group k + 1 starts; run in lockstep, the groups interleave
iteration by iteration.  The two orders differ in what a thread reads or
leaves in memory only if one thread writes an element in the loop that
another thread reads or writes there, which a loop with no store rules out
and the proof rules out within a TB (each warp's own accesses keep their
order either way).  Like the race analysis and the sanitizer, the proof
does not look across TBs: the tape already runs a chunk's TBs in lockstep
where the interpreter runs them one after another, so a kernel whose TBs
conflict depends on the schedule either way.  W is constant, so evaluating
the guards before the loop changes no member set; and a slot's events
depend only on its own lanes' masks and the values it reads, so each warp
records what its own copy records.  Otherwise the copies run one after
another, as written.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import NamedTuple

import numpy as np

from ..frontend.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    BoolLit,
    BreakStmt,
    Call,
    Cast,
    ContinueStmt,
    CType,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    IntLit,
    MemberRef,
    PostIncDec,
    ReturnStmt,
    Stmt,
    SyncthreadsStmt,
    Ternary,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
    statements_in,
)
from ..memo import Memo
from .events import (
    SYNC_EVENT,
    Event,
    EventBudgetExceeded,
    compute_event,
    mem_event,
)
from .interp import (
    _BINARY_MATH,
    _UNARY_MATH,
    BOOL,
    FLOAT,
    INT,
    WARP_SIZE,
    KernelArgs,
    SimulationError,
    TypedValue,
    Var,
    _LoopFrame,
    _strides,
    arith,
    np_dtype_for,
    promote,
)
from .memory import GlobalMemory
from .replay import WideShared
from .sanitize import ShadowState

# Lane-vector cap per widened pass; larger launches run in whole-TB chunks.
# Bigger than replay's MAX_WIDE_SLOTS because tape vectors amortize better.
MAX_TAPE_SLOTS = 2048

_LONG = CType("long")

# ---------------------------------------------------------------------------
# Opcodes.  Value uops write a TypedValue (or an address tuple) into
# ``regs[dst]``; control uops carry contiguous child ranges placed directly
# after them and end with the index to jump to.
# ---------------------------------------------------------------------------
(
    OP_LDVAR,    # (op, dst, slot, name)         ident read, kind-dispatched
    OP_BIN,      # (op, dst, a, b, op_str)       arith() — never tallies
    OP_UN,       # (op, dst, a, code)            0 neg, 1 logical-not, 2 ~
    OP_CAST,     # (op, dst, a, ctype)
    OP_MATH1,    # (op, dst, a, fn, keep_int)
    OP_MATH2,    # (op, dst, a, b, fn)
    OP_ONE,      # (op, dst, a)                  ones_like in a's dtype
    OP_SNAP,     # (op, dst, a)                  post-inc/dec snapshot copy
    OP_ADDR,     # (op, dst, base, idx_regs, base_slot)
    OP_LOAD,     # (op, dst, addr)
    OP_STORE,    # (op, addr, val)
    OP_ATOM,     # (op, dst, addr, val)
    OP_STVAR,    # (op, slot, val, name)         assign-to-name
    OP_DECLS,    # (op, slot, ctype, dtype, space)
    OP_DECLI,    # (op, slot, val, ctype, dtype, space, is_ptr)
    OP_DECLL,    # (op, slot, ctype, dtype, dims, total)
    OP_DECLSH,   # (op, slot, name)              shared decl presence check
    OP_TALLY,    # (op, n)                       folded compute tallies
    OP_TSFU,     # (op, n)                       folded SFU tallies
    OP_FLUSH,    # (op,)                         flush-if-needed
    OP_SYNC,     # (op,)
    OP_RET,      # (op, val_or_-1)
    OP_BRK,      # (op,)
    OP_CONT,     # (op,)
    OP_CHK,      # (op, end)                     recompute mask, skip if empty
    OP_IF,       # (op, cond, t_lo, t_hi, e_lo, e_hi, end)
    OP_FOR,      # (op, c_lo, c_hi, c_reg, b_lo, b_hi, s_lo, s_hi, clean, end)
    OP_WHILE,    # (op, c_lo, c_hi, c_reg, b_lo, b_hi, do_first, end)
    OP_TERN,     # (op, dst, cond, t_lo, t_hi, t_reg, e_lo, e_hi, e_reg, end)
    OP_SC,       # (op, dst, left, r_lo, r_hi, r_reg, is_and, end)
    OP_DEVCALL,  # (op, dst, b_lo, b_hi, params, arg_regs, is_void,
                 #  ret_ctype, ret_dtype, end)
    OP_SPLIT,    # (op, w_lo, w_hi, w_reg, bounds, copies, fusable, end)
) = range(32)

# Uops a warp split's loop must not hold for its copies to run as one
# masked loop: writes and calls (their order across copies is visible),
# barriers and returns (they change other lanes' masks), ternaries (their
# result type follows which arms have live lanes) and local-array
# declarations (they reset the array for every lane).  A store is the one
# blocker a proof lifts: when it is the loop's only one, the region's
# ``fusable`` is PROVE, and the copies fuse at a launch whose block and grid
# let the race analysis prove every array the unsplit loop touches safe
# (:meth:`TapeProgram.proved_splits`).
_SPLIT_BLOCKERS = frozenset(
    (OP_STORE, OP_ATOM, OP_DEVCALL, OP_RET, OP_SYNC, OP_TERN, OP_DECLL))
PROVE = "prove"
_ARITH_OPS = frozenset(("+", "-", "*", "/", "%", "<<", ">>"))

_BUILTIN_KEYS = frozenset(
    (base, member)
    for base in ("threadIdx", "blockIdx", "blockDim", "gridDim")
    for member in ("x", "y", "z")
)


def _disrupts(s: Stmt | None) -> bool:
    """Same analysis as ``_Compiler._disrupts``: can executing ``s`` change
    ``returned`` or the current frame's broke/continued bits?"""
    if s is None:
        return False
    if isinstance(s, (ReturnStmt, BreakStmt, ContinueStmt)):
        return True
    if isinstance(s, Block):
        return any(_disrupts(c) for c in s.statements)
    if isinstance(s, IfStmt):
        return _disrupts(s.then) or _disrupts(s.otherwise)
    if isinstance(s, (ForStmt, WhileStmt, DoWhileStmt)):
        return any(isinstance(x, ReturnStmt) for x in statements_in(s))
    return False


def _thread_constant(e: Expr) -> bool:
    """Is ``e`` integer arithmetic over ``threadIdx``/``blockDim`` and
    literals only — a value no statement of the kernel can change?"""
    if isinstance(e, IntLit):
        return True
    if isinstance(e, MemberRef):
        return isinstance(e.base, Ident) \
            and e.base.name in ("threadIdx", "blockDim") \
            and (e.base.name, e.member) in _BUILTIN_KEYS
    return isinstance(e, BinOp) and e.op in _ARITH_OPS \
        and _thread_constant(e.left) and _thread_constant(e.right)


def _same(a, b) -> bool:
    """AST equality that ignores source locations."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if not is_dataclass(a):
        return a == b
    return all(_same(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a) if f.name != "loc")


def _guard_range(cond: Expr) -> tuple[Expr, int, int] | None:
    """``(W, lo, hi)`` when ``cond`` is ``W >= lo && W < hi``."""
    if not (isinstance(cond, BinOp) and cond.op == "&&"):
        return None
    ge, lt = cond.left, cond.right
    if not (isinstance(ge, BinOp) and ge.op == ">="
            and isinstance(ge.right, IntLit)
            and isinstance(lt, BinOp) and lt.op == "<"
            and isinstance(lt.right, IntLit) and _same(lt.left, ge.left)
            and _thread_constant(ge.left)):
        return None
    return ge.left, ge.right.value, lt.right.value


def _warp_split(stmts: tuple[Stmt, ...], i: int
                  ) -> tuple[Expr, list[tuple[int, int]]] | None:
    """W and the copies' ``(lo, hi)`` ranges when a warp split starts at
    ``stmts[i]``: two or more pairs of ``if (W >= lo && W < hi) { <loop> }``
    and ``__syncthreads()`` whose ranges run consecutively from 0, with one
    W and one loop — the shape :func:`repro.transform.
    split_loop_for_warp_groups` emits."""
    bounds: list[tuple[int, int]] = []
    w = loop = None
    while i + 1 < len(stmts):
        s = stmts[i]
        if not (isinstance(s, IfStmt) and s.otherwise is None
                and isinstance(stmts[i + 1], SyncthreadsStmt)
                and isinstance(s.then, Block)
                and len(s.then.statements) == 1
                and isinstance(s.then.statements[0],
                               (ForStmt, WhileStmt, DoWhileStmt))):
            break
        g = _guard_range(s.cond)
        lo = bounds[-1][1] if bounds else 0
        if g is None or g[1] != lo or g[2] <= lo:
            break
        if loop is None:
            w, loop = g[0], s.then
        elif not (_same(g[0], w) and _same(s.then, loop)):
            break
        bounds.append((lo, g[2]))
        i += 2
    return (w, bounds) if len(bounds) >= 2 else None


class _StoringSplit(NamedTuple):
    """Where a PROVE split region sits in the kernel: its copies are
    ``block.statements[start:start + n]``, each guarding ``loop``."""

    key: int                    # the region's W range start (w_lo)
    block: Block
    start: int
    n: int
    loop: Stmt


class TapeProgram:
    """A kernel lowered to a flat uop tape (lane-count independent)."""

    __slots__ = ("kernel", "uops", "n_regs", "n_vars", "consts", "sregs",
                 "var_slots", "splits", "_proved")

    def __init__(self, kernel: FunctionDef, uops, n_regs: int, n_vars: int,
                 consts, sregs, var_slots, splits):
        self.kernel = kernel
        self.uops = uops            # tuple of uop tuples
        self.n_regs = n_regs
        self.n_vars = n_vars
        self.consts = consts        # ((reg, value, ctype), ...) prefilled
        self.sregs = sregs          # ((reg, (base, member)), ...) prefilled
        self.var_slots = var_slots  # name -> slot (top-level scope)
        self.splits = splits        # _StoringSplit per PROVE region
        self._proved: dict[tuple, frozenset[int]] = {}

    def proved_splits(self, block_dim: tuple[int, int, int],
                      grid_dim: tuple[int, int, int]) -> frozenset[int]:
        """The PROVE regions (by W range start) whose copies may fuse at
        this launch shape, decided once per shape and kept here, so every
        unit sharing the program shares the proofs."""
        key = (block_dim, grid_dim)
        proved = self._proved.get(key)
        if proved is None:
            from ..obs.metrics_registry import registry

            reg = registry()
            if reg.enabled:
                reg.counter("sim.tape.split_proofs").inc(len(self.splits))
            proved = self._proved[key] = frozenset(
                s.key for s in self.splits
                if _unsplit_loop_race_free(self.kernel, s, *key))
        return proved


def _unsplit_loop_race_free(kernel: FunctionDef, split: _StoringSplit,
                            block_dim, grid_dim) -> bool:
    """Rebuild ``kernel`` with the split's copies and barriers replaced by
    its one loop, and ask the race analysis, at this block and grid,
    whether the warps of a TB may run that loop in any order
    (:func:`~repro.analysis.dataflow.races.loop_conflicts` names no
    conflict), as the static gate asks before it calls a warp split safe.

    That is the condition under which the copies may run as one masked
    loop: the barriers make warp group k finish the loop before group k + 1
    starts, and running the groups in lockstep instead changes what a
    thread reads or leaves in memory only if some element one thread of the
    TB writes in the loop is read or written by another.
    """
    from types import SimpleNamespace

    from ..analysis.dataflow.races import loop_conflicts
    from ..analysis.loops import find_loops
    from ..transform.utils import replace_stmt, with_body

    b, i = split.block, split.start
    unsplit = with_body(kernel, replace_stmt(kernel.body, b, [Block(
        b.statements[:i] + (split.loop,) + b.statements[i + split.n:],
        b.loc)]))
    # A proof that fails proves nothing: the copies run as written.
    try:
        kernel_loops = find_loops(unsplit, block_dim, grid_dim)
        return not loop_conflicts(SimpleNamespace(
            kernel=unsplit, kernel_loops=kernel_loops, block_dim=block_dim),
            split.loop)
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Lowering memo: an LRU keyed on content
# ---------------------------------------------------------------------------

# Keyed on ``unit.kernel_key``, as the record memo is (sim/launch.py), so
# equal kernels of separately built units share one program and its split
# proofs.  A rejected lowering is memoized as its exception, so a kernel the
# lowerer cannot express falls back at once on every later launch.
lowering_memo = Memo("sim.tape.cache", 64)


def lower_kernel(unit: TranslationUnit, kernel_name: str) -> TapeProgram:
    """Lower ``kernel_name`` to a uop tape (memoized on its content).

    Raises ``SimulationError``/``NotImplementedError`` when the lowerer
    rejects the kernel; the rejection is memoized like a success.
    """
    from ..obs.trace import span

    key = unit.kernel_key(kernel_name)
    hit = lowering_memo.get(key)
    if hit is not None:
        if isinstance(hit, Exception):
            raise hit.with_traceback(None)
        return hit
    try:
        with span("sim.tape.lower", kernel=kernel_name):
            program = _Lowerer(unit).lower(unit.kernel(kernel_name))
    except (SimulationError, NotImplementedError) as exc:
        lowering_memo.put(key, exc)
        raise
    lowering_memo.put(key, program)
    return program


# ---------------------------------------------------------------------------
# Lowering: AST -> uop tape, mirroring compile.py closure by closure
# ---------------------------------------------------------------------------


class _Lowerer:
    def __init__(self, unit: TranslationUnit):
        self.unit = unit
        self.uops: list[list] = []
        self.n_regs = 0
        self.n_vars = 0
        self.consts: list[tuple] = []
        self.sregs: list[tuple] = []
        self.scope: dict[str, int] = {}
        # Tally folding: consecutive tally sites under one governing mask
        # collapse into a single TALLY/TSFU uop, emitted at the next flush
        # point or sub-range boundary (where the mask may change).
        self.pending_tally = 0
        self.pending_sfu = 0
        self._lit_memo: dict = {}
        self._sreg_memo: dict = {}
        self._device_stack: list[str] = []
        self.splits: list[_StoringSplit] = []

    # -- infrastructure -------------------------------------------------
    def lower(self, kernel: FunctionDef) -> TapeProgram:
        for p in kernel.params:
            self._slot(p.name)
        self.stmt(kernel.body)
        self._flush_tallies()
        return TapeProgram(kernel, tuple(tuple(u) for u in self.uops),
                           self.n_regs, self.n_vars, tuple(self.consts),
                           tuple(self.sregs), dict(self.scope),
                           tuple(self.splits))

    def _reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def _slot(self, name: str) -> int:
        s = self.scope.get(name)
        if s is None:
            s = self.n_vars
            self.n_vars += 1
            self.scope[name] = s
        return s

    def _emit(self, uop: list) -> int:
        self.uops.append(uop)
        return len(self.uops) - 1

    def _flush_tallies(self) -> None:
        if self.pending_tally:
            self._emit([OP_TALLY, self.pending_tally])
            self.pending_tally = 0
        if self.pending_sfu:
            self._emit([OP_TSFU, self.pending_sfu])
            self.pending_sfu = 0

    def _end_stmt(self) -> None:
        self._flush_tallies()
        self._emit([OP_FLUSH])

    # -- statements -----------------------------------------------------
    def stmt(self, s: Stmt) -> None:
        if isinstance(s, Block):
            self._block(s)
        elif isinstance(s, ExprStmt):
            self.expr(s.expr)
            self._end_stmt()
        elif isinstance(s, DeclStmt):
            for d in s.declarators:
                self._declarator(s, d)
            self._end_stmt()
        elif isinstance(s, IfStmt):
            self._if_stmt(s)
        elif isinstance(s, ForStmt):
            self._for_stmt(s)
        elif isinstance(s, WhileStmt):
            self._while_stmt(s, do_first=False)
        elif isinstance(s, DoWhileStmt):
            self._while_stmt(s, do_first=True)
        elif isinstance(s, ReturnStmt):
            v = self.expr(s.value) if s.value is not None else -1
            self._flush_tallies()
            self._emit([OP_RET, v])
        elif isinstance(s, BreakStmt):
            self._emit([OP_BRK])
        elif isinstance(s, ContinueStmt):
            self._emit([OP_CONT])
        elif isinstance(s, SyncthreadsStmt):
            self._flush_tallies()
            self._emit([OP_SYNC])
        elif isinstance(s, EmptyStmt):
            pass
        else:
            raise SimulationError(f"cannot execute {type(s).__name__}")

    def _block(self, b: Block) -> None:
        # One CHK at entry; dirty blocks re-CHK after each disruptive
        # statement (compile.py's run vs. run_clean distinction).
        chks = [self._emit([OP_CHK, 0])]
        stmts = b.statements
        i = 0
        while i < len(stmts):
            # A split region disrupts when its copies do (they are equal).
            s = stmts[i]
            split = _warp_split(stmts, i)
            if split is not None:
                w, bounds = split
                n = 2 * len(bounds)
                self._split_region(b, i, n, w, bounds, chks)
                i += n
            else:
                self.stmt(s)
                i += 1
            if i < len(stmts) and _disrupts(s):
                chks.append(self._emit([OP_CHK, 0]))
        end = len(self.uops)
        for p in chks:
            self.uops[p][1] = end

    def _split_region(self, block: Block, start: int, n: int, w: Expr,
                      bounds: list[tuple[int, int]], chks: list[int]) -> None:
        """Lower a warp split's copies, ``block.statements[start:start +
        n]``, as written, wrapped in one SPLIT uop.

        The uop also holds W, the guards' warp index, lowered as a range of
        its own so the executor can tell each copy's members before running
        any copy, and whether the copies may run as one masked loop: True
        when the loop holds no :data:`_SPLIT_BLOCKERS` uop, PROVE when a
        store is its only one, False otherwise or when something is tallied
        between a copy and its barrier or the region is inside a
        ``__device__`` call."""
        run = block.statements[start:start + n]
        pos = self._emit([OP_SPLIT])
        pending = self.pending_tally, self.pending_sfu
        w_lo = len(self.uops)
        w_reg = self.expr(w)
        w_hi = len(self.uops)
        self.pending_tally, self.pending_sfu = pending
        copies = []
        for k in range(0, len(run), 2):
            g_lo = len(self.uops)
            if_pc = self._if_stmt(run[k])
            if _disrupts(run[k]):
                chks.append(self._emit([OP_CHK, 0]))
            self.stmt(run[k + 1])
            copies.append((g_lo, if_pc))
        uops = self.uops
        t_lo, t_hi = uops[copies[0][1]][2:4]
        held = _SPLIT_BLOCKERS.intersection(u[0] for u in uops[t_lo:t_hi])
        fusable = not self._device_stack and not held - {OP_STORE} \
            and all(uops[uops[p][6]][0] == OP_SYNC for _, p in copies)
        if fusable and held:
            fusable = PROVE
            self.splits.append(_StoringSplit(
                w_lo, block, start, n, run[0].then.statements[0]))
        uops[pos] = [OP_SPLIT, w_lo, w_hi, w_reg, tuple(bounds),
                     tuple(copies), fusable, len(uops)]

    def _declarator(self, s: DeclStmt, d) -> None:
        dtype = np_dtype_for(s.type)
        ctype = s.type
        slot = self._slot(d.name)
        if s.is_shared:
            self._emit([OP_DECLSH, slot, d.name])
            return
        if d.array_sizes:
            total = int(np.prod(d.array_sizes))
            self._emit([OP_DECLL, slot, ctype, dtype, tuple(d.array_sizes),
                        total])
            return
        space = "global" if ctype.is_pointer else "none"
        if d.init is None:
            self._emit([OP_DECLS, slot, ctype, dtype, space])
            return
        v = self.expr(d.init)
        self._emit([OP_DECLI, slot, v, ctype, dtype, space, ctype.is_pointer])
        self.pending_tally += 1

    def _if_stmt(self, s: IfStmt) -> int:
        c = self.expr(s.cond)
        self._end_stmt()  # compile flushes after evaluating the condition
        pos = self._emit([OP_IF, c, 0, 0, -1, -1, 0])
        t_lo = len(self.uops)
        self.stmt(s.then)
        t_hi = len(self.uops)
        e_lo = e_hi = -1
        if s.otherwise is not None:
            e_lo = len(self.uops)
            self.stmt(s.otherwise)
            e_hi = len(self.uops)
        u = self.uops[pos]
        u[2], u[3], u[4], u[5], u[6] = t_lo, t_hi, e_lo, e_hi, len(self.uops)
        return pos

    def _cond_range(self, cond: Expr) -> tuple[int, int, int]:
        """Lower a loop condition: expr + its tally + the +1 loop-test tally
        + flush, exactly one compiled-loop iteration header."""
        lo = len(self.uops)
        c = self.expr(cond)
        self.pending_tally += 1
        self._end_stmt()
        return lo, len(self.uops), c

    def _for_stmt(self, s: ForStmt) -> None:
        if s.init is not None:
            # compile runs init under the loop's incoming mask; inline
            # lowering puts it just before the FOR uop, same thing.
            self.stmt(s.init)
        clean = s.cond is not None and not _disrupts(s.body)
        pos = self._emit([OP_FOR, -1, -1, -1, 0, 0, -1, -1, clean, 0])
        c_lo = c_hi = c_reg = -1
        if s.cond is not None:
            c_lo, c_hi, c_reg = self._cond_range(s.cond)
        b_lo = len(self.uops)
        self.stmt(s.body)
        b_hi = len(self.uops)
        s_lo = s_hi = -1
        if s.step is not None:
            s_lo = len(self.uops)
            self.expr(s.step)
            self._end_stmt()
            s_hi = len(self.uops)
        u = self.uops[pos]
        u[1:] = [c_lo, c_hi, c_reg, b_lo, b_hi, s_lo, s_hi, clean,
                 len(self.uops)]

    def _while_stmt(self, s, do_first: bool) -> None:
        pos = self._emit([OP_WHILE, 0, 0, 0, 0, 0, do_first, 0])
        c_lo, c_hi, c_reg = self._cond_range(s.cond)
        b_lo = len(self.uops)
        self.stmt(s.body)
        b_hi = len(self.uops)
        u = self.uops[pos]
        u[1:] = [c_lo, c_hi, c_reg, b_lo, b_hi, do_first, len(self.uops)]

    # -- expressions ----------------------------------------------------
    def expr(self, e: Expr) -> int:
        if isinstance(e, (IntLit, FloatLit, BoolLit)):
            return self._literal(e)
        if isinstance(e, Ident):
            dst = self._reg()
            self._emit([OP_LDVAR, dst, self._slot(e.name), e.name])
            return dst
        if isinstance(e, MemberRef):
            return self._member(e)
        if isinstance(e, ArrayRef):
            return self._load(e)
        if isinstance(e, BinOp):
            return self._binop(e)
        if isinstance(e, UnaryOp):
            return self._unary(e)
        if isinstance(e, PostIncDec):
            return self._post_inc_dec(e)
        if isinstance(e, Assign):
            return self._assign(e)
        if isinstance(e, Ternary):
            return self._ternary(e)
        if isinstance(e, Cast):
            a = self.expr(e.operand)
            dst = self._reg()
            self._emit([OP_CAST, dst, a, e.type])
            return dst
        if isinstance(e, Call):
            return self._call(e)
        raise SimulationError(f"cannot evaluate {type(e).__name__}")

    def _literal(self, e) -> int:
        if isinstance(e, IntLit):
            ctype = CType("long" if abs(e.value) > 2**31 - 1 else "int")
            key = ("i", e.value, ctype.base)
        elif isinstance(e, FloatLit):
            is_double = bool(e.text) and not e.text.lower().endswith("f")
            ctype = CType("double" if is_double else "float")
            key = ("f", e.value, ctype.base)
        else:
            ctype = BOOL
            key = ("b", e.value)
        r = self._lit_memo.get(key)
        if r is None:
            r = self._reg()
            self.consts.append((r, e.value, ctype))
            self._lit_memo[key] = r
        return r

    def _member(self, e: MemberRef) -> int:
        if not (isinstance(e.base, Ident)
                and (e.base.name, e.member) in _BUILTIN_KEYS):
            raise SimulationError(
                f"unsupported member access .{e.member} (only thread builtins)"
            )
        key = (e.base.name, e.member)
        r = self._sreg_memo.get(key)
        if r is None:
            r = self._reg()
            self.sregs.append((r, key))
            self._sreg_memo[key] = r
        return r

    def _address_of(self, e: ArrayRef) -> int:
        indices: list[Expr] = []
        node: Expr = e
        while isinstance(node, ArrayRef):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        base = self.expr(node)
        base_slot = self._slot(node.name) if isinstance(node, Ident) else -1
        idx_regs = tuple(self.expr(i) for i in indices)
        # One address tally per subscript on every successful path
        # (flat_index tallies per index; the flat-pointer path tallies once
        # and requires exactly one subscript).
        self.pending_tally += len(idx_regs)
        dst = self._reg()
        self._emit([OP_ADDR, dst, base, idx_regs, base_slot])
        return dst

    def _load(self, e: ArrayRef) -> int:
        addr = self._address_of(e)
        dst = self._reg()
        self._emit([OP_LOAD, dst, addr])
        return dst

    def _assign_target(self, target: Expr):
        """Return a callable lowering the store of a value reg — deferred so
        store-side address uops land *after* the value uops, matching
        compile's evaluation order."""
        if isinstance(target, Ident):
            slot = self._slot(target.name)
            name = target.name
            return lambda v: self._emit([OP_STVAR, slot, v, name])
        if isinstance(target, ArrayRef):
            return lambda v: self._emit([OP_STORE, self._address_of(target),
                                         v])
        if isinstance(target, UnaryOp) and target.op == "*":
            ref = ArrayRef(target.operand, IntLit(0))
            return lambda v: self._emit([OP_STORE, self._address_of(ref), v])
        raise SimulationError(f"cannot assign to {type(target).__name__}")

    def _bin(self, a: int, b: int, op: str) -> int:
        dst = self._reg()
        self._emit([OP_BIN, dst, a, b, op])
        return dst

    def _binop(self, e: BinOp) -> int:
        if e.op == ",":
            self.expr(e.left)
            return self.expr(e.right)
        if e.op in ("&&", "||"):
            left = self.expr(e.left)
            self._flush_tallies()
            pos = self._emit([OP_SC, self._reg(), left, 0, 0, 0,
                              e.op == "&&", 0])
            r_lo = len(self.uops)
            r_reg = self.expr(e.right)
            self._flush_tallies()
            u = self.uops[pos]
            u[3], u[4], u[5], u[7] = r_lo, len(self.uops), r_reg, \
                len(self.uops)
            self.pending_tally += 1
            return u[1]
        a = self.expr(e.left)
        b = self.expr(e.right)
        self.pending_tally += 1
        return self._bin(a, b, e.op)

    def _unary(self, e: UnaryOp) -> int:
        if e.op in ("++", "--"):
            old = self.expr(e.operand)
            one = self._reg()
            self._emit([OP_ONE, one, old])
            new = self._bin(old, one, "+" if e.op == "++" else "-")
            self._assign_target(e.operand)(new)
            return new
        if e.op == "*":
            # *p == p[0]; the operand is evaluated twice (once discarded
            # with a tally, once inside the synthesized ArrayRef load).
            self.expr(e.operand)
            self.pending_tally += 1
            return self._load(ArrayRef(e.operand, IntLit(0)))
        if e.op == "&":
            raise SimulationError("address-of is not supported")
        a = self.expr(e.operand)
        codes = {"-": 0, "!": 1, "~": 2}
        code = codes.get(e.op)
        if code is None:
            raise SimulationError(f"unsupported unary operator {e.op!r}")
        self.pending_tally += 1
        dst = self._reg()
        self._emit([OP_UN, dst, a, code])
        return dst

    def _post_inc_dec(self, e: PostIncDec) -> int:
        old = self.expr(e.operand)
        one = self._reg()
        self._emit([OP_ONE, one, old])
        new = self._bin(old, one, "+" if e.op == "++" else "-")
        snap = self._reg()
        self._emit([OP_SNAP, snap, old])
        self._assign_target(e.operand)(new)
        return snap

    def _assign(self, e: Assign) -> int:
        assign = self._assign_target(e.target)
        if e.op == "=":
            v = self.expr(e.value)
            assign(v)
            self.pending_tally += 1
            return v
        old = self.expr(e.target)
        delta = self.expr(e.value)
        new = self._bin(old, delta, e.op[:-1])
        assign(new)
        self.pending_tally += 1
        return new

    def _ternary(self, e: Ternary) -> int:
        c = self.expr(e.cond)
        self._flush_tallies()
        pos = self._emit([OP_TERN, self._reg(), c, 0, 0, 0, 0, 0, 0, 0])
        t_lo = len(self.uops)
        t_reg = self.expr(e.then)
        self._flush_tallies()
        t_hi = len(self.uops)
        e_lo = len(self.uops)
        e_reg = self.expr(e.otherwise)
        self._flush_tallies()
        e_hi = len(self.uops)
        u = self.uops[pos]
        u[3:] = [t_lo, t_hi, t_reg, e_lo, e_hi, e_reg, len(self.uops)]
        self.pending_tally += 1
        return u[1]

    def _call(self, e: Call) -> int:
        name = e.func
        if name in _UNARY_MATH:
            fn, sfu = _UNARY_MATH[name]
            a = self.expr(e.args[0])
            if sfu:
                self.pending_sfu += 1
            else:
                self.pending_tally += 1
            dst = self._reg()
            self._emit([OP_MATH1, dst, a, fn, name in ("abs",)])
            return dst
        if name in _BINARY_MATH:
            fn, sfu = _BINARY_MATH[name]
            a = self.expr(e.args[0])
            b = self.expr(e.args[1])
            if sfu:
                self.pending_sfu += 1
            else:
                self.pending_tally += 1
            dst = self._reg()
            self._emit([OP_MATH2, dst, a, b, fn])
            return dst
        if name == "atomicAdd":
            return self._atomic_add(e)
        try:
            func = self.unit.device_function(name)
        except KeyError:
            raise SimulationError(f"unknown function {name!r}") from None
        return self._device_call(func, e)

    def _atomic_add(self, e: Call) -> int:
        target = e.args[0]
        if isinstance(target, UnaryOp) and target.op == "&" and \
                isinstance(target.operand, ArrayRef):
            ref = target.operand
        elif isinstance(target, ArrayRef):
            ref = target
        else:
            raise SimulationError("atomicAdd target must be &array[index]")
        addr = self._address_of(ref)
        val = self.expr(e.args[1])
        dst = self._reg()
        self._emit([OP_ATOM, dst, addr, val])
        return dst

    def _device_call(self, func: FunctionDef, e: Call) -> int:
        if len(e.args) != len(func.params):
            raise SimulationError(
                f"{func.name} expects {len(func.params)} args, "
                f"got {len(e.args)}")
        if func.name in self._device_stack:
            raise SimulationError(f"recursive device function {func.name!r}")
        arg_regs = tuple(self.expr(a) for a in e.args)
        # Tallies accumulated before the call flush here so the callee's
        # inner flush points can discard them for calling slots, exactly as
        # narrow execution swallows them.
        self._flush_tallies()
        is_void = func.return_type.base == "void"
        ret_ctype = func.return_type
        ret_dtype = np_dtype_for(ret_ctype if not is_void else INT)
        pos = self._emit([OP_DEVCALL, self._reg(), 0, 0, (), arg_regs,
                          is_void, ret_ctype, ret_dtype, 0])
        saved_scope = self.scope
        self.scope = dict(saved_scope)
        params = []
        for p in func.params:
            slot = self.n_vars
            self.n_vars += 1
            self.scope[p.name] = slot
            params.append((slot, p.type))
        self._device_stack.append(func.name)
        b_lo = len(self.uops)
        self.stmt(func.body)
        self._flush_tallies()
        b_hi = len(self.uops)
        self._device_stack.pop()
        self.scope = saved_scope
        u = self.uops[pos]
        u[2], u[3], u[4], u[9] = b_lo, b_hi, tuple(params), len(self.uops)
        self.pending_tally += 2  # call overhead, tallied after return
        return u[1]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class _MaskInfo:
    """Lazily-computed per-mask derived data, identity-keyed per flush
    region.  Holding ``mask`` pins its id against recycling."""

    __slots__ = ("mask", "block_any", "timed_act", "lanes", "tbounds", "runs")

    def __init__(self, mask: np.ndarray):
        self.mask = mask
        self.block_any = None
        self.timed_act = None
        self.lanes = None
        self.tbounds = None
        self.runs = None


class TapeExecutor:
    """Executes a :class:`TapeProgram` over one chunk of (TB, warp) slots.

    Slot-major lane layout identical to :class:`~repro.sim.replay.WideWarp`.
    Compute/SFU tallies and memory events are recorded only for the *timed*
    slots into ``self.tstreams[timed_pos]``; all slots execute functionally.
    """

    def __init__(
        self,
        program: TapeProgram,
        memory: GlobalMemory,
        shared: WideShared,
        shared_layout: dict[str, tuple[int, CType, tuple[int, ...]]],
        args: KernelArgs,
        block_idxs: np.ndarray,   # (ntbs, 3) blockIdx per chunk TB
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        warps_per_tb: int,
        timed_slots: np.ndarray,  # sorted chunk-local slot ids to record
        line_size: int,           # coalescing granularity of MemEvents
        shadows: list[ShadowState] | None = None,
        max_events: int | None = None,
    ):
        ntbs = block_idxs.shape[0]
        nslots = ntbs * warps_per_tb
        lanes_per_tb = warps_per_tb * WARP_SIZE
        nlanes = nslots * WARP_SIZE
        self.program = program
        self.uops = program.uops
        self.memory = memory
        self.shared = shared
        self.warps_per_tb = warps_per_tb
        self.nslots = nslots
        self.nlanes = nlanes

        self.regs: list = [None] * program.n_regs
        self.vars: list[Var | None] = [None] * program.n_vars
        self.returned = np.zeros(nlanes, dtype=bool)
        self._ret_stack: list[np.ndarray] = []
        self.discard_masks: list[np.ndarray] = []
        self._shid_cache: dict[int, TypedValue] = {}
        self._mcache: dict[int, _MaskInfo] = {}
        self._lane_tb = np.repeat(np.arange(ntbs), lanes_per_tb)

        # Timed-slot accounting.
        self.timed_ids = timed_slots
        self.ntimed = int(timed_slots.size)
        self.line_size = line_size
        self.ops_t = np.zeros(self.ntimed, dtype=np.int64)
        self.sfu_t = np.zeros(self.ntimed, dtype=np.int64)
        self.ops_flag = False
        self.sfu_flag = False
        self.pending: list[tuple] = []
        self.tstreams: list[list[Event]] = [[] for _ in range(self.ntimed)]
        # Functional-run budget.  Every loop trip checks the recorded events
        # against it and is itself charged against it, so a loop that never
        # exits raises instead of running forever, even one whose trips
        # record nothing (``for (;;) { }``).
        self.max_events = max_events
        self.trips = 0
        # Warp-split regions run as one masked loop / copy by copy; the
        # PROVE regions proved at this launch shape may fuse.  The proof
        # takes each pointer parameter for its own array, so it holds only
        # when no two pointer arguments share an allocation.
        self.split_fused = 0
        self.split_unfused = 0
        self.proved = frozenset()
        if program.splits and shadows is None and not memory.aliases({
                name: int(value) for name, value, ctype in args.bindings
                if ctype.is_pointer}):
            self.proved = program.proved_splits(block_dim, grid_dim)
        self._full_tbounds = [
            (tp, int(s) * WARP_SIZE, int(s) * WARP_SIZE + WARP_SIZE)
            for tp, s in enumerate(timed_slots.tolist())
        ]

        # Sanitizer: one ShadowState per chunk TB, per-slot barrier epochs.
        self.shadows = shadows
        self.epochs = np.zeros(nslots, dtype=np.int64) \
            if shadows is not None else None

        threads_per_block = block_dim[0] * block_dim[1] * block_dim[2]
        flat = np.arange(lanes_per_tb)
        alive = flat < threads_per_block
        flat = np.minimum(flat, threads_per_block - 1)
        tx = (flat % block_dim[0]).astype(np.int32)
        ty = ((flat // block_dim[0]) % block_dim[1]).astype(np.int32)
        tz = (flat // (block_dim[0] * block_dim[1])).astype(np.int32)
        self.alive0 = np.tile(alive, ntbs)
        self.builtins = {
            ("threadIdx", "x"): np.tile(tx, ntbs),
            ("threadIdx", "y"): np.tile(ty, ntbs),
            ("threadIdx", "z"): np.tile(tz, ntbs),
            ("blockIdx", "x"): np.repeat(
                block_idxs[:, 0].astype(np.int32), lanes_per_tb),
            ("blockIdx", "y"): np.repeat(
                block_idxs[:, 1].astype(np.int32), lanes_per_tb),
            ("blockIdx", "z"): np.repeat(
                block_idxs[:, 2].astype(np.int32), lanes_per_tb),
            ("blockDim", "x"): np.full(nlanes, block_dim[0], dtype=np.int32),
            ("blockDim", "y"): np.full(nlanes, block_dim[1], dtype=np.int32),
            ("blockDim", "z"): np.full(nlanes, block_dim[2], dtype=np.int32),
            ("gridDim", "x"): np.full(nlanes, grid_dim[0], dtype=np.int32),
            ("gridDim", "y"): np.full(nlanes, grid_dim[1], dtype=np.int32),
            ("gridDim", "z"): np.full(nlanes, grid_dim[2], dtype=np.int32),
        }
        regs = self.regs
        for r, value, ctype in program.consts:
            regs[r] = TypedValue(
                np.full(nlanes, value, dtype=np_dtype_for(ctype)), ctype)
        for r, key in program.sregs:
            regs[r] = TypedValue(self.builtins[key], INT)
        slots = program.var_slots
        for name, value, ctype in args.bindings:
            self.vars[slots[name]] = Var(
                ctype, np.full(nlanes, value, dtype=np_dtype_for(ctype)),
                "scalar", "global" if ctype.is_pointer else "none")
        for name, (offset, ctype, dims) in shared_layout.items():
            slot = slots.get(name)
            if slot is not None:
                self.vars[slot] = Var(
                    ctype, np.zeros(1, dtype=np.int64), "shared_array",
                    "shared", dims, offset)

    # -- mask-derived data ------------------------------------------------
    def _ment(self, mask: np.ndarray) -> _MaskInfo:
        ent = self._mcache.get(id(mask))
        if ent is None or ent.mask is not mask:
            ent = _MaskInfo(mask)
            self._mcache[id(mask)] = ent
        return ent

    def _block_any(self, mask: np.ndarray) -> np.ndarray:
        ent = self._ment(mask)
        if ent.block_any is None:
            ent.block_any = mask.reshape(self.nslots, WARP_SIZE).any(axis=1)
        return ent.block_any

    def _timed_act(self, mask: np.ndarray) -> np.ndarray:
        ent = self._ment(mask)
        if ent.timed_act is None:
            ent.timed_act = self._block_any(mask)[self.timed_ids]
        return ent.timed_act

    def _lanes(self, mask: np.ndarray) -> np.ndarray:
        ent = self._ment(mask)
        if ent.lanes is None:
            ent.lanes = np.nonzero(mask)[0]
        return ent.lanes

    def _tbounds(self, mask: np.ndarray) -> list:
        """Per timed-slot (timed_pos, start, end) runs into the mask's
        active-lane gather (lanes ascending => per-slot runs consecutive)."""
        ent = self._ment(mask)
        if ent.tbounds is None:
            lanes = self._lanes(mask)
            if lanes.size == self.nlanes:
                ent.tbounds = self._full_tbounds
            else:
                slots = lanes >> 5
                starts = np.searchsorted(slots, self.timed_ids, "left")
                ends = np.searchsorted(slots, self.timed_ids, "right")
                ent.tbounds = [
                    (tp, s, e) for tp, (s, e) in enumerate(
                        zip(starts.tolist(), ends.tolist())) if e > s
                ]
        return ent.tbounds

    def _slot_runs(self, mask: np.ndarray) -> list:
        """All-slot (slot, start, end) runs for the sanitizer."""
        ent = self._ment(mask)
        if ent.runs is None:
            lanes = self._lanes(mask)
            slots = lanes >> 5
            if lanes.size:
                cuts = np.flatnonzero(slots[1:] != slots[:-1])
                cuts += 1
                bounds = [0, *cuts.tolist(), int(slots.size)]
                ent.runs = [
                    (int(slots[bounds[i]]), bounds[i], bounds[i + 1])
                    for i in range(len(bounds) - 1)
                ]
            else:
                ent.runs = []
        return ent.runs

    # -- accounting -------------------------------------------------------
    def _tally(self, mask: np.ndarray, n: int) -> None:
        if not self.ntimed:
            return
        ta = self._timed_act(mask)
        if n == 1:
            self.ops_t += ta
        else:
            self.ops_t[ta] += n
        self.ops_flag = True

    def _tally_sfu(self, mask: np.ndarray, n: int) -> None:
        if not self.ntimed:
            return
        ta = self._timed_act(mask)
        if n == 1:
            self.sfu_t += ta
        else:
            self.sfu_t[ta] += n
        self.sfu_flag = True

    def _emit_mem(self, addresses: np.ndarray, itemsize: int, write: bool,
                  space: str, mask: np.ndarray) -> None:
        if not self.ntimed:
            return
        b = self._tbounds(mask)
        if b:
            self.pending.append((addresses, itemsize, write, space, b))

    def _flush_point(self) -> None:
        """The engine's flush-if-needed guard (one uop per statement)."""
        if self.discard_masks:
            self._discard_flush()
        elif self.ops_flag or self.sfu_flag or self.pending:
            self._do_flush()

    def _do_flush(self) -> None:
        tstreams = self.tstreams
        if self.ops_flag or self.sfu_flag:
            # One ndarray->list conversion then a plain-Python sweep beats
            # the nonzero/fancy-index/compare chain for warp-scale slot
            # counts; compute_event interning makes the repeat calls cheap.
            ot = self.ops_t
            if self.sfu_flag:
                sft = self.sfu_t
                o0 = ot[0] if ot.size else 0
                s0 = sft[0] if sft.size else 0
                if (o0 or s0) and (ot == o0).all() and (sft == s0).all():
                    ev = compute_event(int(o0), int(s0))
                    for st in tstreams:
                        st.append(ev)
                else:
                    svals = sft.tolist()
                    for i, o in enumerate(ot.tolist()):
                        sf = svals[i]
                        if o or sf:
                            tstreams[i].append(compute_event(o, sf))
                sft[:] = 0
            else:
                o0 = ot[0] if ot.size else 0
                if o0 and (ot == o0).all():
                    # Convergent launches owe every timed slot the identical
                    # batch; one compare + one interned event covers all of
                    # them without a per-slot Python sweep.
                    ev = compute_event(int(o0))
                    for st in tstreams:
                        st.append(ev)
                else:
                    for i, o in enumerate(ot.tolist()):
                        if o:
                            tstreams[i].append(compute_event(o))
            ot[:] = 0
            self.ops_flag = self.sfu_flag = False
        if self.pending:
            line_size = self.line_size
            for addresses, itemsize, write, space, bounds in self.pending:
                for tp, s, e in bounds:
                    tstreams[tp].append(mem_event(
                        addresses[s:e], itemsize, write, space, line_size))
            self.pending = []
        self._mcache.clear()

    def _discard_flush(self) -> None:
        """Flush inside a __device__ call: narrow execution *discards* the
        yielded events for every warp executing the call; mirror that by
        dropping the calling slots' accumulated accounting."""
        if not self.ntimed:
            return
        ta = self._timed_act(self.discard_masks[-1])
        if self.ops_flag or self.sfu_flag:
            self.ops_t[ta] = 0
            self.sfu_t[ta] = 0
        if self.pending:
            keep = []
            for ent in self.pending:
                nb = [b for b in ent[4] if not ta[b[0]]]
                if nb:
                    keep.append((ent[0], ent[1], ent[2], ent[3], nb))
            self.pending = keep

    def _san(self, active_addr: np.ndarray, itemsize: int,
             mask: np.ndarray, write: bool, atomic: bool, space: str) -> None:
        lanes = self._lanes(mask)
        wpt = self.warps_per_tb
        epochs = self.epochs
        shadows = self.shadows
        for slot, s, e in self._slot_runs(mask):
            shadows[slot // wpt].record(
                space, active_addr[s:e], itemsize, slot % wpt,
                lanes[s:e] & (WARP_SIZE - 1), write, atomic,
                int(epochs[slot]))

    def _lane_rows(self, mask: np.ndarray) -> np.ndarray:
        lanes = self._lanes(mask)
        if lanes.size == self.nlanes:
            return self._lane_tb
        return self._lane_tb.take(lanes)

    def _drop_finished(self, m: np.ndarray, passed: np.ndarray,
                       tested: np.ndarray | None = None) -> np.ndarray:
        """Remove from ``m`` the lanes of slots whose loop test just came up
        all-false: the corresponding narrow warp breaks out of its loop and
        never evaluates the condition again, while the tape keeps iterating
        for the remaining slots."""
        dead = self._block_any(tested if tested is not None else m) \
            & ~self._block_any(passed)
        if dead.any():
            return m & ~np.repeat(dead, WARP_SIZE)
        return m

    # -- the interpreter loop ---------------------------------------------
    def run(self) -> None:
        mask = self.alive0.copy()
        if not mask.any():
            return
        frame = _LoopFrame(np.zeros(self.nlanes, bool),
                           np.zeros(self.nlanes, bool))
        self._run(0, len(self.uops), mask, frame)
        if self.ops_flag or self.sfu_flag or self.pending:
            self._do_flush()
        if self.max_events is not None:
            self._check_budget()

    def _check_budget(self) -> None:
        if sum(map(len, self.tstreams)) > self.max_events:
            raise EventBudgetExceeded(f"exceeded {self.max_events} events")

    def _trip(self) -> None:
        """Charge one loop trip against the budget, then check the events."""
        self.trips += 1
        if self.trips > self.max_events:
            raise EventBudgetExceeded(f"exceeded {self.max_events} events")
        self._check_budget()

    def _run(self, lo: int, hi: int, mask: np.ndarray,
             frame: _LoopFrame) -> None:
        uops = self.uops
        regs = self.regs
        nlanes = self.nlanes
        cur = mask
        pc = lo
        while pc < hi:
            u = uops[pc]
            op = u[0]
            if op == OP_LDVAR:
                var = self.vars[u[2]]
                if var is None:
                    raise SimulationError(f"undefined variable {u[3]!r}")
                kind = var.kind
                if kind == "scalar":
                    tv = var.tv
                    if tv is None or tv.values is not var.values \
                            or tv.space != var.space:
                        tv = TypedValue(var.values, var.ctype, var.space)
                        var.tv = tv
                    regs[u[1]] = tv
                elif kind == "shared_array":
                    tv = self._shid_cache.get(u[2])
                    if tv is None:
                        tv = TypedValue(
                            np.full(nlanes, var.shared_offset,
                                    dtype=np.int64),
                            CType(var.ctype.base, var.ctype.pointer_depth + 1),
                            "shared", var.dims)
                        self._shid_cache[u[2]] = tv
                    regs[u[1]] = tv
                else:
                    regs[u[1]] = TypedValue(var.values, var.ctype, "local",
                                            var.dims)
            elif op == OP_BIN:
                regs[u[1]] = arith(u[4], regs[u[2]], regs[u[3]])
            elif op == OP_TALLY:
                self._tally(cur, u[1])
            elif op == OP_ADDR:
                self._addr(u, cur)
            elif op == OP_LOAD:
                self._load(u, cur)
            elif op == OP_STORE:
                self._store(u, cur)
            elif op == OP_STVAR:
                var = self.vars[u[1]]
                value = regs[u[2]]
                if var is None:
                    var = Var(value.ctype,
                              np.zeros(nlanes,
                                       dtype=np_dtype_for(value.ctype)),
                              "scalar", value.space)
                    self.vars[u[1]] = var
                cast = value.cast(var.ctype)
                var.values[cur] = cast.values[cur]
                if var.ctype.is_pointer and value.space != "none":
                    var.space = value.space
            elif op == OP_CAST:
                regs[u[1]] = regs[u[2]].cast(u[3])
            elif op == OP_FLUSH:
                self._flush_point()
            elif op == OP_CHK:
                cur = cur & ~self.returned & ~frame.broke & ~frame.continued
                if not cur.any():
                    pc = u[1]
                    continue
            elif op == OP_MATH1:
                a = regs[u[2]]
                out_t = a.ctype if a.ctype.base in ("float", "double") \
                    else FLOAT
                if u[4] and a.ctype.base not in ("float", "double"):
                    out_t = a.ctype
                vals = u[3](a.values.astype(np_dtype_for(out_t), copy=False))
                regs[u[1]] = TypedValue(
                    vals.astype(np_dtype_for(out_t), copy=False), out_t)
            elif op == OP_MATH2:
                a = regs[u[2]]
                b = regs[u[3]]
                ctype = promote(a.ctype, b.ctype)
                dtype = np_dtype_for(ctype)
                vals = u[4](a.values.astype(dtype, copy=False),
                            b.values.astype(dtype, copy=False))
                regs[u[1]] = TypedValue(vals.astype(dtype, copy=False), ctype)
            elif op == OP_UN:
                v = regs[u[2]]
                code = u[3]
                if code == 0:
                    regs[u[1]] = TypedValue(-v.values, v.ctype)
                elif code == 1:
                    regs[u[1]] = TypedValue(~v.values.astype(bool), BOOL)
                else:
                    regs[u[1]] = TypedValue(~v.values, v.ctype)
            elif op == OP_ONE:
                old = regs[u[2]]
                regs[u[1]] = TypedValue(np.ones(nlanes, old.values.dtype),
                                        old.ctype)
            elif op == OP_SNAP:
                old = regs[u[2]]
                regs[u[1]] = TypedValue(old.values.copy(), old.ctype,
                                        old.space)
            elif op == OP_TSFU:
                self._tally_sfu(cur, u[1])
            elif op == OP_IF:
                cv = regs[u[1]].values.astype(bool)
                tm = cur & cv
                if tm.any():
                    self._run(u[2], u[3], tm, frame)
                if u[4] >= 0:
                    em = cur & ~cv & ~self.returned
                    em &= ~frame.broke & ~frame.continued
                    if em.any():
                        self._run(u[4], u[5], em, frame)
                pc = u[6]
                continue
            elif op == OP_FOR:
                self._for(u, cur)
                pc = u[9]
                continue
            elif op == OP_WHILE:
                self._while(u, cur)
                pc = u[7]
                continue
            elif op == OP_TERN:
                self._ternary(u, cur, frame)
                pc = u[9]
                continue
            elif op == OP_SC:
                self._short_circuit(u, cur, frame)
                pc = u[7]
                continue
            elif op == OP_RET:
                if u[1] >= 0 and self._ret_stack:
                    rs = self._ret_stack[-1]
                    rs[cur] = regs[u[1]].values.astype(rs.dtype)[cur]
                self.returned = self.returned | cur
                self._flush_point()
            elif op == OP_BRK:
                frame.broke |= cur
            elif op == OP_CONT:
                frame.continued |= cur
            elif op == OP_SYNC:
                self._sync(cur)
            elif op == OP_ATOM:
                self._atomic(u, cur)
            elif op == OP_DECLS:
                var = self.vars[u[1]]
                if var is None or var.kind != "scalar" \
                        or var.values.dtype != u[3]:
                    self.vars[u[1]] = Var(
                        u[2], np.zeros(nlanes, dtype=u[3]), "scalar", u[4])
            elif op == OP_DECLI:
                var = self.vars[u[1]]
                if var is None or var.kind != "scalar" \
                        or var.values.dtype != u[4]:
                    var = Var(u[3], np.zeros(nlanes, dtype=u[4]), "scalar",
                              u[5])
                    self.vars[u[1]] = var
                value = regs[u[2]].cast(u[3])
                var.values[cur] = value.values[cur]
                if u[6]:
                    var.space = value.space if value.space != "none" \
                        else "global"
            elif op == OP_DECLL:
                self.vars[u[1]] = Var(
                    u[2], np.zeros((nlanes, u[5]), dtype=u[3]),
                    "local_array", "none", u[4])
            elif op == OP_DECLSH:
                if self.vars[u[1]] is None:
                    raise SimulationError(
                        f"shared variable {u[2]!r} missing from layout")
            elif op == OP_DEVCALL:
                self._devcall(u, cur)
                pc = u[9]
                continue
            elif op == OP_SPLIT:
                self._split(u, cur, frame)
                pc = u[7]
                continue
            else:
                raise SimulationError(f"bad uop {op}")
            pc += 1

    # -- compound-uop handlers --------------------------------------------
    def _addr(self, u, cur) -> None:
        regs = self.regs
        base = regs[u[2]]
        idx_regs = u[3]
        if base.space == "local":
            slot = u[4]
            if slot < 0:
                raise SimulationError("subscript on a non-pointer value")
            var = self.vars[slot]
            regs[u[1]] = (self._flat_index(idx_regs, var.dims), var.ctype,
                          "local", var)
            return
        if not base.ctype.is_pointer:
            raise SimulationError("subscript on a non-pointer value")
        elem = base.ctype.pointee()
        if base.dims:
            flat = self._flat_index(idx_regs, base.dims)
            regs[u[1]] = (base.values + flat * np_dtype_for(elem).itemsize,
                          elem, base.space, None)
            return
        if len(idx_regs) != 1:
            raise SimulationError("multi-level subscript on a flat pointer")
        idx = regs[idx_regs[0]].cast(_LONG)
        regs[u[1]] = (base.values + idx.values * np_dtype_for(elem).itemsize,
                      elem, base.space, None)

    def _flat_index(self, idx_regs, dims) -> np.ndarray:
        if len(idx_regs) != len(dims):
            raise SimulationError(
                f"expected {len(dims)} subscripts, got {len(idx_regs)}")
        regs = self.regs
        flat = np.zeros(self.nlanes, dtype=np.int64)
        for r, stride in zip(idx_regs, _strides(dims)):
            flat = flat + regs[r].cast(_LONG).values * stride
        return flat

    def _load(self, u, cur) -> None:
        addr, elem, space, var = self.regs[u[2]]
        dtype = np_dtype_for(elem)
        if space == "local":
            out = np.zeros(self.nlanes, dtype=dtype)
            lanes = self._lanes(cur)
            idx = np.clip(addr[lanes], 0, var.values.shape[1] - 1)
            out[lanes] = var.values[lanes, idx]
            self._tally(cur, 1)
            self.regs[u[1]] = TypedValue(out, elem)
            return
        active = addr[cur]
        lanes = self._lanes(cur)
        full = lanes.size == self.nlanes
        active = addr if full else addr.take(lanes)
        if active.dtype != np.int64:
            active = active.astype(np.int64)
        if space == "shared":
            data = self.shared.load(active, self._lane_rows(cur), dtype)
        else:
            data = self.memory.load(active, dtype)
        if full:
            out = data
        else:
            out = np.zeros(self.nlanes, dtype=dtype)
            out[lanes] = data
        if self.shadows is not None:
            self._san(active, dtype.itemsize, cur, False, False, space)
        self._emit_mem(active, dtype.itemsize, False, space, cur)
        self.regs[u[1]] = TypedValue(out, elem)

    def _store(self, u, cur) -> None:
        addr, elem, space, var = self.regs[u[1]]
        value = self.regs[u[2]].cast(elem)
        if space == "local":
            lanes = self._lanes(cur)
            idx = np.clip(addr[lanes], 0, var.values.shape[1] - 1)
            var.values[lanes, idx] = value.values[lanes]
            self._tally(cur, 1)
            return
        lanes = self._lanes(cur)
        full = lanes.size == self.nlanes
        active = addr if full else addr.take(lanes)
        if active.dtype != np.int64:
            active = active.astype(np.int64)
        vals = value.values if full else value.values.take(lanes)
        if space == "shared":
            self.shared.store(active, self._lane_rows(cur), vals)
        else:
            self.memory.store(active, vals)
        itemsize = np_dtype_for(elem).itemsize
        if self.shadows is not None:
            self._san(active, itemsize, cur, True, False, space)
        self._emit_mem(active, itemsize, True, space, cur)

    def _atomic(self, u, cur) -> None:
        addr, elem, space, _var = self.regs[u[2]]
        dtype = np_dtype_for(elem)
        val = self.regs[u[3]].cast(elem)
        active_addr = addr[cur].astype(np.int64)
        active_val = val.values[cur]
        # Deterministic slot-major serialization (lane order within a warp
        # matches narrow; cross-warp order is this schedule's).
        if space == "shared":
            rows = self._lane_rows(cur)
            old = self.shared.load(active_addr, rows, dtype)
            for pos in range(active_addr.size):
                a = active_addr[pos:pos + 1]
                r = rows[pos:pos + 1]
                now = self.shared.load(a, r, dtype)
                self.shared.store(a, r, now + active_val[pos])
        else:
            old = self.memory.load(active_addr, dtype)
            for pos in range(active_addr.size):
                a = active_addr[pos:pos + 1]
                now = self.memory.load(a, dtype)
                self.memory.store(a, now + active_val[pos])
        if self.shadows is not None:
            self._san(active_addr, dtype.itemsize, cur, True, True, space)
        self._emit_mem(active_addr.copy(), dtype.itemsize, False, space, cur)
        self._emit_mem(active_addr.copy(), dtype.itemsize, True, space, cur)
        out = np.zeros(self.nlanes, dtype=dtype)
        out[cur] = old
        self.regs[u[1]] = TypedValue(out, elem)

    def _sync(self, cur) -> None:
        if self.epochs is not None:
            self.epochs[self._block_any(cur)] += 1
        ta = None
        if self.ntimed and not self.discard_masks:
            ta = self._timed_act(cur)
        self._flush_point()
        if ta is not None:
            tstreams = self.tstreams
            for i in np.nonzero(ta)[0].tolist():
                tstreams[i].append(SYNC_EVENT)

    def _for(self, u, cur) -> None:
        _, c_lo, c_hi, c_reg, b_lo, b_hi, s_lo, s_hi, clean, _end = u
        regs = self.regs
        inner = _LoopFrame(np.zeros(self.nlanes, bool),
                           np.zeros(self.nlanes, bool))
        if clean:
            base = cur & ~self.returned
            if not base.any():
                return
            while True:
                if self.max_events is not None:
                    self._trip()
                self._run(c_lo, c_hi, base, inner)
                cv = regs[c_reg].values.astype(bool)
                alive = base & cv
                if not alive.any():
                    break
                # A narrow warp exits its loop after its first all-false
                # test: drop those slots from further condition evaluation
                # (exited *lanes* of still-live slots keep re-testing).
                base = self._drop_finished(base, alive)
                self._run(b_lo, b_hi, alive, inner)
                if s_lo >= 0:
                    self._run(s_lo, s_hi, alive, inner)
            return
        m = cur
        while True:
            if self.max_events is not None:
                self._trip()
            alive = m & ~self.returned & ~inner.broke
            if not alive.any():
                break
            if c_lo >= 0:
                self._run(c_lo, c_hi, alive, inner)
                passed = alive & regs[c_reg].values.astype(bool)
                if not passed.any():
                    break
                m = self._drop_finished(m, passed, alive)
                alive = passed
            inner.continued[:] = False
            self._run(b_lo, b_hi, alive, inner)
            step_mask = alive & ~self.returned & ~inner.broke
            if s_lo >= 0 and step_mask.any():
                self._run(s_lo, s_hi, step_mask, inner)
            if c_lo < 0 and not step_mask.any():
                break

    def _while(self, u, cur) -> None:
        _, c_lo, c_hi, c_reg, b_lo, b_hi, do_first, _end = u
        regs = self.regs
        inner = _LoopFrame(np.zeros(self.nlanes, bool),
                           np.zeros(self.nlanes, bool))
        first = True
        m = cur
        while True:
            if self.max_events is not None:
                self._trip()
            alive = m & ~self.returned & ~inner.broke
            if not alive.any():
                break
            if not (do_first and first):
                self._run(c_lo, c_hi, alive, inner)
                passed = alive & regs[c_reg].values.astype(bool)
                if not passed.any():
                    break
                m = self._drop_finished(m, passed, alive)
                alive = passed
            inner.continued[:] = False
            self._run(b_lo, b_hi, alive, inner)
            if do_first:
                post = alive & ~self.returned & ~inner.broke
                if not post.any():
                    break
                self._run(c_lo, c_hi, post, inner)
                cv = regs[c_reg].values.astype(bool)
                m = post & cv
                if not m.any():
                    break
            first = False

    def _ternary(self, u, cur, frame) -> None:
        regs = self.regs
        cv = regs[u[2]].values.astype(bool)
        tm = cur & cv
        em = cur & ~cv
        ctype = None
        out = None
        if tm.any():
            self._run(u[3], u[4], tm, frame)
            tv = regs[u[5]]
            ctype = tv.ctype
            out = tv.values.copy()
        if em.any():
            self._run(u[6], u[7], em, frame)
            ev = regs[u[8]]
            if out is None:
                out = ev.values.copy()
                ctype = ev.ctype
            else:
                ctype = promote(ctype, ev.ctype)
                out = out.astype(np_dtype_for(ctype), copy=True)
                out[em] = ev.values.astype(np_dtype_for(ctype))[em]
        if out is None:
            out = np.zeros(self.nlanes, dtype=np.int32)
            ctype = INT
        regs[u[1]] = TypedValue(out, ctype)

    def _short_circuit(self, u, cur, frame) -> None:
        regs = self.regs
        lv = regs[u[2]].values.astype(bool)
        is_and = u[6]
        need = cur & (lv if is_and else ~lv)
        if need.any():
            self._run(u[3], u[4], need, frame)
            rv = regs[u[5]].values.astype(bool)
            if is_and:
                out = lv & np.where(need, rv, True)
            else:
                out = lv | np.where(need, rv, False)
        else:
            out = lv.copy()
        regs[u[1]] = TypedValue(out, BOOL)

    def _devcall(self, u, cur) -> None:
        _, dst, b_lo, b_hi, params, arg_regs, is_void, ret_ctype, \
            ret_dtype, _end = u
        regs = self.regs
        saved_ret = self.returned
        self.returned = np.zeros(self.nlanes, dtype=bool)
        for (slot, ctype), areg in zip(params, arg_regs):
            tv = regs[areg].cast(ctype)
            self.vars[slot] = Var(
                ctype, tv.values.copy(), "scalar",
                tv.space if ctype.is_pointer else "none", tv.dims)
        ret_store = np.zeros(self.nlanes, dtype=ret_dtype)
        self._ret_stack.append(ret_store)
        frame = _LoopFrame(np.zeros(self.nlanes, bool),
                           np.zeros(self.nlanes, bool))
        self.discard_masks.append(cur)
        try:
            self._run(b_lo, b_hi, cur, frame)
        finally:
            self.discard_masks.pop()
            self._ret_stack.pop()
            self.returned = saved_ret
        # The +2 call-overhead tally is folded at the lowering site.
        if is_void:
            regs[dst] = TypedValue(np.zeros(self.nlanes, np.int32), INT)
        else:
            regs[dst] = TypedValue(ret_store, ret_ctype)

    def _split(self, u, cur, frame) -> None:
        """Run a warp split's copies (:meth:`_Lowerer._split_region`).

        Fused, each copy's guard and barrier run in turn as the copies run
        them, the loop runs once under the union of the copies' members, and
        each timed warp's loop events are spliced into its stream between
        its own copy's guard events and barrier.  A launch under the
        sanitizer, a warp with lanes in two copies, or a storing loop this
        launch's shape did not prove race-free runs the copies one after
        another instead."""
        _, w_lo, w_hi, w_reg, bounds, copies, fusable, end = u
        if fusable == PROVE:
            fusable = w_lo in self.proved
        members = None
        if fusable and self.shadows is None:
            self._run(w_lo, w_hi, cur, frame)
            w = self.regs[w_reg].values
            members = [cur & (w >= lo) & (w < hi) for lo, hi in bounds]
            owners = np.stack(members).reshape(
                len(members), self.nslots, WARP_SIZE).any(axis=2).sum(axis=0)
            if (owners > 1).any():
                members = None
        if members is None:
            self.split_unfused += 1
            self._run(w_hi, end, cur, frame)
            return
        self.split_fused += 1
        tstreams = self.tstreams
        marks = []
        for (g_lo, if_pc), m in zip(copies, members):
            self._run(g_lo, if_pc, cur, frame)  # guard, its tally and flush
            if self.ntimed:
                live = np.flatnonzero(self._timed_act(m)).tolist()
                marks += [(tp, len(tstreams[tp])) for tp in live]
            self._sync(cur)
        union = np.logical_or.reduce(members)
        if not union.any():
            return
        self.tstreams = [[] for _ in range(self.ntimed)]
        t_lo, t_hi = self.uops[copies[0][1]][2:4]
        self._run(t_lo, t_hi, union, frame)
        self._flush_point()  # what the copy's barrier would flush
        loop_events = self.tstreams
        self.tstreams = tstreams
        for tp, pos in marks:
            tstreams[tp][pos:pos] = loop_events[tp]


# ---------------------------------------------------------------------------
# Launch-level driver
# ---------------------------------------------------------------------------


def record_tape_streams(
    program: TapeProgram,
    memory: GlobalMemory,
    shared_layout: dict[str, tuple[int, CType, tuple[int, ...]]],
    shared_capacity: int,
    args: KernelArgs,
    grid: tuple[int, int, int],
    block: tuple[int, int, int],
    warps_per_tb: int,
    timed_tbs: set[int],
    line_size: int,
    sanitize: bool = False,
    kernel_name: str = "",
    global_bases: list[tuple[int, str]] | None = None,
    max_slots: int = MAX_TAPE_SLOTS,
) -> tuple[dict[int, list[list[Event]]], list[ShadowState]]:
    """Execute *all* TBs of a launch on the uop tape, in whole-TB chunks.

    Returns ``(streams, shadows)`` where ``streams[tb_id][warp_id]`` holds
    the recorded event list of each timed TB (untimed TBs have no entry —
    the caller replays timed TBs only), and ``shadows`` carries one per-TB
    :class:`ShadowState` (ascending TB order) when ``sanitize`` is set.
    All functional memory effects happen here, exactly once per thread;
    memory events carry lines coalesced at ``line_size`` bytes.
    """
    from ..obs.metrics_registry import registry as _registry
    from ..obs.trace import span as _span

    total_tbs = grid[0] * grid[1] * grid[2]
    gx, gy = grid[0], grid[1]
    tb_arange = np.arange(total_tbs, dtype=np.int64)
    block_idxs = np.stack(
        [tb_arange % gx, (tb_arange // gx) % gy, tb_arange // (gx * gy)],
        axis=1)
    streams: dict[int, list[list[Event]]] = {}
    shadows_out: list[ShadowState] = []
    tbs_per_chunk = max(max_slots // warps_per_tb, 1)
    reg = _registry()
    if reg.enabled:
        reg.counter("sim.tape.wide_passes").inc(
            -(-total_tbs // tbs_per_chunk))
        reg.counter("sim.tape.lanes").inc(
            total_tbs * warps_per_tb * WARP_SIZE)
    for chunk_start in range(0, total_tbs, tbs_per_chunk):
        chunk = block_idxs[chunk_start:chunk_start + tbs_per_chunk]
        ntbs = chunk.shape[0]
        shadows = None
        if sanitize:
            shadows = [
                ShadowState(kernel_name, (int(bi[0]), int(bi[1]), int(bi[2])),
                            shared_layout, list(global_bases or []))
                for bi in chunk
            ]
            shadows_out.extend(shadows)
        timed_local = np.array(
            sorted(
                (tb - chunk_start) * warps_per_tb + w
                for tb in range(chunk_start, chunk_start + ntbs)
                if tb in timed_tbs
                for w in range(warps_per_tb)
            ),
            dtype=np.int64)
        with _span("sim.tape.wide_pass", kernel=program.kernel.name,
                   tbs=ntbs, timed=int(timed_local.size)):
            shared = WideShared(ntbs, shared_capacity)
            ex = TapeExecutor(program, memory, shared, shared_layout, args,
                              chunk, block, grid, warps_per_tb, timed_local,
                              line_size, shadows)
            ex.run()
        if reg.enabled:
            if ex.split_fused:
                reg.counter("sim.tape.split_fused").inc(ex.split_fused)
            if ex.split_unfused:
                reg.counter("sim.tape.split_unfused").inc(ex.split_unfused)
        # Timed slots come whole-TB and ascending, so each TB's warps are
        # consecutive entries of ``tstreams``.
        tstreams = ex.tstreams
        for pos in range(0, len(tstreams), warps_per_tb):
            tb = chunk_start + int(timed_local[pos]) // warps_per_tb
            streams[tb] = tstreams[pos:pos + warps_per_tb]
    return streams, shadows_out
