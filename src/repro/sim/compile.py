"""One-shot closure compiler for the SIMT warp interpreter.

:mod:`repro.sim.interp` re-dispatches on AST node types for every warp, every
loop iteration.  This module lowers a kernel ``FunctionDef`` **once per
launch** into a tree of pre-bound Python closures over NumPy lane vectors:

* statement closures are generators ``run(it, mask, frame)`` yielding the
  same :mod:`repro.sim.events` events the interpreter yields, and
* expression closures are plain calls ``fn(it, mask) -> TypedValue``.

``it`` is a :class:`CompiledWarp` — a :class:`WarpInterpreter` subclass that
keeps the environment/shared-memory/event state but never walks the AST.
The compiled form is *semantics-identical* to the AST walk by construction:
every ``ops += 1`` site, flush point, short-circuit rule and masking decision
below mirrors the corresponding line of :mod:`repro.sim.interp`, and the
differential gate in ``tests/sim/test_engine_differential.py`` asserts
bit-identical event streams and metrics over the whole workload registry.

The closures are parameterized on the lane count ``nlanes`` so the widened
executor in :mod:`repro.sim.replay` (homogeneous-block dedup) can run one
``ntbs * 32``-lane warp over many thread blocks with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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
from .events import SYNC_EVENT, Event, mem_event
from .interp import (
    _BINARY_MATH,
    _UNARY_MATH,
    BOOL,
    FLOAT,
    INT,
    WARP_SIZE,
    KernelArgs,
    SharedBlock,
    SimulationError,
    TypedValue,
    Var,
    WarpInterpreter,
    _LoopFrame,
    _strides,
    np_dtype_for,
    promote,
)
from .memory import GlobalMemory

ExprFn = Callable[["CompiledWarp", np.ndarray], TypedValue]
# Statement closures are generators (or plain callables returning an empty
# iterable for yield-free statements like break/continue).
StmtFn = Callable[["CompiledWarp", np.ndarray, _LoopFrame], "Iterator[Event]"]

_EMPTY: tuple = ()
_LONG = CType("long")


@dataclass
class CompiledKernel:
    """A kernel lowered to closures for a fixed lane count."""

    kernel: FunctionDef
    nlanes: int
    body: StmtFn


# ---------------------------------------------------------------------------
# Compile memo: an LRU keyed on content, like the tape's lowering memo
# ---------------------------------------------------------------------------

compile_memo = Memo("sim.compile.cache", 64)


def compile_kernel(unit: TranslationUnit, kernel_name: str,
                   nlanes: int = WARP_SIZE) -> CompiledKernel:
    """Lower ``kernel_name`` to closures (memoized on its content)."""
    from ..obs.trace import span

    key = (unit.kernel_key(kernel_name), nlanes)
    compiled = compile_memo.get(key)
    if compiled is None:
        with span("sim.compile.lower", kernel=kernel_name, nlanes=nlanes):
            kernel = unit.kernel(kernel_name)
            compiled = CompiledKernel(
                kernel, nlanes, _Compiler(unit, nlanes).stmt(kernel.body)
            )
        compile_memo.put(key, compiled)
    return compiled


# ---------------------------------------------------------------------------
# Runtime state: a WarpInterpreter that executes closures, not AST
# ---------------------------------------------------------------------------


class CompiledWarp(WarpInterpreter):
    """Per-warp state driven by compiled closures.

    Inherits environment setup, ``_flush``, ``_arith`` and the typed-value
    helpers from :class:`WarpInterpreter`; the AST-walking ``_eval``/
    ``_exec_*`` methods are simply never called.
    """

    nlanes = WARP_SIZE

    def run_compiled(self, compiled: CompiledKernel) -> Iterator[Event]:
        # Mirrors WarpInterpreter.run().
        mask = self.alive0.copy()
        if not mask.any():
            return
        frame = _LoopFrame(np.zeros(self.nlanes, bool),
                           np.zeros(self.nlanes, bool))
        yield from compiled.body(self, mask, frame)
        yield from self._flush()

    # -- event hooks (overridden by the widened executor) -----------------
    def tally(self, mask: np.ndarray, n: int = 1) -> None:
        self.ops += n

    def tally_sfu(self, mask: np.ndarray) -> None:
        self.sfu_ops += 1

    def _emit_mem(self, addresses: np.ndarray, itemsize: int, write: bool,
                  space: str, mask: np.ndarray) -> None:
        self.pending.append(mem_event(addresses, itemsize, write, space,
                                      self.line_size))

    def sync_point(self, mask: np.ndarray) -> Iterator[Event]:
        # Mirrors SyncthreadsStmt handling in _exec_stmt.
        self.san_epoch += 1
        yield from self._flush()
        yield SYNC_EVENT

    # -- shared-memory hooks (per-TB in narrow mode, per-slot when wide) --
    def _shared_load(self, offsets: np.ndarray, dtype: np.dtype,
                     mask: np.ndarray) -> np.ndarray:
        return self.shared.load(offsets, dtype)

    def _shared_store(self, offsets: np.ndarray, values: np.ndarray,
                      mask: np.ndarray) -> None:
        self.shared.store(offsets, values)

    def _shared_rmw_add(self, offsets: np.ndarray, values: np.ndarray,
                        dtype: np.dtype, mask: np.ndarray) -> np.ndarray:
        # Mirrors WarpInterpreter._atomic_add (shared branch).
        old = self.shared.load(offsets, dtype)
        for pos in range(offsets.size):
            a = offsets[pos:pos + 1]
            cur = self.shared.load(a, dtype)
            self.shared.store(a, cur + values[pos])
        return old

    # -- memory ops shared by narrow and wide execution -------------------
    def load_op(self, addr: np.ndarray, elem: CType, space: str,
                mask: np.ndarray) -> TypedValue:
        # Mirrors WarpInterpreter._load (global/shared tail).  ``addr[mask]``
        # is already a fresh boolean-gather copy, so the event can alias it
        # without a further defensive copy.
        dtype = np_dtype_for(elem)
        active = addr[mask]
        if active.dtype != np.int64:
            active = active.astype(np.int64)
        if space == "shared":
            data = self._shared_load(active, dtype, mask)
        else:
            data = self.memory.load(active, dtype)
        out = np.zeros(self.nlanes, dtype=dtype)
        out[mask] = data
        self._san_access(active, dtype.itemsize, mask, False, False, space)
        self._emit_mem(active, dtype.itemsize, False, space, mask)
        return TypedValue(out, elem)

    def store_op(self, addr: np.ndarray, elem: CType, space: str,
                 value: TypedValue, mask: np.ndarray) -> None:
        # Mirrors WarpInterpreter._store (global/shared tail).
        value = value.cast(elem)
        active = addr[mask]
        if active.dtype != np.int64:
            active = active.astype(np.int64)
        if space == "shared":
            self._shared_store(active, value.values[mask], mask)
        else:
            self.memory.store(active, value.values[mask])
        self._san_access(active, np_dtype_for(elem).itemsize, mask,
                         True, False, space)
        self._emit_mem(active, np_dtype_for(elem).itemsize, True,
                       space, mask)

    def atomic_add_op(self, addr: np.ndarray, elem: CType, space: str,
                      val: TypedValue, mask: np.ndarray) -> TypedValue:
        # Mirrors WarpInterpreter._atomic_add tail.
        dtype = np_dtype_for(elem)
        active_addr = addr[mask].astype(np.int64)
        active_val = val.values[mask]
        if space == "shared":
            old = self._shared_rmw_add(active_addr, active_val, dtype, mask)
        else:
            old = self.memory.load(active_addr, dtype)
            for pos in range(active_addr.size):
                a = active_addr[pos:pos + 1]
                cur = self.memory.load(a, dtype)
                self.memory.store(a, cur + active_val[pos])
        self._san_access(active_addr, dtype.itemsize, mask, True, True, space)
        self._emit_mem(active_addr.copy(), dtype.itemsize, False, space, mask)
        self._emit_mem(active_addr.copy(), dtype.itemsize, True, space, mask)
        out = np.zeros(self.nlanes, dtype=dtype)
        out[mask] = old
        return TypedValue(out, elem)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, unit: TranslationUnit, nlanes: int):
        self.unit = unit
        self.nlanes = nlanes
        self._device_bodies: dict[str, StmtFn] = {}

    # ------------------------------------------------------------------
    # Compile-time mask analysis
    # ------------------------------------------------------------------
    def _disrupts(self, s: Stmt | None) -> bool:
        """Can executing ``s`` change ``it.returned`` or the *current*
        frame's broke/continued bits?

        ``break``/``continue`` inside a nested loop target that loop's own
        frame, so only a ``return`` escapes a loop subtree.  Expressions
        cannot disrupt (device calls save/restore ``returned``).  Blocks and
        straight-line statements whose subtree cannot disrupt let the
        closures skip the per-statement mask recomputation and ``any()``
        re-check, which dominate tight-loop execution cost.
        """
        if s is None:
            return False
        if isinstance(s, (ReturnStmt, BreakStmt, ContinueStmt)):
            return True
        if isinstance(s, Block):
            return any(self._disrupts(c) for c in s.statements)
        if isinstance(s, IfStmt):
            return self._disrupts(s.then) or self._disrupts(s.otherwise)
        if isinstance(s, (ForStmt, WhileStmt, DoWhileStmt)):
            return any(isinstance(x, ReturnStmt) for x in statements_in(s))
        return False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def stmt(self, s: Stmt) -> StmtFn:
        if isinstance(s, Block):
            return self._block(s)
        if isinstance(s, ExprStmt):
            return self._expr_stmt(s)
        if isinstance(s, DeclStmt):
            return self._decl_stmt(s)
        if isinstance(s, IfStmt):
            return self._if_stmt(s)
        if isinstance(s, ForStmt):
            return self._for_stmt(s)
        if isinstance(s, WhileStmt):
            return self._while_stmt(s, do_first=False)
        if isinstance(s, DoWhileStmt):
            return self._while_stmt(s, do_first=True)
        if isinstance(s, ReturnStmt):
            return self._return_stmt(s)
        if isinstance(s, BreakStmt):
            def run_break(it, mask, frame):
                frame.broke |= mask
                return _EMPTY
            return run_break
        if isinstance(s, ContinueStmt):
            def run_continue(it, mask, frame):
                frame.continued |= mask
                return _EMPTY
            return run_continue
        if isinstance(s, SyncthreadsStmt):
            def run_sync(it, mask, frame):
                return it.sync_point(mask)
            return run_sync
        if isinstance(s, EmptyStmt):
            def run_empty(it, mask, frame):
                return _EMPTY
            return run_empty
        raise SimulationError(f"cannot execute {type(s).__name__}")

    def _block(self, block: Block) -> StmtFn:
        fns = tuple(self.stmt(s) for s in block.statements)
        flags = tuple(self._disrupts(s) for s in block.statements)

        if not any(flags):
            # Straight-line block: the active mask is invariant across the
            # whole statement list, so compute (and emptiness-check) it once.
            def run_clean(it, mask, frame):
                active = mask & ~it.returned & ~frame.broke & ~frame.continued
                if not active.any():
                    return
                for fn in fns:
                    yield from fn(it, active, frame)
            return run_clean

        pairs = tuple(zip(fns, flags))

        def run(it, mask, frame):
            active = mask & ~it.returned & ~frame.broke & ~frame.continued
            if not active.any():
                return
            dirty = False
            for fn, disrupts in pairs:
                if dirty:
                    active = mask & ~it.returned & ~frame.broke \
                        & ~frame.continued
                    if not active.any():
                        return
                yield from fn(it, active, frame)
                dirty = disrupts
        return run

    def _expr_stmt(self, s: ExprStmt) -> StmtFn:
        e = self.expr(s.expr)

        def run(it, mask, frame):
            e(it, mask)
            if it.ops or it.sfu_ops or it.pending:
                yield from it._flush()
        return run

    def _decl_stmt(self, s: DeclStmt) -> StmtFn:
        parts = tuple(self._declarator(s, d) for d in s.declarators)

        def run(it, mask, frame):
            for p in parts:
                p(it, mask)
            if it.ops or it.sfu_ops or it.pending:
                yield from it._flush()
        return run

    def _declarator(self, s: DeclStmt, d) -> Callable:
        dtype = np_dtype_for(s.type)
        ctype = s.type
        name = d.name
        if s.is_shared:
            def run_shared(it, mask):
                if name not in it.env:
                    raise SimulationError(
                        f"shared variable {name!r} missing from layout"
                    )
            return run_shared
        if d.array_sizes:
            total = int(np.prod(d.array_sizes))
            dims = tuple(d.array_sizes)

            def run_local(it, mask):
                it.env[name] = Var(
                    ctype, np.zeros((it.nlanes, total), dtype=dtype),
                    "local_array", "none", dims,
                )
            return run_local
        init = self.expr(d.init) if d.init is not None else None
        space = "global" if ctype.is_pointer else "none"
        is_ptr = ctype.is_pointer
        if init is None:
            def run_scalar(it, mask):
                var = it.env.get(name)
                if var is None or var.kind != "scalar" \
                        or var.values.dtype != dtype:
                    it.env[name] = Var(ctype, np.zeros(it.nlanes, dtype=dtype),
                                       "scalar", space)
            return run_scalar

        def run_scalar_init(it, mask):
            var = it.env.get(name)
            if var is None or var.kind != "scalar" or var.values.dtype != dtype:
                var = Var(ctype, np.zeros(it.nlanes, dtype=dtype), "scalar",
                          space)
                it.env[name] = var
            value = init(it, mask).cast(ctype)
            var.values[mask] = value.values[mask]
            if is_ptr:
                var.space = value.space if value.space != "none" else "global"
            it.tally(mask)
        return run_scalar_init

    def _if_stmt(self, s: IfStmt) -> StmtFn:
        c = self.expr(s.cond)
        t = self.stmt(s.then)
        e = self.stmt(s.otherwise) if s.otherwise is not None else None

        def run(it, mask, frame):
            cond = c(it, mask).values.astype(bool)
            if it.ops or it.sfu_ops or it.pending:
                yield from it._flush()
            then_mask = mask & cond
            if then_mask.any():
                yield from t(it, then_mask, frame)
            if e is not None:
                else_mask = mask & ~cond & ~it.returned
                else_mask &= ~frame.broke & ~frame.continued
                if else_mask.any():
                    yield from e(it, else_mask, frame)
        return run

    def _for_stmt(self, s: ForStmt) -> StmtFn:
        init = self.stmt(s.init) if s.init is not None else None
        cond = self.expr(s.cond) if s.cond is not None else None
        step = self.expr(s.step) if s.step is not None else None
        body = self.stmt(s.body)

        if cond is not None and not self._disrupts(s.body):
            # Clean body (no return/break/continue): ``it.returned`` and the
            # inner frame are loop-invariant, so the per-iteration alive-mask
            # rebuild collapses to one base mask.  The per-iteration event
            # stream is identical to the generic path: the condition is still
            # evaluated over the full base mask (exited lanes keep re-testing,
            # exactly like the interpreter), and the body/step run under
            # ``base & cond``.
            def run_clean(it, mask, frame):
                inner = _LoopFrame(np.zeros(it.nlanes, bool),
                                   np.zeros(it.nlanes, bool))
                if init is not None:
                    yield from init(it, mask, inner)
                base = mask & ~it.returned
                if not base.any():
                    return
                while True:
                    cv = cond(it, base).values.astype(bool)
                    it.tally(base)
                    if it.ops or it.sfu_ops or it.pending:
                        yield from it._flush()
                    alive = base & cv
                    if not alive.any():
                        break
                    yield from body(it, alive, inner)
                    if step is not None:
                        step(it, alive)
                        if it.ops or it.sfu_ops or it.pending:
                            yield from it._flush()
            return run_clean

        def run(it, mask, frame):
            inner = _LoopFrame(np.zeros(it.nlanes, bool),
                               np.zeros(it.nlanes, bool))
            if init is not None:
                yield from init(it, mask, inner)
            while True:
                alive = mask & ~it.returned & ~inner.broke
                if not alive.any():
                    break
                if cond is not None:
                    cv = cond(it, alive).values.astype(bool)
                    it.tally(alive)
                    if it.ops or it.sfu_ops or it.pending:
                        yield from it._flush()
                    alive = alive & cv
                    if not alive.any():
                        break
                inner.continued[:] = False
                yield from body(it, alive, inner)
                step_mask = alive & ~it.returned & ~inner.broke
                if step is not None and step_mask.any():
                    step(it, step_mask)
                    if it.ops or it.sfu_ops or it.pending:
                        yield from it._flush()
                if cond is None and not step_mask.any():
                    break
        return run

    def _while_stmt(self, s, do_first: bool) -> StmtFn:
        cond = self.expr(s.cond)
        body = self.stmt(s.body)

        def run(it, mask, frame):
            inner = _LoopFrame(np.zeros(it.nlanes, bool),
                               np.zeros(it.nlanes, bool))
            first = True
            while True:
                alive = mask & ~it.returned & ~inner.broke
                if not alive.any():
                    break
                if not (do_first and first):
                    cv = cond(it, alive).values.astype(bool)
                    it.tally(alive)
                    if it.ops or it.sfu_ops or it.pending:
                        yield from it._flush()
                    alive = alive & cv
                    if not alive.any():
                        break
                inner.continued[:] = False
                yield from body(it, alive, inner)
                if do_first:
                    post = alive & ~it.returned & ~inner.broke
                    if not post.any():
                        break
                    cv = cond(it, post).values.astype(bool)
                    it.tally(post)
                    if it.ops or it.sfu_ops or it.pending:
                        yield from it._flush()
                    if not (post & cv).any():
                        break
                    mask = post & cv
                first = False
        return run

    def _return_stmt(self, s: ReturnStmt) -> StmtFn:
        value = self.expr(s.value) if s.value is not None else None

        def run(it, mask, frame):
            if value is not None:
                tv = value(it, mask)
                if it._ret_store is not None:
                    it._ret_store[mask] = tv.values.astype(
                        it._ret_store.dtype)[mask]
            it.returned = it.returned | mask
            if it.ops or it.sfu_ops or it.pending:
                yield from it._flush()
        return run

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, e: Expr) -> ExprFn:
        if isinstance(e, (IntLit, FloatLit, BoolLit)):
            return self._literal(e)
        if isinstance(e, Ident):
            return self._ident(e)
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
            op = self.expr(e.operand)
            target = e.type
            return lambda it, mask: op(it, mask).cast(target)
        if isinstance(e, Call):
            return self._call(e)
        raise SimulationError(f"cannot evaluate {type(e).__name__}")

    def _literal(self, e) -> ExprFn:
        # Bake the lane vector once; treated as read-only (same convention
        # as WarpInterpreter._const_cache).
        if isinstance(e, IntLit):
            base = "long" if abs(e.value) > 2**31 - 1 else "int"
            ctype = CType(base)
            tv = TypedValue(
                np.full(self.nlanes, e.value, dtype=np_dtype_for(ctype)), ctype
            )
        elif isinstance(e, FloatLit):
            is_double = bool(e.text) and not e.text.lower().endswith("f")
            ctype = CType("double" if is_double else "float")
            tv = TypedValue(
                np.full(self.nlanes, e.value, dtype=np_dtype_for(ctype)), ctype
            )
        else:
            tv = TypedValue(np.full(self.nlanes, e.value, dtype=np.bool_),
                            BOOL)
        return lambda it, mask: tv

    def _ident(self, e: Ident) -> ExprFn:
        name = e.name

        def run(it, mask):
            var = it.env.get(name)
            if var is None:
                raise SimulationError(f"undefined variable {name!r}")
            kind = var.kind
            if kind == "scalar":
                # Reuse the cached read view while the Var's backing array
                # and space are unchanged (in-place writes keep it valid;
                # TypedValues are never mutated).
                tv = var.tv
                if tv is None or tv.values is not var.values \
                        or tv.space != var.space:
                    tv = TypedValue(var.values, var.ctype, var.space)
                    var.tv = tv
                return tv
            if kind == "shared_array":
                return TypedValue(
                    np.full(it.nlanes, var.shared_offset, dtype=np.int64),
                    CType(var.ctype.base, var.ctype.pointer_depth + 1),
                    "shared", var.dims,
                )
            return TypedValue(var.values, var.ctype, "local", var.dims)
        return run

    def _member(self, e: MemberRef) -> ExprFn:
        if isinstance(e.base, Ident):
            key = (e.base.name, e.member)

            def run(it, mask):
                vals = it.builtins.get(key)
                if vals is None:
                    raise SimulationError(
                        f"unsupported member access .{key[1]} "
                        f"(only thread builtins)"
                    )
                return TypedValue(vals, INT)
            return run

        def bad(it, mask):
            raise SimulationError(
                f"unsupported member access .{e.member} (only thread builtins)"
            )
        return bad

    # -- loads/stores --------------------------------------------------
    def _address_of(self, e: ArrayRef) -> Callable:
        """Compile an ArrayRef chain; the closure mirrors
        WarpInterpreter._address_of and returns
        ``(addr_or_flat, elem, space, var_or_None)``."""
        indices: list[Expr] = []
        node: Expr = e
        while isinstance(node, ArrayRef):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        base_fn = self.expr(node)
        base_name = node.name if isinstance(node, Ident) else None
        idx_fns = tuple(self.expr(i) for i in indices)
        n_indices = len(idx_fns)

        def flat_index(it, mask, dims):
            if n_indices != len(dims):
                raise SimulationError(
                    f"expected {len(dims)} subscripts, got {n_indices}"
                )
            flat = np.zeros(it.nlanes, dtype=np.int64)
            for idx_fn, dim_stride in zip(idx_fns, _strides(dims)):
                idx = idx_fn(it, mask).cast(_LONG)
                flat = flat + idx.values * dim_stride
                it.tally(mask)
            return flat

        def run(it, mask):
            base = base_fn(it, mask)
            if base.space == "local":
                if base_name is None:
                    raise SimulationError("subscript on a non-pointer value")
                var = it.env[base_name]
                flat = flat_index(it, mask, var.dims)
                return flat, var.ctype, "local", var
            if not base.ctype.is_pointer:
                raise SimulationError("subscript on a non-pointer value")
            elem = base.ctype.pointee()
            if base.dims:
                flat = flat_index(it, mask, base.dims)
                addr = base.values + flat * np_dtype_for(elem).itemsize
                return addr, elem, base.space, None
            if n_indices != 1:
                raise SimulationError("multi-level subscript on a flat pointer")
            idx = idx_fns[0](it, mask).cast(_LONG)
            it.tally(mask)  # address computation
            addr = base.values + idx.values * np_dtype_for(elem).itemsize
            return addr, elem, base.space, None
        return run

    def _load(self, e: ArrayRef) -> ExprFn:
        addr_fn = self._address_of(e)

        def run(it, mask):
            addr, elem, space, var = addr_fn(it, mask)
            if space == "local":
                dtype = np_dtype_for(elem)
                out = np.zeros(it.nlanes, dtype=dtype)
                lanes = np.nonzero(mask)[0]
                idx = np.clip(addr[lanes], 0, var.values.shape[1] - 1)
                out[lanes] = var.values[lanes, idx]
                it.tally(mask)
                return TypedValue(out, elem)
            return it.load_op(addr, elem, space, mask)
        return run

    def _store_fn(self, e: ArrayRef) -> Callable:
        addr_fn = self._address_of(e)

        def run(it, value, mask):
            addr, elem, space, var = addr_fn(it, mask)
            if space == "local":
                value = value.cast(elem)
                lanes = np.nonzero(mask)[0]
                idx = np.clip(addr[lanes], 0, var.values.shape[1] - 1)
                var.values[lanes, idx] = value.values[lanes]
                it.tally(mask)
                return
            it.store_op(addr, elem, space, value, mask)
        return run

    # -- operators -----------------------------------------------------
    def _binop(self, e: BinOp) -> ExprFn:
        op = e.op
        if op == ",":
            left = self.expr(e.left)
            right = self.expr(e.right)

            def run_comma(it, mask):
                left(it, mask)
                return right(it, mask)
            return run_comma
        if op in ("&&", "||"):
            left = self.expr(e.left)
            right = self.expr(e.right)
            is_and = op == "&&"

            def run_logic(it, mask):
                lv = left(it, mask).values.astype(bool)
                need = mask & (lv if is_and else ~lv)
                out = lv.copy()
                if need.any():
                    rv = right(it, need).values.astype(bool)
                    if is_and:
                        out = lv & np.where(need, rv, True)
                    else:
                        out = lv | np.where(need, rv, False)
                it.tally(mask)
                return TypedValue(out, BOOL)
            return run_logic
        left = self.expr(e.left)
        right = self.expr(e.right)

        def run(it, mask):
            a = left(it, mask)
            b = right(it, mask)
            it.tally(mask)
            return it._arith(op, a, b)
        return run

    def _unary(self, e: UnaryOp) -> ExprFn:
        op = e.op
        if op in ("++", "--"):
            operand = self.expr(e.operand)
            assign = self._assign_target(e.operand)
            arith_op = "+" if op == "++" else "-"

            def run_incdec(it, mask):
                old = operand(it, mask)
                one = TypedValue(np.ones(it.nlanes, old.values.dtype),
                                 old.ctype)
                new = it._arith(arith_op, old, one)
                assign(it, new, mask)
                return new
            return run_incdec
        if op == "*":
            # *p == p[0] — the interpreter evaluates the operand once for the
            # generic unary path (bumping ops), then re-evaluates it inside
            # the fake ArrayRef load.  Mirror both evaluations.
            load = self._load(ArrayRef(e.operand, IntLit(0)))
            operand = self.expr(e.operand)

            def run_deref(it, mask):
                operand(it, mask)
                it.tally(mask)
                return load(it, mask)
            return run_deref
        if op == "&":
            def run_addr(it, mask):
                raise SimulationError("address-of is not supported")
            return run_addr
        operand = self.expr(e.operand)
        if op == "-":
            def run_neg(it, mask):
                v = operand(it, mask)
                it.tally(mask)
                return TypedValue(-v.values, v.ctype)
            return run_neg
        if op == "!":
            def run_not(it, mask):
                v = operand(it, mask)
                it.tally(mask)
                return TypedValue(~v.values.astype(bool), BOOL)
            return run_not
        if op == "~":
            def run_bnot(it, mask):
                v = operand(it, mask)
                it.tally(mask)
                return TypedValue(~v.values, v.ctype)
            return run_bnot

        def run_bad(it, mask):
            raise SimulationError(f"unsupported unary operator {op!r}")
        return run_bad

    def _post_inc_dec(self, e: PostIncDec) -> ExprFn:
        operand = self.expr(e.operand)
        assign = self._assign_target(e.operand)
        arith_op = "+" if e.op == "++" else "-"

        def run(it, mask):
            old = operand(it, mask)
            one = TypedValue(np.ones(it.nlanes, old.values.dtype), old.ctype)
            new = it._arith(arith_op, old, one)
            snapshot = TypedValue(old.values.copy(), old.ctype, old.space)
            assign(it, new, mask)
            return snapshot
        return run

    def _assign(self, e: Assign) -> ExprFn:
        assign = self._assign_target(e.target)
        value = self.expr(e.value)
        if e.op == "=":
            def run_set(it, mask):
                v = value(it, mask)
                assign(it, v, mask)
                it.tally(mask)
                return v
            return run_set
        binop = e.op[:-1]
        target = self.expr(e.target)

        def run_compound(it, mask):
            old = target(it, mask)
            delta = value(it, mask)
            new = it._arith(binop, old, delta)
            assign(it, new, mask)
            it.tally(mask)
            return new
        return run_compound

    def _assign_target(self, target: Expr) -> Callable:
        """Compile the store side; closure is ``(it, value, mask) -> None``.
        Mirrors WarpInterpreter._assign_to."""
        if isinstance(target, Ident):
            name = target.name

            def run_ident(it, value, mask):
                var = it.env.get(name)
                if var is None:
                    var = Var(value.ctype,
                              np.zeros(it.nlanes,
                                       dtype=np_dtype_for(value.ctype)),
                              "scalar", value.space)
                    it.env[name] = var
                cast = value.cast(var.ctype)
                var.values[mask] = cast.values[mask]
                if var.ctype.is_pointer and value.space != "none":
                    var.space = value.space
            return run_ident
        if isinstance(target, ArrayRef):
            return self._store_fn(target)
        if isinstance(target, UnaryOp) and target.op == "*":
            return self._store_fn(ArrayRef(target.operand, IntLit(0)))

        def run_bad(it, value, mask):
            raise SimulationError(
                f"cannot assign to {type(target).__name__}"
            )
        return run_bad

    def _ternary(self, e: Ternary) -> ExprFn:
        cond = self.expr(e.cond)
        then = self.expr(e.then)
        otherwise = self.expr(e.otherwise)

        def run(it, mask):
            cv = cond(it, mask).values.astype(bool)
            then_mask = mask & cv
            else_mask = mask & ~cv
            ctype = None
            out = None
            if then_mask.any():
                tv = then(it, then_mask)
                ctype = tv.ctype
                out = tv.values.copy()
            if else_mask.any():
                ev = otherwise(it, else_mask)
                if out is None:
                    out = ev.values.copy()
                    ctype = ev.ctype
                else:
                    ctype = promote(ctype, ev.ctype)
                    out = out.astype(np_dtype_for(ctype), copy=True)
                    out[else_mask] = ev.values.astype(
                        np_dtype_for(ctype))[else_mask]
            if out is None:
                out = np.zeros(it.nlanes, dtype=np.int32)
                ctype = INT
            it.tally(mask)
            return TypedValue(out, ctype)
        return run

    # -- calls ---------------------------------------------------------
    def _call(self, e: Call) -> ExprFn:
        name = e.func
        if name in _UNARY_MATH:
            fn, sfu = _UNARY_MATH[name]
            arg = self.expr(e.args[0])
            keep_int = name in ("abs",)

            def run_unary(it, mask):
                a = arg(it, mask)
                out_t = a.ctype if a.ctype.base in ("float", "double") \
                    else FLOAT
                if keep_int and a.ctype.base not in ("float", "double"):
                    out_t = a.ctype
                vals = fn(a.values.astype(np_dtype_for(out_t), copy=False))
                if sfu:
                    it.tally_sfu(mask)
                else:
                    it.tally(mask)
                return TypedValue(
                    vals.astype(np_dtype_for(out_t), copy=False), out_t)
            return run_unary
        if name in _BINARY_MATH:
            fn, sfu = _BINARY_MATH[name]
            arg_a = self.expr(e.args[0])
            arg_b = self.expr(e.args[1])

            def run_binary(it, mask):
                a = arg_a(it, mask)
                b = arg_b(it, mask)
                ctype = promote(a.ctype, b.ctype)
                dtype = np_dtype_for(ctype)
                vals = fn(a.values.astype(dtype, copy=False),
                          b.values.astype(dtype, copy=False))
                if sfu:
                    it.tally_sfu(mask)
                else:
                    it.tally(mask)
                return TypedValue(vals.astype(dtype, copy=False), ctype)
            return run_binary
        if name == "atomicAdd":
            return self._atomic_add(e)
        try:
            func = self.unit.device_function(name)
        except KeyError:
            def run_unknown(it, mask):
                raise SimulationError(f"unknown function {name!r}")
            return run_unknown
        return self._device_call(func, e)

    def _atomic_add(self, e: Call) -> ExprFn:
        target = e.args[0]
        if isinstance(target, UnaryOp) and target.op == "&" and \
                isinstance(target.operand, ArrayRef):
            ref = target.operand
        elif isinstance(target, ArrayRef):
            ref = target
        else:
            def run_bad(it, mask):
                raise SimulationError(
                    "atomicAdd target must be &array[index]")
            return run_bad
        addr_fn = self._address_of(ref)
        val_fn = self.expr(e.args[1])

        def run(it, mask):
            addr, elem, space, _var = addr_fn(it, mask)
            val = val_fn(it, mask).cast(elem)
            return it.atomic_add_op(addr, elem, space, val, mask)
        return run

    def _device_call(self, func: FunctionDef, e: Call) -> ExprFn:
        if len(e.args) != len(func.params):
            msg = (f"{func.name} expects {len(func.params)} args, "
                   f"got {len(e.args)}")

            def run_arity(it, mask):
                raise SimulationError(msg)
            return run_arity
        body = self._device_bodies.get(func.name)
        if body is None:
            # Placeholder first to terminate (disallowed) recursion cleanly.
            self._device_bodies[func.name] = _recursion_guard(func.name)
            body = self.stmt(func.body)
            self._device_bodies[func.name] = body
        arg_fns = tuple(self.expr(a) for a in e.args)
        params = func.params
        is_void = func.return_type.base == "void"
        ret_dtype = np_dtype_for(func.return_type if not is_void else INT)
        ret_type = func.return_type

        def run(it, mask):
            # Mirrors WarpInterpreter._call_device_sync.
            saved_env = it.env
            saved_ret = it.returned
            saved_store = it._ret_store
            new_env = dict(saved_env)
            it.returned = np.zeros(it.nlanes, dtype=bool)
            for param, arg_fn in zip(params, arg_fns):
                it.env = saved_env
                tv = arg_fn(it, mask).cast(param.type)
                new_env[param.name] = Var(
                    param.type, tv.values.copy(), "scalar",
                    tv.space if param.type.is_pointer else "none", tv.dims,
                )
            it.env = new_env
            ret_store = np.zeros(it.nlanes, dtype=ret_dtype)
            it._ret_store = ret_store
            frame = _LoopFrame(np.zeros(it.nlanes, bool),
                               np.zeros(it.nlanes, bool))
            body_fn = self._device_bodies[func.name]
            for _ in body_fn(it, mask, frame):
                pass
            it.env = saved_env
            it.returned = saved_ret
            it._ret_store = saved_store
            it.tally(mask, 2)  # call overhead
            if is_void:
                return TypedValue(np.zeros(it.nlanes, np.int32), INT)
            return TypedValue(ret_store, ret_type)
        return run


def _recursion_guard(name: str) -> StmtFn:
    def run(it, mask, frame):
        raise SimulationError(f"recursive device function {name!r}")
    return run


# ---------------------------------------------------------------------------
# Convenience warp factory used by launch.py
# ---------------------------------------------------------------------------


def compiled_warp_run(
    compiled: CompiledKernel,
    unit: TranslationUnit,
    kernel: FunctionDef,
    memory: GlobalMemory,
    shared: SharedBlock,
    shared_layout: dict,
    args: KernelArgs,
    block_idx: tuple[int, int, int],
    block_dim: tuple[int, int, int],
    grid_dim: tuple[int, int, int],
    warp_id: int,
) -> Iterator[Event]:
    warp = CompiledWarp(unit, kernel, memory, shared, shared_layout, args,
                        block_idx, block_dim, grid_dim, warp_id)
    return warp.run_compiled(compiled)
