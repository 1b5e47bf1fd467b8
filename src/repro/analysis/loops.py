"""Loop discovery and memory-access collection.

Walks a kernel body over the
:class:`~repro.analysis.dataflow.affineprop.AffineFlow` fixpoint, recording
every loop and the off-chip memory references executed inside it, each with
the affine index form the fixpoint proves at its evaluation site.  This is
the front half of §4.2: the back half (coalescing, footprints, throttling
factors) consumes the :class:`LoopRecord` list produced here.

Only *global-pointer* dereferences count as off-chip accesses; ``__shared__``
and per-thread local arrays stay on chip.  References are de-duplicated per
loop by (array, index form, width) — the paper counts the three references in
``tmp[i] += A[i*NX+j] * B[j]`` as three memory instructions, with the
read-modify-write of ``tmp[i]`` counted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..frontend.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Cast,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    ReturnStmt,
    Stmt,
    SyncthreadsStmt,
    WhileStmt,
    statements_in,
    walk_expr,
)
from .affine import AffineForm, analyze_expr
from .dataflow.affineprop import AffineFlow, FlowEnv, ptr_state_of


@dataclass(frozen=True)
class MemAccess:
    """One static off-chip memory reference inside a loop."""

    array: str                # root pointer name
    index: AffineForm         # element index form at the reference point
    element_size: int         # bytes per element
    is_read: bool
    is_write: bool
    loop_id: int              # innermost enclosing loop
    loc: object = None        # SourceLocation of the reference, if known

    def key(self) -> tuple:
        # Direction is part of the identity: a read-modify-write (one memory
        # instruction issuing a load *and* a store) must never collapse with
        # a pure load of the same (array, index form, width) triple from a
        # sibling statement — they are distinct references in Eq. 7/8.
        return (self.array, self.index.coeffs, self.index.const,
                self.index.irregular, self.element_size,
                self.is_read, self.is_write)


@dataclass(frozen=True)
class LoopRecord:
    """One loop of the kernel, with its iterator and enclosed accesses.

    ``loop_id`` is the loop's index in walk order, so
    ``loop_statements(k)[loop_id]`` is this loop in any kernel ``k`` equal
    to the analysed one; ``stmt`` is the analysed kernel's own statement.
    """

    loop_id: int
    depth: int                       # 0 = outermost
    parent_id: int | None
    iterator: str | None             # None when the iterator is unrecognized
    step: int | None                 # elements per iteration; None if unknown
    start: AffineForm | None
    bound: AffineForm | None
    stmt: Stmt = field(repr=False, default=None)
    accesses: tuple[MemAccess, ...] = ()
    contains_sync: bool = False

    def unique_accesses(self) -> list[MemAccess]:
        seen: dict[tuple, MemAccess] = {}
        for acc in self.accesses:
            seen.setdefault(acc.key(), acc)
        return list(seen.values())

    def trip_count(self) -> int | None:
        """Constant trip-count estimate when start/bound/step all fold."""
        if (self.start is None or self.bound is None or self.step in (None, 0)
                or not self.start.is_constant or not self.bound.is_constant):
            return None
        span = self.bound.const - self.start.const
        trips = -(-span // self.step) if self.step > 0 else -(-(-span) // -self.step)
        return max(trips, 0)


@dataclass(frozen=True)
class KernelLoops:
    """All loops of one kernel plus name classification."""

    kernel: FunctionDef
    loops: tuple[LoopRecord, ...]
    global_pointers: dict[str, int]   # name -> element size
    shared_arrays: frozenset[str]
    local_arrays: frozenset[str]
    flow: AffineFlow                  # the fixpoint the index forms come from


# ---------------------------------------------------------------------------


class _Walker:
    """Collects loops and accesses from an
    :class:`~repro.analysis.dataflow.affineprop.AffineFlow` fixpoint.

    Index forms are resolved against the fixpoint environment snapshot of
    each evaluation site, and loop headers come from the flow's induction
    recognition; the walker itself only tracks loop nesting and name
    classes.
    """

    def __init__(self, kernel: FunctionDef, flow: AffineFlow):
        self.flow = flow
        self.loops: list[LoopRecord] = []   # accesses and sync filled last
        self.stack: list[int] = []          # ids of the enclosing loops
        self.accesses: list[list[MemAccess]] = []
        self.syncs: set[int] = set()
        self.global_pointers: dict[str, int] = {
            p.name: p.type.element_size
            for p in kernel.params if p.type.is_pointer
        }
        self.shared_arrays: set[str] = set()
        self.local_arrays: set[str] = set()

    # -- statements ------------------------------------------------------
    def walk_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for s in stmt.statements:
                self.walk_stmt(s)
        elif isinstance(stmt, DeclStmt):
            self._walk_decl(stmt)
        elif isinstance(stmt, ExprStmt):
            self._collect(stmt.expr)
        elif isinstance(stmt, IfStmt):
            self._collect(stmt.cond)
            self.walk_stmt(stmt.then)
            if stmt.otherwise is not None:
                self.walk_stmt(stmt.otherwise)
        elif isinstance(stmt, (ForStmt, WhileStmt, DoWhileStmt)):
            self._walk_loop(stmt)
        elif isinstance(stmt, SyncthreadsStmt):
            self.syncs.update(self.stack)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self._collect(stmt.value)
        # Break/Continue/Empty: nothing to track.

    def _walk_decl(self, stmt: DeclStmt) -> None:
        for d in stmt.declarators:
            if stmt.is_shared:
                self.shared_arrays.add(d.name)
                continue
            if d.array_sizes:
                self.local_arrays.add(d.name)
                continue
            if d.init is None:
                continue
            self._collect(d.init)
            if stmt.type.is_pointer:
                # Pointer locals initialized from a global array alias it
                # (the flow tracks the element offset via PtrState).
                root = _root_pointer(d.init)
                if root is not None and root in self.global_pointers:
                    self.global_pointers[d.name] = self.global_pointers[root]

    # -- loops --------------------------------------------------------------
    def _walk_loop(self, stmt: ForStmt | WhileStmt | DoWhileStmt) -> None:
        if isinstance(stmt, ForStmt) and stmt.init is not None:
            self.walk_stmt(stmt.init)
        meta = self.flow.loop_meta[id(stmt)]
        loop_id = len(self.loops)
        self.loops.append(LoopRecord(
            loop_id=loop_id,
            depth=len(self.stack),
            parent_id=self.stack[-1] if self.stack else None,
            iterator=meta.iterator,
            step=meta.step,
            start=meta.start,
            bound=meta.bound,
            stmt=stmt,
        ))
        self.accesses.append([])

        self.stack.append(loop_id)
        # Loop conditions and steps re-execute every iteration: their memory
        # accesses belong to the loop (e.g. BFS's `e < starts[tid+1]`).
        if stmt.cond is not None:
            self._collect(stmt.cond)
        self.walk_stmt(stmt.body)
        if isinstance(stmt, ForStmt) and stmt.step is not None:
            self._collect(stmt.step)
        self.stack.pop()

    # -- expression scanning -------------------------------------------------
    def _collect(self, expr: Expr) -> None:
        """Record every off-chip array reference in ``expr``."""
        env = self.flow.env_sites[id(expr)]
        store_targets: dict[int, bool] = {}
        for node in walk_expr(expr):
            if isinstance(node, Assign) and isinstance(node.target, ArrayRef):
                store_targets[id(node.target)] = node.op != "="  # compound = RMW
        for node in walk_expr(expr):
            if isinstance(node, ArrayRef):
                if id(node) in store_targets:
                    self._record(node, is_read=store_targets[id(node)],
                                 is_write=True, env=env)
                else:
                    self._record(node, is_read=True, is_write=False, env=env)

    def _record(self, ref: ArrayRef, is_read: bool, is_write: bool,
                env: FlowEnv) -> None:
        root, index_expr = _flatten_ref(ref)
        form = None
        if not isinstance(ref.base, ArrayRef):
            # Resolve the base through pointer states, so a strength-reduced
            # `pivot[0]` lands on its root array with the accumulated
            # element offset.
            ps = ptr_state_of(ref.base, env)
            if ps is not None and ps.root is not None:
                root = ps.root
                form = ps.offset + analyze_expr(ref.index, env)
        if root is None or root not in self.global_pointers:
            return
        if not self.stack:
            return  # paper: only loop bodies are optimization targets
        if form is None:
            form = analyze_expr(index_expr, env) if index_expr is not None \
                else AffineForm.unknown()
        access = MemAccess(
            array=root,
            index=form,
            element_size=self.global_pointers[root],
            is_read=is_read,
            is_write=is_write,
            loop_id=self.stack[-1],
            loc=ref.loc,
        )
        for loop_id in self.stack:
            self.accesses[loop_id].append(access)

    def records(self) -> tuple[LoopRecord, ...]:
        return tuple(replace(rec, accesses=tuple(self.accesses[rec.loop_id]),
                             contains_sync=rec.loop_id in self.syncs)
                     for rec in self.loops)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _flatten_ref(ref: ArrayRef) -> tuple[str | None, Expr | None]:
    """Root pointer name and (single-level) index expression of a reference."""
    if isinstance(ref.base, Ident):
        return ref.base.name, ref.index
    if isinstance(ref.base, BinOp) or isinstance(ref.base, Cast):
        root = _root_pointer(ref.base)
        return root, ref.index  # pointer-arithmetic base: keep index only
    if isinstance(ref.base, ArrayRef):
        # multi-level subscripts (shared arrays) — root only, no flat index
        root, _ = _flatten_ref(ref.base)
        return root, None
    return None, None


def _root_pointer(expr: Expr) -> str | None:
    for node in walk_expr(expr):
        if isinstance(node, Ident):
            return node.name
    return None


def find_loops(
    kernel: FunctionDef,
    block_dim: tuple[int, int, int] | None = None,
    grid_dim: tuple[int, int, int] | None = None,
) -> KernelLoops:
    """Walk ``kernel`` and return its loops with collected accesses.

    Index forms come from the forward dataflow fixpoint of
    :class:`repro.analysis.dataflow.AffineFlow`, which follows intermediate
    scalars, if-join-equal values, strength-reduced secondary inductions and
    pointer bumps.  A failure inside the fixpoint propagates to the caller.
    """
    flow = AffineFlow(kernel, block_dim=block_dim, grid_dim=grid_dim)
    walker = _Walker(kernel, flow)
    walker.walk_stmt(kernel.body)
    return KernelLoops(
        kernel=kernel,
        loops=walker.records(),
        global_pointers=walker.global_pointers,
        shared_arrays=frozenset(walker.shared_arrays),
        local_arrays=frozenset(walker.local_arrays),
        flow=flow,
    )


def loop_statements(kernel: FunctionDef) -> tuple[Stmt, ...]:
    """``kernel``'s loop statements in :func:`find_loops`' walk order, so
    entry ``r.loop_id`` is record ``r``'s loop in this kernel.  Transforms
    resolve loops here, because a memoized analysis may hold the statements
    of another, equal kernel."""
    return tuple(s for s in statements_in(kernel.body)
                 if isinstance(s, (ForStmt, WhileStmt, DoWhileStmt)))
