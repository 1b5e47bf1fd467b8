"""Array-reference resolution and loop discovery.

Every array reference of a kernel is resolved once, against the
:class:`~repro.analysis.dataflow.affineprop.AffineFlow` fixpoint snapshot of
its evaluation site: the global or ``__shared__`` array it lands on (through
pointer states, so a strength-reduced ``pivot[0]`` lands on its root array),
its flattened element index form, and whether it reads, writes or atomically
updates its element.  :class:`KernelLoops` keeps these references per site;
the race analysis (:mod:`repro.analysis.dataflow.races`) reads them per
barrier interval, and the :class:`LoopRecord`s are derived from the same
references and the fixpoint's CFG loops.  This is the front half of §4.2:
the back half (coalescing, footprints, throttling factors) consumes the
:class:`LoopRecord` list produced here.

Only *global-pointer* dereferences count as off-chip accesses; ``__shared__``
and per-thread local arrays stay on chip, and a reference the flow cannot
place on an array (a pointer it cannot root, a ``*p`` dereference) is in no
loop record.  References are de-duplicated per loop by (array, index form,
width, direction) — the paper counts the three references in
``tmp[i] += A[i*NX+j] * B[j]`` as three memory instructions, with the
read-modify-write of ``tmp[i]`` counted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.ast_nodes import (
    ArrayRef,
    Assign,
    Call,
    DoWhileStmt,
    Expr,
    ForStmt,
    FunctionDef,
    Ident,
    PostIncDec,
    Stmt,
    UnaryOp,
    WhileStmt,
    statements_in,
    walk_expr,
)
from .affine import AffineForm, analyze_expr
from .dataflow.affineprop import AffineFlow, FlowEnv, ptr_state_of
from .dataflow.cfg import DECL, SYNC


@dataclass(frozen=True)
class Reference:
    """One array reference of an evaluation site.

    ``space`` is ``"global"`` or ``"shared"`` when the reference is placed on
    ``array``, ``"local"`` for a thread-private local array, and None when
    the flow cannot place it (a pointer it cannot root, a ``*p``
    dereference): such a reference may touch any array, and ``array`` is
    None.
    """

    array: str | None
    space: str | None
    index: AffineForm          # flattened element index (unknown if unplaced)
    is_read: bool
    is_write: bool
    is_atomic: bool
    loc: object = None


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

    ``loop_id`` is the loop's index in source pre-order, so
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
    """All loops of one kernel, its array references and name classes."""

    kernel: FunctionDef
    loops: tuple[LoopRecord, ...]
    refs: dict[int, tuple[Reference, ...]]   # id(evaluation site) -> refs
    shared_arrays: frozenset[str]
    local_arrays: frozenset[str]
    flow: AffineFlow                  # the fixpoint the index forms come from


# ---------------------------------------------------------------------------
# Resolving the references of one evaluation site
# ---------------------------------------------------------------------------


def _directions(expr: Expr) -> dict[int, tuple[bool, bool, bool]]:
    """``id(target) -> (reads, writes, atomic)`` for every node ``expr``
    stores through.  An assignment writes its target, and reads it too under
    a compound operator; ``++``/``--`` read and write theirs; ``atomicAdd``
    updates its first argument (``&`` stripped) atomically.  Any other
    reference only reads."""
    out: dict[int, tuple[bool, bool, bool]] = {}
    for node in walk_expr(expr):
        if isinstance(node, Assign):
            out[id(node.target)] = (node.op != "=", True, False)
        elif isinstance(node, (PostIncDec, UnaryOp)) and \
                node.op in ("++", "--"):
            out[id(node.operand)] = (True, True, False)
        elif isinstance(node, Call) and node.func == "atomicAdd" and \
                node.args:
            target = node.args[0]
            if isinstance(target, UnaryOp) and target.op == "&":
                target = target.operand
            out[id(target)] = (True, True, True)
    return out


def _place(ref: ArrayRef, env: FlowEnv, shared: dict[str, tuple[int, ...]],
           local: set[str]) -> tuple[str | None, str | None, AffineForm]:
    """(array, space, flattened element index) of an outermost subscript."""
    indexes: list[Expr] = []
    base: Expr = ref
    while isinstance(base, ArrayRef):
        indexes.append(base.index)
        base = base.base
    indexes.reverse()
    name = base.name if isinstance(base, Ident) else None
    if name in shared:
        dims = shared[name]
        if len(indexes) != len(dims):
            return name, "shared", AffineForm.unknown()   # a row address
        total = AffineForm.constant(0)
        stride = 1
        for idx, dim in zip(reversed(indexes), reversed(dims)):
            total = total + analyze_expr(idx, env) * \
                AffineForm.constant(stride)
            stride *= dim
        return name, "shared", total
    ps = ptr_state_of(base, env)
    if ps is not None and ps.root is not None and len(indexes) == 1:
        return ps.root, "global", ps.offset + analyze_expr(indexes[0], env)
    if name in local:
        return name, "local", AffineForm.unknown()
    return None, None, AffineForm.unknown()


def _references(expr: Expr, env: FlowEnv, shared: dict[str, tuple[int, ...]],
                local: set[str]) -> tuple[Reference, ...]:
    """Every array reference ``expr`` evaluates, in walk order; ``s[i][j]``
    is one reference, and so is a ``*p`` dereference."""
    directions = _directions(expr)
    nodes = list(walk_expr(expr))
    inner = {id(n.base) for n in nodes if isinstance(n, ArrayRef)}
    out: list[Reference] = []
    for node in nodes:
        if isinstance(node, UnaryOp) and node.op == "*":
            where = (None, None, AffineForm.unknown())
        elif isinstance(node, ArrayRef) and id(node) not in inner:
            where = _place(node, env, shared, local)
        else:
            continue
        out.append(Reference(
            *where, *directions.get(id(node), (True, False, False)),
            loc=node.loc))
    return tuple(out)


# ---------------------------------------------------------------------------


def find_loops(
    kernel: FunctionDef,
    block_dim: tuple[int, int, int] | None = None,
    grid_dim: tuple[int, int, int] | None = None,
) -> KernelLoops:
    """Resolve ``kernel``'s array references and return its loops.

    Index forms come from the forward dataflow fixpoint of
    :class:`repro.analysis.dataflow.AffineFlow`, which follows intermediate
    scalars, if-join-equal values, strength-reduced secondary inductions and
    pointer bumps.  The evaluation sites are visited in the order the CFG
    builder appended them, so a loop lists its accesses as its condition,
    body and step run (a do-while's condition first).  A failure inside the
    fixpoint propagates to the caller.
    """
    flow = AffineFlow(kernel, block_dim=block_dim, grid_dim=grid_dim)
    cfg = flow.cfg
    element_size = {p.name: p.type.element_size
                    for p in kernel.params if p.type.is_pointer}
    shared: dict[str, tuple[int, ...]] = {}
    local: set[str] = set()
    refs: dict[int, tuple[Reference, ...]] = {}
    # The loops around each block, outermost first (cfg.loops is pre-order).
    around: dict[int, list[int]] = {}
    for loop_id, cl in enumerate(cfg.loops):
        for b in cl.blocks:
            around.setdefault(b, []).append(loop_id)
    accesses: list[list[MemAccess]] = [[] for _ in cfg.loops]
    syncs: set[int] = set()
    for block, action in cfg.order:
        loops = around.get(block, ())
        if action.kind == SYNC:
            syncs.update(loops)
        elif action.kind == DECL:
            for d in action.node.declarators:
                if action.node.is_shared:
                    shared[d.name] = d.array_sizes
                elif d.array_sizes:
                    local.add(d.name)
        for site in action.sites():
            if id(site) not in refs:
                refs[id(site)] = _references(
                    site, flow.env_sites[id(site)], shared, local)
            if not loops:
                continue  # paper: only loop bodies are optimization targets
            for r in refs[id(site)]:
                if r.space != "global":
                    continue
                access = MemAccess(r.array, r.index, element_size[r.array],
                                   r.is_read, r.is_write, loops[-1], r.loc)
                for loop_id in loops:
                    accesses[loop_id].append(access)
    records = []
    for loop_id, cl in enumerate(cfg.loops):
        meta = flow.loop_meta[id(cl.stmt)]
        outer = around[cl.header][:-1]
        records.append(LoopRecord(
            loop_id=loop_id, depth=len(outer),
            parent_id=outer[-1] if outer else None,
            iterator=meta.iterator, step=meta.step, start=meta.start,
            bound=meta.bound, stmt=cl.stmt,
            accesses=tuple(accesses[loop_id]),
            contains_sync=loop_id in syncs))
    return KernelLoops(
        kernel=kernel,
        loops=tuple(records),
        refs=refs,
        shared_arrays=frozenset(shared),
        local_arrays=frozenset(local),
        flow=flow,
    )


def loop_statements(kernel: FunctionDef) -> tuple[Stmt, ...]:
    """``kernel``'s loop statements in source pre-order, :func:`find_loops`'
    ``loop_id`` order, so entry ``r.loop_id`` is record ``r``'s loop in this
    kernel.  Transforms resolve loops here, because a memoized analysis may
    hold the statements of another, equal kernel."""
    return tuple(s for s in statements_in(kernel.body)
                 if isinstance(s, (ForStmt, WhileStmt, DoWhileStmt)))
