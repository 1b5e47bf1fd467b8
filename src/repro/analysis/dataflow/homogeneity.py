"""Block-homogeneity query: may a launch be deduplicated across TBs?

:mod:`repro.sim.replay` executes all thread blocks of a launch in lockstep
(one widened warp per warp slot) and replays per-TB event streams into the
timing engine.  That is functionally and timing-wise *bit-identical* to
per-TB execution exactly when no thread ever observes a value written by a
**different thread** during the kernel — then every lane's values, masks and
addresses are independent of inter-thread scheduling, so lockstep execution
reproduces them exactly.

This module proves that property statically from the PR-2 dataflow framework
(:class:`~repro.analysis.dataflow.affineprop.AffineFlow`):

* every **store** address is affine in ``threadIdx``/``blockIdx``/loop
  iterators and provably **thread-disjoint** (a mixed-radix injectivity
  check over the launch box, with loop-iterator terms folded into a slack
  band), and all stores to a root share one index shape;
* every **load** either targets a root that is never stored, or has exactly
  the store's index shape (the accumulate pattern ``acc[i] op= ...`` —
  own-thread data);
* no atomics, no ``__device__`` calls (their effects are invisible to the
  per-site analysis); ``__syncthreads`` is fine — with no cross-thread data
  flow a barrier is timing-only.

Data-dependent *control flow* and data-dependent loads from read-only arrays
are allowed: lockstep equality of lane values makes the masks and gather
addresses identical by induction.  GEMM/ATAX/MVT-style kernels qualify;
BFS-style kernels that scatter through loaded indices do not.

The tape engine (:mod:`repro.sim.tape`) generalizes the same idea: it
carries *every* resident slot of a launch along a batch axis with per-slot
divergence masks, so dedup becomes the degenerate case where homogeneity
lets the batch axis collapse to a single representative TB.  This query
stays relevant as the cheap static certificate for that collapse under the
compiled engine (``dedup=True``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...frontend.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Call,
    CType,
    DeclStmt,
    BoolLit,
    DoWhileStmt,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    IntLit,
    PostIncDec,
    ReturnStmt,
    Stmt,
    UnaryOp,
    WhileStmt,
    children_of_expr,
    expressions_in,
    statements_in,
    walk_expr,
)
from ...memo import Memo
from ..affine import (
    BIDX,
    BIDY,
    BIDZ,
    TIDX,
    TIDY,
    TIDZ,
    AffineForm,
    analyze_expr,
)
from .affineprop import AffineFlow, LoopMeta, ptr_state_of

Dim3 = tuple[int, int, int]


@dataclass(frozen=True)
class HomogeneityReport:
    """Verdict for one (kernel, grid, block, args) launch."""

    eligible: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.eligible


@dataclass(frozen=True)
class _Access:
    root: str                 # "ptr:<param>" | "shared:<name>" | "?"
    is_store: bool
    form: AffineForm | None   # None = irregular address
    ctx: tuple                # enclosing loop/guard chain, outermost first
    # Store of a compile-time literal ("x[...] = 0").  If the root is never
    # loaded, such stores cannot carry cross-thread data and write-write
    # overlap deposits identical bytes — so they are exempt from the
    # disjointness rules (the CATT dummy-shared keep-alive write pattern).
    const_value: bool = False


@dataclass
class _Structure:
    reasons: list[str]
    accesses: list[_Access]
    ptr_params: tuple[str, ...]


# Keyed on the kernel's content and the launch shape and scalars.
_structures = Memo("analysis.homogeneity.cache", 128)


def _pure_call_names() -> frozenset:
    # Runtime import: analysis must not import the simulator at module load.
    from ...sim.interp import _BINARY_MATH, _UNARY_MATH

    return frozenset(_UNARY_MATH) | frozenset(_BINARY_MATH)


class _ArgFlow(AffineFlow):
    """AffineFlow with integer scalar launch args pinned as constants.

    Address expressions like ``i * nj + j`` are only affine once ``nj`` is a
    known constant — as a free ``param:nj`` symbol the product is non-linear
    and the whole form would go irregular.
    """

    def __init__(self, kernel: FunctionDef, block: Dim3, grid: Dim3,
                 scalars: tuple[tuple[str, int], ...]):
        self._scalar_args = scalars
        super().__init__(kernel, block, grid)

    def _initial(self):
        env = super()._initial()
        for name, value in self._scalar_args:
            env.bind(name, AffineForm.constant(value))
        return env


# ---------------------------------------------------------------------------
# Structural collection (cached per kernel/launch-geometry)
# ---------------------------------------------------------------------------


def _shared_dims(kernel: FunctionDef) -> dict[str, tuple]:
    dims: dict[str, tuple] = {}
    for stmt in statements_in(kernel.body):
        if isinstance(stmt, DeclStmt) and stmt.is_shared:
            for d in stmt.declarators:
                # Dynamic arrays are 1-D with launch-sized extent: stride 1.
                dims[d.name] = (None,) if d.dynamic else tuple(d.array_sizes)
    return dims


def _local_arrays(kernel: FunctionDef) -> set[str]:
    names: set[str] = set()
    for stmt in statements_in(kernel.body):
        if isinstance(stmt, DeclStmt) and not stmt.is_shared:
            for d in stmt.declarators:
                if d.array_sizes:
                    names.add(d.name)
    return names


def _guard_constraints(cond: Expr, env) -> list[tuple]:
    """Affine facts a then-branch may assume: ``("lt", form, bound)`` for
    ``form < bound`` and ``("eq", form, value)``, bounds constant."""
    out: list[tuple] = []
    if env is None:
        return out

    def visit(c: Expr) -> None:
        if isinstance(c, BinOp) and c.op == "&&":
            visit(c.left)
            visit(c.right)
            return
        if not isinstance(c, BinOp) or c.op not in ("<", "<=", ">", ">=",
                                                    "=="):
            return
        left = analyze_expr(c.left, env)
        right = analyze_expr(c.right, env)
        if left.irregular or right.irregular:
            return
        if c.op == "==":
            if right.is_constant and not left.is_constant:
                out.append(("eq", left, right.const))
            elif left.is_constant and not right.is_constant:
                out.append(("eq", right, left.const))
            return
        op = c.op
        if op in (">", ">="):
            left, right = right, left
            op = "<" if op == ">" else "<="
        if right.is_constant and not left.is_constant:
            out.append(("lt", left, right.const + (1 if op == "<=" else 0)))

    visit(cond)
    return out


def _strides(dims: tuple) -> list[int]:
    strides: list[int] = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d if d is not None else 1
    return list(reversed(strides))


def _collect(kernel: FunctionDef, block: Dim3, grid: Dim3,
             scalars: tuple[tuple[str, int], ...]) -> _Structure:
    st = _Structure([], [], tuple(
        p.name for p in kernel.params if p.type.is_pointer))
    pure = _pure_call_names()
    for node in expressions_in(kernel.body):
        if isinstance(node, Call):
            if node.func == "atomicAdd":
                st.reasons.append("atomicAdd (cross-thread RMW)")
            elif node.func not in pure:
                st.reasons.append(
                    f"call to {node.func!r} (effects not analyzable)")
    if st.reasons:
        return st

    try:
        flow = _ArgFlow(kernel, block, grid, scalars)
    except Exception as exc:  # pragma: no cover - defensive
        st.reasons.append(f"dataflow analysis failed: {exc!r}")
        return st

    shared = _shared_dims(kernel)
    locals_ = _local_arrays(kernel)
    # Entries: ("loop", LoopMeta | None) or ("guard", op, form, bound).
    ctx: list[tuple] = []

    def env_of(expr: Expr):
        env = flow.env_sites.get(id(expr))
        if env is None and any(
            isinstance(n, (ArrayRef, UnaryOp)) for n in walk_expr(expr)
        ):
            st.reasons.append("no dataflow snapshot for a memory access site")
        return env

    def record(ref: ArrayRef, env, store: bool,
               const_value: bool = False) -> None:
        indices: list[Expr] = []
        node: Expr = ref
        while isinstance(node, ArrayRef):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        for ie in indices:
            scan_expr(ie, env)
        if not isinstance(node, Ident):
            scan_expr(node, env)
        if isinstance(node, Ident) and node.name in locals_:
            return  # per-thread private storage
        if isinstance(node, Ident) and node.name in shared:
            dims = shared[node.name]
            if len(indices) != len(dims):
                st.accesses.append(_Access(
                    f"shared:{node.name}", store, None, tuple(ctx),
                    const_value))
                return
            form = AffineForm.constant(0)
            for ie, stride in zip(indices, _strides(dims)):
                form = form + analyze_expr(ie, env) * AffineForm.constant(
                    stride)
            st.accesses.append(_Access(
                f"shared:{node.name}", store,
                None if form.irregular else form, tuple(ctx), const_value))
            return
        ps = ptr_state_of(node, env)
        if ps is None or ps.root is None:
            st.accesses.append(
                _Access("?", store, None, tuple(ctx), const_value))
            return
        if len(indices) != 1:
            st.accesses.append(_Access(
                f"ptr:{ps.root}", store, None, tuple(ctx), const_value))
            return
        form = ps.offset + analyze_expr(indices[0], env)
        st.accesses.append(_Access(
            f"ptr:{ps.root}", store, None if form.irregular else form,
            tuple(ctx), const_value))

    def record_deref(ptr_expr: Expr, env, store: bool,
                     const_value: bool = False) -> None:
        ps = ptr_state_of(ptr_expr, env)
        if ps is None or ps.root is None:
            st.accesses.append(
                _Access("?", store, None, tuple(ctx), const_value))
            return
        st.accesses.append(_Access(
            f"ptr:{ps.root}", store,
            None if ps.offset.irregular else ps.offset, tuple(ctx),
            const_value))

    def scan_expr(expr: Expr, env) -> None:
        if env is None:
            return
        if isinstance(expr, Assign):
            t = expr.target
            literal = expr.op == "=" and isinstance(
                expr.value, (IntLit, FloatLit, BoolLit))
            if isinstance(t, ArrayRef):
                record(t, env, store=True, const_value=literal)
                if expr.op != "=":
                    record(t, env, store=False)
            elif isinstance(t, UnaryOp) and t.op == "*":
                record_deref(t.operand, env, store=True, const_value=literal)
                if expr.op != "=":
                    record_deref(t.operand, env, store=False)
                scan_expr(t.operand, env)
            scan_expr(expr.value, env)
            return
        if isinstance(expr, PostIncDec) or (
            isinstance(expr, UnaryOp) and expr.op in ("++", "--")
        ):
            op = expr.operand
            if isinstance(op, ArrayRef):
                record(op, env, store=False)
                record(op, env, store=True)
            elif isinstance(op, UnaryOp) and op.op == "*":
                record_deref(op.operand, env, store=False)
                record_deref(op.operand, env, store=True)
                scan_expr(op.operand, env)
            return
        if isinstance(expr, UnaryOp) and expr.op == "*":
            record_deref(expr.operand, env, store=False)
            scan_expr(expr.operand, env)
            return
        if isinstance(expr, ArrayRef):
            record(expr, env, store=False)
            return
        for child in children_of_expr(expr):
            scan_expr(child, env)

    def scan_site(expr: Expr | None) -> None:
        if expr is not None:
            scan_expr(expr, env_of(expr))

    def scan_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for s in stmt.statements:
                scan_stmt(s)
        elif isinstance(stmt, ExprStmt):
            scan_site(stmt.expr)
        elif isinstance(stmt, DeclStmt):
            for d in stmt.declarators:
                scan_site(d.init)
        elif isinstance(stmt, IfStmt):
            scan_site(stmt.cond)
            guards = _guard_constraints(
                stmt.cond, flow.env_sites.get(id(stmt.cond)))
            for g in guards:
                ctx.append(("guard",) + g)
            scan_stmt(stmt.then)
            for _ in guards:
                ctx.pop()
            if stmt.otherwise is not None:
                scan_stmt(stmt.otherwise)
        elif isinstance(stmt, ForStmt):
            if stmt.init is not None:
                scan_stmt(stmt.init)
            meta = flow.loop_meta.get(id(stmt))
            ctx.append(("loop", meta))
            scan_site(stmt.cond)
            scan_site(stmt.step)
            scan_stmt(stmt.body)
            ctx.pop()
        elif isinstance(stmt, (WhileStmt, DoWhileStmt)):
            meta = flow.loop_meta.get(id(stmt))
            ctx.append(("loop", meta))
            scan_site(stmt.cond)
            scan_stmt(stmt.body)
            ctx.pop()
        elif isinstance(stmt, ReturnStmt):
            scan_site(stmt.value)

    scan_stmt(kernel.body)
    return st


def _structure(kernel: FunctionDef, block: Dim3, grid: Dim3,
               scalars: tuple[tuple[str, int], ...]) -> _Structure:
    key = (kernel, block, grid, scalars)
    st = _structures.get(key)
    if st is None:
        st = _collect(kernel, block, grid, scalars)
        _structures.put(key, st)
    return st


# ---------------------------------------------------------------------------
# Numeric checks (per launch arguments)
# ---------------------------------------------------------------------------


def _form_extreme(form: AffineForm, lo: dict[str, float],
                  hi: dict[str, float], want_max: bool) -> float | None:
    if form.irregular:
        return None
    total = float(form.const)
    for sym, c in form.coeffs:
        bounds = (hi if (c > 0) == want_max else lo)
        if sym not in bounds:
            return None
        total += c * bounds[sym]
    return total


def _ctx_trips(ctx: tuple, lo: dict[str, float], hi: dict[str, float]
               ) -> dict[str, int]:
    """Max trip count per iterator symbol in scope, outermost first.

    Extends ``lo``/``hi`` in place so inner-loop bounds may reference outer
    iterators (triangular loops).  Unresolvable loops are simply absent.
    """
    trips: dict[str, int] = {}
    for entry in ctx:
        if entry[0] != "loop":
            continue
        meta = entry[1]
        if meta is None or meta.iterator is None or not meta.step:
            continue
        if meta.start is None or meta.bound is None:
            continue
        if meta.step > 0:
            span_hi = _form_extreme(meta.bound, lo, hi, want_max=True)
            span_lo = _form_extreme(meta.start, lo, hi, want_max=False)
        else:
            span_hi = _form_extreme(meta.start, lo, hi, want_max=True)
            span_lo = _form_extreme(meta.bound, lo, hi, want_max=False)
        if span_hi is None or span_lo is None:
            continue
        n = max(int(math.ceil((span_hi - span_lo) / abs(meta.step))), 0)
        trips[meta.iterator] = n
        lo[meta.iterator] = 0.0
        hi[meta.iterator] = float(max(n - 1, 0))
    return trips


_GLOBAL_AXES = ((TIDX, 0), (TIDY, 1), (TIDZ, 2),
                (BIDX, 3), (BIDY, 4), (BIDZ, 5))
_SHARED_AXES = ((TIDX, 0), (TIDY, 1), (TIDZ, 2))
_AXIS_NAMES = frozenset(s for s, _ in _GLOBAL_AXES)


def _axis_support(gform: AffineForm, ext: dict[str, int]
                  ) -> dict[str, int] | None:
    """Positive per-axis coefficients of a guard form, or None when the
    form involves anything besides launch axes (iterators, free params)."""
    support: dict[str, int] = {}
    for sym, c in gform.coeffs:
        if sym not in ext or c <= 0:
            return None
        support[sym] = c
    return support


def _sweep(terms: list[tuple[int, int]], slack: int) -> str | None:
    """Mixed-radix disjointness: each stride must clear the span all
    smaller terms (plus loop slack) can accumulate."""
    terms.sort()
    acc = slack
    for c, extent in terms:
        if c <= acc:
            return (f"stride {c} not larger than accumulated span {acc} "
                    f"(possible cross-thread collision)")
        acc += c * (extent - 1)
    return None


def _perfect_radix(live: dict[str, int], ext: dict[str, int]
                   ) -> tuple[int, list[str]] | None:
    """If ``live`` is an exact mixed-radix system over its axes (unit base
    stride, each next stride = previous * extent), return (natural range,
    axes by stride); the form then covers 0..range-1 contiguously."""
    order = sorted(live, key=lambda s: live[s])
    acc = 1
    for sym in order:
        if live[sym] != acc:
            return None
        acc *= ext[sym]
    return acc, order


def _disjoint_across_threads(
    form: AffineForm,
    trips: dict[str, int],
    ext: dict[str, int],
    guards: tuple,
) -> str | None:
    """None when ``form`` provably maps distinct threads to distinct
    addresses over the launch box clipped by ``guards``.

    Loop iterators join the mixed-radix sweep as extra axes: injectivity
    over the full (thread, iteration) box is stronger than thread-
    disjointness, but it is sound and it is what strided multi-row stores
    like ``A[tid + j*n]`` need to pass."""
    iter_terms: list[tuple[int, int]] = []
    for sym, c in form.coeffs:
        if sym in _AXIS_NAMES:
            continue  # handled below via the axis extents
        if sym.startswith("param:") or sym.startswith("blockDim.") \
                or sym.startswith("gridDim."):
            continue  # warp- and launch-uniform shift
        n = trips.get(sym)
        if n is None:
            return f"iterator {sym!r} has unbounded range"
        if n > 1:
            iter_terms.append((abs(c), n))

    ext = dict(ext)
    # Equality guards pin an injective axis combination to one point, so
    # those axes stop contributing distinct threads (e.g. `if (tid == 0)`).
    for op, gform, _bound in guards:
        if op != "eq":
            continue
        support = _axis_support(gform, ext)
        if not support:
            continue
        live = [(c, ext[s]) for s, c in support.items() if ext[s] > 1]
        if _sweep(live, 0) is None:
            for sym in support:
                ext[sym] = 1

    # "<" guards merge their axes into one composite term whose extent is
    # the guard bound — this is what makes `c[i*nj + j]` under
    # `if (i < ni && j < nj)` injective even though the unclipped j range
    # overhangs a row.
    terms: list[tuple[int, int]] = list(iter_terms)
    used: set[str] = set()
    residual = form
    for op, gform, bound in guards:
        if op != "lt":
            continue
        support = _axis_support(gform, ext)
        if not support:
            continue
        live = {s: c for s, c in support.items() if ext[s] > 1}
        if not live or used & set(live):
            continue
        radix = _perfect_radix(live, ext)
        if radix is None:
            continue
        natural, order = radix
        span = bound - gform.const
        if span <= 0:
            continue
        lam, rem = divmod(residual.coeff(order[0]) or 0, live[order[0]])
        if rem or lam == 0:
            continue
        axis_part = AffineForm(tuple(sorted(live.items())), 0)
        candidate = residual - axis_part * AffineForm.constant(lam)
        if any(candidate.coeff(s) for s in live):
            continue
        residual = candidate
        used |= set(live)
        terms.append((abs(lam), min(natural, span)))

    for sym, extent in ext.items():
        if extent <= 1 or sym in used:
            continue
        c = residual.coeff(sym) or 0
        if c == 0:
            return f"address does not depend on {sym} (extent {extent})"
        terms.append((abs(c), extent))
    return _sweep(terms, 0)


def block_homogeneity(
    kernel: FunctionDef,
    block: Dim3,
    grid: Dim3,
    args: tuple[tuple[str, float | int, CType], ...],
    memory=None,
) -> HomogeneityReport:
    """Decide whether the launch may use widened-block dedup.

    ``args`` are the resolved launch bindings (name, value, ctype); pointer
    values are device addresses.  ``memory`` (a
    :class:`~repro.sim.memory.GlobalMemory`) enables the pointer-aliasing
    check; without it any two pointer args are conservatively assumed
    distinct allocations only if their addresses differ.
    """
    scalar_lo: dict[str, float] = {}
    ptr_addrs: dict[str, int] = {}
    int_scalars: list[tuple[str, int]] = []
    for name, value, ctype in args:
        if ctype.is_pointer:
            ptr_addrs[name] = int(value)
        else:
            try:
                fval = float(value)
            except (TypeError, ValueError):
                continue
            scalar_lo[f"param:{name}"] = fval
            if fval.is_integer():
                int_scalars.append((name, int(fval)))

    st = _structure(kernel, block, grid, tuple(sorted(int_scalars)))
    reasons = list(st.reasons)
    if reasons:
        return HomogeneityReport(False, tuple(reasons))

    extents = (block[0], block[1], block[2], grid[0], grid[1], grid[2])
    base_lo: dict[str, float] = dict(scalar_lo)
    base_hi: dict[str, float] = dict(scalar_lo)
    for (sym, axis) in _GLOBAL_AXES:
        base_lo[sym] = 0.0
        base_hi[sym] = float(extents[axis] - 1)
    for axis, sym in enumerate(("blockDim.x", "blockDim.y", "blockDim.z")):
        base_lo[sym] = base_hi[sym] = float(block[axis])
    for axis, sym in enumerate(("gridDim.x", "gridDim.y", "gridDim.z")):
        base_lo[sym] = base_hi[sym] = float(grid[axis])

    # Pointer-aliasing: stored roots must not share an allocation with any
    # other referenced root.
    stored_roots = {a.root for a in st.accesses if a.is_store}
    if memory is not None and ptr_addrs:
        for members in memory.aliases(ptr_addrs):
            if any(f"ptr:{m}" in stored_roots for m in members):
                reasons.append(
                    f"pointer args {sorted(members)} alias one allocation "
                    f"with stores")

    # Per-access trip counts (context-dependent).
    trips_of: list[dict[str, int]] = []
    for a in st.accesses:
        lo = dict(base_lo)
        hi = dict(base_hi)
        trips_of.append(_ctx_trips(a.ctx, lo, hi))

    loaded_roots = {a.root for a in st.accesses if not a.is_store}
    store_shape: dict[str, AffineForm] = {}
    store_trips: dict[str, dict[str, int]] = {}
    store_guards: dict[str, set] = {}
    for a, trips in zip(st.accesses, trips_of):
        if not a.is_store:
            continue
        if a.root == "?":
            reasons.append("store through an unresolved pointer")
            continue
        if a.const_value and a.root not in loaded_roots:
            continue  # literal keep-alive write to a never-read root

        if a.form is None:
            reasons.append(f"non-affine store index on {a.root}")
            continue
        guards = {e[1:] for e in a.ctx if e[0] == "guard"}
        prev = store_shape.get(a.root)
        if prev is None:
            store_shape[a.root] = a.form
            store_trips[a.root] = trips
            store_guards[a.root] = guards
        else:
            # Only guards common to every store site may justify
            # disjointness.
            store_guards[a.root] &= guards
            if prev != a.form:
                reasons.append(f"multiple store index shapes on {a.root}")

    for a, trips in zip(st.accesses, trips_of):
        if a.is_store:
            continue
        if a.root == "?":
            reasons.append("load through an unresolved pointer")
            continue
        if a.root not in store_shape:
            continue  # read-only root: any address pattern is fine
        shape = store_shape[a.root]
        if a.form is None or a.form != shape:
            reasons.append(
                f"load from stored root {a.root} does not match the store "
                f"index shape")
            continue
        s_trips = store_trips[a.root]
        for sym in a.form.symbols():
            if sym in trips and sym in s_trips \
                    and trips[sym] > s_trips[sym]:
                reasons.append(
                    f"load range of iterator {sym!r} exceeds the store "
                    f"range on {a.root}")

    if reasons:
        return HomogeneityReport(False, tuple(dict.fromkeys(reasons)))

    for root, shape in store_shape.items():
        axes = _SHARED_AXES if root.startswith("shared:") else _GLOBAL_AXES
        ext = {sym: extents[axis] for sym, axis in axes}
        why = _disjoint_across_threads(
            shape, store_trips[root], ext,
            tuple(sorted(store_guards[root], key=repr)))
        if why is not None:
            reasons.append(f"{root}: {why}")

    return HomogeneityReport(not reasons, tuple(dict.fromkeys(reasons)))
