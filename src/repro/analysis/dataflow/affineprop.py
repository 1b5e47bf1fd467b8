"""Constant & affine-form propagation over the kernel CFG (Eq. 5 precision).

A single environment carried down the AST would have to poison anything it
cannot follow syntactically: values merged across ``if`` arms,
strength-reduced secondary inductions whose step is a named constant
(``c += xy``), and pointer bumps (``p += stride``).  This module computes
the environment as a forward dataflow fixpoint instead:

* **Lattice.**  Per scalar, an :class:`AffineForm` (⊤ = ``irregular``); per
  pointer local, a :class:`PtrState` — root array plus an affine element
  offset.  The join keeps facts that agree on all incoming edges and drops
  the rest to ⊤, so straight-line precision survives ``if`` joins whenever
  both arms compute the same form.

* **Loop headers.**  On every header visit the engine re-derives the loop's
  induction variables from the preheader's fixpoint state: any name updated
  exactly once per iteration by a loop-invariant constant step (``i++``,
  ``idx += stride``, ``p += stride``, ``f = f + 1``) is pinned to the closed
  form ``start + iter * step``; every other name assigned in the body is
  poisoned.  This both terminates the fixpoint quickly and mirrors the
  paper's Eq. 5 view of an index as linear in the loop iterator.

* **Loop exits.**  All body-assigned names are poisoned on exit (their final
  value is the trip-count-dependent last iterate), so iterator symbols never
  leak past their loop.

The engine records an environment snapshot per *evaluation site* (statement
expressions, branch/loop conditions, declarator initializers) keyed by
``id(expr)``; :func:`repro.analysis.loops.find_loops` resolves every array
reference against the snapshot of its enclosing evaluation, so this fixpoint
is the only source of the index forms the §4.2 analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...frontend.ast_nodes import (
    Assign,
    BinOp,
    Cast,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ForStmt,
    FunctionDef,
    Ident,
    IntLit,
    PostIncDec,
    Stmt,
    UnaryOp,
    WhileStmt,
    expressions_in,
    statements_in,
    walk_expr,
)
from ..affine import AffineForm, SymbolicEnv, analyze_expr
from .cfg import CFG, DECL, EVAL, BasicBlock, CFGLoop, build_cfg
from .solver import solve_forward


@dataclass(frozen=True)
class PtrState:
    """Abstract value of a pointer-typed local: which global array it points
    into and the affine element offset from that array's base."""

    root: str | None
    offset: AffineForm


UNKNOWN_PTR = PtrState(None, AffineForm.unknown())


@dataclass
class FlowEnv(SymbolicEnv):
    """A :class:`SymbolicEnv` extended with pointer states."""

    pointers: dict[str, PtrState] = field(default_factory=dict)

    def copy(self) -> "FlowEnv":
        return FlowEnv(dict(self.bindings), self.block_dim, self.grid_dim,
                       dict(self.pointers))


@dataclass(frozen=True)
class LoopMeta:
    """Per-loop facts derived at the loop header's fixpoint."""

    iterator: str | None
    step: int | None
    start: AffineForm | None
    bound: AffineForm | None
    inductions: dict[str, AffineForm]   # name -> per-iteration step form


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------


def join_envs(envs: list[FlowEnv]) -> FlowEnv:
    """Pointwise join: facts equal on every edge survive, others go to ⊤.

    A name unbound on one edge means "never assigned there", whose value is
    the warp-uniform unknown ``param:<name>`` (the same convention as
    :meth:`SymbolicEnv.lookup`), so e.g. joining a bound ``param:n`` with an
    unbound edge still keeps the symbol.
    """
    if len(envs) == 1:
        return envs[0].copy()
    first = envs[0]
    out = FlowEnv(block_dim=first.block_dim, grid_dim=first.grid_dim)
    keys = set()
    for e in envs:
        keys.update(e.bindings)
    for k in keys:
        vals = [e.bindings.get(k) or AffineForm.symbol(f"param:{k}")
                for e in envs]
        v0 = vals[0]
        out.bindings[k] = v0 if all(v == v0 for v in vals[1:]) \
            else AffineForm.unknown()
    pkeys = set()
    for e in envs:
        pkeys.update(e.pointers)
    for k in pkeys:
        states = [e.pointers.get(k, UNKNOWN_PTR) for e in envs]
        roots = {p.root for p in states}
        if len(roots) == 1 and None not in roots:
            off0 = states[0].offset
            same = all(p.offset == off0 for p in states[1:])
            out.pointers[k] = PtrState(states[0].root,
                                       off0 if same else AffineForm.unknown())
        else:
            out.pointers[k] = UNKNOWN_PTR
    return out


def widen_envs(new: FlowEnv, old: FlowEnv | None) -> FlowEnv:
    """Backstop widening: facts still changing after many visits go to ⊤."""
    if old is None:
        return new
    out = new.copy()
    for k, v in new.bindings.items():
        if old.bindings.get(k) != v:
            out.bindings[k] = AffineForm.unknown()
    for k, p in new.pointers.items():
        po = old.pointers.get(k)
        if po != p:
            root = p.root if po is not None and po.root == p.root else None
            out.pointers[k] = PtrState(root, AffineForm.unknown())
    return out


# ---------------------------------------------------------------------------
# Pointer expression evaluation
# ---------------------------------------------------------------------------


def ptr_state_of(expr: Expr | None, env: FlowEnv) -> PtrState | None:
    """Evaluate a pointer-valued expression, or None if not a tracked
    pointer (scalars, shared arrays, unknown names)."""
    if expr is None:
        return None
    if isinstance(expr, Ident):
        return env.pointers.get(expr.name) if hasattr(env, "pointers") else None
    if isinstance(expr, Cast):
        return ptr_state_of(expr.operand, env)
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        lhs = ptr_state_of(expr.left, env)
        if lhs is not None:
            delta = analyze_expr(expr.right, env)
            off = lhs.offset + delta if expr.op == "+" else lhs.offset - delta
            return PtrState(lhs.root, off)
        if expr.op == "+":
            rhs = ptr_state_of(expr.right, env)
            if rhs is not None:
                return PtrState(rhs.root, rhs.offset + analyze_expr(expr.left, env))
    return None


# ---------------------------------------------------------------------------
# Induction-variable recognition (syntactic candidates)
# ---------------------------------------------------------------------------


def _update_candidates(stmt: Stmt) -> tuple[dict[str, list], set[str]]:
    """Scan a loop (body + for-step) for per-iteration updates.

    Returns ``(deltas, killed)``: ``deltas[name]`` is the list of recognized
    delta updates as ``(sign, expr_or_None)`` pairs (None = literal 1), and
    ``killed`` is the set of names with a non-delta update (plain ``=`` to
    something other than ``x ± e``, ``*=``, ...), which disqualifies them.
    """
    deltas: dict[str, list] = {}
    killed: set[str] = set()

    def exprs():
        yield from expressions_in(stmt.body)
        if isinstance(stmt, ForStmt) and stmt.step is not None:
            yield from walk_expr(stmt.step)

    for e in exprs():
        if isinstance(e, Assign) and isinstance(e.target, Ident):
            name = e.target.name
            entry = deltas.setdefault(name, [])
            if e.op == "+=":
                entry.append((1, e.value))
            elif e.op == "-=":
                entry.append((-1, e.value))
            elif e.op == "=":
                d = _self_delta(name, e.value)
                if d is not None:
                    entry.append(d)
                else:
                    killed.add(name)
            else:
                killed.add(name)
        elif isinstance(e, PostIncDec) and isinstance(e.operand, Ident):
            entry = deltas.setdefault(e.operand.name, [])
            entry.append((1 if e.op == "++" else -1, None))
        elif isinstance(e, UnaryOp) and e.op in ("++", "--") and \
                isinstance(e.operand, Ident):
            entry = deltas.setdefault(e.operand.name, [])
            entry.append((1 if e.op == "++" else -1, None))
    return deltas, killed


def _self_delta(name: str, value: Expr) -> tuple[int, Expr] | None:
    """Match ``x = x + e`` / ``x = e + x`` / ``x = x - e`` for ``x`` = name."""
    if not isinstance(value, BinOp) or value.op not in ("+", "-"):
        return None
    if isinstance(value.left, Ident) and value.left.name == name:
        return (1 if value.op == "+" else -1, value.right)
    if value.op == "+" and isinstance(value.right, Ident) and \
            value.right.name == name:
        return (1, value.left)
    return None


def _assigned_names(stmt: Stmt) -> set[str]:
    """Scalar names assigned or declared anywhere inside ``stmt``."""
    names: set[str] = set()
    for s in statements_in(stmt):
        if isinstance(s, DeclStmt):
            for d in s.declarators:
                names.add(d.name)
    for e in expressions_in(stmt):
        if isinstance(e, Assign) and isinstance(e.target, Ident):
            names.add(e.target.name)
        elif isinstance(e, PostIncDec) and isinstance(e.operand, Ident):
            names.add(e.operand.name)
        elif isinstance(e, UnaryOp) and e.op in ("++", "--") and \
                isinstance(e.operand, Ident):
            names.add(e.operand.name)
    return names


def _declared_in_body(stmt: Stmt) -> set[str]:
    """Names (re)declared inside the loop body — reset every iteration, so
    never induction variables of this loop."""
    names: set[str] = set()
    for s in statements_in(stmt.body):
        if isinstance(s, DeclStmt):
            for d in s.declarators:
                names.add(d.name)
    return names


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


_CMP_OPS = ("<", "<=", ">", ">=", "!=")


class AffineFlow:
    """Forward affine dataflow over one kernel.

    After construction, ``env_sites[id(expr)]`` holds the fixpoint
    environment *before* each evaluation site and ``loop_meta[id(stmt)]``
    the per-loop induction facts.
    """

    def __init__(self, kernel: FunctionDef,
                 block_dim: tuple[int, int, int] | None = None,
                 grid_dim: tuple[int, int, int] | None = None):
        self.kernel = kernel
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.cfg: CFG = build_cfg(kernel.body)
        self.env_sites: dict[int, FlowEnv] = {}
        self.loop_meta: dict[int, LoopMeta] = {}

        self._headers: dict[int, CFGLoop] = {
            l.header: l for l in self.cfg.loops
        }
        self._exits: dict[int, list[CFGLoop]] = {}
        for l in self.cfg.loops:
            self._exits.setdefault(l.exit, []).append(l)
        self._assigned = {
            id(l.stmt): _assigned_names(l.stmt) for l in self.cfg.loops
        }
        self._updates = {
            id(l.stmt): _update_candidates(l.stmt) for l in self.cfg.loops
        }
        self._declared = {
            id(l.stmt): _declared_in_body(l.stmt) for l in self.cfg.loops
        }
        self.ins, self.outs = solve_forward(
            self.cfg, self._transfer, join_envs, self._initial,
            widen=widen_envs,
        )

    # -- boundary ---------------------------------------------------------
    def _initial(self) -> FlowEnv:
        env = FlowEnv(block_dim=self.block_dim, grid_dim=self.grid_dim)
        for p in self.kernel.params:
            if p.type.is_pointer:
                env.pointers[p.name] = PtrState(p.name, AffineForm.constant(0))
        return env

    # -- transfer ---------------------------------------------------------
    def _transfer(self, block: BasicBlock, in_env: FlowEnv,
                  outs: dict[int, FlowEnv]) -> FlowEnv:
        env = in_env.copy()
        for loop in self._exits.get(block.id, ()):
            self._exit_loop(loop, env)
        loop = self._headers.get(block.id)
        if loop is not None:
            self._enter_loop(loop, env, outs)
        for action in block.actions:
            if action.kind == DECL:
                self._do_decl(action.node, env)
            elif action.kind == EVAL:
                self.env_sites[id(action.node)] = env.copy()
                self._do_effects(action.node, env)
            # SYNC: no dataflow effect
        return env

    # -- loop header: pin inductions to closed forms ----------------------
    def _enter_loop(self, loop: CFGLoop, env: FlowEnv,
                    outs: dict[int, FlowEnv]) -> None:
        stmt = loop.stmt
        pre = outs.get(loop.preheader, env)
        assigned = self._assigned[id(stmt)]
        declared = self._declared[id(stmt)]
        deltas, killed = self._updates[id(stmt)]

        steps: dict[str, AffineForm] = {}
        for name, ups in deltas.items():
            if name in killed or name in declared or len(ups) != 1:
                continue
            sign, e = ups[0]
            if e is None:
                steps[name] = AffineForm.constant(sign)
                continue
            free = {n.name for n in walk_expr(e) if isinstance(n, Ident)}
            if free & assigned:
                continue  # step not loop-invariant
            form = analyze_expr(e, pre)
            if not form.is_constant:
                continue
            steps[name] = form if sign > 0 else -form

        iterator, start, bound = self._loop_iterator(stmt, pre, steps)
        step_int: int | None = None
        if iterator is not None and iterator in steps:
            step_int = steps[iterator].const

        self.loop_meta[id(stmt)] = LoopMeta(
            iterator=iterator, step=step_int, start=start, bound=bound,
            inductions={n: f for n, f in steps.items() if n != iterator},
        )

        # Pin the iterator to start + iter * step.
        if iterator is not None:
            base = start if start is not None else AffineForm.unknown()
            if step_int is not None:
                env.bind(iterator, base + AffineForm.symbol(iterator)
                         * AffineForm.constant(step_int))
            else:
                env.bind(iterator, AffineForm.symbol(iterator))
        # Secondary inductions get closed forms; everything else assigned in
        # the loop is loop-variant and poisoned.
        for name in assigned:
            if name == iterator:
                continue
            is_ind = iterator is not None and name in steps
            if name in env.pointers:
                ps = pre.pointers.get(name, env.pointers.get(name, UNKNOWN_PTR))
                if is_ind:
                    off = ps.offset + AffineForm.symbol(iterator) * steps[name]
                    env.pointers[name] = PtrState(ps.root, off)
                else:
                    root = None if name in killed else ps.root
                    env.pointers[name] = PtrState(root, AffineForm.unknown())
                env.poison(name)
            elif is_ind:
                env.bind(name, pre.lookup(name)
                         + AffineForm.symbol(iterator) * steps[name])
            else:
                env.poison(name)

    def _loop_iterator(self, stmt: Stmt, pre: FlowEnv,
                       steps: dict[str, AffineForm]):
        """Iterator name, start and bound forms, evaluated in the preheader
        fixpoint."""
        if isinstance(stmt, ForStmt):
            iterator = None
            start = None
            if isinstance(stmt.init, DeclStmt) and \
                    len(stmt.init.declarators) == 1:
                d = stmt.init.declarators[0]
                if not d.array_sizes:
                    iterator = d.name
                    if d.init is not None:
                        start = pre.lookup(d.name)
            elif stmt.init is not None and \
                    hasattr(stmt.init, "expr") and \
                    isinstance(stmt.init.expr, Assign):
                a = stmt.init.expr
                if a.op == "=" and isinstance(a.target, Ident):
                    iterator = a.target.name
                    start = pre.lookup(iterator)
            bound = self._bound_of(stmt.cond, iterator, pre)
            return iterator, start, bound
        # while / do-while: the iterator is a recognized induction compared
        # against a bound in the condition.
        cond = stmt.cond
        if isinstance(cond, BinOp) and cond.op in _CMP_OPS:
            for side, other in ((cond.left, cond.right),
                                (cond.right, cond.left)):
                if isinstance(side, Ident) and side.name in steps:
                    name = side.name
                    bound = analyze_expr(other, pre)
                    if cond.op == "<=":
                        bound = bound + AffineForm.constant(1)
                    return name, pre.lookup(name), bound
        return None, None, None

    def _bound_of(self, cond: Expr | None, iterator: str | None,
                  pre: FlowEnv) -> AffineForm | None:
        if iterator is None or not isinstance(cond, BinOp) or \
                cond.op not in _CMP_OPS:
            return None
        bound = None
        if isinstance(cond.left, Ident) and cond.left.name == iterator:
            bound = analyze_expr(cond.right, pre)
        elif isinstance(cond.right, Ident) and cond.right.name == iterator:
            bound = analyze_expr(cond.left, pre)
        if bound is not None and cond.op == "<=":
            bound = bound + AffineForm.constant(1)
        return bound

    # -- loop exit: final values are trip-count dependent ------------------
    def _exit_loop(self, loop: CFGLoop, env: FlowEnv) -> None:
        _, killed = self._updates[id(loop.stmt)]
        for name in self._assigned[id(loop.stmt)]:
            if name in env.pointers:
                ps = env.pointers[name]
                root = None if name in killed else ps.root
                env.pointers[name] = PtrState(root, AffineForm.unknown())
            env.poison(name)

    # -- straight-line effects --------------------------------------------
    def _do_decl(self, stmt: DeclStmt, env: FlowEnv) -> None:
        for d in stmt.declarators:
            if d.init is not None:
                self.env_sites[id(d.init)] = env.copy()
                self._do_effects(d.init, env)
            if stmt.is_shared or d.array_sizes:
                env.poison(d.name)
                continue
            if stmt.type.is_pointer:
                ps = ptr_state_of(d.init, env) if d.init is not None else None
                env.pointers[d.name] = ps if ps is not None else UNKNOWN_PTR
                env.poison(d.name)
                continue
            if d.init is not None:
                env.bind(d.name, analyze_expr(d.init, env))
            else:
                env.poison(d.name)

    def _do_effects(self, expr: Expr, env: FlowEnv) -> None:
        """Apply every scalar/pointer assignment inside ``expr``."""
        for node in walk_expr(expr):
            if isinstance(node, Assign) and isinstance(node.target, Ident):
                self._do_assign(node, env)
            elif isinstance(node, PostIncDec) and \
                    isinstance(node.operand, Ident):
                self._bump(node.operand.name, 1 if node.op == "++" else -1, env)
            elif isinstance(node, UnaryOp) and node.op in ("++", "--") and \
                    isinstance(node.operand, Ident):
                self._bump(node.operand.name, 1 if node.op == "++" else -1, env)

    def _do_assign(self, node: Assign, env: FlowEnv) -> None:
        name = node.target.name
        if name in env.pointers:
            ps = env.pointers[name]
            if node.op == "=":
                env.pointers[name] = ptr_state_of(node.value, env) or UNKNOWN_PTR
            elif node.op in ("+=", "-="):
                delta = analyze_expr(node.value, env)
                off = ps.offset + delta if node.op == "+=" else ps.offset - delta
                env.pointers[name] = PtrState(ps.root, off)
            else:
                env.pointers[name] = UNKNOWN_PTR
            env.poison(name)
            return
        if node.op == "=":
            env.bind(name, analyze_expr(node.value, env))
            return
        old = env.lookup(name)
        delta = analyze_expr(node.value, env)
        op = node.op[:-1]
        if op == "+":
            env.bind(name, old + delta)
        elif op == "-":
            env.bind(name, old - delta)
        elif op == "*":
            env.bind(name, old * delta)
        else:
            env.poison(name)

    def _bump(self, name: str, sign: int, env: FlowEnv) -> None:
        if name in env.pointers:
            ps = env.pointers[name]
            env.pointers[name] = PtrState(
                ps.root, ps.offset + AffineForm.constant(sign))
            return
        env.bind(name, env.lookup(name) + AffineForm.constant(sign))
