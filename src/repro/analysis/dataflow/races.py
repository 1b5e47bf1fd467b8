"""Barrier-interval MHP analysis and affine race proofs (``catt race``).

The flat epoch heuristic this module replaces walked statements in source
order and bumped one global counter per ``__syncthreads()`` — a barrier
inside a loop body incremented it *once*, silently separating accesses that
actually repeat (and race) every iteration.  Here the may-happen-in-parallel
question is answered on the kernel CFG instead:

* **Segments.**  Each basic block's action list is split at every
  *separating* barrier (one all threads of a TB reach together: not under a
  thread-dependent guard, not in a loop with a thread-dependent trip count
  or a thread-dependent ``break``/``continue``).  Divergent barriers do not
  separate anything — on hardware they are UB and the conservative answer is
  that accesses on both sides may still be concurrent.

* **Intervals.**  The barrier interval of a segment is its weakly-connected
  component in the segment graph whose edges are the CFG edges (last segment
  of a predecessor block to first segment of a successor) — *without* the
  intra-block segment-to-segment edges a barrier cut.  A loop back edge
  therefore correctly merges the post-barrier tail of iteration *i* with the
  pre-barrier head of iteration *i+1*: two accesses on opposite sides of a
  single in-loop barrier still share an interval, which is exactly the case
  the old counter missed.

* **Accesses.**  A segment's array references are the ones
  :func:`~repro.analysis.loops.find_loops` resolved once per evaluation
  site (``KernelLoops.refs``), the table the loop records come from too:
  the array, its space, the flattened affine index, and whether the
  reference reads, writes or atomically updates its element.  A reference
  that names no array (a pointer the flow cannot root, a ``*p``
  dereference) caps every verdict of its interval at ``UNKNOWN``.

* **Disjointness.**  Two accesses to one array in one interval, at least one
  a write, race unless their index forms are provably disjoint across
  distinct threads of a TB.  Writing each affine index as
  ``c·t + Σ cᵤ·u + Σ cᵢ·i + k`` (thread axes / TB-uniform symbols / loop
  iterators / constant), the difference over a thread pair ``t₁ ≠ t₂`` must
  be provably nonzero: uniform symbols must cancel, lockstep iterators (of
  barrier-strict loops, for same-phase access pairs) contribute an exact
  ``Δc·i`` set, free iterators are over-approximated by a GCD-multiples ∩
  interval test, and the thread contribution is enumerated exactly over the
  launch's block shape.

Every (array, interval) pair gets a verdict — ``PROVED-SAFE``,
``PROVED-RACE`` or ``UNKNOWN`` — with source provenance.  ``PROVED-RACE``
additionally demands a *definite* concurrent witness: a directed
barrier-free path between the two segments, no thread-dependent guard on
either access, every enclosing loop known to run at least once, and a
concrete thread/iteration assignment hitting the same element.  Global
arrays are analyzed with the same intra-TB scope the dynamic sanitizer
checks (:mod:`repro.sim.sanitize`); cross-TB conflicts are out of scope for
both.

The module also owns the two answers a Fig. 4 warp split depends on.
:class:`Divergence` says whether all threads of a TB reach a statement
together; it picks the separating barriers, ``catt lint``'s divergent
barriers and the static gate's check that every warp reaches the barriers
a split puts at a loop's position.  :func:`loop_conflicts` says why the
warps of a TB may not run a loop in another order; the static gate
(:func:`~repro.analysis.dataflow.safety.verify_warp_split`) and the tape's
split fusion both ask it.  The guard predicates :class:`Divergence` uses
(:func:`cond_tb_uniform`, and :func:`cond_always_true` over
:func:`form_range`'s value ranges) live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ...frontend.ast_nodes import (
    Assign,
    BinOp,
    BreakStmt,
    ContinueStmt,
    DoWhileStmt,
    Expr,
    ForStmt,
    IfStmt,
    Stmt,
    SyncthreadsStmt,
    WhileStmt,
    expressions_in,
    path_to_stmt,
    statements_in,
    walk_expr,
)
from ...sim.arch import as_dim3
from ..affine import (
    BIDX,
    BIDY,
    BIDZ,
    TIDX,
    TIDY,
    TIDZ,
    AffineForm,
    SymbolicEnv,
    analyze_expr,
)
from .cfg import SYNC, CFGLoop

PROVED_SAFE = "PROVED-SAFE"
PROVED_RACE = "PROVED-RACE"
UNKNOWN = "UNKNOWN"

_THREAD_AXES = {TIDX: 0, TIDY: 1, TIDZ: 2}
_BLOCK_AXES = {BIDX: 0, BIDY: 1, BIDZ: 2}

# Enumeration guard: pair proofs fall back to UNKNOWN rather than grind
# through astronomically large candidate sets.
_ENUM_LIMIT = 1 << 20


@dataclass(frozen=True)
class AccessSite:
    """One array reference, placed in the segment graph."""

    array: str
    space: str                 # "shared" | "global"
    index: AffineForm          # flattened element-index form
    is_read: bool
    is_write: bool
    is_atomic: bool
    guarded: bool              # under a thread-dependent guard / trip count
    segment: int
    block: int                 # CFG block id
    line: int | None

    def describe(self) -> str:
        kind = "atomic" if self.is_atomic else \
            ("write" if self.is_write else "read")
        where = f"line {self.line}" if self.line is not None else "?"
        return f"{kind} of {self.array!r} at {where}"


@dataclass(frozen=True)
class RegionVerdict:
    """The race verdict for one (array, barrier interval) pair."""

    array: str
    space: str                 # "shared" | "global"
    interval: int
    verdict: str               # PROVED-SAFE | PROVED-RACE | UNKNOWN
    reason: str
    lines: tuple[int, ...] = ()

    def __str__(self) -> str:
        where = ",".join(str(l) for l in self.lines) or "?"
        return (f"{self.verdict:12s} {self.space:6s} {self.array!r} "
                f"interval#{self.interval} (lines {where}): {self.reason}")


@dataclass(frozen=True)
class RaceReport:
    """All verdicts for one analyzed kernel."""

    kernel: str
    intervals: int
    verdicts: tuple[RegionVerdict, ...]

    def for_space(self, space: str) -> list[RegionVerdict]:
        return [v for v in self.verdicts if v.space == space]

    def races(self, space: str | None = None) -> list[RegionVerdict]:
        return [v for v in self.verdicts if v.verdict == PROVED_RACE
                and (space is None or v.space == space)]

    def unknowns(self, space: str | None = None) -> list[RegionVerdict]:
        return [v for v in self.verdicts if v.verdict == UNKNOWN
                and (space is None or v.space == space)]

    def safe_arrays(self, space: str | None = None) -> set[str]:
        """Arrays whose every interval verdict is PROVED-SAFE."""
        byname: dict[str, bool] = {}
        for v in self.verdicts:
            if space is not None and v.space != space:
                continue
            byname[v.array] = byname.get(v.array, True) and \
                v.verdict == PROVED_SAFE
        return {a for a, ok in byname.items() if ok}

    def classified_fraction(self, space: str = "shared") -> float:
        vs = self.for_space(space)
        if not vs:
            return 1.0
        done = sum(1 for v in vs if v.verdict != UNKNOWN)
        return done / len(vs)


# ---------------------------------------------------------------------------
# Value ranges over affine forms, and the guard predicates built on them
# ---------------------------------------------------------------------------


def form_range(
    form: AffineForm,
    block_dim: tuple[int, int, int] | None,
    grid_dim: tuple[int, int, int] | None,
    trips: dict[str, int] | None = None,
) -> tuple[int, int] | None:
    """Inclusive [lo, hi] of ``form`` over every thread of every block.

    Thread symbols range over ``[0, blockDim-1]``, block symbols over
    ``[0, gridDim-1]``, loop iterators over ``[0, trips[name]-1]``.  Any
    other symbol (params, unknown iterators) or an irregular form defeats
    the range — returns None.
    """
    if form.irregular:
        return None
    lo = hi = form.const
    for sym, c in form.coeffs:
        if sym in _THREAD_AXES:
            if block_dim is None:
                return None
            span = block_dim[_THREAD_AXES[sym]] - 1
        elif sym in _BLOCK_AXES:
            if grid_dim is None:
                return None
            span = grid_dim[_BLOCK_AXES[sym]] - 1
        elif trips is not None and sym in trips:
            span = trips[sym] - 1
        else:
            return None
        if span < 0:
            span = 0
        if c >= 0:
            hi += c * span
        else:
            lo += c * span
    return lo, hi


def _sides(cond: Expr) -> tuple[Expr, Expr, str] | None:
    if isinstance(cond, BinOp) and cond.op in ("<", "<=", ">", ">=",
                                               "==", "!="):
        return cond.left, cond.right, cond.op
    return None


def cond_always_true(
    cond: Expr,
    env: SymbolicEnv,
    block_dim: tuple[int, int, int] | None,
    grid_dim: tuple[int, int, int] | None,
    trips: dict[str, int] | None = None,
) -> bool:
    """Prove ``cond`` holds for every thread of every launched block.

    Handles ``&&`` conjunctions of order comparisons whose ``left - right``
    range is conclusive; anything else is "not provable" (False).
    """
    if isinstance(cond, BinOp) and cond.op == "&&":
        return (cond_always_true(cond.left, env, block_dim, grid_dim, trips)
                and cond_always_true(cond.right, env, block_dim, grid_dim,
                                     trips))
    parts = _sides(cond)
    if parts is None:
        return False
    left, right, op = parts
    diff = analyze_expr(left, env) - analyze_expr(right, env)
    rng = form_range(diff, block_dim, grid_dim, trips)
    if rng is None:
        return False
    lo, hi = rng
    if op == "<":
        return hi < 0
    if op == "<=":
        return hi <= 0
    if op == ">":
        return lo > 0
    if op == ">=":
        return lo >= 0
    return False  # ==, != : no useful proof from a range


def cond_tb_uniform(cond: Expr, env: SymbolicEnv) -> bool:
    """True when every thread of a TB evaluates ``cond`` identically —
    i.e. no thread symbol (and nothing irregular) feeds the comparison."""
    for node in walk_expr(cond):
        if isinstance(node, (Assign,)):
            return False
    for side in _cond_leaves(cond):
        form = analyze_expr(side, env)
        if form.irregular:
            return False
        if any(sym in _THREAD_AXES for sym in form.symbols()):
            return False
    return True


def _cond_leaves(cond: Expr):
    """Comparison operands under a boolean combinator tree."""
    if isinstance(cond, BinOp) and cond.op in ("&&", "||"):
        yield from _cond_leaves(cond.left)
        yield from _cond_leaves(cond.right)
        return
    parts = _sides(cond)
    if parts is not None:
        yield parts[0]
        yield parts[1]
    else:
        yield cond


def line_of(loc) -> int | None:
    return getattr(loc, "line", None)


# ---------------------------------------------------------------------------
# Divergence: do all threads of a TB reach a statement together?
# ---------------------------------------------------------------------------


class Divergence:
    """Says whether all threads of a TB reach a statement together.

    A statement is divergent when it sits under a thread-dependent guard, in
    a loop with a thread-dependent trip count, or in a loop with a
    ``break``/``continue`` of its own under such a guard.  A guard is thread-dependent
    unless it is TB-uniform or, for its then-branch, provably true for every
    launched thread.  The race analysis asks which barriers separate
    intervals, ``catt lint`` which barriers are divergent, and the static
    gate whether the barriers a warp split puts at a loop's position are.
    """

    def __init__(self, analysis):
        kl = analysis.kernel_loops
        self.kernel = analysis.kernel
        self.flow = kl.flow
        self.block_dim = as_dim3(analysis.block_dim)
        self.trips = _iterator_trips(kl)
        self.loops = {id(r.stmt): r for r in kl.loops}
        self._exits: dict[int, bool] = {}

    def guard(self, node: IfStmt, child: Stmt) -> bool:
        """May threads of a TB disagree on entering ``child``, a branch of
        ``node``?"""
        env = self.flow.env_sites[id(node.cond)]
        if cond_tb_uniform(node.cond, env):
            return False
        return not (child is node.then and cond_always_true(
            node.cond, env, self.block_dim, self.flow.grid_dim, self.trips))

    @staticmethod
    def thread_trips(rec) -> bool:
        """May threads of a TB run loop ``rec`` for different trip counts?"""
        return rec.bound is not None and (rec.bound.irregular or any(
            s in _THREAD_AXES for s in rec.bound.symbols()))

    def _exit(self, loop: Stmt) -> bool:
        """A ``break``/``continue`` of ``loop`` under a thread-dependent
        guard lets threads leave it at different iterations.  One inside a
        nested loop binds to that loop, so it does not count here."""
        if id(loop) not in self._exits:
            self._exits[id(loop)] = False
            for s in statements_in(loop):
                if not isinstance(s, (BreakStmt, ContinueStmt)):
                    continue
                path = path_to_stmt(loop, s)
                if any(isinstance(node, (ForStmt, WhileStmt, DoWhileStmt))
                       for node in path[1:-1]):
                    continue
                if any(isinstance(node, IfStmt) and self.guard(node, child)
                       for node, child in zip(path, path[1:])):
                    self._exits[id(loop)] = True
                    break
        return self._exits[id(loop)]

    def why(self, stmt: Stmt) -> tuple[str, int | None] | None:
        """None when all threads of a TB reach ``stmt`` together, else the
        reason, as ``catt lint`` and the static gate word it, and the
        ``loop_id`` of the loop behind it (None for a guard)."""
        path = path_to_stmt(self.kernel.body, stmt)
        if path is None:
            raise ValueError("statement is not in the analysed kernel")
        for node, child in zip(path, path[1:]):
            if isinstance(node, IfStmt):
                if self.guard(node, child):
                    return "under a thread-dependent guard", None
                continue
            rec = self.loops.get(id(node))
            if rec is None:
                continue
            if self.thread_trips(rec):
                return ("inside a loop with a thread-dependent trip count",
                        rec.loop_id)
            if self._exit(node):
                return ("inside a loop with a thread-dependent break or "
                        "continue", rec.loop_id)
        return None


def _iterator_trips(kernel_loops) -> dict[str, int]:
    """iterator name -> constant trip count (max on collisions; absent when
    any same-named loop has an unknown count)."""
    trips: dict[str, int] = {}
    unknown: set[str] = set()
    for rec in kernel_loops.loops:
        if rec.iterator is None:
            continue
        t = rec.trip_count()
        if t is None:
            unknown.add(rec.iterator)
        else:
            trips[rec.iterator] = max(trips.get(rec.iterator, 0), t)
    for name in unknown:
        trips.pop(name, None)
    return trips


def _separating_syncs(divergence: Divergence) -> set[int]:
    """``id(stmt)`` of every SyncthreadsStmt all threads of a TB reach
    together."""
    return {id(s) for s in statements_in(divergence.kernel.body)
            if isinstance(s, SyncthreadsStmt) and divergence.why(s) is None}


# ---------------------------------------------------------------------------
# Segment graph
# ---------------------------------------------------------------------------


class _SegmentGraph:
    """Basic blocks split at separating barriers, plus the three edge views
    the analysis needs: undirected barrier-free components (intervals), the
    directed barrier-free graph (race witnesses), and the back-edge-free
    phase DAG (lockstep iterators)."""

    def __init__(self, cfg, separating: set[int]):
        self.cfg = cfg
        self.block_segs: dict[int, list[int]] = {}
        self.seg_block: list[int] = []
        nseg = 0
        for b in cfg.blocks:
            segs = [nseg]
            self.seg_block.append(b.id)
            nseg += 1
            for a in b.actions:
                if a.kind == SYNC and id(a.node) in separating:
                    segs.append(nseg)
                    self.seg_block.append(b.id)
                    nseg += 1
            self.block_segs[b.id] = segs
        self.nseg = nseg
        # Directed barrier-free edges: CFG edges only (last segment of the
        # predecessor to first segment of the successor).  Consecutive
        # segments of one block are separated by a barrier by construction.
        self.free_succs: list[list[int]] = [[] for _ in range(nseg)]
        for b in cfg.blocks:
            for s in b.succs:
                self.free_succs[self.block_segs[b.id][-1]].append(
                    self.block_segs[s][0])
        self._components()
        self._phase_components()

    def _components(self) -> None:
        parent = list(range(self.nseg))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, succs in enumerate(self.free_succs):
            for v in succs:
                parent[find(u)] = find(v)
        roots: dict[int, int] = {}
        self.interval: list[int] = []
        for s in range(self.nseg):
            r = find(s)
            self.interval.append(roots.setdefault(r, len(roots)))

    def _phase_components(self) -> None:
        """Weak components of the phase DAG: barrier-free edges minus every
        edge into a loop header from inside that loop (back/continue edges).
        Segments sharing a phase execute in one barrier epoch at one
        iteration of every enclosing barrier-strict loop."""
        header_first = {l.header: self.block_segs[l.header][0]
                        for l in self.cfg.loops}
        in_loop = {l.header: l.blocks for l in self.cfg.loops}
        parent = list(range(self.nseg))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, succs in enumerate(self.free_succs):
            ub = self.seg_block[u]
            for v in succs:
                vb = self.seg_block[v]
                if vb in header_first and v == header_first[vb] and \
                        ub in in_loop[vb]:
                    continue  # back edge: crosses an iteration boundary
                parent[find(u)] = find(v)
        self.phase: list[int] = [find(s) for s in range(self.nseg)]

    def reaches_barrier_free(self, src: int, dst: int) -> bool:
        if src == dst:
            return True
        seen = {src}
        work = [src]
        while work:
            u = work.pop()
            for v in self.free_succs[u]:
                if v == dst:
                    return True
                if v not in seen:
                    seen.add(v)
                    work.append(v)
        return False

    def barrier_strict(self, loop: CFGLoop) -> bool:
        """True when every cycle through the loop's header crosses a
        separating barrier — i.e. the header's first segment cannot reach
        itself through barrier-free edges inside the loop."""
        start = self.block_segs[loop.header][0]
        seen: set[int] = set()
        work = [v for v in self.free_succs[start]
                if self.seg_block[v] in loop.blocks]
        while work:
            u = work.pop()
            if u == start:
                return False
            if u in seen:
                continue
            seen.add(u)
            for v in self.free_succs[u]:
                if self.seg_block[v] in loop.blocks or v == start:
                    work.append(v)
        return True


# ---------------------------------------------------------------------------
# Access collection
# ---------------------------------------------------------------------------


def _guarded_exprs(divergence: Divergence) -> set[int]:
    """``id(expr)`` of every evaluation site under a thread-dependent guard
    or inside a loop with a thread-dependent trip count.  Such accesses may
    not execute for every thread, which only matters for *race witnesses*
    (safety proofs over-approximate execution anyway)."""
    guarded: set[int] = set()

    def mark(stmt: Stmt) -> None:
        for e in expressions_in(stmt):
            guarded.add(id(e))

    for stmt in statements_in(divergence.kernel.body):
        if isinstance(stmt, IfStmt):
            for child in (stmt.then, stmt.otherwise):
                if child is not None and divergence.guard(stmt, child):
                    mark(child)
            continue
        rec = divergence.loops.get(id(stmt))
        if rec is not None and divergence.thread_trips(rec):
            mark(stmt)
    return guarded


def _collect_accesses(refs, graph: _SegmentGraph, separating, guarded_ids):
    """Every placed access site, the CFG blocks holding a reference that
    names no site, and per interval the lines of those that may touch any
    array.  ``refs`` is :attr:`~repro.analysis.loops.KernelLoops.refs`."""
    out: list[AccessSite] = []
    unplaced: set[int] = set()
    blind: dict[int, set[int | None]] = {}
    for b in graph.cfg.blocks:
        segs = graph.block_segs[b.id]
        cursor = 0
        for action in b.actions:
            if action.kind == SYNC and id(action.node) in separating:
                cursor += 1
            for e in action.sites():
                for r in refs[id(e)]:
                    if r.space in ("global", "shared"):
                        out.append(AccessSite(
                            array=r.array, space=r.space, index=r.index,
                            is_read=r.is_read, is_write=r.is_write,
                            is_atomic=r.is_atomic,
                            guarded=id(e) in guarded_ids,
                            segment=segs[cursor], block=b.id,
                            line=line_of(r.loc)))
                        continue
                    # A local array, an unrooted pointer or a ``*p``
                    # dereference; the last two may touch any array.
                    unplaced.add(b.id)
                    if r.space is None:
                        blind.setdefault(graph.interval[segs[cursor]],
                                         set()).add(line_of(r.loc))
    return out, unplaced, blind


# ---------------------------------------------------------------------------
# Pairwise disjointness
# ---------------------------------------------------------------------------


@dataclass
class _PairResult:
    verdict: str
    reason: str


def _axis_delta_set(coeff: int, dim: int) -> np.ndarray:
    d = max(dim - 1, 0)
    return coeff * np.arange(-d, d + 1, dtype=np.int64)


def _minkowski(sets: list[np.ndarray]) -> np.ndarray | None:
    acc = np.zeros(1, dtype=np.int64)
    for s in sets:
        if acc.size * s.size > _ENUM_LIMIT:
            return None
        acc = np.unique(acc[:, None] + s[None, :])
    return acc


def _loops_of_block(cfg, block_id: int) -> list[CFGLoop]:
    return [l for l in cfg.loops if block_id in l.blocks
            or l.header == block_id]


class _Prover:
    """Shared launch-level context for every pairwise proof of a kernel."""

    def __init__(self, analysis, flow, graph: _SegmentGraph):
        self.graph = graph
        self.cfg = graph.cfg
        self.block_dim = as_dim3(analysis.block_dim)
        # loop stmt id -> (iterator, trip or None, barrier-strict)
        self.loop_facts: dict[int, tuple[str | None, int | None, bool]] = {}
        recs = {id(r.stmt): r for r in analysis.kernel_loops.loops}
        for cl in self.cfg.loops:
            rec = recs.get(id(cl.stmt))
            iterator = rec.iterator if rec is not None else None
            trip = rec.trip_count() if rec is not None else None
            self.loop_facts[id(cl.stmt)] = (
                iterator, trip, graph.barrier_strict(cl))
        self._loops_cache: dict[int, list[CFGLoop]] = {}

    def loops_of(self, block_id: int) -> list[CFGLoop]:
        if block_id not in self._loops_cache:
            self._loops_cache[block_id] = _loops_of_block(self.cfg, block_id)
        return self._loops_cache[block_id]

    # -- pair proof --------------------------------------------------------
    def prove(self, a: AccessSite, b: AccessSite) -> _PairResult:
        if a.is_atomic and b.is_atomic:
            return _PairResult(PROVED_SAFE, "both accesses are atomic")
        if a.index.irregular or b.index.irregular:
            return _PairResult(UNKNOWN, "irregular index expression")

        ca = dict(a.index.coeffs)
        cb = dict(b.index.coeffs)
        const = a.index.const - b.index.const

        a_loops = {self.loop_facts[id(l.stmt)][0]: l
                   for l in self.loops_of(a.block)
                   if self.loop_facts[id(l.stmt)][0] is not None}
        b_loops = {self.loop_facts[id(l.stmt)][0]: l
                   for l in self.loops_of(b.block)
                   if self.loop_facts[id(l.stmt)][0] is not None}
        same_phase = self.graph.phase[a.segment] == \
            self.graph.phase[b.segment]

        shared_terms: list[tuple[int, int | None]] = []   # (Δc, trip)
        free_terms: list[tuple[int, int | None]] = []     # (coeff, trip)
        for sym in set(ca) | set(cb):
            if sym in _THREAD_AXES:
                continue
            la, lb = a_loops.get(sym), b_loops.get(sym)
            if la is None and lb is None:
                # TB-uniform symbol (param, block index, unknown): the
                # difference is constant across the TB, so it must cancel.
                if ca.get(sym, 0) != cb.get(sym, 0):
                    return _PairResult(
                        UNKNOWN, f"uniform symbol {sym!r} does not cancel")
                continue
            # Loop iterator(s).  Lockstep — a single shared value — only
            # when both sides sit in the same phase of the same
            # barrier-strict loop; anything else ranges freely per side.
            if la is not None and lb is not None and la is lb and \
                    same_phase and self.loop_facts[id(la.stmt)][2]:
                dc = ca.get(sym, 0) - cb.get(sym, 0)
                if dc:
                    shared_terms.append(
                        (dc, self.loop_facts[id(la.stmt)][1]))
                continue
            if la is not None and ca.get(sym, 0):
                free_terms.append(
                    (ca[sym], self.loop_facts[id(la.stmt)][1]))
            if lb is not None and cb.get(sym, 0):
                free_terms.append(
                    (-cb[sym], self.loop_facts[id(lb.stmt)][1]))
            if la is None and ca.get(sym, 0) or \
                    lb is None and cb.get(sym, 0):
                # Iterator symbol leaked outside any loop of that side's
                # block (e.g. same-named loops): treat as non-cancelling.
                return _PairResult(
                    UNKNOWN, f"iterator symbol {sym!r} out of scope")

        return self._decide(a, b, ca, cb, const, shared_terms, free_terms)

    def _decide(self, a, b, ca, cb, const, shared_terms,
                free_terms) -> _PairResult:
        ta = [ca.get(s, 0) for s in _THREAD_AXES]
        tb = [cb.get(s, 0) for s in _THREAD_AXES]

        # Exact shared-iterator value set (lockstep terms).
        shared_sets: list[np.ndarray] = []
        for dc, trip in shared_terms:
            if trip is None:
                free_terms.append((dc, None))   # unknown trip: over-approx
                continue
            shared_sets.append(dc * np.arange(trip, dtype=np.int64))
        shared = _minkowski(shared_sets)
        if shared is None:
            return _PairResult(UNKNOWN, "iterator value set too large")

        # Free iterators: GCD-multiples ∩ interval over-approximation.
        gF = 0
        flo: float = 0
        fhi: float = 0
        for c, trip in free_terms:
            gF = math.gcd(gF, abs(c))
            if trip is None:
                flo, fhi = -math.inf, math.inf
            else:
                span = c * (trip - 1)
                flo += min(0, span)
                fhi += max(0, span)
        free_present = bool(free_terms)

        # Thread contribution.
        if ta == tb:
            axis_sets = [_axis_delta_set(c, d)
                         for c, d in zip(ta, self.block_dim)]
            deltas = _mesh_nonzero(axis_sets, self.block_dim)
            if deltas is None:
                return _PairResult(UNKNOWN, "thread delta set too large")
            v_all = deltas
            exact_neq = True
        else:
            per_axis = []
            for c1, c2, d in zip(ta, tb, self.block_dim):
                u = c1 * np.arange(d, dtype=np.int64)
                v = c2 * np.arange(d, dtype=np.int64)
                if u.size * v.size > _ENUM_LIMIT:
                    return _PairResult(UNKNOWN, "thread pair set too large")
                per_axis.append(np.unique(u[:, None] - v[None, :]))
            v_all = _minkowski(per_axis)
            if v_all is None:
                return _PairResult(UNKNOWN, "thread pair set too large")
            exact_neq = False

        # Candidate differences with the free part factored out.
        base = _minkowski([np.array([const], dtype=np.int64), v_all, shared])
        if base is None:
            return _PairResult(UNKNOWN, "candidate set too large")

        if free_present:
            need = -base
            hit = (need % gF == 0) if gF else (need == 0)
            hit &= (need >= flo) & (need <= fhi)
            if not hit.any():
                return _PairResult(PROVED_SAFE, self._safe_reason(free_terms))
            return _PairResult(
                UNKNOWN, "free loop iterators may align the indexes "
                f"({a.describe()} vs {b.describe()})")

        if not (base == 0).any():
            return _PairResult(PROVED_SAFE, self._safe_reason(free_terms))

        # A zero difference is achievable — definite race only with a
        # concrete distinct-thread witness and guaranteed execution.
        witness = f"{a.describe()} and {b.describe()} hit a common element"
        if a.guarded or b.guarded:
            return _PairResult(
                UNKNOWN, witness + " only under a thread-dependent guard")
        if not self._always_runs(a) or not self._always_runs(b):
            return _PairResult(
                UNKNOWN, witness + " but an enclosing trip count is unknown")
        if not (self.graph.reaches_barrier_free(a.segment, b.segment)
                or self.graph.reaches_barrier_free(b.segment, a.segment)):
            # Both sites are unguarded here (thread-dependent guards bailed
            # out above), so intra-TB control flow is lockstep: either every
            # segment walk between them crosses a separating sync (the pair
            # is barrier-ordered), or no walk exists at all (mutually
            # exclusive branches of a TB-uniform if, never co-executed
            # within a TB).  Cross-iteration pairs are covered because
            # reachability follows back edges.
            return _PairResult(
                PROVED_SAFE,
                "every path between the accesses crosses a TB-wide barrier")
        if exact_neq:
            return _PairResult(PROVED_RACE, witness)
        # Distinct coefficients: a zero of the full pair set may only occur
        # on the t1 == t2 diagonal.  A spare axis (coefficient 0 on one
        # side, dimension >= 2) lets the witness move off the diagonal.
        for c1, c2, d in zip(ta, tb, self.block_dim):
            if d >= 2 and (c1 == 0 or c2 == 0):
                return _PairResult(PROVED_RACE, witness)
        diag = _minkowski([(c1 - c2) * np.arange(d, dtype=np.int64)
                           for c1, c2, d in zip(ta, tb, self.block_dim)])
        needed = -(const + shared)
        if diag is not None and np.isin(needed, v_all).any() and \
                (np.isin(needed, v_all) & ~np.isin(needed, diag)).any():
            return _PairResult(PROVED_RACE, witness)
        return _PairResult(
            UNKNOWN, witness + " but the witness may be a single thread")

    def _safe_reason(self, free_terms) -> str:
        if free_terms:
            return ("thread strides and the iterator GCD/interval test "
                    "prove cross-thread disjointness")
        return "constant thread-distance test proves disjointness"

    def _always_runs(self, acc: AccessSite) -> bool:
        for l in self.loops_of(acc.block):
            _it, trip, _strict = self.loop_facts[id(l.stmt)]
            if l.kind != "dowhile" and (trip is None or trip < 1):
                return False
        return True


def _mesh_nonzero(axis_sets: list[np.ndarray],
                  dims: tuple[int, int, int]) -> np.ndarray | None:
    """Values of Σ cᵢ·Δᵢ over Δ ≠ (0,0,0), |Δᵢ| < dimᵢ.

    Axis sets are symmetric arrays built by :func:`_axis_delta_set`; the
    all-zero tuple (the same thread twice) is excluded by dropping the
    one combination where every axis picks its midpoint.
    """
    sizes = [max(2 * d - 1, 1) for d in dims]
    if sizes[0] * sizes[1] * sizes[2] > _ENUM_LIMIT:
        return None
    # axis_sets[i] is coeff_i * arange(-(d_i - 1), d_i); the matching raw
    # delta ranges drive the "not the same thread twice" mask.
    dx = np.arange(-(dims[0] - 1), dims[0], dtype=np.int64)
    dy = np.arange(-(dims[1] - 1), dims[1], dtype=np.int64)
    dz = np.arange(-(dims[2] - 1), dims[2], dtype=np.int64)
    gx, gy, gz = np.meshgrid(axis_sets[0], axis_sets[1], axis_sets[2],
                             indexing="ij")
    mx, my, mz = np.meshgrid(dx, dy, dz, indexing="ij")
    nonzero = (mx != 0) | (my != 0) | (mz != 0)
    return np.unique((gx + gy + gz)[nonzero])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RaceFacts:
    """One kernel's race report plus the placed sites behind it."""

    report: RaceReport
    sites: tuple[tuple[AccessSite, int], ...]   # (site, its interval)
    unplaced: frozenset[int]    # CFG blocks with a reference naming no site


def analyze_races(analysis) -> RaceReport:
    """Classify every (array, barrier interval) pair of one analyzed kernel.

    ``analysis`` is a :class:`~repro.analysis.kernel_info.KernelAnalysis`
    (or any object with its ``kernel``, ``kernel_loops`` and ``block_dim``);
    its loop analysis supplies the array references resolved per
    evaluation site (``kernel_loops.refs``) and the dataflow fixpoint
    (``kernel_loops.flow``) with the CFG, the launch shape and the guard
    environments.  A failure propagates to the caller.  Verdict counts are published as
    ``race.proved_safe`` / ``race.proved_race`` / ``race.unknown``.
    """
    return _race_facts(analysis).report


def loop_conflicts(analysis, loop: Stmt) -> tuple[str, ...]:
    """Why the warps of a TB may not run ``loop`` in another order; empty
    when they may.

    Warp-splitting ``loop`` (or fusing its split copies back) reorders its
    iterations across the warps of a TB, which keeps the kernel's meaning
    when no thread's access in the loop conflicts with another thread's in
    the same barrier interval.  So every (array, interval) with one of the
    analysis's own access sites in the loop's CFG blocks (its condition,
    body and step) must be PROVED-SAFE; each one that is not is named.
    Sites are pointer-resolved, so a store through a local pointer counts
    against the array the pointer indexes.  Arrays the kernel touches only
    outside the loop do not matter.  A loop block holding a reference that
    names no site (a local array, an unresolved pointer, a ``*p``
    dereference) and a ``for`` init that references memory (the init sits
    in the preheader block, with the statements before the loop) are
    conflicts too.  Calls are not looked into.
    """
    facts = _race_facts(analysis)
    kl = analysis.kernel_loops
    blocks = frozenset().union(*(
        cl.blocks for cl in kl.flow.cfg.loops if cl.stmt is loop))
    if not blocks:
        return ("loop not found in the kernel's CFG",)
    out: list[str] = []
    if blocks & facts.unplaced:
        out.append("the loop holds a reference the race analysis cannot "
                   "place on an array")
    if isinstance(loop, ForStmt) and loop.init is not None and any(
            kl.refs.get(id(e)) for e in expressions_in(loop.init)):
        out.append("the loop's for-init references memory")
    verdicts = {(v.array, v.interval): v for v in facts.report.verdicts}
    for key in sorted({(site.array, interval) for site, interval
                       in facts.sites if site.block in blocks}):
        v = verdicts[key]
        if v.verdict != PROVED_SAFE:
            out.append(f"array {v.array!r} is {v.verdict} in barrier "
                       f"interval #{v.interval}: {v.reason}")
    return tuple(out)


def _race_facts(analysis) -> _RaceFacts:
    cached = getattr(analysis, "_race_facts", None)
    if cached is not None:
        return cached
    kernel = analysis.kernel
    kl = analysis.kernel_loops
    flow = kl.flow

    divergence = Divergence(analysis)
    separating = _separating_syncs(divergence)
    graph = _SegmentGraph(flow.cfg, separating)
    accesses, unplaced, blind = _collect_accesses(
        kl.refs, graph, separating, _guarded_exprs(divergence))

    prover = _Prover(analysis, flow, graph)
    regions: dict[tuple[str, int], list[AccessSite]] = {}
    spaces: dict[str, str] = {}
    for acc in accesses:
        regions.setdefault((acc.array, graph.interval[acc.segment]),
                           []).append(acc)
        spaces[acc.array] = acc.space

    verdicts: list[RegionVerdict] = []
    for (array, interval), accs in sorted(
            regions.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        v = _region_verdict(array, spaces[array], interval, accs, prover)
        if v.verdict == PROVED_SAFE and interval in blind:
            # A reference that may touch any array proves none safe.
            where = ",".join(str(l) for l in sorted(
                blind[interval] - {None})) or "?"
            v = replace(v, verdict=UNKNOWN, reason=(
                f"memory accessed through a pointer the analysis cannot "
                f"resolve (line {where})"))
        verdicts.append(v)
    report = RaceReport(kernel=kernel.name,
                        intervals=len(set(graph.interval)),
                        verdicts=tuple(verdicts))
    _publish(report)
    facts = _RaceFacts(
        report, tuple((a, graph.interval[a.segment]) for a in accesses),
        frozenset(unplaced))
    # Derived data cached on the (frozen) analysis, like CType's dtype.
    object.__setattr__(analysis, "_race_facts", facts)
    return facts


def _region_verdict(array: str, space: str, interval: int,
                    accs: list[AccessSite], prover: _Prover) -> RegionVerdict:
    lines = tuple(sorted({a.line for a in accs if a.line is not None}))
    if not any(a.is_write for a in accs):
        return RegionVerdict(array, space, interval, PROVED_SAFE,
                             "read-only in this interval", lines)
    # Deduplicate identical sites (same segment/index/kind) to keep the
    # pair count quadratic in *distinct* references.
    uniq: dict[tuple, AccessSite] = {}
    for a in accs:
        key = (a.segment, a.index.coeffs, a.index.const, a.index.irregular,
               a.is_read, a.is_write, a.is_atomic, a.guarded)
        uniq.setdefault(key, a)
    sites = list(uniq.values())
    worst: _PairResult | None = None
    for i, a in enumerate(sites):
        for b in sites[i:]:
            if not (a.is_write or b.is_write):
                continue
            if a is b and not a.is_write:
                continue
            res = prover.prove(a, b)
            if res.verdict == PROVED_RACE:
                pl = tuple(sorted({l for l in (a.line, b.line)
                                   if l is not None}))
                return RegionVerdict(array, space, interval, PROVED_RACE,
                                     res.reason, pl or lines)
            if res.verdict == UNKNOWN and worst is None:
                worst = res
    if worst is not None:
        return RegionVerdict(array, space, interval, UNKNOWN,
                             worst.reason, lines)
    return RegionVerdict(array, space, interval, PROVED_SAFE,
                         "all cross-thread access pairs proved disjoint",
                         lines)


def _publish(report: RaceReport) -> None:
    from ...obs.metrics_registry import registry

    reg = registry()
    if not getattr(reg, "enabled", False):
        return
    c = reg.counter
    for v in report.verdicts:
        if v.verdict == PROVED_SAFE:
            c("race.proved_safe").inc()
        elif v.verdict == PROVED_RACE:
            c("race.proved_race").inc()
        else:
            c("race.unknown").inc()
