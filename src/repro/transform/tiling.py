"""Reduction tiling — the paper's future-work case, implemented.

§5.1 on CORR: "the L1D footprint cannot be reduced to fit the L1D capacity
even with the minimum degree of TLP.  In such case, kernels and loops need
to be split into smaller pieces, which requires algorithm changes in
original code.  CATT passes such cases without optimization."

This module performs that split for the common *reduction* shape::

    for (j = ...) {                       for (j = ...) { out[j] = 0; }   (init)
        float s = 0;                      for (ii = 0; ii < N; ii += T)
        for (i = 0; i < N; i++)   ==>         for (j = ...) {
            s += f(i, j);                         float s = 0;
        out[j] = s;                               for (i = ii; i < ii+T && i < N; i++)
    }                                                 s += f(i, j);
                                                  out[j] += s;
                                              }

Strip-mining the inner sweep bounds the per-``j`` footprint to ``T`` lines,
so the outer loop's cross-iteration reuse becomes exploitable; the tile size
is chosen exactly like Eq. 9 chooses N — largest T whose footprint fits the
L1D.  Floating-point sums re-associate across tiles (documented; tests use
tolerances).  Enabled via ``catt_compile(..., enable_tiling=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.ast_nodes import (
    Assign,
    BinOp,
    Block,
    CType,
    Declarator,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    FunctionDef,
    Ident,
    IntLit,
    Stmt,
)
from .utils import replace_stmt, with_body

TILE_VAR = "__catt_tile"


@dataclass
class ReductionPattern:
    """The recognized shape inside an outer loop's body."""

    outer: ForStmt
    acc_decl: DeclStmt          # float s = 0;
    acc_name: str
    inner: ForStmt              # for (i = 0; i < N; i++) s += ...
    inner_iter: str
    inner_bound: Expr
    stores: list[ExprStmt]      # out[...] = s;


def find_reduction_pattern(outer: ForStmt) -> ReductionPattern | None:
    """Match the init/accumulate/store shape in ``outer``'s body."""
    body = outer.body
    if not isinstance(body, Block):
        return None
    stmts = list(body.statements)
    # Locate: DeclStmt (scalar float init 0) -> ForStmt -> store(s) of it.
    for idx, stmt in enumerate(stmts):
        if not (isinstance(stmt, DeclStmt) and len(stmt.declarators) == 1):
            continue
        d = stmt.declarators[0]
        if d.array_sizes or d.init is None:
            continue
        if not (isinstance(d.init, (IntLit, FloatLit)) and
                float(getattr(d.init, "value", 1)) == 0.0):
            continue
        if idx + 1 >= len(stmts) or not isinstance(stmts[idx + 1], ForStmt):
            continue
        inner = stmts[idx + 1]
        if not _accumulates_only(inner, d.name):
            continue
        header = _inner_header(inner)
        if header is None:
            continue
        inner_iter, inner_bound = header
        stores = []
        ok = True
        for rest in stmts[idx + 2:]:
            if (isinstance(rest, ExprStmt) and isinstance(rest.expr, Assign)
                    and rest.expr.op == "=" and _is_plain_acc(rest.expr.value, d.name)):
                stores.append(rest)
            else:
                ok = False
                break
        if ok and stores and idx == 0:
            return ReductionPattern(
                outer, stmt, d.name, inner, inner_iter, inner_bound, stores
            )
    return None


def _accumulates_only(inner: ForStmt, acc: str) -> bool:
    """The inner body only updates ``acc`` via += (plus reads)."""
    if not isinstance(inner.body, Block):
        body_stmts = (inner.body,)
    else:
        body_stmts = inner.body.statements
    saw_acc = False
    for s in body_stmts:
        if not isinstance(s, ExprStmt):
            return False
        e = s.expr
        if isinstance(e, Assign) and isinstance(e.target, Ident) \
                and e.target.name == acc and e.op == "+=":
            saw_acc = True
            continue
        return False
    return saw_acc


def _inner_header(inner: ForStmt) -> tuple[str, Expr] | None:
    """(iterator, bound) for a canonical ``for (int i = 0; i < N; i++)``."""
    if not (isinstance(inner.init, DeclStmt) and len(inner.init.declarators) == 1):
        return None
    d = inner.init.declarators[0]
    if d.array_sizes or not isinstance(d.init, IntLit) or d.init.value != 0:
        return None
    cond = inner.cond
    if not (isinstance(cond, BinOp) and cond.op == "<"
            and isinstance(cond.left, Ident) and cond.left.name == d.name):
        return None
    return d.name, cond.right


def _is_plain_acc(expr: Expr, acc: str) -> bool:
    return isinstance(expr, Ident) and expr.name == acc


def tile_reduction(kernel: FunctionDef, pattern: ReductionPattern,
                   tile: int) -> FunctionDef:
    """Apply the strip-mining transform with tile size ``tile``."""
    outer = pattern.outer
    acc = pattern.acc_name
    it = pattern.inner_iter

    # 1. Init prologue: clone of the outer loop writing zeros.
    init_stores = tuple(
        ExprStmt(Assign("=", s.expr.target, FloatLit(0.0, "0.0f")))
        for s in pattern.stores
    )
    init_loop = ForStmt(outer.init, outer.cond, outer.step,
                        Block(init_stores))

    # 2. Main nest: tile loop around a rebuilt outer loop whose inner sweep
    #    covers [tile_base, min(tile_base + T, N)) and whose stores are +=.
    tile_base = Ident(TILE_VAR)
    new_inner_init = DeclStmt(CType("int"), (Declarator(it, (), tile_base),))
    new_inner_cond = BinOp(
        "&&",
        BinOp("<", Ident(it), BinOp("+", tile_base, IntLit(tile))),
        BinOp("<", Ident(it), pattern.inner_bound),
    )
    new_inner = ForStmt(new_inner_init, new_inner_cond, pattern.inner.step,
                        pattern.inner.body)
    new_stores = tuple(
        ExprStmt(Assign("+=", s.expr.target, s.expr.value))
        for s in pattern.stores
    )
    new_outer_body = Block((pattern.acc_decl, new_inner) + new_stores)
    new_outer = ForStmt(outer.init, outer.cond, outer.step, new_outer_body)
    tile_loop = ForStmt(
        DeclStmt(CType("int"), (Declarator(TILE_VAR, (), IntLit(0)),)),
        BinOp("<", tile_base, pattern.inner_bound),
        Assign("+=", tile_base, IntLit(tile)),
        Block((new_outer,)),
    )

    new_body = replace_stmt(kernel.body, outer, [init_loop, tile_loop])
    assert isinstance(new_body, Block)
    return with_body(kernel, new_body)


def choose_tile(
    req_per_warp_direct: int,
    req_per_warp_per_trip: int,
    inner_trips: int | None,
    warps: int,
    tbs: int,
    l1d_lines: int,
    min_tile: int = 8,
) -> int | None:
    """Largest power-of-two tile whose footprint fits the L1D (Eq.-9 style).

    The outer-loop footprint with tile T is
    ``(direct + per_trip * T) * warps * tbs`` lines.
    """
    budget = l1d_lines // max(warps * tbs, 1) - req_per_warp_direct
    if budget <= 0:
        return None
    max_t = budget // max(req_per_warp_per_trip, 1)
    if max_t < min_tile:
        return None
    t = min_tile
    while t * 2 <= max_t and (inner_trips is None or t * 2 < inner_trips):
        t *= 2
    if inner_trips is not None and t >= inner_trips:
        return None  # tiling wouldn't change anything
    return t


def try_tile_unresolvable(
    kernel: FunctionDef,
    loop: Stmt,
    loop_analysis,
    l1d_lines: int,
) -> tuple[FunctionDef, int] | None:
    """Attempt the future-work transform on one unresolvable loop.

    ``loop`` is the analysed loop's statement in ``kernel`` (identity
    matching).  Returns (new kernel, tile size) or None when the loop does
    not match the reduction shape / no tile fits.
    """
    if not isinstance(loop, ForStmt):
        return None
    pattern = find_reduction_pattern(loop)
    if pattern is None:
        return None
    fp = loop_analysis.footprint
    direct = 0
    per_trip = 0
    inner_trips = None
    for af in fp.per_access:
        if af.iteration_multiplier is None:
            return None
        if af.iteration_multiplier <= 1:
            direct += af.req_warp
        else:
            per_trip += af.req_warp
            inner_trips = af.iteration_multiplier
    if per_trip == 0:
        return None
    tile = choose_tile(direct, per_trip, inner_trips,
                       fp.warps_per_tb, fp.tb_sm, l1d_lines)
    if tile is None:
        return None
    return tile_reduction(kernel, pattern, tile), tile
