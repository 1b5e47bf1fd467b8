"""Warp-level throttling transform (Fig. 4).

Splits a throttled loop into ``N`` copies, each guarded so that only one
group of ``#Warps_TB / N`` warps executes it, with ``__syncthreads()``
barriers serializing the groups::

    if (wid >= 0 && wid < G)  { <loop> }  __syncthreads();
    if (wid >= G && wid < 2G) { <loop> }  __syncthreads();
    ...

The guard operates at warp granularity (``wid = linear_tid / 32``), so the
transformation adds no intra-warp control divergence (§4.3).
"""

from __future__ import annotations

from ..errors import WarpSplitError
from ..frontend.ast_nodes import (
    BinOp,
    Block,
    FunctionDef,
    IfStmt,
    IntLit,
    Stmt,
    SyncthreadsStmt,
    statements_in,
)
from .utils import linear_warp_id_expr, replace_stmt, with_body


def split_loop_for_warp_groups(
    kernel: FunctionDef,
    loop_stmt: Stmt,
    n: int,
    warps_per_tb: int,
    block_dim: tuple[int, int, int],
    warp_size: int = 32,
) -> FunctionDef:
    """Return ``kernel`` with ``loop_stmt`` split into ``n`` warp groups.

    ``loop_stmt`` must be a statement object from ``kernel``'s body (identity
    matching): resolve an analysis's loop as
    ``loop_statements(kernel)[loop_id]``, since a memoized analysis may hold
    another, equal kernel's statements.  ``n`` must divide ``warps_per_tb``,
    and the loop must hold no ``__syncthreads()``: each guarded copy runs
    for one warp group only, so a barrier inside it would sit in
    warp-divergent code.  Violations raise
    :class:`repro.errors.WarpSplitError` (a ``ValueError`` subclass).
    """
    if n <= 1:
        return kernel
    if warps_per_tb % n != 0:
        raise WarpSplitError(f"N={n} does not divide warps/TB={warps_per_tb}")
    if any(isinstance(s, SyncthreadsStmt) for s in statements_in(loop_stmt)):
        raise WarpSplitError("loop contains __syncthreads(); its warp-group "
                             "copies would put the barrier in divergent code")
    group = warps_per_tb // n
    wid = linear_warp_id_expr(block_dim, warp_size)
    pieces: list[Stmt] = []
    for g in range(n):
        lo, hi = g * group, (g + 1) * group
        cond = BinOp(
            "&&",
            BinOp(">=", wid, IntLit(lo)),
            BinOp("<", wid, IntLit(hi)),
        )
        pieces.append(IfStmt(cond, _as_block(loop_stmt)))
        pieces.append(SyncthreadsStmt())
    try:
        new_body = replace_stmt(kernel.body, loop_stmt, pieces)
    except ValueError as exc:
        # The loop object is no longer in the body — an earlier transform
        # (e.g. tiling) restructured it.
        raise WarpSplitError(str(exc)) from exc
    assert isinstance(new_body, Block)
    return with_body(kernel, new_body)


def _as_block(stmt: Stmt) -> Block:
    return stmt if isinstance(stmt, Block) else Block((stmt,))
