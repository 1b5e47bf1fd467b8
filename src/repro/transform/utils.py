"""AST rebuilding helpers shared by the throttling transforms.

The AST is immutable, so a transform rebuilds the spine from the kernel body
down to the statement it replaces, sharing every untouched subtree.
"""

from __future__ import annotations

from ..frontend.ast_nodes import (
    BinOp,
    Block,
    DoWhileStmt,
    Expr,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    IntLit,
    MemberRef,
    Stmt,
    TranslationUnit,
    WhileStmt,
)


def replace_stmt(root: Stmt, target: Stmt, replacement: list[Stmt]) -> Stmt:
    """Return ``root`` with ``target`` (identity match) replaced by
    ``replacement`` (spliced when inside a Block, wrapped otherwise)."""
    found, rebuilt = _replace(root, target, replacement)
    if not found:
        raise ValueError("target statement not found under root")
    return rebuilt


def _wrap(replacement: list[Stmt]) -> Stmt:
    return replacement[0] if len(replacement) == 1 else Block(tuple(replacement))


def _replace(node: Stmt, target: Stmt, replacement: list[Stmt]) -> tuple[bool, Stmt]:
    if node is target:
        return True, _wrap(replacement)
    if isinstance(node, Block):
        out: list[Stmt] = []
        found = False
        for s in node.statements:
            if s is target:
                out.extend(replacement)
                found = True
                continue
            if not found:
                sub_found, rebuilt = _replace(s, target, replacement)
                if sub_found:
                    out.append(rebuilt)
                    found = True
                    continue
            out.append(s)
        return found, (Block(tuple(out), node.loc) if found else node)
    if isinstance(node, IfStmt):
        found, then = _replace(node.then, target, replacement)
        if found:
            return True, IfStmt(node.cond, then, node.otherwise, node.loc)
        if node.otherwise is not None:
            found, other = _replace(node.otherwise, target, replacement)
            if found:
                return True, IfStmt(node.cond, node.then, other, node.loc)
        return False, node
    if isinstance(node, ForStmt):
        found, body = _replace(node.body, target, replacement)
        if found:
            return True, ForStmt(node.init, node.cond, node.step, body, node.loc)
        return False, node
    if isinstance(node, WhileStmt):
        found, body = _replace(node.body, target, replacement)
        if found:
            return True, WhileStmt(node.cond, body, node.loc)
        return False, node
    if isinstance(node, DoWhileStmt):
        found, body = _replace(node.body, target, replacement)
        if found:
            return True, DoWhileStmt(body, node.cond, node.loc)
        return False, node
    return False, node


def with_body(func: FunctionDef, body: Block) -> FunctionDef:
    return FunctionDef(
        func.name, func.return_type, func.params, body,
        is_kernel=func.is_kernel, is_device=func.is_device, loc=func.loc,
    )


def with_function(unit: TranslationUnit, func: FunctionDef) -> TranslationUnit:
    """Replace the function with the same name in ``unit``."""
    out = []
    replaced = False
    for f in unit.functions:
        if f.name == func.name:
            out.append(func)
            replaced = True
        else:
            out.append(f)
    if not replaced:
        raise KeyError(f"function {func.name!r} not in unit")
    return TranslationUnit(tuple(out), unit.defines)


def linear_warp_id_expr(block_dim: tuple[int, int, int],
                        warp_size: int = 32) -> Expr:
    """``(linearized thread id) / warp_size`` as an AST expression.

    For 1-D TBs this is the paper's ``threadIdx.x / WS`` (Fig. 4); for
    multidimensional TBs the thread id is linearized first.
    """
    tidx = MemberRef(Ident("threadIdx"), "x")
    flat: Expr = tidx
    if block_dim[1] > 1 or block_dim[2] > 1:
        tidy = MemberRef(Ident("threadIdx"), "y")
        flat = BinOp("+", BinOp("*", tidy, IntLit(block_dim[0])), tidx)
        if block_dim[2] > 1:
            tidz = MemberRef(Ident("threadIdx"), "z")
            flat = BinOp(
                "+",
                BinOp("*", tidz, IntLit(block_dim[0] * block_dim[1])),
                flat,
            )
    return BinOp("/", flat, IntLit(warp_size))
