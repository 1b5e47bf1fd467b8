"""AST node definitions for the CUDA-C kernel subset.

Nodes are plain dataclasses so that analyses can pattern-match on types and
transforms can rebuild trees structurally.  Every node is (shallowly)
immutable by convention — transforms construct new nodes rather than mutating,
with the single exception of :class:`Block.statements` lists which transforms
replace wholesale.

The hierarchy:

``Expr``
    ``IntLit, FloatLit, BoolLit, Ident, BinOp, UnaryOp, Assign, ArrayRef,
    MemberRef, Call, Ternary, Cast, PostIncDec``
``Stmt``
    ``DeclStmt, ExprStmt, IfStmt, ForStmt, WhileStmt, DoWhileStmt,
    ReturnStmt, BreakStmt, ContinueStmt, SyncthreadsStmt, Block, EmptyStmt``
Top level
    ``Param, FunctionDef, TranslationUnit``
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Union

from .errors import SourceLocation


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CType:
    """A (very small) C type: base name + pointer depth + qualifiers."""

    base: str  # "int", "unsigned int", "float", "double", "bool", "void", ...
    pointer_depth: int = 0
    is_const: bool = False

    def __post_init__(self) -> None:
        # Precomputed plain attributes (not properties/generated methods):
        # ``is_pointer`` is probed and the hash taken millions of times per
        # simulation (memoized dtype/promotion lookups key on CType), and the
        # descriptor-call/tuple-build overhead is measurable there.  Neither
        # is a dataclass field, so equality/repr still cover only the three
        # real fields, and the cached hash matches the generated one.
        object.__setattr__(self, "is_pointer", self.pointer_depth > 0)
        object.__setattr__(
            self, "_hash",
            hash((self.base, self.pointer_depth, self.is_const)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def element_size(self) -> int:
        """Size in bytes of the pointee (or the scalar itself)."""
        return SCALAR_SIZES.get(self.base, 4)

    def pointee(self) -> "CType":
        if not self.is_pointer:
            raise ValueError(f"{self} is not a pointer")
        return CType(self.base, self.pointer_depth - 1, self.is_const)

    def __str__(self) -> str:
        const = "const " if self.is_const else ""
        return const + self.base + " " + "*" * self.pointer_depth if self.pointer_depth else const + self.base


SCALAR_SIZES = {
    "void": 1,
    "bool": 1,
    "char": 1,
    "short": 2,
    "int": 4,
    "unsigned int": 4,
    "long": 8,
    "float": 4,
    "double": 8,
}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float
    text: str = ""  # original spelling, preserved for round-tripping
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Ident(Expr):
    name: str
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class MemberRef(Expr):
    """``base.member`` — used for builtins like ``threadIdx.x``."""

    base: Expr
    member: str
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Prefix unary: ``-x``, ``!x``, ``~x``, ``++x``, ``--x``, ``*p``, ``&x``."""

    op: str
    operand: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class PostIncDec(Expr):
    op: str  # "++" or "--"
    operand: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Assign(Expr):
    """``target op value`` where op in {=, +=, -=, *=, /=, %=, &=, |=, ^=, <<=, >>=}."""

    op: str
    target: Expr
    value: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class ArrayRef(Expr):
    base: Expr
    index: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Cast(Expr):
    type: CType
    operand: Expr
    loc: SourceLocation | None = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Declarator:
    """One declared name in a declaration: ``name[array_size] = init``."""

    name: str
    array_sizes: tuple[int, ...] = ()  # () for scalars; constant dims for arrays
    init: Expr | None = None
    # True for `extern __shared__ T name[];` — sized at launch time.
    dynamic: bool = False


@dataclass(frozen=True)
class DeclStmt(Stmt):
    type: CType
    declarators: tuple[Declarator, ...]
    is_shared: bool = False
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Block(Stmt):
    statements: tuple[Stmt, ...] = ()
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class IfStmt(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Stmt | None = None
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class ForStmt(Stmt):
    init: Stmt | None  # DeclStmt or ExprStmt or None
    cond: Expr | None
    step: Expr | None
    body: Stmt = field(default_factory=Block)
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class DoWhileStmt(Stmt):
    body: Stmt
    cond: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class ReturnStmt(Stmt):
    value: Expr | None = None
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class BreakStmt(Stmt):
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class ContinueStmt(Stmt):
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class SyncthreadsStmt(Stmt):
    """``__syncthreads();`` — kept as a first-class statement because both the
    simulator and the warp-throttling transform treat it specially."""

    loc: SourceLocation | None = None


@dataclass(frozen=True)
class EmptyStmt(Stmt):
    loc: SourceLocation | None = None


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    type: CType
    name: str


@dataclass(frozen=True)
class FunctionDef:
    name: str
    return_type: CType
    params: tuple[Param, ...]
    body: Block
    is_kernel: bool = False  # __global__
    is_device: bool = False  # __device__
    loc: SourceLocation | None = None

    def __hash__(self) -> int:
        # The generated structural hash walks the whole body; memos key on
        # kernels (repro.memo), so it is taken once and kept.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.return_type, self.params, self.body,
                      self.is_kernel, self.is_device, self.loc))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class TranslationUnit:
    functions: tuple[FunctionDef, ...]
    # Read-only: :func:`repro.frontend.parse` hands one unit to every caller
    # that parses the same source.
    defines: Mapping[str, int | float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "defines",
                           MappingProxyType(dict(self.defines)))

    def kernels(self) -> tuple[FunctionDef, ...]:
        return tuple(f for f in self.functions if f.is_kernel)

    def kernel(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.is_kernel and f.name == name:
                return f
        raise KeyError(f"no kernel named {name!r}")

    def kernel_key(self, name: str) -> tuple[FunctionDef, ...]:
        """What running kernel ``name`` reads of the unit, as a content key:
        the kernel and the ``__device__`` functions, not the other kernels
        (which a CATT transform may rewrite)."""
        return (self.kernel(name),) + tuple(
            f for f in self.functions if f.is_device)

    def device_function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.is_device and f.name == name:
                return f
        raise KeyError(f"no device function named {name!r}")


LValue = Union[Ident, ArrayRef, MemberRef]


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def children_of_expr(expr: Expr) -> tuple[Expr, ...]:
    """Immediate sub-expressions of ``expr`` (for generic walkers)."""
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, (UnaryOp, PostIncDec)):
        return (expr.operand,)
    if isinstance(expr, Assign):
        return (expr.target, expr.value)
    if isinstance(expr, ArrayRef):
        return (expr.base, expr.index)
    if isinstance(expr, MemberRef):
        return (expr.base,)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, Ternary):
        return (expr.cond, expr.then, expr.otherwise)
    if isinstance(expr, Cast):
        return (expr.operand,)
    return ()


def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions, pre-order."""
    yield expr
    for child in children_of_expr(expr):
        yield from walk_expr(child)


def statements_in(stmt: Stmt):
    """Yield ``stmt`` and every statement nested inside it, pre-order."""
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.statements:
            yield from statements_in(s)
    elif isinstance(stmt, IfStmt):
        yield from statements_in(stmt.then)
        if stmt.otherwise is not None:
            yield from statements_in(stmt.otherwise)
    elif isinstance(stmt, ForStmt):
        if stmt.init is not None:
            yield from statements_in(stmt.init)
        yield from statements_in(stmt.body)
    elif isinstance(stmt, (WhileStmt, DoWhileStmt)):
        yield from statements_in(stmt.body)


def path_to_stmt(root: Stmt, target: Stmt) -> tuple[Stmt, ...] | None:
    """Statement chain from ``root`` down to ``target`` (identity match),
    inclusive on both ends; None when ``target`` is not under ``root``.

    The path exposes the enclosing control structure of a statement — e.g.
    the guards an ``if`` chain puts around a loop — without the caller
    re-implementing the traversal.
    """
    if root is target:
        return (root,)
    children: tuple[Stmt, ...] = ()
    if isinstance(root, Block):
        children = root.statements
    elif isinstance(root, IfStmt):
        children = (root.then,) if root.otherwise is None \
            else (root.then, root.otherwise)
    elif isinstance(root, ForStmt):
        children = (root.body,) if root.init is None \
            else (root.init, root.body)
    elif isinstance(root, (WhileStmt, DoWhileStmt)):
        children = (root.body,)
    for child in children:
        sub = path_to_stmt(child, target)
        if sub is not None:
            return (root,) + sub
    return None


def expressions_in(stmt: Stmt):
    """Yield every expression appearing in ``stmt`` (recursively)."""
    for s in statements_in(stmt):
        if isinstance(s, ExprStmt):
            yield from walk_expr(s.expr)
        elif isinstance(s, DeclStmt):
            for d in s.declarators:
                if d.init is not None:
                    yield from walk_expr(d.init)
        elif isinstance(s, IfStmt):
            yield from walk_expr(s.cond)
        elif isinstance(s, ForStmt):
            if s.cond is not None:
                yield from walk_expr(s.cond)
            if s.step is not None:
                yield from walk_expr(s.step)
        elif isinstance(s, (WhileStmt, DoWhileStmt)):
            yield from walk_expr(s.cond)
        elif isinstance(s, ReturnStmt) and s.value is not None:
            yield from walk_expr(s.value)
