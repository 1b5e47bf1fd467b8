"""Affine analysis of array index expressions (§4.2, Eq. 5).

Array indexes in GPU kernels are "typically integer linear equations" over
the thread id and loop iterators (paper, §1).  This module abstracts an
index expression into

    ``C_tidx * threadIdx.x + C_tidy * threadIdx.y + ... + Σ C_k * iter_k + c``

tracking one coefficient per symbol.  Anything non-linear (products of two
symbols, divisions, values loaded from memory) poisons the affected symbols
— the form is then *irregular* and the coalescing model falls back to the
paper's conservative ``C_tid = 1``.

Symbols
-------
``threadIdx.x/y/z`` and ``blockIdx.x/y/z`` are predefined.  Loop iterators
enter the environment when :mod:`repro.analysis.loops` walks a kernel.
Kernel scalar parameters are symbols too — warp-uniform and loop-invariant,
they matter only if they appear in a *coefficient* (which makes the form
irregular, since the value is unknown at compile time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    BoolLit,
    Call,
    Cast,
    Expr,
    FloatLit,
    Ident,
    IntLit,
    MemberRef,
    PostIncDec,
    Ternary,
    UnaryOp,
)

# Canonical symbol names.
TIDX, TIDY, TIDZ = "threadIdx.x", "threadIdx.y", "threadIdx.z"
BIDX, BIDY, BIDZ = "blockIdx.x", "blockIdx.y", "blockIdx.z"

THREAD_SYMBOLS = (TIDX, TIDY, TIDZ)
BLOCK_SYMBOLS = (BIDX, BIDY, BIDZ)

IRREGULAR = "<irregular>"


@dataclass(frozen=True)
class AffineForm:
    """A linear form over named symbols plus a constant.

    ``irregular`` marks the whole form as non-affine; coefficient queries
    then return ``None`` ("unknown at compile time").
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0
    irregular: bool = False

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(value: int) -> "AffineForm":
        return AffineForm((), value)

    @staticmethod
    def symbol(name: str, coeff: int = 1) -> "AffineForm":
        return AffineForm(((name, coeff),), 0)

    @staticmethod
    def unknown() -> "AffineForm":
        return AffineForm((), 0, irregular=True)

    # -- queries -------------------------------------------------------------
    def coeff(self, name: str) -> int | None:
        """Coefficient of ``name``; None if the form is irregular."""
        if self.irregular:
            return None
        for sym, c in self.coeffs:
            if sym == name:
                return c
        return 0

    @property
    def is_constant(self) -> bool:
        return not self.irregular and not self.coeffs

    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.coeffs)

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "AffineForm") -> "AffineForm":
        if self.irregular or other.irregular:
            return AffineForm.unknown()
        merged = dict(self.coeffs)
        for sym, c in other.coeffs:
            merged[sym] = merged.get(sym, 0) + c
        coeffs = tuple((s, c) for s, c in sorted(merged.items()) if c != 0)
        return AffineForm(coeffs, self.const + other.const)

    def __neg__(self) -> "AffineForm":
        if self.irregular:
            return self
        return AffineForm(tuple((s, -c) for s, c in self.coeffs), -self.const)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def __mul__(self, other: "AffineForm") -> "AffineForm":
        if self.irregular or other.irregular:
            return AffineForm.unknown()
        if self.is_constant:
            k, form = self.const, other
        elif other.is_constant:
            k, form = other.const, self
        else:
            return AffineForm.unknown()  # symbol * symbol: non-linear
        if k == 0:
            return AffineForm.constant(0)
        return AffineForm(
            tuple((s, c * k) for s, c in form.coeffs), form.const * k
        )

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if self.irregular:
            return IRREGULAR
        parts = [f"{c}*{s}" for s, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


@dataclass
class SymbolicEnv:
    """Variable -> AffineForm bindings built while walking a kernel.

    ``block_dim``/``grid_dim`` (when known at 'compile' time, i.e. passed to
    the analysis alongside the launch config) let expressions like
    ``blockIdx.x * blockDim.x + threadIdx.x`` resolve into thread symbols.
    """

    bindings: dict[str, AffineForm] = field(default_factory=dict)
    block_dim: tuple[int, int, int] | None = None
    grid_dim: tuple[int, int, int] | None = None

    def copy(self) -> "SymbolicEnv":
        return SymbolicEnv(dict(self.bindings), self.block_dim, self.grid_dim)

    def bind(self, name: str, form: AffineForm) -> None:
        self.bindings[name] = form

    def poison(self, name: str) -> None:
        self.bindings[name] = AffineForm.unknown()

    def lookup(self, name: str) -> AffineForm:
        if name in self.bindings:
            return self.bindings[name]
        # Unbound names (e.g. scalar kernel parameters) are warp-uniform,
        # loop-invariant unknowns: model them as fresh symbols.
        return AffineForm.symbol(f"param:{name}")

    def builtin(self, base: str, member: str) -> AffineForm:
        name = f"{base}.{member}"
        axis = {"x": 0, "y": 1, "z": 2}.get(member)
        if axis is None:
            return AffineForm.unknown()
        if base == "blockDim":
            if self.block_dim is not None:
                return AffineForm.constant(self.block_dim[axis])
            return AffineForm.symbol(name)
        if base == "gridDim":
            if self.grid_dim is not None:
                return AffineForm.constant(self.grid_dim[axis])
            return AffineForm.symbol(name)
        if base in ("threadIdx", "blockIdx"):
            return AffineForm.symbol(name)
        return AffineForm.unknown()


def analyze_expr(expr: Expr, env: SymbolicEnv) -> AffineForm:
    """Abstract one expression into an :class:`AffineForm`."""
    if isinstance(expr, IntLit):
        return AffineForm.constant(expr.value)
    if isinstance(expr, (FloatLit, BoolLit)):
        return AffineForm.unknown()  # float indexes never happen; be safe
    if isinstance(expr, Ident):
        return env.lookup(expr.name)
    if isinstance(expr, MemberRef):
        if isinstance(expr.base, Ident):
            return env.builtin(expr.base.name, expr.member)
        return AffineForm.unknown()
    if isinstance(expr, BinOp):
        left = analyze_expr(expr.left, env)
        right = analyze_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op in ("/", "%", "<<", ">>", "&", "|", "^"):
            if left.is_constant and right.is_constant and not (
                left.irregular or right.irregular
            ):
                return _fold_const(expr.op, left.const, right.const)
            if expr.op == "<<" and right.is_constant and not right.irregular:
                return left * AffineForm.constant(1 << right.const)
            return AffineForm.unknown()
        return AffineForm.unknown()
    if isinstance(expr, UnaryOp):
        inner = analyze_expr(expr.operand, env)
        if expr.op == "-":
            return -inner
        return AffineForm.unknown()
    if isinstance(expr, Cast):
        if expr.type.base in ("int", "unsigned int", "long", "short", "char"):
            return analyze_expr(expr.operand, env)
        return AffineForm.unknown()
    if isinstance(expr, ArrayRef):
        # A value loaded from memory: data-dependent, i.e. irregular
        # (this is exactly the BFS case in §4.2).
        return AffineForm.unknown()
    if isinstance(expr, (Call, Ternary, Assign, PostIncDec)):
        return AffineForm.unknown()
    return AffineForm.unknown()


def _fold_const(op: str, a: int, b: int) -> AffineForm:
    try:
        value = {
            "/": lambda: int(a / b) if b else 0,
            "%": lambda: a - int(a / b) * b if b else 0,
            "<<": lambda: a << b,
            ">>": lambda: a >> b,
            "&": lambda: a & b,
            "|": lambda: a | b,
            "^": lambda: a ^ b,
        }[op]()
    except (KeyError, ValueError, OverflowError):
        return AffineForm.unknown()
    return AffineForm.constant(value)
