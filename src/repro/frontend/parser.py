"""Recursive-descent parser for the CUDA-C kernel subset.

The grammar covers what the Rodinia / Polybench-GPU kernels evaluated by the
paper need: ``__global__``/``__device__`` functions, scalar and pointer
parameters, ``__shared__`` arrays, the usual statement forms, and full C
expression precedence.  Anything else raises a precise diagnostic instead of
mis-parsing.
"""

from __future__ import annotations

from ..memo import Memo
from .ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    BoolLit,
    BreakStmt,
    Call,
    Cast,
    ContinueStmt,
    CType,
    Declarator,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    IntLit,
    MemberRef,
    Param,
    PostIncDec,
    ReturnStmt,
    Stmt,
    SyncthreadsStmt,
    Ternary,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
)
from .errors import ParseError, UnsupportedFeatureError
from .lexer import Token, TokenKind, tokenize
from .preprocessor import preprocess

_TYPE_KEYWORDS = {"void", "int", "unsigned", "float", "double", "char", "long", "short", "bool"}
_QUALIFIERS = {"const", "volatile", "__restrict__", "static", "inline", "__forceinline__", "extern"}

# Binary operator precedence, C-style (higher binds tighter).
_BINOP_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, text: str) -> bool:
        return self._peek().text == text and self._peek().kind in (
            TokenKind.PUNCT,
            TokenKind.KEYWORD,
        )

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.loc)
        return self._advance()

    def _accept(self, text: str) -> bool:
        if self._at(text):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def _at_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind is not TokenKind.KEYWORD:
            return False
        return tok.text in _TYPE_KEYWORDS or tok.text in ("const",)

    def _parse_type(self) -> CType:
        is_const = False
        while self._peek().text in _QUALIFIERS:
            if self._peek().text == "const":
                is_const = True
            self._advance()
        tok = self._peek()
        if tok.kind is not TokenKind.KEYWORD or tok.text not in _TYPE_KEYWORDS:
            raise ParseError(f"expected a type, found {tok.text!r}", tok.loc)
        base = self._advance().text
        if base == "unsigned":
            if self._peek().text in ("int", "char", "long", "short"):
                nxt = self._advance().text
                base = "unsigned int" if nxt == "int" else nxt
            else:
                base = "unsigned int"
        elif base == "long" and self._peek().text in ("long", "int"):
            self._advance()
            base = "long"
        while self._peek().text in _QUALIFIERS:
            if self._peek().text == "const":
                is_const = True
            self._advance()
        depth = 0
        while self._at("*"):
            self._advance()
            depth += 1
            while self._peek().text in _QUALIFIERS:
                self._advance()
        return CType(base, depth, is_const)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_translation_unit(self, defines: dict[str, int | float] | None = None) -> TranslationUnit:
        functions: list[FunctionDef] = []
        while self._peek().kind is not TokenKind.EOF:
            functions.append(self._parse_function())
        return TranslationUnit(tuple(functions), defines or {})

    def _parse_function(self) -> FunctionDef:
        loc = self._peek().loc
        is_kernel = False
        is_device = False
        while self._peek().text in ("__global__", "__device__", "__host__", "static",
                                    "inline", "__forceinline__", "extern"):
            text = self._advance().text
            if text == "__global__":
                is_kernel = True
            elif text == "__device__":
                is_device = True
        return_type = self._parse_type()
        name_tok = self._peek()
        if name_tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected function name, found {name_tok.text!r}", name_tok.loc)
        name = self._advance().text
        self._expect("(")
        params: list[Param] = []
        if not self._at(")"):
            while True:
                ptype = self._parse_type()
                ptok = self._peek()
                if ptok.kind is not TokenKind.IDENT:
                    raise ParseError(f"expected parameter name, found {ptok.text!r}", ptok.loc)
                pname = self._advance().text
                # `float A[]` style pointer parameter
                while self._accept("["):
                    self._expect("]")
                    ptype = CType(ptype.base, ptype.pointer_depth + 1, ptype.is_const)
                params.append(Param(ptype, pname))
                if not self._accept(","):
                    break
        self._expect(")")
        body = self._parse_block()
        if is_kernel and return_type.base != "void":
            raise UnsupportedFeatureError(
                f"kernel {name!r} must return void", loc
            )
        return FunctionDef(name, return_type, tuple(params), body,
                           is_kernel=is_kernel, is_device=is_device, loc=loc)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> Block:
        loc = self._expect("{").loc
        statements: list[Stmt] = []
        while not self._at("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unexpected end of input inside block", self._peek().loc)
            statements.append(self._parse_statement())
        self._expect("}")
        return Block(tuple(statements), loc)

    def _parse_statement(self) -> Stmt:
        tok = self._peek()
        if self._at("{"):
            return self._parse_block()
        if self._at(";"):
            self._advance()
            return EmptyStmt(tok.loc)
        if self._at("if"):
            return self._parse_if()
        if self._at("for"):
            return self._parse_for()
        if self._at("while"):
            return self._parse_while()
        if self._at("do"):
            return self._parse_do_while()
        if self._at("return"):
            self._advance()
            value = None if self._at(";") else self._parse_expression()
            self._expect(";")
            return ReturnStmt(value, tok.loc)
        if self._at("break"):
            self._advance()
            self._expect(";")
            return BreakStmt(tok.loc)
        if self._at("continue"):
            self._advance()
            self._expect(";")
            return ContinueStmt(tok.loc)
        if tok.text == "__syncthreads":
            self._advance()
            self._expect("(")
            self._expect(")")
            self._expect(";")
            return SyncthreadsStmt(tok.loc)
        if tok.text == "__shared__" or self._at_type():
            return self._parse_declaration()
        if tok.text == "extern" and self._peek(1).text == "__shared__":
            return self._parse_declaration()
        expr = self._parse_expression()
        self._expect(";")
        return ExprStmt(expr, tok.loc)

    def _parse_declaration(self) -> DeclStmt:
        loc = self._peek().loc
        is_shared = False
        is_extern = False
        if self._peek().text == "extern" and self._peek(1).text == "__shared__":
            self._advance()
            is_extern = True
        if self._peek().text == "__shared__":
            self._advance()
            is_shared = True
        ctype = self._parse_type()
        declarators: list[Declarator] = []
        while True:
            extra_depth = 0
            while self._accept("*"):
                extra_depth += 1
            name_tok = self._peek()
            if name_tok.kind is not TokenKind.IDENT:
                raise ParseError(f"expected declarator name, found {name_tok.text!r}", name_tok.loc)
            name = self._advance().text
            sizes: list[int] = []
            dynamic = False
            while self._accept("["):
                if self._at("]"):
                    # `extern __shared__ T name[];` — launch-sized
                    if not (is_extern and is_shared):
                        raise UnsupportedFeatureError(
                            "unsized arrays are only valid as extern __shared__",
                            name_tok.loc,
                        )
                    dynamic = True
                    self._advance()
                    continue
                size_expr = self._parse_expression()
                size = _const_int(size_expr)
                if size is None:
                    raise UnsupportedFeatureError(
                        "array dimensions must be compile-time integer constants",
                        name_tok.loc,
                    )
                sizes.append(size)
                self._expect("]")
            init = None
            if self._accept("="):
                init = self._parse_assignment()
            dtype = (
                CType(ctype.base, ctype.pointer_depth + extra_depth, ctype.is_const)
                if extra_depth
                else ctype
            )
            if dtype is not ctype and len(declarators) > 0:
                pass  # mixed-pointer declarator lists are carried per-declarator below
            declarators.append(Declarator(name, tuple(sizes), init, dynamic))
            if extra_depth:
                # To keep DeclStmt simple we require homogeneous pointer depth.
                ctype = dtype
            if not self._accept(","):
                break
        self._expect(";")
        return DeclStmt(ctype, tuple(declarators), is_shared=is_shared, loc=loc)

    def _parse_if(self) -> IfStmt:
        loc = self._expect("if").loc
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept("else"):
            otherwise = self._parse_statement()
        return IfStmt(cond, then, otherwise, loc)

    def _parse_for(self) -> ForStmt:
        loc = self._expect("for").loc
        self._expect("(")
        init: Stmt | None = None
        if not self._at(";"):
            if self._at_type():
                init = self._parse_declaration()  # consumes ';'
            else:
                expr = self._parse_expression()
                self._expect(";")
                init = ExprStmt(expr)
        else:
            self._advance()
        cond = None if self._at(";") else self._parse_expression()
        self._expect(";")
        step = None if self._at(")") else self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return ForStmt(init, cond, step, body, loc)

    def _parse_while(self) -> WhileStmt:
        loc = self._expect("while").loc
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return WhileStmt(cond, body, loc)

    def _parse_do_while(self) -> DoWhileStmt:
        loc = self._expect("do").loc
        body = self._parse_statement()
        self._expect("while")
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        self._expect(";")
        return DoWhileStmt(body, cond, loc)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> Expr:
        expr = self._parse_assignment()
        while self._at(","):
            loc = self._advance().loc
            right = self._parse_assignment()
            expr = BinOp(",", expr, right, loc)
        return expr

    def _parse_assignment(self) -> Expr:
        left = self._parse_ternary()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment()
            return Assign(tok.text, left, value, tok.loc)
        return left

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        if self._at("?"):
            loc = self._advance().loc
            then = self._parse_assignment()
            self._expect(":")
            otherwise = self._parse_assignment()
            return Ternary(cond, then, otherwise, loc)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINOP_PRECEDENCE.get(tok.text) if tok.kind is TokenKind.PUNCT else None
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self._parse_binary(prec + 1)
            left = BinOp(tok.text, left, right, tok.loc)

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("-", "+", "!", "~", "*", "&"):
            self._advance()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return UnaryOp(tok.text, operand, tok.loc)
        if tok.kind is TokenKind.PUNCT and tok.text in ("++", "--"):
            self._advance()
            operand = self._parse_unary()
            return UnaryOp(tok.text, operand, tok.loc)
        if tok.text == "(" and self._at_type(1):
            # cast: "(" type ")" unary
            self._advance()
            ctype = self._parse_type()
            self._expect(")")
            operand = self._parse_unary()
            return Cast(ctype, operand, tok.loc)
        if tok.text == "sizeof":
            self._advance()
            self._expect("(")
            ctype = self._parse_type()
            self._expect(")")
            return IntLit(ctype.element_size if not ctype.is_pointer else 8, tok.loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if self._at("["):
                self._advance()
                index = self._parse_expression()
                self._expect("]")
                expr = ArrayRef(expr, index, tok.loc)
            elif self._at("("):
                if not isinstance(expr, Ident):
                    raise UnsupportedFeatureError(
                        "only direct calls to named functions are supported", tok.loc
                    )
                self._advance()
                args: list[Expr] = []
                if not self._at(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept(","):
                            break
                self._expect(")")
                expr = Call(expr.name, tuple(args), tok.loc)
            elif self._at("."):
                self._advance()
                member_tok = self._peek()
                if member_tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise ParseError(
                        f"expected member name, found {member_tok.text!r}", member_tok.loc
                    )
                self._advance()
                expr = MemberRef(expr, member_tok.text, tok.loc)
            elif tok.kind is TokenKind.PUNCT and tok.text in ("++", "--"):
                self._advance()
                expr = PostIncDec(tok.text, expr, tok.loc)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_LIT:
            self._advance()
            text = tok.text.rstrip("uUlL")
            value = int(text, 16) if text.lower().startswith("0x") else int(text)
            return IntLit(value, tok.loc)
        if tok.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return FloatLit(float(tok.text.rstrip("fFlL")), tok.text, tok.loc)
        if tok.text in ("true", "false"):
            self._advance()
            return BoolLit(tok.text == "true", tok.loc)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return Ident(tok.text, tok.loc)
        if self._at("("):
            self._advance()
            expr = self._parse_expression()
            self._expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.loc)


def _const_int(expr: Expr) -> int | None:
    """Fold a compile-time integer constant expression, or return None."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = _const_int(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, BinOp):
        left = _const_int(expr.left)
        right = _const_int(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a // b,
                "%": lambda a, b: a % b,
                "<<": lambda a, b: a << b,
                ">>": lambda a, b: a >> b,
            }[expr.op](left, right)
        except (KeyError, ZeroDivisionError):
            return None
    return None


# Parse memo: equal source text yields one shared TranslationUnit.  Sound
# because a unit is immutable (frozen AST nodes, read-only ``defines``).
parse_memo = Memo("frontend.parse.cache", 64)


def parse(source: str) -> TranslationUnit:
    """Preprocess, tokenize, and parse a CUDA-subset source string.

    Memoized on the source text (a bounded LRU): parsing equal sources
    returns the same unit.
    """
    from ..obs.trace import span

    with span("frontend.parse", source_bytes=len(source)) as sp:
        unit = parse_memo.get(source)
        if unit is not None:
            sp.set(cached=True, kernels=len(unit.kernels()))
            return unit
        expanded, defines = preprocess(source)
        tokens = tokenize(expanded)
        unit = Parser(tokens).parse_translation_unit(defines)
        sp.set(cached=False, tokens=len(tokens), kernels=len(unit.kernels()))
    parse_memo.put(source, unit)
    return unit


def parse_kernel(source: str, name: str | None = None) -> FunctionDef:
    """Parse ``source`` and return its only kernel (or the kernel ``name``)."""
    unit = parse(source)
    kernels = unit.kernels()
    if name is not None:
        return unit.kernel(name)
    if len(kernels) != 1:
        raise ValueError(f"expected exactly one kernel, found {len(kernels)}")
    return kernels[0]
