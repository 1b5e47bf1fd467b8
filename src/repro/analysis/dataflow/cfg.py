"""Control-flow graph over the frontend AST.

Lowers a kernel body (``Block``/``IfStmt``/``ForStmt``/``WhileStmt``/
``DoWhileStmt``/``BreakStmt``/``ContinueStmt``/``ReturnStmt``) into basic
blocks of straight-line *actions*.  An action is one side-effecting step the
dataflow transfer function interprets:

    ``decl``  a DeclStmt (bindings enter the environment)
    ``eval``  one expression evaluation (ExprStmt exprs, branch/loop
              conditions, for-steps, return values)
    ``sync``  a ``__syncthreads()``

Loops keep their source-level identity: each lowered loop is registered as a
:class:`CFGLoop` carrying its AST statement, preheader/header/exit block ids
and member-block set, in the same pre-order that
:mod:`repro.analysis.loops` assigns ``loop_id``s.  The solver uses the
preheader/header pair to pin induction variables to closed forms.
``CFG.order`` lists the actions in the order they were appended, the order
the loop records list their accesses in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...frontend.ast_nodes import (
    Block,
    BreakStmt,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    ForStmt,
    IfStmt,
    ReturnStmt,
    Stmt,
    SyncthreadsStmt,
    WhileStmt,
)

DECL, EVAL, SYNC = "decl", "eval", "sync"


@dataclass(frozen=True)
class Action:
    """One straight-line step inside a basic block."""

    kind: str                 # DECL | EVAL | SYNC
    node: object              # DeclStmt | Expr | SyncthreadsStmt

    def sites(self) -> list[Expr]:
        """The expressions this action evaluates: an eval's expression, a
        decl's declarator initializers."""
        if self.kind == EVAL:
            return [self.node]
        if self.kind == DECL:
            return [d.init for d in self.node.declarators
                    if d.init is not None]
        return []


@dataclass
class BasicBlock:
    id: int
    actions: list[Action] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


@dataclass
class CFGLoop:
    """A source loop with its CFG anatomy.

    ``preheader`` is the block ending in the entry edge (for ``for`` loops it
    holds the lowered init), ``header`` the back-edge target (condition block
    for ``for``/``while``, body entry for ``do``-``while``), ``exit`` the
    unique block reached on termination or ``break``.
    """

    stmt: Stmt
    kind: str                  # "for" | "while" | "dowhile"
    preheader: int
    header: int
    exit: int
    blocks: frozenset[int] = frozenset()


@dataclass
class CFG:
    blocks: list[BasicBlock]
    entry: int
    exit: int
    loops: list[CFGLoop]       # source pre-order (matches loops.py loop_ids)
    # Every action with its block id, in the order the builder appended
    # them: statement order, with a for loop's condition before its body
    # and its step after, and a do-while's condition before its body.
    # (Block ids follow another order: a for loop's step block is created
    # before the blocks of its body.)
    order: list[tuple[int, Action]]

    def rpo(self) -> list[int]:
        """Reverse postorder over reachable blocks, then any unreachable
        (dead-code) blocks in id order so their actions still get visited."""
        seen: set[int] = set()
        post: list[int] = []

        def dfs(b: int) -> None:
            seen.add(b)
            for s in self.blocks[b].succs:
                if s not in seen:
                    dfs(s)
            post.append(b)

        dfs(self.entry)
        order = list(reversed(post))
        order.extend(b.id for b in self.blocks if b.id not in seen)
        return order


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.loops: list[CFGLoop] = []
        self.order: list[tuple[int, Action]] = []
        self.exit_block = None  # set by build_cfg

    def new_block(self) -> BasicBlock:
        b = BasicBlock(id=len(self.blocks))
        self.blocks.append(b)
        return b

    def emit(self, b: BasicBlock, kind: str, node) -> None:
        action = Action(kind, node)
        b.actions.append(action)
        self.order.append((b.id, action))

    def edge(self, a: BasicBlock, b: BasicBlock) -> None:
        a.succs.append(b.id)
        b.preds.append(a.id)

    # -- statement lowering ------------------------------------------------
    def lower(self, stmt: Stmt, cur: BasicBlock,
              brk: BasicBlock | None, cont: BasicBlock | None):
        """Lower ``stmt`` starting in ``cur``; return the fallthrough block,
        or None when control never falls through (return/break/continue)."""
        if isinstance(stmt, Block):
            for s in stmt.statements:
                if cur is None:
                    cur = self.new_block()  # dead code: pred-less block
                cur = self.lower(s, cur, brk, cont)
            return cur
        if isinstance(stmt, DeclStmt):
            self.emit(cur, DECL, stmt)
            return cur
        if isinstance(stmt, ExprStmt):
            self.emit(cur, EVAL, stmt.expr)
            return cur
        if isinstance(stmt, SyncthreadsStmt):
            self.emit(cur, SYNC, stmt)
            return cur
        if isinstance(stmt, IfStmt):
            return self._lower_if(stmt, cur, brk, cont)
        if isinstance(stmt, ForStmt):
            return self._lower_for(stmt, cur, brk, cont)
        if isinstance(stmt, WhileStmt):
            return self._lower_while(stmt, cur, brk, cont)
        if isinstance(stmt, DoWhileStmt):
            return self._lower_dowhile(stmt, cur, brk, cont)
        if isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self.emit(cur, EVAL, stmt.value)
            self.edge(cur, self.exit_block)
            return None
        if isinstance(stmt, BreakStmt):
            if brk is not None:
                self.edge(cur, brk)
            return None
        if isinstance(stmt, ContinueStmt):
            if cont is not None:
                self.edge(cur, cont)
            return None
        if isinstance(stmt, EmptyStmt):
            return cur
        return cur  # unknown statement kinds: no control effect

    def _lower_if(self, stmt: IfStmt, cur, brk, cont):
        self.emit(cur, EVAL, stmt.cond)
        then_b = self.new_block()
        self.edge(cur, then_b)
        t_end = self.lower(stmt.then, then_b, brk, cont)
        e_end = None
        if stmt.otherwise is not None:
            else_b = self.new_block()
            self.edge(cur, else_b)
            e_end = self.lower(stmt.otherwise, else_b, brk, cont)
        join = self.new_block()
        if stmt.otherwise is None:
            self.edge(cur, join)          # cond-false fallthrough
        for end in (t_end, e_end):
            if end is not None:
                self.edge(end, join)
        return join

    def _lower_for(self, stmt: ForStmt, cur, brk, cont):
        if stmt.init is not None:
            cur = self.lower(stmt.init, cur, brk, cont)
        preheader = cur
        mark = len(self.blocks)
        header = self.new_block()
        self.edge(preheader, header)
        if stmt.cond is not None:
            self.emit(header, EVAL, stmt.cond)
        exit_b = self.new_block()
        self.edge(header, exit_b)
        loop = CFGLoop(stmt, "for", preheader.id, header.id, exit_b.id)
        slot = len(self.loops)
        self.loops.append(loop)
        body_b = self.new_block()
        self.edge(header, body_b)
        step_b = self.new_block()
        b_end = self.lower(stmt.body, body_b, brk=exit_b, cont=step_b)
        if b_end is not None:
            self.edge(b_end, step_b)
        if stmt.step is not None:
            self.emit(step_b, EVAL, stmt.step)
        self.edge(step_b, header)
        loop.blocks = frozenset(range(mark, len(self.blocks))) - {exit_b.id}
        self.loops[slot] = loop
        return exit_b

    def _lower_while(self, stmt: WhileStmt, cur, brk, cont):
        preheader = cur
        mark = len(self.blocks)
        header = self.new_block()
        self.edge(preheader, header)
        self.emit(header, EVAL, stmt.cond)
        exit_b = self.new_block()
        self.edge(header, exit_b)
        loop = CFGLoop(stmt, "while", preheader.id, header.id, exit_b.id)
        slot = len(self.loops)
        self.loops.append(loop)
        body_b = self.new_block()
        self.edge(header, body_b)
        b_end = self.lower(stmt.body, body_b, brk=exit_b, cont=header)
        if b_end is not None:
            self.edge(b_end, header)
        loop.blocks = frozenset(range(mark, len(self.blocks))) - {exit_b.id}
        self.loops[slot] = loop
        return exit_b

    def _lower_dowhile(self, stmt: DoWhileStmt, cur, brk, cont):
        preheader = cur
        mark = len(self.blocks)
        header = self.new_block()          # body entry = back-edge target
        self.edge(preheader, header)
        exit_b = self.new_block()
        cond_b = self.new_block()
        self.emit(cond_b, EVAL, stmt.cond)
        loop = CFGLoop(stmt, "dowhile", preheader.id, header.id, exit_b.id)
        slot = len(self.loops)
        self.loops.append(loop)
        b_end = self.lower(stmt.body, header, brk=exit_b, cont=cond_b)
        if b_end is not None:
            self.edge(b_end, cond_b)
        self.edge(cond_b, header)
        self.edge(cond_b, exit_b)
        loop.blocks = frozenset(range(mark, len(self.blocks))) - {exit_b.id}
        self.loops[slot] = loop
        return exit_b


def build_cfg(body: Block) -> CFG:
    """Lower a kernel body into a :class:`CFG`."""
    b = _Builder()
    entry = b.new_block()
    b.exit_block = b.new_block()
    end = b.lower(body, entry, brk=None, cont=None)
    if end is not None:
        b.edge(end, b.exit_block)
    return CFG(blocks=b.blocks, entry=entry.id, exit=b.exit_block.id,
               loops=b.loops, order=b.order)
