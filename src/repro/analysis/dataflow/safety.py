"""Static transform-safety verifier and lint findings (``catt lint``).

CATT's warp-level transform (Fig. 4) serializes the warps of a TB into
guarded groups.  That is semantics-preserving exactly when every thread of
the TB reaches the barriers the split inserts, and no two warps of the TB
communicate through memory inside the split region.  The differential gate
(:mod:`repro.transform.validate`) checks this *dynamically* on one input;
this module proves it *statically* from the dataflow fixpoint, in two
halves:

* **Semantic legality** (:func:`verify_warp_split`) — per split loop; the
  race analysis (:mod:`repro.analysis.dataflow.races`) answers checks 2-4:

  1. the loop contains no ``__syncthreads()``;
  2. all threads of a TB reach the loop's position together
     (:class:`~repro.analysis.dataflow.races.Divergence`: no
     thread-dependent guard, trip count or ``break``/``continue`` on the
     way; a guard is also convergent when range analysis proves it true for
     every launched thread), so every warp reaches the split's barriers;
  3. every (array, barrier interval) the loop accesses is PROVED-SAFE;
  4. the loop holds no reference the analysis cannot place, and its
     ``for`` init references no memory.

  Checks 3 and 4 are :func:`~repro.analysis.dataflow.races.loop_conflicts`,
  the proof the tape asks before it fuses a split's copies.

* **Structural translation validation** (:func:`split_shape_matches`) — the
  emitted kernel must be the original with each split loop replaced by the
  exact Fig. 4 pattern (guards partitioning ``[0, warps_per_tb)``, original
  loop object reused, barrier after every group) and at most the Fig. 5
  dummy-shared prologue prepended.  The matcher is independent of the
  transform implementation, so a buggy rewrite fails the match and falls
  back to the dynamic gate.

A transform that passes both halves is reported
``CATT-I-STATIC-SAFE`` and skips the differential gate's functional runs
entirely (:mod:`repro.transform.pipeline`).

The same machinery powers the ``catt lint`` CLI findings: irregular
indexes, fully diverged references (``REQ_warp = 32``), divergent barriers
(the classifier of check 2) and shared-memory race verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...frontend.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    IntLit,
    Stmt,
    SyncthreadsStmt,
    WhileStmt,
    statements_in,
)
from . import races


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of the static safety proof for one kernel's transform."""

    safe: bool
    reasons: tuple[str, ...] = ()   # why the proof failed (empty when safe)

    @staticmethod
    def unsafe(*reasons: str) -> "SafetyVerdict":
        return SafetyVerdict(False, tuple(reasons))


@dataclass(frozen=True)
class LintFinding:
    """One ``catt lint`` finding with provenance."""

    code: str                  # CATT-{E,W}-* diagnostic code
    kernel: str
    message: str
    array: str | None = None
    loop_id: int | None = None
    line: int | None = None    # 1-based source line, when known
    # "error" | "warning" | "info"; derived from the code when not given,
    # so consumers never have to re-parse the code string.
    severity: str = ""

    def __post_init__(self) -> None:
        if not self.severity:
            object.__setattr__(self, "severity", {
                "E": "error", "W": "warning"}.get(
                    self.code.split("-")[1], "info"))

    def __str__(self) -> str:
        where = self.kernel
        if self.line is not None:
            where += f":{self.line}"
        if self.loop_id is not None:
            where += f" loop#{self.loop_id}"
        return f"[{self.code}] {where}: {self.message}"


# ---------------------------------------------------------------------------
# Semantic legality of one warp split
# ---------------------------------------------------------------------------


def verify_warp_split(analysis, la) -> SafetyVerdict:
    """Prove that splitting loop ``la`` into warp groups preserves semantics.

    ``analysis`` is a :class:`~repro.analysis.kernel_info.KernelAnalysis`;
    ``la`` one of its :class:`LoopAnalysis` entries.  Checks 2-4 are the
    race analysis's answers (:mod:`repro.analysis.dataflow.races`); a
    failure there propagates, so the static proof fails loudly.
    """
    rec = la.record
    reasons: list[str] = []

    # 1. No barrier inside the region being serialized.
    if rec.contains_sync:
        reasons.append("loop contains __syncthreads()")

    # 2. Every thread of a TB reaches the barriers the split puts at the
    #    loop's position.
    why = races.Divergence(analysis).why(rec.stmt)
    if why is not None:
        reasons.append(f"the split's barriers would sit {why[0]}")

    # 3-4. No two threads of a TB communicate through the loop, so the
    #    warp groups may run it in any order.
    reasons.extend(races.loop_conflicts(analysis, rec.stmt))
    return SafetyVerdict(not reasons, tuple(reasons))


# ---------------------------------------------------------------------------
# Structural translation validation (Fig. 4 / Fig. 5 shape)
# ---------------------------------------------------------------------------


def _expected_guard(wid: Expr, lo: int, hi: int) -> Expr:
    return BinOp("&&", BinOp(">=", wid, IntLit(lo)),
                 BinOp("<", wid, IntLit(hi)))


def _match_pieces(orig: Stmt, pieces: tuple[Stmt, ...], n: int,
                  warps_per_tb: int, wid: Expr) -> bool:
    """``pieces`` must be the Fig. 4 expansion of ``orig`` for factor n."""
    if n <= 1 or warps_per_tb % n != 0 or len(pieces) != 2 * n:
        return False
    group = warps_per_tb // n
    for g in range(n):
        guard, sync = pieces[2 * g], pieces[2 * g + 1]
        if not isinstance(guard, IfStmt) or guard.otherwise is not None:
            return False
        if guard.cond != _expected_guard(wid, g * group, (g + 1) * group):
            return False
        body = guard.then
        if not (isinstance(body, Block) and len(body.statements) == 1
                and body.statements[0] is orig):
            return False
        if not isinstance(sync, SyncthreadsStmt):
            return False
    return True


def _match_stmt(orig: Stmt, trans: Stmt, splits: dict[int, int],
                warps_per_tb: int, wid: Expr) -> bool:
    if id(orig) in splits:
        # replace_stmt wraps the spliced pieces when the target was not a
        # direct Block member.
        return (isinstance(trans, Block)
                and _match_pieces(orig, trans.statements, splits[id(orig)],
                                  warps_per_tb, wid))
    if trans is orig:
        return True
    if isinstance(orig, Block) and isinstance(trans, Block):
        return _match_stmts(orig.statements, trans.statements, splits,
                            warps_per_tb, wid)
    if isinstance(orig, IfStmt) and isinstance(trans, IfStmt):
        if orig.cond != trans.cond:
            return False
        if (orig.otherwise is None) != (trans.otherwise is None):
            return False
        if not _match_stmt(orig.then, trans.then, splits, warps_per_tb, wid):
            return False
        return orig.otherwise is None or _match_stmt(
            orig.otherwise, trans.otherwise, splits, warps_per_tb, wid)
    if isinstance(orig, ForStmt) and isinstance(trans, ForStmt):
        return (orig.init == trans.init and orig.cond == trans.cond
                and orig.step == trans.step
                and _match_stmt(orig.body, trans.body, splits,
                                warps_per_tb, wid))
    if isinstance(orig, WhileStmt) and isinstance(trans, WhileStmt):
        return orig.cond == trans.cond and _match_stmt(
            orig.body, trans.body, splits, warps_per_tb, wid)
    if isinstance(orig, DoWhileStmt) and isinstance(trans, DoWhileStmt):
        return orig.cond == trans.cond and _match_stmt(
            orig.body, trans.body, splits, warps_per_tb, wid)
    return orig == trans


def _match_stmts(orig: tuple[Stmt, ...], trans: tuple[Stmt, ...],
                 splits: dict[int, int], warps_per_tb: int,
                 wid: Expr) -> bool:
    j = 0
    for o in orig:
        n = splits.get(id(o))
        if n is not None:
            if j + 2 * n > len(trans):
                return False
            if not _match_pieces(o, tuple(trans[j:j + 2 * n]), n,
                                 warps_per_tb, wid):
                return False
            j += 2 * n
            continue
        if j >= len(trans):
            return False
        if not _match_stmt(o, trans[j], splits, warps_per_tb, wid):
            return False
        j += 1
    return j == len(trans)


def _is_dummy_prologue(stmts: tuple[Stmt, ...]) -> bool:
    from ...transform.tb_throttle import DUMMY_NAME

    if len(stmts) < 2:
        return False
    decl, init = stmts[0], stmts[1]
    if not (isinstance(decl, DeclStmt) and decl.is_shared
            and len(decl.declarators) == 1
            and decl.declarators[0].name == DUMMY_NAME):
        return False
    if not (isinstance(init, ExprStmt) and isinstance(init.expr, Assign)
            and isinstance(init.expr.target, ArrayRef)
            and isinstance(init.expr.target.base, Ident)
            and init.expr.target.base.name == DUMMY_NAME):
        return False
    return True


def split_shape_matches(
    original: FunctionDef,
    transformed: FunctionDef,
    splits: dict[int, int],
    warps_per_tb: int,
    block_dim: tuple[int, int, int],
    expect_dummy: bool = False,
    warp_size: int = 32,
) -> bool:
    """Translation-validate the emitted kernel against the Fig. 4/5 shape.

    ``splits`` maps ``id(loop_stmt)`` (objects from ``original``) to the
    split factor.  Matching is structural and implementation-independent:
    every non-split statement must be the identical (shared) subtree or an
    equal spine rebuild, and every split loop must appear exactly as ``n``
    guarded copies of the *original loop object* with barriers between the
    groups, the guards partitioning ``[0, warps_per_tb)``.
    """
    from ...transform.utils import linear_warp_id_expr

    wid = linear_warp_id_expr(block_dim, warp_size)
    trans_stmts = transformed.body.statements
    if expect_dummy:
        if not _is_dummy_prologue(trans_stmts):
            return False
        trans_stmts = trans_stmts[2:]
    elif _is_dummy_prologue(trans_stmts):
        return False  # an unexpected prologue is not the claimed shape
    return _match_stmts(original.body.statements, trans_stmts, splits,
                        warps_per_tb, wid)


def verify_transform_static(analysis, record,
                            original: FunctionDef,
                            transformed: FunctionDef) -> SafetyVerdict:
    """Full static proof for one kernel's transform record.

    ``record`` is the pipeline's ``KernelTransform``: warp splits are proven
    semantically (per loop) and the emitted kernel is translation-validated
    structurally; the Fig. 5 dummy-shared array is dead weight by
    construction.  Reduction tiling restructures loop bodies and carries no
    static proof — its presence defers to the dynamic gate.
    """
    from ..loops import loop_statements

    if record.tiles:
        return SafetyVerdict.unsafe(
            "reduction tiling applied (no static proof)")
    reasons: list[str] = []
    splits: dict[int, int] = {}
    loops = loop_statements(original)
    for loop_id, n in record.warp_splits:
        splits[id(loops[loop_id])] = n
        verdict = verify_warp_split(analysis, analysis.loop(loop_id))
        for why in verdict.reasons:
            reasons.append(f"loop #{loop_id}: {why}")
    if not split_shape_matches(
        original, transformed, splits,
        analysis.occupancy.warps_per_tb, analysis.block_dim,
        expect_dummy=record.tb_plan is not None,
    ):
        reasons.append("emitted kernel does not match the Fig. 4/5 shape")
    return SafetyVerdict(not reasons, tuple(reasons))


# ---------------------------------------------------------------------------
# Lint findings (shared by `catt lint` and the analysis report)
# ---------------------------------------------------------------------------


def findings_for_analysis(analysis) -> list[LintFinding]:
    """Per-access and whole-kernel findings for one analyzed launch."""
    from ...transform.diagnostics import (
        E_DIVERGENT_BARRIER,
        W_IRREGULAR_INDEX,
        W_UNCOALESCED,
    )

    name = analysis.kernel.name
    out: list[LintFinding] = []
    seen: set[tuple] = set()
    for la in analysis.loops:
        for af in la.footprint.per_access:
            acc = af.locality.access
            if acc.loop_id != la.record.loop_id:
                continue  # report each access under its innermost loop only
            key = (acc.array, acc.key(), races.line_of(acc.loc))
            if key in seen:
                continue
            seen.add(key)
            if acc.index.irregular:
                out.append(LintFinding(
                    W_IRREGULAR_INDEX, name,
                    f"data-dependent index into {acc.array!r}; conservative "
                    f"C_tid=1 assumed",
                    array=acc.array, loop_id=la.record.loop_id,
                    line=races.line_of(acc.loc)))
            elif af.req_warp >= 32:
                out.append(LintFinding(
                    W_UNCOALESCED, name,
                    f"reference to {acc.array!r} is fully diverged "
                    f"(REQ_warp={af.req_warp})",
                    array=acc.array, loop_id=la.record.loop_id,
                    line=races.line_of(acc.loc)))
    out.extend(_barrier_findings(analysis, E_DIVERGENT_BARRIER))
    out.extend(_race_findings(analysis))
    return out


def _barrier_findings(analysis, code: str) -> list[LintFinding]:
    divergence = races.Divergence(analysis)
    out: list[LintFinding] = []
    for stmt in statements_in(analysis.kernel.body):
        if not isinstance(stmt, SyncthreadsStmt):
            continue
        why = divergence.why(stmt)
        if why is not None:
            out.append(LintFinding(
                code, analysis.kernel.name, f"__syncthreads() {why[0]}",
                loop_id=why[1], line=races.line_of(stmt.loc)))
    return out


def _race_findings(analysis) -> list[LintFinding]:
    """Shared-memory race verdicts from the barrier-interval MHP analysis
    (:mod:`repro.analysis.dataflow.races`): a ``PROVED-RACE`` region is an
    error, an ``UNKNOWN`` one a warning.  This replaces the old source-order
    epoch heuristic, whose single global counter separated accesses that a
    barrier inside a loop body actually leaves concurrent.  A crash of the
    analysis itself is a ``CATT-E-ANALYSIS`` finding naming the exception."""
    from ...transform.diagnostics import (
        E_ANALYSIS,
        E_PROVED_RACE,
        W_RACE_UNKNOWN,
    )
    if not analysis.kernel_loops.shared_arrays:
        return []
    try:
        report = races.analyze_races(analysis)
    except Exception as exc:
        return [LintFinding(E_ANALYSIS, analysis.kernel.name,
                            f"race analysis failed: {exc!r}")]
    out: list[LintFinding] = []
    for v in report.for_space("shared"):
        line = v.lines[0] if v.lines else None
        if v.verdict == races.PROVED_RACE:
            out.append(LintFinding(
                E_PROVED_RACE, analysis.kernel.name,
                f"__shared__ array {v.array!r} provably races in barrier "
                f"interval #{v.interval}: {v.reason}",
                array=v.array, line=line))
        elif v.verdict == races.UNKNOWN:
            out.append(LintFinding(
                W_RACE_UNKNOWN, analysis.kernel.name,
                f"__shared__ array {v.array!r} unclassified in barrier "
                f"interval #{v.interval}: {v.reason}",
                array=v.array, line=line))
    return out
