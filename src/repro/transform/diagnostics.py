"""Structured diagnostics for the resilient CATT compilation driver.

CATT's contract is that it must never make a kernel *wrong*, and §4.2 already
bakes graceful degradation into the design (the CORR case: when even minimum
TLP cannot fit the L1D, the loop is left untouched).  The resilient driver
extends that contract to *failures*: any stage that cannot complete records a
:class:`Diagnostic` and falls back to the untransformed kernel instead of
aborting the translation unit.

Error-code catalogue (see docs/ROBUSTNESS.md):

=========================  ========  =====================================
code                       severity  meaning
=========================  ========  =====================================
CATT-E-FRONTEND            error     kernel missing / outside the CUDA subset
CATT-E-ANALYSIS            error     static analysis crashed; kernel untouched
CATT-E-TRANSFORM           error     a rewrite failed; loop/kernel untouched
CATT-E-SIM                 error     simulation of an (app, scheme) cell failed
CATT-E-DIVERGENT-BARRIER   error     __syncthreads() under a thread-dependent
                                     guard or bound (UB on hardware)
CATT-E-PROVED-RACE         error     barrier-interval analysis proved a
                                     cross-thread shared-memory race
CATT-W-RACE-UNKNOWN        warning   a shared (array, interval) pair could not
                                     be classified safe or racy
CATT-W-REVERTED            warning   validation gate reverted a transform
CATT-W-STATIC-PROOF        warning   static safety proof crashed; the
                                     differential gate decides instead
CATT-W-IRREGULAR-INDEX     warning   data-dependent index; conservative
                                     C_tid = 1 assumed (§4.2)
CATT-W-UNCOALESCED         warning   fully diverged reference (REQ_warp = 32)
CATT-I-SKIP-LOOP           info      loop skipped (restructured by a prior pass)
CATT-I-VALIDATE-SKIP       info      validation inconclusive; transform kept
CATT-I-STATIC-SAFE         info      transform statically proven safe; the
                                     differential gate was skipped
=========================  ========  =====================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"

# Stages, in pipeline order.  "validate" is a driver-internal stage; the
# four fault-injection boundaries are frontend/analysis/transform/sim
# (:mod:`repro.testing.faults`).
STAGES = ("frontend", "analysis", "transform", "validate", "sim")

E_FRONTEND = "CATT-E-FRONTEND"
E_ANALYSIS = "CATT-E-ANALYSIS"
E_TRANSFORM = "CATT-E-TRANSFORM"
E_SIM = "CATT-E-SIM"
E_DIVERGENT_BARRIER = "CATT-E-DIVERGENT-BARRIER"
E_PROVED_RACE = "CATT-E-PROVED-RACE"
W_RACE_UNKNOWN = "CATT-W-RACE-UNKNOWN"
W_REVERTED = "CATT-W-REVERTED"
W_STATIC_PROOF = "CATT-W-STATIC-PROOF"
W_IRREGULAR_INDEX = "CATT-W-IRREGULAR-INDEX"
W_UNCOALESCED = "CATT-W-UNCOALESCED"
I_SKIP_LOOP = "CATT-I-SKIP-LOOP"
I_VALIDATE_SKIP = "CATT-I-VALIDATE-SKIP"
I_STATIC_SAFE = "CATT-I-STATIC-SAFE"


@dataclass(frozen=True)
class Diagnostic:
    """One structured degradation record."""

    code: str                       # CATT-{E,W,I}-* from the catalogue above
    stage: str                      # member of STAGES
    message: str
    kernel: str | None = None
    loop_id: int | None = None
    severity: str = SEV_ERROR
    elapsed_seconds: float = 0.0    # time spent before the stage gave up
    exception: str | None = None    # repr of the underlying exception, if any

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "Diagnostic":
        fields = ("code", "stage", "message", "kernel", "loop_id", "severity",
                  "elapsed_seconds", "exception")
        return cls(**{k: raw[k] for k in fields if k in raw})

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = self.kernel or "<unit>"
        if self.loop_id is not None:
            where += f":loop{self.loop_id}"
        return f"[{self.code}] {where}: {self.message}"


@dataclass
class DiagnosticLog:
    """An append-only diagnostic collection with severity filters."""

    records: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> Diagnostic:
        self.records.append(diag)
        return diag

    def emit(self, code: str, stage: str, message: str, *,
             kernel: str | None = None, loop_id: int | None = None,
             severity: str | None = None, elapsed: float = 0.0,
             exc: BaseException | None = None) -> Diagnostic:
        if severity is None:
            severity = {"E": SEV_ERROR, "W": SEV_WARNING}.get(
                code.split("-")[1], SEV_INFO)
        return self.add(Diagnostic(
            code=code, stage=stage, message=message, kernel=kernel,
            loop_id=loop_id, severity=severity, elapsed_seconds=elapsed,
            exception=repr(exc) if exc is not None else None,
        ))

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.records if d.severity == SEV_ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.records if d.severity == SEV_WARNING]

    def for_kernel(self, kernel: str) -> list[Diagnostic]:
        return [d for d in self.records if d.kernel == kernel]
