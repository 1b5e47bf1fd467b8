"""Deterministic fault injection at the CATT pipeline boundaries.

The resilient driver promises that a failure anywhere in the stack degrades
to a diagnostic instead of a crash.  That promise is only testable if every
failure site can actually be made to fail on demand, so the pipeline exposes
six injection boundaries:

``frontend``
    kernel source parsing (``Workload.unit``) and kernel lookup;
``analysis``
    the per-kernel static analysis in :func:`repro.transform.pipeline.
    catt_compile`;
``transform``
    each per-loop rewrite (site ``"kernel:loopN"``) and the TB-level pass
    (site ``"kernel:tb"``);
``sim``
    workload execution (:func:`repro.workloads.base.run_workload`);
``cache``
    result-store shard writes (:mod:`repro.experiments.store`) — arm with
    ``exc=OSError`` for a disk-full failure, or ``mode="truncate"`` for a
    partial (torn) write that leaves a corrupt shard behind;
``worker``
    sweep worker task pickup (process level; see :class:`ChaosPlan` below).

Usage — targeted::

    with inject_faults(FaultSpec(stage="analysis", match="atax_kernel1")):
        comp = catt_compile(unit, launches, spec)   # degrades, never raises

Usage — seeded random sweep (the CI smoke job)::

    with inject_faults(seed=1234, rate=0.3):
        run_app("GSMV", "catt", scale="test", cache=cache)

Randomness is derived from ``blake2b(seed, stage, site, hit_index)``, so a
given seed reproduces the exact same fault pattern on every platform and
every run — no global RNG state is consumed.

Process-level chaos
-------------------

In-process injectors cannot model a worker that *dies* or *hangs*: those
failures live at the process boundary, where the sweep supervisor has to
detect and react to them.  :class:`WorkerFault` / :class:`ChaosPlan` describe
them picklably so :func:`repro.experiments.sweep.run_sweep` can ship a plan
to every worker:

    plan = ChaosPlan((
        WorkerFault("crash", match="MVT"),          # os._exit on 1st attempt
        WorkerFault("hang", match="GSMV"),          # sleep past the deadline
        WorkerFault("fail", match="ATAX"),          # transient raise
    ))
    run_sweep(cells, jobs=2, chaos=plan, policy=SweepPolicy(cell_timeout=1))

Faults fire while the *attempt index* is below ``attempts`` (default 1: only
the first try), so a retried cell deterministically succeeds no matter which
respawned worker picks it up — chaos sweeps stay bit-reproducible.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

BOUNDARIES = ("frontend", "analysis", "transform", "sim", "cache", "worker")

MODES = ("raise", "truncate")


class InjectedFault(RuntimeError):
    """The exception raised by an armed fault (unless a custom one is set)."""

    def __init__(self, stage: str, site: str):
        self.stage = stage
        self.site = site
        super().__init__(f"injected fault at {stage} boundary (site {site!r})")


@dataclass
class FaultSpec:
    """One deliberate failure: fire at ``stage`` whenever ``match`` is a
    substring of the site name (``None`` matches every site).

    ``mode="raise"`` (default) raises at :func:`check_fault` sites;
    ``mode="truncate"`` instead mangles payloads passed through
    :func:`mangle_write` — a torn write rather than an exception.
    """

    stage: str
    match: str | None = None
    exc: Exception | type[Exception] | None = None   # default: InjectedFault
    count: int | None = None                         # fire at most N times
    mode: str = "raise"

    def __post_init__(self) -> None:
        if self.stage not in BOUNDARIES:
            raise ValueError(
                f"unknown fault boundary {self.stage!r}; options: {BOUNDARIES}")
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; options: {MODES}")

    def matches(self, stage: str, site: str) -> bool:
        if stage != self.stage:
            return False
        return self.match is None or self.match in site

    def make_exc(self, stage: str, site: str) -> Exception:
        if self.exc is None:
            return InjectedFault(stage, site)
        if isinstance(self.exc, type):
            return self.exc(f"injected {stage} fault at {site!r}")
        return self.exc


class FaultInjector:
    """Holds armed :class:`FaultSpec` rules and/or a seeded random firing
    policy, and records every fault it raised in ``fired``."""

    def __init__(self, specs: tuple[FaultSpec, ...] = (),
                 seed: int | None = None, rate: float = 0.0):
        self.specs = list(specs)
        self.seed = seed
        self.rate = rate
        self.fired: list[tuple[str, str]] = []
        self._hits: dict[int, int] = {}    # spec index -> times fired
        self._visits: dict[tuple[str, str], int] = {}

    def _spend(self, i: int, spec: FaultSpec) -> bool:
        """True when spec ``i`` still has firing budget (and charge it)."""
        if spec.count is not None and self._hits.get(i, 0) >= spec.count:
            return False
        self._hits[i] = self._hits.get(i, 0) + 1
        return True

    def check(self, stage: str, site: str = "") -> None:
        for i, spec in enumerate(self.specs):
            if spec.mode != "raise" or not spec.matches(stage, site):
                continue
            if not self._spend(i, spec):
                continue
            self.fired.append((stage, site))
            raise spec.make_exc(stage, site)
        if self.seed is not None and self.rate > 0.0:
            visit = self._visits.get((stage, site), 0)
            self._visits[(stage, site)] = visit + 1
            if self._roll(stage, site, visit) < self.rate:
                self.fired.append((stage, site))
                raise InjectedFault(stage, site)

    def mangle(self, stage: str, site: str, payload: bytes) -> bytes:
        """Apply an armed ``mode="truncate"`` fault: a torn write returns
        only the first half of the payload."""
        for i, spec in enumerate(self.specs):
            if spec.mode != "truncate" or not spec.matches(stage, site):
                continue
            if not self._spend(i, spec):
                continue
            self.fired.append((stage, site))
            return payload[: len(payload) // 2]
        return payload

    def _roll(self, stage: str, site: str, visit: int) -> float:
        key = f"{self.seed}:{stage}:{site}:{visit}".encode()
        digest = hashlib.blake2b(key, digest_size=4).digest()
        return int.from_bytes(digest, "big") / 2**32


_ACTIVE: FaultInjector | None = None


def check_fault(stage: str, site: str = "") -> None:
    """Production-side hook: raise if a fault is armed for (stage, site).

    A no-op (one global ``is None`` test) when no injector is installed.
    """
    if _ACTIVE is not None:
        _ACTIVE.check(stage, site)


def mangle_write(stage: str, site: str, payload: bytes) -> bytes:
    """Production-side hook: pass a payload through any armed torn-write
    fault.  Returns the payload unchanged when no injector is installed."""
    if _ACTIVE is None:
        return payload
    return _ACTIVE.mangle(stage, site, payload)


@contextmanager
def inject_faults(*specs: FaultSpec, seed: int | None = None,
                  rate: float = 0.0):
    """Install a :class:`FaultInjector` for the duration of the block.

    Yields the injector so tests can assert on ``injector.fired``.  Nesting
    restores the previous injector on exit.
    """
    global _ACTIVE
    injector = FaultInjector(tuple(specs), seed=seed, rate=rate)
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


# ---------------------------------------------------------------------------
# Process-level chaos (sweep workers)
# ---------------------------------------------------------------------------

WORKER_FAULT_KINDS = ("crash", "hang", "fail")


@dataclass(frozen=True)
class WorkerFault:
    """One process-level failure, fired by a sweep worker at task pickup.

    ``kind``:

    * ``"crash"`` — the worker dies on the spot (``os._exit``), like an OOM
      kill; the supervisor must detect the dead process and respawn;
    * ``"hang"`` — the worker sleeps ``hang_seconds``, like a livelocked
      cell; only a per-cell deadline can recover it;
    * ``"fail"`` — the task raises :class:`InjectedFault` (a transient
      per-cell fault the supervisor should retry).

    ``match`` is a substring of the cell key (``"app|scheme|spec|scale"``);
    ``None`` matches every cell.  The fault fires while the cell's *attempt
    index* is below ``attempts``, which makes chaos deterministic across
    retries and respawned workers: state lives in the task, not the process.
    """

    kind: str
    match: str | None = None
    attempts: int = 1
    exit_code: int = 137
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(f"unknown worker fault kind {self.kind!r}; "
                             f"options: {WORKER_FAULT_KINDS}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


@dataclass(frozen=True)
class ChaosPlan:
    """A picklable bundle of :class:`WorkerFault` rules, shipped to every
    sweep worker through the supervisor's spawn arguments."""

    faults: tuple[WorkerFault, ...] = ()

    def check(self, cell_key: str, attempt: int) -> None:
        for f in self.faults:
            if f.match is not None and f.match not in cell_key:
                continue
            if attempt >= f.attempts:
                continue
            if f.kind == "crash":
                os._exit(f.exit_code)
            elif f.kind == "hang":
                time.sleep(f.hang_seconds)
            else:
                raise InjectedFault("worker", cell_key)


_WORKER_CHAOS: ChaosPlan | None = None


def set_worker_chaos(plan: ChaosPlan | None) -> None:
    """Arm (or clear) the chaos plan for this worker process."""
    global _WORKER_CHAOS
    _WORKER_CHAOS = plan


def check_worker_fault(cell_key: str, attempt: int) -> None:
    """Worker-side hook: crash/hang/fail if the armed plan says so."""
    if _WORKER_CHAOS is not None:
        _WORKER_CHAOS.check(cell_key, attempt)
