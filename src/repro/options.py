"""Simulation options: the single source of truth for engine/dedup/cache/jobs.

A run's configuration is one :class:`SimOptions`.  Code either passes it
explicitly (``run_sweep(..., options=...)``) or activates it process-wide
for a block via :func:`use_options` — which is what :class:`repro.api.
Session` and the ``catt`` CLI do.  With nothing active the simulator runs
under ``SimOptions()``; no environment variable changes that.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

ENGINES = ("compiled", "interp", "tape")


@dataclass(frozen=True)
class SimOptions:
    """Resolved simulation/experiment configuration.

    ``cache_dir`` semantics: ``None`` keeps the harness default (the
    sharded store under ``.bench_cache/`` in the working directory), ``""``
    means memory-only (no disk cache), and any other path is the root
    directory of a sharded result store.
    """

    # "tape" records every (TB, warp) slot of a launch in one vectorized
    # pass and falls back to "compiled" (then "interp") on constructs its
    # lowerer rejects.  ``dedup`` only affects the compiled engine.
    engine: str = "tape"
    dedup: bool = True
    cache_dir: str | None = None
    jobs: int = 1
    trace: bool = False
    metrics: bool = False
    # Co-simulated SMs sharing one L2 (the multi-SM model); 1 = the classic
    # single-SM simulation, bit-identical to the pre-multi-SM substrate.
    sms: int = 1
    # Shadow-memory race sanitizer: record per-word last accessors and report
    # conflicting same-barrier-epoch accesses from distinct threads of a TB.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.sms < 1:
            raise ValueError(f"sms must be >= 1, got {self.sms}")

    def replace(self, **changes) -> "SimOptions":
        return replace(self, **changes)

    #: Fields that change *simulation results* (not how they are computed or
    #: where they are stored).  Only these participate in :meth:`signature`;
    #: engine/dedup/jobs are deliberately excluded because CI asserts cache
    #: byte-identity across engines and job counts.
    IDENTITY_FIELDS = ("sms",)

    def signature(self) -> str:
        """Canonical configuration identity for result-cache keys.

        The empty string for the default configuration (so every key the
        pre-signature substrate wrote stays valid), and a stable
        ``field{value}`` suffix otherwise — e.g. ``SimOptions(sms=4)`` →
        ``"sms4"``.  Two options with equal signatures are interchangeable
        for result-identity purposes: same signature ⇒ same simulation
        outcome for any cell.
        """
        default = type(self)()
        parts = [f"{f}{getattr(self, f)}" for f in self.IDENTITY_FIELDS
                 if getattr(self, f) != getattr(default, f)]
        return ",".join(parts)

    def summary(self) -> dict:
        """Deterministic dict view (manifest / trace attributes)."""
        return {
            "engine": self.engine,
            "dedup": self.dedup,
            "cache_dir": self.cache_dir,
            "jobs": self.jobs,
            "trace": self.trace,
            "metrics": self.metrics,
            "sms": self.sms,
            "sanitize": self.sanitize,
        }


_DEFAULT = SimOptions()
_ACTIVE: SimOptions | None = None


def set_active_options(options: SimOptions | None) -> SimOptions | None:
    """Install ``options`` process-wide; returns the previous value."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = options
    return previous


@contextmanager
def use_options(options: SimOptions | None):
    """Scope ``options`` as the active configuration for a block."""
    previous = set_active_options(options)
    try:
        yield options
    finally:
        set_active_options(previous)


def current_options() -> SimOptions:
    """The active options, or ``SimOptions()`` when none are active."""
    return _ACTIVE if _ACTIVE is not None else _DEFAULT


def resolve_cache_path(default: str) -> str:
    """Cache location for :class:`~repro.experiments.common.ResultCache`:
    the current options' ``cache_dir``, else ``default``."""
    cache_dir = current_options().cache_dir
    return default if cache_dir is None else cache_dir
