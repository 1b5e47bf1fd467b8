"""Chaos-determinism sweep — the CI job ``python -m repro.testing.chaos``.

End-to-end check of the sweep supervisor's recovery contract: no matter
what process-level faults a sweep survives — worker crashes, hung cells
killed by deadline, in-worker exceptions, a SIGKILL'd or SIGINT'd run
followed by a plain rerun — the resulting on-disk cache must be
**byte-identical** to an uninterrupted sequential run, and the signed run
manifest (which covers the cache digest) must match.  Exit status 0 means
every phase converged; 1 names the phase that diverged.

Phases:

1. **baseline** — clean ``--jobs 1`` sweep; records the canonical cache
   digest everything else is compared against.
2. **chaos** — parallel sweep under an armed
   :class:`~repro.testing.faults.ChaosPlan`: one cell's worker crashes
   (``os._exit``) twice, one cell raises, one cell hangs until the
   supervisor's deadline kills it.  All must be retried to clean results.
3. **sigkill + rerun** — a child sweep process is SIGKILL'd mid-sweep
   (no cleanup of any kind runs) once it has committed two cells; a plain
   rerun serves those from the store and computes the rest.
4. **sigint + rerun** — a second child is SIGINT'd after two committed
   cells; it must exit 130, leaving no orphaned workers; a plain parallel
   rerun then completes.

Replay any failure locally with the same command — the chaos plan is
fully deterministic (faults key on cell + attempt index, not timing).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ..experiments.common import ResultCache
from ..experiments.sweep import SweepPolicy, format_sweep_health, run_sweep
from ..obs.manifest import build_manifest
from .faults import ChaosPlan, WorkerFault

#: The cell subset every phase sweeps — small enough for CI, wide enough to
#: exercise baseline and CATT schemes across apps.
CHAOS_APPS = ("ATAX", "MVT", "GSMV")
CHAOS_SCHEMES = ("baseline", "catt")


def chaos_cells(scale: str = "test") -> list[tuple[str, str, str, str]]:
    return [(app, scheme, "max", scale)
            for app in CHAOS_APPS for scheme in CHAOS_SCHEMES]


def _signature(scale: str, digest: str) -> str:
    """The deterministic manifest signature for one sweep outcome."""
    return build_manifest(
        command=f"chaos-sweep --scale {scale}",
        config={"cells": chaos_cells(scale), "cache_sha256": digest},
    ).signature


def _wait_for_commits(cache_dir: Path, cells: list, min_cells: int,
                      timeout: float) -> bool:
    """Block until the child has committed ``min_cells`` of ``cells``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        cache = ResultCache(cache_dir)   # fresh: sees the child's puts
        done = sum(cache.get(ResultCache.key(*c)) is not None for c in cells)
        if done >= min_cells:
            return True
        time.sleep(0.05)
    return False


def _spawn_child(cache_dir: Path, scale: str) -> subprocess.Popen:
    """A fresh process running this module's --child sweep loop."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.testing.chaos",
         "--child", str(cache_dir), "--scale", scale],
        env=env,
        start_new_session=True,   # signals target the child, never this CI job
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _child_sweep(cache_dir: str, scale: str) -> int:
    """The sweep loop the kill phases run in a subprocess."""
    try:
        run_sweep(chaos_cells(scale), jobs=1, cache=ResultCache(cache_dir))
    except KeyboardInterrupt:
        return 130
    return 0


def run_chaos(scale: str = "test", jobs: int = 3,
              verbose: bool = True) -> int:
    """Return the number of phases that diverged from baseline (0 = pass)."""

    def log(msg: str) -> None:
        if verbose:
            print(msg)

    failures = 0
    with tempfile.TemporaryDirectory(prefix="catt-chaos-") as tmp:
        root = Path(tmp)

        # -- phase 1: clean sequential baseline ------------------------------
        cells = chaos_cells(scale)
        report = run_sweep(cells, jobs=1, cache=ResultCache(root / "baseline"))
        baseline = ResultCache(root / "baseline").digest()
        baseline_sig = _signature(scale, baseline)
        log(f"[baseline ] {format_sweep_health(report)}")
        log(f"[baseline ] cache sha256 {baseline[:16]}…")

        def check(label: str, cache_dir: Path) -> None:
            nonlocal failures
            digest = ResultCache(cache_dir).digest()
            if digest != baseline or _signature(scale, digest) != baseline_sig:
                failures += 1
                log(f"[{label:9s}] FAIL: cache diverged from baseline "
                    f"({digest[:16]}… != {baseline[:16]}…)")
            else:
                log(f"[{label:9s}] cache + manifest signature match baseline")

        # -- phase 2: crash/hang/fail chaos, parallel ------------------------
        first, second, third = cells[0], cells[1], cells[2]
        plan = ChaosPlan(faults=(
            WorkerFault(kind="crash", match="|".join(first), attempts=2),
            WorkerFault(kind="fail", match="|".join(second), attempts=1),
            WorkerFault(kind="hang", match="|".join(third), attempts=1,
                        hang_seconds=300.0),
        ))
        report = run_sweep(
            cells, jobs=jobs, cache=ResultCache(root / "chaos"),
            policy=SweepPolicy(cell_timeout=10.0, retries=3, backoff=0.01,
                               poll=0.02),
            chaos=plan)
        log(f"[chaos    ] {format_sweep_health(report)}")
        if report.crashes < 2 or report.timeouts < 1 or report.quarantined:
            failures += 1
            log("[chaos    ] FAIL: expected >=2 crashes, >=1 timeout, "
                "0 quarantined")
        check("chaos", root / "chaos")

        # -- phases 3 and 4: kill mid-sweep, then a plain rerun --------------
        for label, sig, rerun_jobs in (("sigkill", signal.SIGKILL, 1),
                                       ("sigint", signal.SIGINT, jobs)):
            cache_dir = root / label
            child = _spawn_child(cache_dir, scale)
            if not _wait_for_commits(cache_dir, cells, min_cells=2,
                                     timeout=120.0):
                failures += 1
                log(f"[{label:9s}] FAIL: child never committed 2 cells")
            child.send_signal(sig)
            code = child.wait()
            if sig == signal.SIGINT and code != 130:
                failures += 1
                log(f"[{label:9s}] FAIL: child exited {code}, expected 130")
            report = run_sweep(cells, jobs=rerun_jobs,
                               cache=ResultCache(cache_dir))
            log(f"[{label:9s}] {format_sweep_health(report)}")
            if report.cached < 2:
                failures += 1
                log(f"[{label:9s}] FAIL: rerun found {report.cached} "
                    f"committed cells, expected >= 2")
            check(label, cache_dir)

    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="CATT sweep-supervisor chaos determinism check")
    parser.add_argument("--scale", default="test", choices=["test", "bench"])
    parser.add_argument("--jobs", type=int, default=3)
    parser.add_argument("--child", metavar="CACHE_DIR", default=None,
                        help=argparse.SUPPRESS)   # internal: kill-phase child
    args = parser.parse_args(argv)
    if args.child:
        return _child_sweep(args.child, args.scale)
    failures = run_chaos(args.scale, args.jobs)
    if failures:
        print(f"FAIL: {failures} chaos phase(s) diverged")
        return 1
    print("OK: every chaos phase converged to the baseline cache bytes")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
