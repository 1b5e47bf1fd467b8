"""Shared fixtures for the experiment benchmarks.

Scale comes from ``REPRO_SCALE`` (default ``bench``); set ``REPRO_SCALE=test``
for a fast smoke pass.  Results are cached in the sharded store under
``.bench_cache/`` in the working directory, so figures sharing
sweeps — Fig. 7/9/Table 3 — simulate each configuration once.  Formatted tables are written to
``.bench_out/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_SCALE", "bench")


@pytest.fixture(scope="session")
def report_dir() -> Path:
    out = Path(os.environ.get("REPRO_REPORT_DIR", ".bench_out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


@pytest.fixture(scope="session")
def emit_report(report_dir):
    def _emit(name: str, text: str) -> None:
        (report_dir / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """pytest-benchmark wrapper for macro 'benchmarks': these regenerate a
    paper table/figure, so one round is the meaningful unit of work."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
