"""§5.1.4 — static-analysis overhead.

The paper: "Our static analysis has an algorithm that is linear to the
length of the source code, and the analysis for most applications is
completed within 1-2 seconds."  We time ``catt_compile`` per application and
report seconds alongside source length.  Each timed compile starts from an
empty analysis memo, so it measures the analysis, not a memo hit left by an
earlier sweep of the same kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..analysis.kernel_info import analysis_memo
from ..sim.arch import TITAN_V_SIM
from ..transform import catt_compile
from ..workloads import WORKLOADS, get_workload


@dataclass
class OverheadRow:
    app: str
    source_lines: int
    kernels: int
    seconds: float


def build_overhead(apps: list[str] | None = None,
                   scale: str = "bench") -> list[OverheadRow]:
    rows = []
    for app in apps or list(WORKLOADS):
        wl = get_workload(app, scale)
        src = wl.source()
        unit = wl.unit()
        launches = dict(wl.launch_configs())
        analysis_memo.clear()
        t0 = time.perf_counter()
        catt_compile(unit, launches, TITAN_V_SIM)
        dt = time.perf_counter() - t0
        rows.append(OverheadRow(
            app=app,
            source_lines=len(src.strip().splitlines()),
            kernels=len(launches),
            seconds=round(dt, 5),
        ))
    return rows


def format_overhead(rows: list[OverheadRow]) -> str:
    lines = [
        "§5.1.4 — CATT compile-time overhead",
        f"{'App':6s} {'lines':>6s} {'kernels':>8s} {'seconds':>9s}",
        "-" * 34,
    ]
    for r in rows:
        lines.append(f"{r.app:6s} {r.source_lines:6d} {r.kernels:8d} {r.seconds:9.5f}")
    total = sum(r.seconds for r in rows)
    lines.append("-" * 34)
    lines.append(f"total: {total:.4f}s for {len(rows)} applications")
    return "\n".join(lines)
