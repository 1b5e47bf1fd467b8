"""``catt bench`` — record simulator throughput and sweep wall-clock.

Two measurements, both at a caller-chosen scale (CI uses ``--scale test``):

* **Engine throughput** — warp-instructions/second of the AST-walk
  interpreter vs the closure-compiled engine (with and without
  homogeneous-block dedup) over a fixed probe set of registry workloads.
* **Sweep wall-clock** — the full ``catt all`` pipeline (cell sweep plus
  every figure/table builder) against a cold, memory-only cache, i.e. the
  honest end-to-end number with no disk cache to hide behind.

Results are written to ``benchmarks/BENCH_sim.json`` (next to the committed
``BENCH_baseline.json``) so the perf trajectory is recorded per commit;
``check_regression`` compares a fresh payload against a committed baseline
(``benchmarks/BENCH_baseline.json``) and reports anything more than
``factor`` times slower.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..memo import clear_memos
from ..obs.trace import NULL_SPAN, Tracer, install as _install_tracer, span
from ..options import SimOptions, use_options
from ..workloads import get_workload
from ..workloads.base import run_workload
from .common import ResultCache
from .sweep import all_cells, run_sweep

# Seed repo reference: `catt all --scale test`, AST-walk interpreter, one
# process, cold cache.  The acceptance target for this PR is >= 3x off this.
SEED_SWEEP_SECONDS = 129.8

# Probe workloads for the throughput measurement: one dedup-eligible
# CS app, one irregular app (falls back to per-warp execution), one CI app.
PROBE_APPS = ("ATAX", "BFS", "BP")

#: (label, engine, dedup) rows measured by bench_engines.  Order matters:
#: the first row warms the parse cache, and every later row pays only its
#: own engine-specific warm-up (closure compilation, tape lowering), which
#: is the condition CI sees.
ENGINE_CONFIGS = (
    ("interp", "interp", False),
    ("compiled", "compiled", False),
    ("compiled+dedup", "compiled", True),
    ("tape", "tape", False),
)

#: CI gate: observability instrumentation, *disabled*, may cost at most
#: this percentage of a probe workload's wall clock.
MAX_OBS_OVERHEAD_PCT = 3.0


def _with_engine(engine: str, dedup: bool, fn):
    """Run ``fn`` under an explicit engine configuration.

    Replaced the old ``os.environ`` save/mutate/restore dance: options are
    scoped through :func:`repro.options.use_options`, so nothing leaks and
    nothing depends on fork-time environment inheritance.
    """
    with use_options(SimOptions(engine=engine, dedup=dedup)):
        return fn()


def bench_engines(scale: str = "test", apps: tuple[str, ...] = PROBE_APPS) -> dict:
    """Warp-instructions/sec per engine configuration over ``apps``.

    Each row also records per-app wall clock: the aggregate rate weights
    apps by their wall time, so a single slow probe app can dominate it —
    the breakdown keeps per-engine behaviour visible (the tape engine in
    particular is fastest on wide launches and overhead-bound on narrow
    long-loop kernels).
    """
    out: dict[str, dict] = {}
    for label, engine, dedup in ENGINE_CONFIGS:
        def probe() -> dict:
            # Time the lowering and the record too, not what an earlier
            # probe left in the process's memos.
            clear_memos()
            instructions = 0
            per_app: dict[str, float] = {}
            t0 = time.perf_counter()
            for app in apps:
                a0 = time.perf_counter()
                run = run_workload(get_workload(app, scale))
                per_app[app] = round(time.perf_counter() - a0, 3)
                instructions += sum(r.metrics.instructions for r in run.results)
            dt = time.perf_counter() - t0
            return {
                "seconds": round(dt, 3),
                "per_app_seconds": per_app,
                "warp_instructions": instructions,
                "warp_instructions_per_sec": round(instructions / dt) if dt else 0,
            }

        out[label] = _with_engine(engine, dedup, probe)
    interp_rate = out["interp"]["warp_instructions_per_sec"]
    compiled_rate = out["compiled"]["warp_instructions_per_sec"]
    for label, _engine, _dedup in ENGINE_CONFIGS:
        if label == "interp":
            continue
        rate = out[label]["warp_instructions_per_sec"]
        out[label]["speedup_vs_interp"] = (
            round(rate / interp_rate, 2) if interp_rate else 0.0
        )
        if label != "compiled":
            out[label]["speedup_vs_compiled"] = (
                round(rate / compiled_rate, 2) if compiled_rate else 0.0
            )
    return out


def bench_sweep(scale: str = "test", jobs: int = 1) -> dict:
    """Wall-clock of the full ``catt all`` pipeline, cold memory-only cache."""
    # Imported here so `catt bench` startup stays cheap.
    from .fig2 import build_fig2
    from .fig3 import build_fig3
    from .fig6 import build_fig6
    from .fig7 import build_fig7
    from .fig8 import build_fig8
    from .fig9 import build_fig9
    from .fig10 import build_fig10
    from .overhead import build_overhead
    from .table3 import build_table3

    cache = ResultCache("")
    t0 = time.perf_counter()
    report = run_sweep(all_cells(scale), jobs=jobs, cache=cache)
    build_table3(scale=scale, cache=cache)
    build_fig2(scale=scale, cache=cache)
    build_fig3()
    build_fig6(scale=scale, cache=cache)
    build_fig7(scale=scale, cache=cache)
    build_fig8(scale=scale, cache=cache)
    build_fig9(scale=scale, cache=cache)
    build_fig10(scale=scale, cache=cache)
    build_overhead(scale=scale)
    seconds = time.perf_counter() - t0
    payload = {
        "seconds": round(seconds, 2),
        "cells": report.cells,
        "computed": report.computed,
        "degraded": report.degraded,
        "jobs": jobs,
    }
    if scale == "test":
        payload["seed_baseline_seconds"] = SEED_SWEEP_SECONDS
        payload["speedup_vs_seed"] = (
            round(SEED_SWEEP_SECONDS / seconds, 2) if seconds else 0.0
        )
    return payload


def bench_obs_overhead(scale: str = "test", app: str = "ATAX",
                       calibration_calls: int = 200_000) -> dict:
    """Measure the *disabled* observability overhead on a probe workload.

    Three ingredients: (1) the cost of one disabled ``span()`` call,
    timed over ``calibration_calls`` iterations; (2) the number of span
    sites one probe workload actually hits, counted by temporarily
    installing an enabled probe tracer; (3) the workload's wall clock with
    observability disabled.  ``overhead_pct`` = sites x per-call cost /
    wall clock — the number CI gates at :data:`MAX_OBS_OVERHEAD_PCT`.
    """
    def probe() -> None:
        # Every probe records its launches afresh: a run that reused the
        # previous probe's stored records would do less work per span site.
        clear_memos()
        run_workload(get_workload(app, scale))

    # (1) disabled per-call cost (span() checks one flag, returns NULL_SPAN).
    t0 = time.perf_counter()
    for _ in range(calibration_calls):
        with span("bench.obs.calibration"):
            pass
    per_call = (time.perf_counter() - t0) / calibration_calls
    assert span("bench.obs.calibration") is NULL_SPAN  # tracing stayed off

    # (2) span sites hit by one probe run (probe tracer, then restored).
    prev = _install_tracer(Tracer(enabled=True))
    try:
        probe()
        probe_tracer = _install_tracer(prev)
        n_spans = sum(
            1 for root in probe_tracer.roots for _ in root.walk()
        )
    finally:
        _install_tracer(prev)

    # (3) wall clock with observability disabled.
    t0 = time.perf_counter()
    probe()
    disabled_seconds = time.perf_counter() - t0

    overhead_pct = (
        100.0 * n_spans * per_call / disabled_seconds
        if disabled_seconds else 0.0
    )
    return {
        "app": app,
        "span_sites": n_spans,
        "disabled_per_call_ns": round(per_call * 1e9, 1),
        "probe_seconds": round(disabled_seconds, 3),
        "overhead_pct": round(overhead_pct, 4),
        "max_overhead_pct": MAX_OBS_OVERHEAD_PCT,
    }


#: Default output location: under benchmarks/, next to BENCH_baseline.json,
#: instead of straying into the repository root.
DEFAULT_BENCH_OUT = "benchmarks/BENCH_sim.json"


def run_bench(scale: str = "test", jobs: int = 1,
              out: str | Path | None = DEFAULT_BENCH_OUT) -> dict:
    payload = {
        "scale": scale,
        "jobs": jobs,
        "engine_throughput": bench_engines(scale),
        "sweep": bench_sweep(scale, jobs=jobs),
        "obs_overhead": bench_obs_overhead(scale),
    }
    if out:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        from ..obs.manifest import (
            build_manifest,
            manifest_path_for,
            write_manifest,
        )

        manifest = build_manifest(
            command=f"bench --scale {scale} --jobs {jobs}",
            config={"scale": scale, "jobs": jobs},
        )
        write_manifest(manifest, manifest_path_for(out))
    return payload


def format_bench(payload: dict) -> str:
    lines = [
        f"Simulator benchmark — scale={payload['scale']} jobs={payload['jobs']}",
        "",
        f"{'engine':16s} {'seconds':>8s} {'warp-inst/s':>12s} "
        f"{'vs interp':>10s} {'vs compiled':>12s}",
        "-" * 62,
    ]
    for label, row in payload["engine_throughput"].items():
        speedup = row.get("speedup_vs_interp")
        vs_compiled = row.get("speedup_vs_compiled")
        lines.append(
            f"{label:16s} {row['seconds']:8.2f} "
            f"{row['warp_instructions_per_sec']:12,d} "
            f"{f'{speedup:.2f}x' if speedup is not None else '-':>10s} "
            f"{f'{vs_compiled:.2f}x' if vs_compiled is not None else '-':>12s}"
        )
    sweep = payload["sweep"]
    lines += [
        "",
        f"catt-all sweep: {sweep['seconds']:.1f}s "
        f"({sweep['cells']} cells, {sweep['computed']} computed, "
        f"jobs={sweep['jobs']})",
    ]
    if "speedup_vs_seed" in sweep:
        lines.append(
            f"vs seed AST-walk ({sweep['seed_baseline_seconds']:.1f}s): "
            f"{sweep['speedup_vs_seed']:.2f}x"
        )
    obs = payload.get("obs_overhead")
    if obs:
        lines.append(
            f"observability disabled overhead: {obs['overhead_pct']:.3f}% "
            f"({obs['span_sites']} span sites x "
            f"{obs['disabled_per_call_ns']:.0f}ns over "
            f"{obs['probe_seconds']:.2f}s; gate "
            f"{obs.get('max_overhead_pct', MAX_OBS_OVERHEAD_PCT):g}%)"
        )
    return "\n".join(lines)


#: Exit code for ``catt bench --baseline`` when the baseline's manifest is
#: missing or its signature does not match — distinct from 1 (regression)
#: so CI can tell "the code got slower" from "the reference is untrusted".
EXIT_BASELINE_UNTRUSTED = 2


def verify_baseline_manifest(baseline_path: str | Path) -> str | None:
    """Check the committed baseline's signed manifest before trusting it.

    Returns None when ``<baseline>.manifest.json`` exists and its signature
    covers the stored fields, else a human-readable reason.  A baseline
    whose manifest is absent or tampered with must not silently anchor the
    regression gate.
    """
    from ..obs.manifest import manifest_path_for, verify_manifest

    mpath = manifest_path_for(baseline_path)
    if not mpath.exists():
        return f"baseline manifest missing: {mpath}"
    try:
        ok = verify_manifest(mpath)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"baseline manifest unreadable: {mpath} ({exc})"
    if not ok:
        return f"baseline manifest signature mismatch: {mpath}"
    return None


def check_regression(payload: dict, baseline_path: str | Path,
                     factor: float = 2.0,
                     max_overhead_pct: float = MAX_OBS_OVERHEAD_PCT
                     ) -> list[str]:
    """Compare ``payload`` against a committed baseline.

    Returns human-readable failure strings for every metric more than
    ``factor`` times worse than the baseline (empty list = pass).  Only
    ratios are compared, so the gate tolerates absolute machine-speed
    differences between the commit host and CI runners up to ``factor``.
    The observability gate is absolute: disabled-instrumentation overhead
    (``obs_overhead.overhead_pct``) may not exceed ``max_overhead_pct``.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    obs_pct = payload.get("obs_overhead", {}).get("overhead_pct")
    if obs_pct is not None and obs_pct > max_overhead_pct:
        failures.append(
            f"observability disabled overhead exceeds "
            f"{max_overhead_pct:g}%: {obs_pct:.3f}%"
        )
    b_sweep = baseline.get("sweep", {}).get("seconds")
    n_sweep = payload.get("sweep", {}).get("seconds")
    if b_sweep and n_sweep and n_sweep > factor * b_sweep:
        failures.append(
            f"sweep wall-clock regressed >{factor:g}x: "
            f"{n_sweep:.1f}s vs baseline {b_sweep:.1f}s"
        )
    for label, row in baseline.get("engine_throughput", {}).items():
        b_rate = row.get("warp_instructions_per_sec")
        n_rate = (payload.get("engine_throughput", {})
                  .get(label, {}).get("warp_instructions_per_sec"))
        if b_rate and n_rate and n_rate * factor < b_rate:
            failures.append(
                f"{label} throughput regressed >{factor:g}x: "
                f"{n_rate:,d} vs baseline {b_rate:,d} warp-inst/s"
            )
    return failures
