"""``catt`` CLI — regenerate any table/figure from the paper, inspect the
analysis, profile the pipeline, or compile a kernel file.

Examples::

    catt table2
    catt table3 --scale test --no-bftt
    catt fig7 --scale bench
    catt analyze ATAX
    catt compile my_kernel.cu --kernel k --grid 4 --block 256 -o out.cu
    catt all --scale test --jobs 4 --trace trace.json
    catt profile ATAX --scale test -o profile_atax
    catt trace profile_atax/trace.json

Configuration flows through one resolved :class:`repro.SimOptions` per
invocation (``--engine``, ``--no-dedup``, ``--jobs``, ``--sms``,
``--cache``, ``--trace``, ``--metrics``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..analysis import analyze_kernel, format_analysis
from ..obs.metrics_registry import registry
from ..obs.trace import tracer
from ..options import ENGINES, SimOptions, current_options, use_options
from ..sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K
from ..workloads import WORKLOADS, get_workload, table2_rows


def _print_table2() -> str:
    rows = table2_rows()
    lines = [
        f"{'Abbr':6s} {'Grp':4s} {'Application':34s} {'SMEM(KB)':>8s}  Paper input",
        "-" * 80,
    ]
    for r in rows:
        lines.append(
            f"{r['abbr']:6s} {r['group']:4s} {r['application']:34s} "
            f"{r['smem_kb']:8.2f}  {r['paper_input']}"
        )
    return "\n".join(lines)


def _analyze(app: str, scale: str) -> str:
    wl = get_workload(app, scale)
    unit = wl.unit()
    parts = []
    for kernel, (grid, block) in wl.launch_configs().items():
        analysis = analyze_kernel(unit, kernel, block, TITAN_V_SIM, grid=grid)
        parts.append(format_analysis(analysis))
    return "\n\n".join(parts)


def _compile_file(args) -> tuple[str, int]:
    """``catt compile``: run the CATT pipeline on a kernel source file.

    Returns the report plus transformed source, and the exit code: 1 when
    ``--emit-ptx`` is asked for and a kernel has no PTX lowering."""
    from ..frontend import emit, parse
    from ..transform import catt_compile

    with open(args.app, encoding="utf-8") as fh:
        source = fh.read()
    unit = parse(source)
    spec = TITAN_V_SIM_32K if args.l1d == "32k" else TITAN_V_SIM
    kernels = [args.kernel] if args.kernel else [k.name for k in unit.kernels()]
    launches = {k: (args.grid, args.block) for k in kernels}
    comp = catt_compile(unit, launches, spec)
    report = []
    for name, t in comp.transforms.items():
        report.append(f"// CATT report for {name}:")
        if t.analysis is None:
            report.append("//   kernel passed through untransformed")
        else:
            for line in format_analysis(t.analysis).splitlines():
                report.append(f"//   {line}")
        for d in comp.diagnostics_for(name):
            report.append(f"//   {d.code} [{d.stage}] {d.message}")
    transformed = emit(comp.unit)
    out_text = "\n".join(report) + "\n\n" + transformed
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out_text)
    if args.emit_ptx:
        from ..ptx import LoweringError, PTXModule, lower_kernel

        lowered = []
        for k in comp.unit.kernels():
            try:
                lowered.append(lower_kernel(comp.unit, k.name))
            except LoweringError as exc:
                print(f"catt compile: no PTX for kernel {k.name!r}: {exc}",
                      file=sys.stderr)
                return out_text, 1
        with open(args.emit_ptx, "w") as fh:
            fh.write(PTXModule(lowered).render())
    return out_text, 0


# ---------------------------------------------------------------------------
# Observability subcommands
# ---------------------------------------------------------------------------


def _profile(args, opts: SimOptions) -> str:
    """``catt profile <app>``: trace the whole pipeline for one workload.

    Runs the baseline and CATT schemes against a cold memory-only cache with
    tracing + metrics enabled, then writes three artifacts to the output
    directory: ``trace.json`` (Chrome ``trace_event``, Perfetto-loadable),
    ``trace.jsonl`` (lossless archive), and ``manifest.json`` (signed run
    manifest with per-phase wall clock, metrics, and the per-kernel analysis
    decisions).  Prints the human-readable span tree.
    """
    from ..analysis.report import analysis_summary
    from ..obs.exporters import render_tree, to_chrome_trace, to_jsonl
    from ..obs.manifest import build_manifest, write_manifest
    from .common import ResultCache, run_app

    app, scale = args.app, args.scale
    t, reg = tracer(), registry()
    t.reset()
    reg.reset()
    cache = ResultCache("")
    for scheme in ("baseline", "catt"):
        run_app(app, scheme, scale=scale, cache=cache, on_error="raise")

    wl = get_workload(app, scale)
    unit = wl.unit()
    summaries = [
        analysis_summary(
            analyze_kernel(unit, kernel, block, TITAN_V_SIM, grid=grid))
        for kernel, (grid, block) in wl.launch_configs().items()
    ]

    spans = list(t.roots)
    metrics = reg.snapshot()
    out_dir = Path(args.output or f"profile_{app}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.json").write_text(
        json.dumps(to_chrome_trace(spans, metrics,
                                   process_name=f"catt profile {app}"),
                   indent=2) + "\n")
    (out_dir / "trace.jsonl").write_text(to_jsonl(spans))
    manifest = build_manifest(
        command=f"profile {app} --scale {scale}",
        config={"app": app, "scale": scale, "options": opts.summary(),
                "analysis": summaries},
        spans=spans,
        metrics=metrics,
    )
    write_manifest(manifest, out_dir / "manifest.json")

    text = render_tree(spans, metrics)
    text += (
        f"\n\nwrote {out_dir / 'trace.json'} (Perfetto-loadable), "
        f"{out_dir / 'trace.jsonl'}, {out_dir / 'manifest.json'}"
    )
    return text


def _view_trace(path: str) -> str:
    """``catt trace <file>``: render a saved trace artifact as a tree."""
    from ..obs.exporters import from_chrome_trace, from_jsonl, render_tree

    p = Path(path)
    text = p.read_text()
    if p.suffix == ".jsonl":
        spans, metrics = from_jsonl(text), None
    else:
        payload = json.loads(text)
        spans, metrics = from_chrome_trace(payload), payload.get("metrics")
    return render_tree(spans, metrics)


def _write_trace_artifacts(path: str, command: str, opts: SimOptions) -> None:
    """Dump the global tracer/registry state for a ``--trace PATH`` run."""
    from ..obs.exporters import to_chrome_trace, to_jsonl
    from ..obs.manifest import build_manifest, manifest_path_for, write_manifest

    t, reg = tracer(), registry()
    spans = list(t.roots)
    metrics = reg.snapshot() if reg.enabled else None
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    if p.suffix == ".jsonl":
        p.write_text(to_jsonl(spans))
    else:
        p.write_text(json.dumps(
            to_chrome_trace(spans, metrics, process_name=f"catt {command}"),
            indent=2) + "\n")
    manifest = build_manifest(
        command=command,
        config={"options": opts.summary()},
        spans=spans,
        metrics=metrics,
    )
    write_manifest(manifest, manifest_path_for(p))
    print(f"wrote {p} and {manifest_path_for(p)}", file=sys.stderr)


def _resolve_options(args) -> SimOptions:
    """One resolved :class:`SimOptions` per invocation.

    Explicit flags win over the current options, so an already-active
    configuration (e.g. the outer ``catt all`` driving per-figure
    sub-invocations, or a :class:`repro.Session` embedding the CLI) is
    inherited.
    """
    overrides: dict = {}
    if args.engine:
        overrides["engine"] = args.engine
    if args.no_dedup:
        overrides["dedup"] = False
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.sms is not None:
        overrides["sms"] = args.sms
    if args.trace or args.experiment == "profile":
        overrides["trace"] = True
        overrides["metrics"] = True
    if args.metrics:
        overrides["metrics"] = True
    if getattr(args, "cache", None) is not None:
        overrides["cache_dir"] = args.cache
    return current_options().replace(**overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="catt",
        description="Regenerate tables/figures from the CATT paper (ICPP'19)",
    )
    parser.add_argument(
        "experiment",
        choices=["table2", "table3", "fig2", "fig3", "fig6", "fig7", "fig8",
                 "fig9", "fig10", "overhead", "analyze", "compile", "lint",
                 "race", "bench", "all", "profile", "trace", "l2sweep",
                 "compare"],
    )
    parser.add_argument("app", nargs="?",
                        help="workload for 'analyze'/'lint'/'race'/'profile' "
                             "/ source file for 'compile' / trace file for "
                             "'trace'")
    parser.add_argument("--scale", default="bench", choices=["bench", "test"])
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the simulation sweep "
                             "('all' and 'bench')")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SEC",
                        help="all: wall-clock deadline per sweep cell; a "
                             "hung cell is killed and retried (default: "
                             "no deadline)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="all: extra attempts for a crashed/hung/failed "
                             "sweep cell before it is quarantined as "
                             "degraded (default: 2)")
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="simulator engine (default: tape; falls back "
                             "to compiled, then interp, per launch)")
    parser.add_argument("--no-dedup", action="store_true",
                        help="disable homogeneous-block dedup (only affects "
                             "--engine compiled)")
    parser.add_argument("--sms", type=int, default=None, metavar="K",
                        help="co-simulate K SMs sharing one L2 (default 1, "
                             "the classic single-SM model)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a pipeline trace to PATH (.json = "
                             "Chrome trace_event, .jsonl = JSON Lines) plus "
                             "a signed run manifest next to it")
    parser.add_argument("--metrics", action="store_true",
                        help="collect simulator metrics (implied by --trace "
                             "and 'profile')")
    parser.add_argument("--no-bftt", action="store_true",
                        help="skip the BFTT sweep (table3)")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump raw data as JSON")
    parser.add_argument("--kernel", help="compile: kernel name (default: all)")
    parser.add_argument("--grid", type=int, default=4, help="compile: grid size")
    parser.add_argument("--block", type=int, default=256, help="compile: block size")
    parser.add_argument("--l1d", choices=["max", "32k"], default="max",
                        help="compile: L1D configuration")
    parser.add_argument("-o", "--output",
                        help="compile: output file / profile: output dir")
    parser.add_argument("--emit-ptx", metavar="PATH",
                        help="compile: also write PTX-like lowering")
    parser.add_argument("--baseline", metavar="PATH",
                        help="lint: fail on new error-severity findings "
                             "missing from this baseline JSON; "
                             "bench: fail on >2x regression vs this "
                             "BENCH_sim.json baseline")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="lint: write the current findings as a baseline")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        dest="fmt",
                        help="lint/race: report format (default text)")
    parser.add_argument("--dynamic", action="store_true",
                        help="race: also execute under the shadow-memory "
                             "sanitizer and fail on any dynamic report that "
                             "contradicts a static PROVED-SAFE verdict")
    parser.add_argument("--cache", metavar="PATH", default=None,
                        help="result-cache directory ('' = memory-only; "
                             "default .bench_cache)")
    args = parser.parse_args(argv)

    opts = _resolve_options(args)
    with use_options(opts):
        t, reg = tracer(), registry()
        prev_enabled = (t.enabled, reg.enabled)
        t.enabled = t.enabled or opts.trace
        reg.enabled = reg.enabled or opts.metrics
        try:
            code = _dispatch(args, parser, opts)
            if args.trace and args.experiment not in ("profile", "trace"):
                _write_trace_artifacts(args.trace, args.experiment, opts)
            return code
        finally:
            t.enabled, reg.enabled = prev_enabled


def _dispatch(args, parser, opts: SimOptions) -> int:
    data = None
    if args.experiment == "compile":
        if not args.app:
            parser.error("compile requires a source file")
        text, code = _compile_file(args)
        print(text)
        return code
    elif args.experiment == "profile":
        if not args.app or args.app not in WORKLOADS:
            parser.error(f"profile requires a workload name from "
                         f"{sorted(WORKLOADS)}")
        text = _profile(args, opts)
    elif args.experiment == "trace":
        if not args.app:
            parser.error("trace requires a trace file "
                         "(.json or .jsonl, from --trace or 'profile')")
        text = _view_trace(args.app)
    elif args.experiment == "lint":
        from .lint import run_lint

        if args.app and args.app not in WORKLOADS:
            parser.error(f"lint requires a workload name from "
                         f"{sorted(WORKLOADS)} (or none for all)")
        text, code = run_lint(args.app, args.scale,
                              baseline_path=args.baseline,
                              write_baseline=args.write_baseline,
                              fmt=args.fmt)
        print(text)
        return code
    elif args.experiment == "race":
        from .race import run_race

        if args.app and args.app not in WORKLOADS:
            parser.error(f"race requires a workload name from "
                         f"{sorted(WORKLOADS)} (or none for all)")
        text, code = run_race(args.app, args.scale, dynamic=args.dynamic,
                              fmt=args.fmt)
        print(text)
        return code
    elif args.experiment == "table2":
        text, data = _print_table2(), table2_rows()
    elif args.experiment == "analyze":
        if not args.app or args.app not in WORKLOADS:
            parser.error(f"analyze requires a workload name from {sorted(WORKLOADS)}")
        text = _analyze(args.app, args.scale)
    elif args.experiment == "table3":
        from .table3 import build_table3, format_table3

        rows = build_table3(scale=args.scale, include_bftt=not args.no_bftt)
        text, data = format_table3(rows), [r.__dict__ for r in rows]
    elif args.experiment == "fig2":
        from .fig2 import build_fig2, format_fig2

        data = build_fig2(scale=args.scale)
        text = format_fig2(data)
    elif args.experiment == "fig3":
        from .fig3 import build_fig3, format_fig3

        data = build_fig3()
        text = format_fig3(data)
    elif args.experiment == "fig6":
        from .fig6 import build_fig6, format_fig6

        data = build_fig6(scale=args.scale)
        text = format_fig6(data)
    elif args.experiment == "fig7":
        from .fig7 import build_fig7, format_fig7

        data = build_fig7(scale=args.scale)
        text = format_fig7(data)
    elif args.experiment == "fig8":
        from .fig8 import build_fig8, format_fig8

        data = build_fig8(scale=args.scale)
        text = format_fig8(data)
    elif args.experiment == "fig9":
        from .fig9 import build_fig9, format_fig9

        curves = build_fig9(scale=args.scale)
        text, data = format_fig9(curves), [c.__dict__ for c in curves]
    elif args.experiment == "fig10":
        from .fig10 import build_fig10, format_fig10

        data = build_fig10(scale=args.scale)
        text = format_fig10(data)
    elif args.experiment == "overhead":
        from .overhead import build_overhead, format_overhead

        rows = build_overhead(scale=args.scale)
        text, data = format_overhead(rows), [r.__dict__ for r in rows]
    elif args.experiment == "l2sweep":
        from .l2sweep import build_l2sweep, format_l2sweep

        rows = build_l2sweep(scale=args.scale, options=opts)
        text, data = format_l2sweep(rows), [r.__dict__ for r in rows]
    elif args.experiment == "compare":
        from .compare import build_compare, format_compare

        result = build_compare(scale=args.scale)
        print(format_compare(result))
        if args.json:
            payload = dict(result, rows=[r.__dict__ for r in result["rows"]])
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2, default=str)
        # Degraded cells are a failure for CI's baselines-differential job.
        return 1 if result["degraded_cells"] else 0
    elif args.experiment == "bench":
        from .bench import (
            DEFAULT_BENCH_OUT,
            EXIT_BASELINE_UNTRUSTED,
            check_regression,
            format_bench,
            run_bench,
            verify_baseline_manifest,
        )

        if args.baseline:
            # Authenticate the reference before spending minutes measuring
            # against it; an unsigned/tampered baseline must not anchor the
            # regression gate.
            problem = verify_baseline_manifest(args.baseline)
            if problem is not None:
                print(f"BASELINE UNTRUSTED: {problem}", file=sys.stderr)
                return EXIT_BASELINE_UNTRUSTED
        payload = run_bench(scale=args.scale, jobs=opts.jobs,
                            out=args.output or DEFAULT_BENCH_OUT)
        print(format_bench(payload))
        if args.baseline:
            failures = check_regression(payload, args.baseline)
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1 if failures else 0
        return 0
    else:  # all
        # Populate the shared cache up front (supervised, each cell committed
        # as it finishes); the per-figure builders below then run entirely
        # against warm entries.
        from .sweep import (
            DEFAULT_POLICY,
            SweepPolicy,
            all_cells,
            format_sweep_health,
            run_sweep,
        )

        policy = SweepPolicy(
            cell_timeout=args.cell_timeout,
            retries=(args.retries if args.retries is not None
                     else DEFAULT_POLICY.retries),
        )
        try:
            report = run_sweep(all_cells(args.scale), jobs=opts.jobs,
                               options=opts, policy=policy)
        except KeyboardInterrupt:
            print("\nsweep interrupted; completed cells are saved — rerun "
                  "the same command to compute only the rest",
                  file=sys.stderr)
            return 130
        print(format_sweep_health(report), file=sys.stderr)
        for exp in ("table2", "table3", "fig2", "fig3", "fig6", "fig7",
                    "fig8", "fig9", "fig10", "overhead"):
            main([exp, "--scale", args.scale])
        return 0

    print(text)
    if args.json and data is not None:
        with open(args.json, "w") as fh:
            json.dump(data, fh, indent=2, default=str)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
