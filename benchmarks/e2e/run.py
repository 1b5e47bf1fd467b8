#!/usr/bin/env python3
"""The repository benchmark: four workloads, each pass in a fresh process.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE]
                                  [--profile full|command|smoke]
    python3 benchmarks/e2e/run.py --update-golden [--workload NAME]
    python3 benchmarks/e2e/run.py --calibrate N [--out FILE]

A run repeats passes of the workload (``worker.py``), each in a new
interpreter so in-process memos start cold, for ``--seconds`` (at least
MIN_PASSES passes), and reports medians.  While a pass runs it samples a
fixed reference loop (``hostclock.py``), and its run time is reported in
units of that loop's time (``ref``), which cancels much of the host's
drifting speed.  It prints every end-to-end metric in ``BENCHMARK.json`` by
name with its unit — or, with ``--trace 1``, every per-layer metric from
traced passes alternated with untraced ones — then checks every operation
against ``golden/<workload>.json`` and prints one JSON line.  It exits 1
when any operation failed.

``--update-golden`` regenerates the golden files and prints a diff;
``--calibrate N`` runs each workload N times and writes each end-to-end
metric's bound into ``BENCHMARK.json`` (see README.md).
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from hostclock import NOMINAL_UNIT_S
from instrument import LAYERS
from profiles import MIN_PASSES, PROFILES, WORKLOADS
from stats import median, percentile, quartiles, rel_iqr, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

#: A pass still running after this many seconds is killed and the run
#: aborts, whatever ``--seconds`` is.  Once MIN_PASSES passes ran, no pass
#: starts after the time budget.
PASS_TIMEOUT_S = 120.0

#: The bound ``--calibrate`` gives a metric: SPREAD_FACTOR times its
#: largest measured relative IQR, so that a same-commit rerun stays well
#: inside it.  MAX_BOUND is the largest bound the benchmark may declare; a
#: metric whose spread exceeds a third of it cannot hold a bound and fails
#: calibration.  Set-up time, a fraction of a second measured a few times
#: per run, always gets MAX_BOUND, the largest.
SPREAD_FACTOR = 3.0
MAX_BOUND = 0.25


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


# -- passes ------------------------------------------------------------------
def _child_env(work_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=str(work_dir))
    return env


def run_pass(workload: str, *, profile: str, seed: int, index: int,
             traced: bool, out_dir: Path) -> dict:
    """Spawn one worker pass; returns its result plus ``setup_s``."""
    tmp_root = out_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    cmd = [sys.executable, str(WORKER), workload, "--profile", profile,
           "--seed", str(seed), "--pass-index", str(index),
           "--work-dir", str(work_dir),
           "--out", str(out_dir)]
    if traced:
        cmd.append("--traced")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(work_dir), cwd=ROOT)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} pass failed (exit {proc.returncode})")
    result = json.loads(rest.strip().splitlines()[-1])
    result.update(setup_s=setup_s, traced=traced)
    return result


def run_workload(workload: str, *, seed: int = 0, seconds: float = 0.0,
                 trace: bool = False, profile: str = "full",
                 min_passes: int = MIN_PASSES, out_dir: Path = OUT) -> dict:
    """Repeat passes for ``seconds`` (a traced run alternates an untraced
    and a traced pass).  After the minimum, no round starts that would end
    past the budget if it took as long as the longest round so far."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    kinds = (False, True) if trace else (False,)
    needed = 1 if trace else min_passes
    started = time.time()
    start = time.perf_counter()
    passes: list[dict] = []
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        for traced in kinds:
            passes.append(run_pass(workload, profile=profile, seed=seed,
                                   index=len(passes), traced=traced,
                                   out_dir=out_dir))
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if len(passes) >= needed * len(kinds) and \
                (now - start) + longest > seconds:
            break
    return {"workload": workload, "seed": seed, "profile": profile,
            "trace": trace, "started": started, "passes": passes}


# -- correctness -------------------------------------------------------------
def golden_path(workload: str, profile: str) -> Path:
    base = GOLDEN if profile == "full" else GOLDEN / profile
    return base / f"{workload}.json"


def load_golden(path: Path) -> dict | None:
    if not path.is_file():
        return None
    return json.loads(path.read_text())["entries"]


def check(run: dict, entries: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass of ``run``.

    An operation fails when it raised, degraded, or its record differs from
    the golden entry; a golden entry a pass never reached counts as one
    failed operation.
    """
    attempted = failed = 0
    problems: list[str] = []
    if entries is None:
        problems.append("no golden file: run with --update-golden")
    for i, p in enumerate(run["passes"]):
        seen = set()
        for op in p["ops"]:
            attempted += 1
            seen.add(op["key"])
            expected = (entries or {}).get(op["key"])
            if op["error"]:
                problem = op["error"]
            elif expected is None:
                problem = "not in the golden file"
            elif op["record"] != expected:
                problem = "differs from the golden record"
            else:
                continue
            failed += 1
            problems.append(f"pass {i} {op['key']}: {problem}")
        for key in sorted(set(entries or {}) - seen):
            attempted += 1
            failed += 1
            problems.append(f"pass {i} {key}: never ran")
    return attempted, failed, problems


# -- metrics -----------------------------------------------------------------
def _plain(run: dict) -> list[dict]:
    return [p for p in run["passes"] if not p["traced"]]


def _cell_latencies(p: dict) -> list[float]:
    """Latencies of one pass's cells (figure functions are not cells)."""
    return [op["latency_s"] for op in p["ops"] if op["kind"] == "cell"]


def tail_pct(run: dict) -> float:
    """The per-cell latency tail percentile.  It is fixed per workload —
    from the samples MIN_PASSES passes give — so runs with more passes
    report the same percentile."""
    return tail_percentile(len(_cell_latencies(_plain(run)[0])) * MIN_PASSES)


def end_to_end(run: dict) -> dict[str, float]:
    """Medians over the untraced passes.  ``run_ref`` is each pass's run
    time divided by the reference unit sampled during it (``ref_s``), and
    ``setup_s`` its set-up time scaled by the same unit to a host where it
    takes NOMINAL_UNIT_S."""
    plain = _plain(run)
    latencies = [s for p in plain for s in _cell_latencies(p)]
    instr = [p["totals"]["instructions"] / p["run_s"] / 1e3 for p in plain]
    return {
        "run_ref": median(p["run_s"] / p["ref_s"] for p in plain),
        "setup_s": median(p["setup_s"] * NOMINAL_UNIT_S / p["ref_s"]
                          for p in plain),
        "setup_wall_s": median(p["setup_s"] for p in plain),
        "peak_rss_mb": median(p["rss_mb"] for p in plain),
        "run_s": median(p["run_s"] for p in plain),
        "ref_s": median(p["ref_s"] for p in plain),
        "cell_p50_s": percentile(latencies, 50.0),
        "cell_tail_s": percentile(latencies, tail_pct(run)),
        "sim_kinstr_per_s": median(instr),
    }


#: Printed after the end-to-end metrics but not gated (README.md says why):
#: raw host times move with the host's speed, a cell is too short for its
#: latency to hold a bound, and a pass's instruction count is fixed, so
#: kinstr/s only restates run_s.
UNGATED = (("run_s", "s"), ("ref_s", "s"), ("setup_wall_s", "s"),
           ("cell_p50_s", "s"), ("cell_tail_s", "s"),
           ("sim_kinstr_per_s", "kinstr/s"))


class _Derive:
    """Per-layer numbers of one traced pass, with the untraced passes'
    counts and launch latencies."""

    def __init__(self, traced: dict, plain: list[dict]):
        self.ledger = traced["ledger"]
        self.traced = traced
        self.totals = plain[0]["totals"]
        self.plain = plain

    def get(self, layer: str, field: str = "self_s") -> float:
        return self.ledger.get(layer, {}).get(field, 0)

    def ratio(self, layer: str, numerator: str, denominator: str) -> float:
        den = self.get(layer, denominator)
        return self.get(layer, numerator) / den if den else 0.0

    def ns_per_instr(self, *layers: str) -> float:
        instr = self.totals["instructions"]
        return sum(self.get(l) for l in layers) / instr * 1e9 if instr else 0.0

    def launch_ms(self, tail: bool) -> float:
        samples = [s for p in self.plain for s in p["launch_s"]]
        if not samples:
            return 0.0
        p = tail_percentile(len(samples)) if tail else 50.0
        return percentile(samples, p) * 1e3

    def catt_speedup_geo(self) -> float:
        """Geomean of baseline ÷ catt cycles over the cells that have both."""
        cycles = {}
        for op in self.plain[0]["ops"]:
            parts = op["key"].split("|")
            if len(parts) == 4 and op["record"]:
                cycles[tuple(parts)] = op["record"]["total_cycles"]
        ratios = [base / cycles[(app, "catt", spec, scale)]
                  for (app, scheme, spec, scale), base in cycles.items()
                  if scheme == "baseline" and cycles.get(
                      (app, "catt", spec, scale))]
        if not ratios:
            return 0.0
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def coverage_pct(self) -> float:
        return 100.0 * self.traced["covered_s"] / self.traced["run_s"]


E_LAYERS = ("sim.exec", "sim.dedup.record", "sim.tape.record")
R_LAYERS = ("sim.sm.run", "sim.sm.step", "sim.gpu.run", "sim.coalescer",
            "sim.cache.l1", "sim.cache.l2", "baselines.governor")

#: Per-layer metrics computed from more than one ledger field.  Any other
#: per-layer metric is ``<layer>.calls`` or ``<layer>.self_s`` of a layer
#: in ``instrument.LAYERS``.
DERIVED = {
    "transform.throttled_ratio":
        lambda d: d.ratio("transform.catt_compile", "transformed", "kernels"),
    "sim.dedup.eligible_ratio":
        lambda d: d.ratio("sim.dedup.analyze", "eligible", "calls"),
    "sim.e.ns_per_instr": lambda d: d.ns_per_instr(*E_LAYERS),
    "sim.r.ns_per_instr": lambda d: d.ns_per_instr(*R_LAYERS),
    "sim.launch.p50_ms": lambda d: d.launch_ms(tail=False),
    "sim.launch.tail_ms": lambda d: d.launch_ms(tail=True),
    "sim.instructions": lambda d: d.totals["instructions"],
    "sim.coalescer.requests": lambda d: d.totals["coalescer_requests"],
    "sim.l1.hits": lambda d: d.totals["l1_hits"],
    "sim.l1.misses": lambda d: d.totals["l1_misses"],
    "sim.l2.hits": lambda d: d.totals["l2_hits"],
    "sim.l2.misses": lambda d: d.totals["l2_misses"],
    "sim.dram.transactions": lambda d: d.totals["dram_transactions"],
    "baselines.governor.pauses": lambda d: d.totals["governor_pauses"],
    "baselines.bftt.candidates":
        lambda d: d.get("baselines.bftt", "candidates"),
    "experiments.computed_ratio":
        lambda d: d.ratio("experiments.run_app", "computed", "calls"),
    "experiments.store.put.bytes":
        lambda d: d.get("experiments.store.put", "bytes"),
    "experiments.catt_speedup_geo": lambda d: d.catt_speedup_geo(),
    "trace.coverage_pct": lambda d: d.coverage_pct(),
}


def layer_metric(name: str):
    """The function computing per-layer metric ``name`` from a _Derive."""
    if name in DERIVED:
        return DERIVED[name]
    layer, _, field = name.rpartition(".")
    if field in ("calls", "self_s") and layer in LAYERS:
        return lambda d: d.get(layer, field)
    raise BenchError(f"BENCHMARK.json names {name!r}, which the harness "
                     f"does not measure")


def per_layer(run: dict) -> dict[str, float]:
    """Medians over the traced passes of every declared per-layer metric,
    plus the tracing overhead."""
    plain = _plain(run)
    traced = [p for p in run["passes"] if p["traced"]]
    derived = [_Derive(p, plain) for p in traced]
    out = {}
    for spec in declared_metrics(trace=True):
        if spec["name"] == "trace.overhead_pct":
            continue
        fn = layer_metric(spec["name"])
        out[spec["name"]] = median(fn(d) for d in derived)
    overhead = median(p["run_s"] for p in traced) \
        / median(p["run_s"] for p in plain) - 1.0
    out["trace.overhead_pct"] = 100.0 * overhead
    return out


def layer_shares(run: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced pass's run time
    without the wrapper cost (medians over the traced passes); the rest,
    in no layer, under ``(other)``."""
    traced = [p for p in run["passes"] if p["traced"]]
    layers = sorted({k for p in traced for k in p["ledger"]})
    shares = {k: median(p["ledger"].get(k, {}).get("self_s", 0.0)
                        / (p["run_s"] - p["overhead_s"]) for p in traced)
              for k in layers}
    shares["(other)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads(BENCHMARK.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(run: dict, entries: dict | None) -> dict:
    """Print the run's metrics; returns the result JSON object."""
    attempted, failed, problems = check(run, entries)
    values = per_layer(run) if run["trace"] else end_to_end(run)
    metrics = {}
    for spec in declared_metrics(run["trace"]):
        if spec["name"] not in values:
            raise BenchError(f"BENCHMARK.json names {spec['name']!r}, "
                             f"which the harness does not measure")
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}

    plain = _plain(run)
    print(f"{run['workload']}  seed={run['seed']}  profile={run['profile']}"
          f"  passes={len(plain)} untraced"
          f" ({sum(p['samples'] for p in plain)} host-speed samples)"
          + (f", {len(run['passes']) - len(plain)} traced"
             if run["trace"] else ""))
    width = max(len(name) for name in [*metrics, "sim_kinstr_per_s"])
    for name, m in metrics.items():
        print(f"  {name:{width}s}  {m['value']:.6g} {m['unit']}")
    if run["trace"]:
        print("  time shares of the traced passes, wrapper cost removed:")
        for name, share in layer_shares(run).items():
            if share >= 0.001:
                print(f"    {name:{width - 2}s}  {100 * share:5.1f} %")
    else:
        print("  not gated:")
        for name, unit in UNGATED:
            note = ""
            if name == "cell_tail_s":
                n = sum(len(_cell_latencies(p)) for p in plain)
                note = f"   (p{tail_pct(run):g} of n={n})"
            print(f"  {name:{width}s}  {values[name]:.6g} {unit}{note}")
    print(f"  {'error_rate':{width}s}  "
          f"{failed / attempted if attempted else 1.0:.6g} ratio   "
          f"({failed} of {attempted} operations failed)")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more failures")
    return {"correct": failed == 0 and attempted > 0 and entries is not None,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def write_layers(run: dict, out_dir: Path) -> Path:
    """``<workload>.layers.json``: the per-layer metrics, the time shares,
    and the last traced pass's ledger and per-operation self times."""
    traced = [p for p in run["passes"] if p["traced"]][-1]
    path = out_dir / f"{run['workload']}.layers.json"
    path.write_text(json.dumps({
        "workload": run["workload"],
        "profile": run["profile"],
        "metrics": per_layer(run),
        "shares": layer_shares(run),
        "wrapper_ns": traced["wrapper_ns"],
        "overhead_s": traced["overhead_s"],
        "layers": traced["ledger"],
        "ops": [{"key": op["key"], "kind": op["kind"],
                 "layers": op["layers"]} for op in traced["ops"]],
    }, indent=1) + "\n")
    return path


def append_results(path: Path, run: dict, result: dict) -> None:
    """Add one run's summary to a results file (compare.py's input)."""
    data = json.loads(path.read_text()) if path.is_file() else {"runs": []}
    data["runs"].append({
        "workload": run["workload"], "seed": run["seed"],
        "profile": run["profile"], "trace": run["trace"],
        "started": run["started"], "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


# -- golden files and calibration -------------------------------------------
def update_golden(workload: str, profile: str) -> bool:
    """Regenerate one golden file from two passes that must agree; prints a
    diff against the previous file."""
    run = run_workload(workload, profile=profile, min_passes=2)
    entries: dict = {}
    for p in run["passes"]:
        for op in p["ops"]:
            if op["error"]:
                print(f"{workload}: {op['key']} failed: {op['error']}")
                return False
            if entries.setdefault(op["key"], op["record"]) != op["record"]:
                print(f"{workload}: {op['key']} is not deterministic")
                return False
    path = golden_path(workload, profile)
    old = path.read_text().splitlines() if path.is_file() else []
    text = json.dumps({"workload": workload, "profile": profile,
                       "entries": dict(sorted(entries.items()))},
                      indent=1, sort_keys=True) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    diff = list(difflib.unified_diff(old, text.splitlines(), str(path),
                                     str(path), lineterm="", n=1))
    print("\n".join(diff) if diff else f"{path}: unchanged")
    return True


def calibrate(count: int, workloads, seconds: float, out: Path) -> bool:
    """Run each workload ``count`` times and set each end-to-end bound to
    SPREAD_FACTOR x its largest relative IQR (set-up time: MAX_BOUND).
    Fails when that exceeds MAX_BOUND."""
    if count < 5:
        raise BenchError("--calibrate needs at least 5 runs")
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in workloads:
        entries = load_golden(golden_path(workload, "full"))
        for i in range(count):
            run = run_workload(workload, seed=i + 1, seconds=seconds)
            result = report(run, entries)
            ok = ok and result["correct"]
            append_results(out, run, result)
            for name, m in result["metrics"].items():
                values.setdefault(name, {}).setdefault(workload, []).append(
                    m["value"])
    spec = json.loads(BENCHMARK.read_text())
    print(f"\n{'metric':14s} {'workload':18s} {'median':>10s} "
          f"{'Q1':>10s} {'Q3':>10s} {'rel IQR':>8s}")
    for metric in spec["end_to_end"]:
        spreads = []
        for workload, vals in values[metric["name"]].items():
            q1, _, q3 = quartiles(vals)
            spreads.append(rel_iqr(vals))
            print(f"{metric['name']:14s} {workload:18s} {median(vals):10.5g} "
                  f"{q1:10.5g} {q3:10.5g} {spreads[-1]:8.4f}")
        needed = math.ceil(SPREAD_FACTOR * max(spreads) * 100) / 100
        if metric["name"] == "setup_s":
            metric["bound"] = MAX_BOUND
            continue
        metric["bound"] = max(min(needed, MAX_BOUND), 0.01)
        if needed > MAX_BOUND:
            print(f"WARNING: {metric['name']} spreads by {max(spreads):.3f},"
                  f" more than a third of the largest bound {MAX_BOUND}; "
                  f"lengthen its workload or drop it")
            ok = False
    BENCHMARK.write_text(json.dumps(spec, indent=2) + "\n")
    print(f"bounds written to {BENCHMARK}; runs appended to {out}")
    return ok


# -- entry point -------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of each pass's cells; "
                             "0 = registry order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--out", type=Path, default=None,
                        help="append each run's summary to this results "
                             "file (compare.py's input)")
    parser.add_argument("--update-golden", action="store_true",
                        help="regenerate the golden files and print a diff")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run each workload N times and write the "
                             "end-to-end bounds into BENCHMARK.json")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="full",
                        help="full: the benchmark; command: the full "
                             "commands its passes are cut down from; "
                             "smoke: the self-test's")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_pass kills and reaps its
    # worker on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    try:
        if args.update_golden:
            ok = all([update_golden(w, args.profile) for w in workloads])
            return 0 if ok else 1
        if args.calibrate is not None:
            out = args.out or OUT / "calibration.json"
            return 0 if calibrate(args.calibrate, workloads, seconds,
                                  out) else 1
        out_dir = OUT if args.profile == "full" else OUT / args.profile
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in workloads:
            run = run_workload(workload, seed=args.seed, seconds=seconds,
                               trace=bool(args.trace), profile=args.profile,
                               out_dir=out_dir)
            result = report(run, load_golden(golden_path(workload,
                                                         args.profile)))
            if run["trace"]:
                print(f"  trace: {out_dir / (workload + '.trace.json')}, "
                      f"{write_layers(run, out_dir)}")
            if args.out:
                append_results(args.out, run, result)
            if len(workloads) == 1:
                combined = result
            else:
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                combined["metrics"].update(
                    {f"{workload}/{k}": v
                     for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
