#!/usr/bin/env python3
"""One benchmark pass in a fresh interpreter; ``run.py`` spawns it.

    python3 worker.py WORKLOAD --profile full --seed 0 --pass-index 0 \
        --work-dir DIR --out DIR [--traced]

Set-up — interpreter start, ``import repro``, the instrumentation, the
workload's Session or options — ends with the line ``READY`` on stdout.  The
pass then runs its operations in a closed loop (one caller, one call
outstanding) and prints one JSON line: the pass's run time, its reference
unit, peak RSS, and every operation's latency and record.  An untraced
pass samples the host's speed as it runs (``hostclock.py``); its times
leave the sampling out.  run.py checks the records against the golden file
after the pass, so nothing here judges them.

``--seed`` (with ``--pass-index``) only permutes the order of the pass's
cells; seed 0 keeps registry order.  ``--traced`` attaches the layer
ledger, checks every workload run against its NumPy reference
(``verify=True``) and writes ``<out>/<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import asdict, is_dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

COUNTERS = ("launches", "instructions", "coalescer_requests", "l1_hits",
            "l1_misses", "l2_hits", "l2_misses", "dram_transactions",
            "governor_pauses")


# -- records -----------------------------------------------------------------
def _plain(obj):
    if is_dataclass(obj):
        return asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _untimed(obj):
    """``obj`` as plain JSON data without its host-time fields."""
    if isinstance(obj, dict):
        return {k: _untimed(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_untimed(v) for v in obj]
    return obj


def digest(obj) -> str | None:
    if obj is None:
        return None
    data = _untimed(json.loads(json.dumps(obj, default=_plain)))
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def app_record(res):
    """A simulation cell: cycles, per-kernel hit rates, scheme decisions."""
    record = {
        "total_cycles": res.total_cycles,
        "kernels": {k: [s.cycles, s.l1_hit_rate, s.l2_hit_rate,
                        list(s.tlp) if s.tlp else None]
                    for k, s in sorted(res.kernels.items())},
        "loop_tlps": {k: [[lid, list(tlp)] for lid, tlp in v]
                      for k, v in sorted(res.loop_tlps.items())},
        "factors": list(res.factors) if res.factors else None,
        "extras": res.extras,
        "diagnostics": [d["code"] for d in res.diagnostics],
        "sweep": digest(res.sweep),
        "mem_trace": digest(res.mem_trace),
    }
    error = (f"degraded: {', '.join(record['diagnostics'])}"
             if res.degraded else None)
    return record, error


def l2_record(row):
    return asdict(row), None


def figure_record(result):
    return {"digest": digest(result)}, None


def compile_record(analyses: dict, comp) -> dict:
    """A compile request: per-loop TLP decisions and diagnostic codes."""
    return {
        "analyze": {
            kernel: [[la.loop_id, la.decision.n, la.decision.m,
                      list(la.decision.tlp)] for la in analysis.loops]
            for kernel, analysis in analyses.items()},
        "catt": {
            name: {"transformed": t.transformed, "reverted": t.reverted,
                   "loops": [[la.loop_id, list(la.decision.tlp)]
                             for la in t.analysis.loops]
                   if t.analysis is not None else None}
            for name, t in comp.transforms.items()},
        "diagnostics": [d.code for d in comp.diagnostics],
    }


# -- operation recording -----------------------------------------------------
class Recorder:
    """Times each top-level operation and keeps its record.

    An operation is a call into one of the boundary functions made while no
    other operation is open (a figure function's cache look-ups belong to the
    function).  Launches add their counters to the open operation.  Under a
    ledger, each operation also keeps the self time it added to every layer
    (``layers``): the data the workloads' app subsets were chosen from.
    """

    def __init__(self, ledger=None, clock=time.perf_counter):
        self.ledger = ledger
        self.clock = clock
        self.ops: list[dict] = []
        self.launch_s: list[float] = []
        self.totals = dict.fromkeys(COUNTERS, 0)
        self._depth = 0
        self._counts: dict | None = None
        self._self0: dict[str, float] = {}
        self._t0 = 0.0

    def _self_times(self) -> dict[str, float]:
        return {k: l.self_time for k, l in self.ledger.layers.items()}

    def _start(self) -> None:
        self._depth = 1
        self._counts = dict.fromkeys(COUNTERS, 0)
        if self.ledger is not None:
            self.ledger.cell = len(self.ops)
            self._self0 = self._self_times()
        self._t0 = self.clock()

    def _finish(self, kind: str, key: str, record: dict | None,
                error: str | None) -> None:
        latency = self.clock() - self._t0
        if record is not None and self._counts["launches"]:
            record["counters"] = self._counts
        op = {"kind": kind, "key": key, "latency_s": latency,
              "record": record, "error": error}
        if self.ledger is not None:
            op["layers"] = {k: v - self._self0.get(k, 0.0)
                            for k, v in self._self_times().items()
                            if v != self._self0.get(k, 0.0)}
        self.ops.append(op)
        self._depth = 0
        self._counts = None

    def run_op(self, key: str, fn) -> None:
        """Run ``fn`` (returning the record) as one cell."""
        self._start()
        try:
            record = fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self._finish("cell", key, None, f"{type(exc).__name__}: {exc}")
            return
        self._finish("cell", key, record, None)

    def boundary(self, fn, kind, key_of, record_of):
        """Wrap ``fn`` so a top-level call is one operation of ``kind``;
        ``key_of(arguments)`` names it, ``record_of(result)`` gives its
        (record, error)."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if self._depth:
                self._depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._depth -= 1
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = key_of(bound.arguments)
            self._start()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._finish(kind, key, None,
                             f"{type(exc).__name__}: {exc}")
                raise
            self._finish(kind, key, *record_of(result))
            return result

        return wrapper

    def launch(self, fn):
        """Wrap ``launch_kernel``: time it and sum its counters."""

        def wrapper(*args, **kwargs):
            t0 = self.clock()
            result = fn(*args, **kwargs)
            self.launch_s.append(self.clock() - t0)
            m = result.metrics
            values = (1, m.instructions, m.coalescer_requests,
                      m.l1_load.hits, m.l1_load.misses, m.l2_load.hits,
                      m.l2_load.misses, m.dram_transactions,
                      m.governor_pauses)
            targets = [self.totals]
            if self._counts is not None:
                targets.append(self._counts)
            for target in targets:
                for name, value in zip(COUNTERS, values):
                    target[name] += value
            return result

        return wrapper


def _force_verify(fn):
    """Wrap ``run_workload`` so every run checks the NumPy reference."""
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["verify"] = True
        return fn(*bound.args, **bound.kwargs)

    return wrapper


def _cell_key(args: dict) -> str:
    return "|".join((args["app"], args["scheme"], args["spec_name"],
                     args["scale"]))


def _l2_key(args: dict) -> str:
    return f"{args['app']}|sms{args['sms']}|{args['scheme']}"


def install_boundaries(recorder: Recorder, traced: bool) -> None:
    from instrument import FIGURES, patch

    patch("repro.sim.launch", "launch_kernel", recorder.launch)
    patch("repro.experiments.common", "run_app",
          lambda fn: recorder.boundary(fn, "cell", _cell_key, app_record))
    patch("repro.experiments.l2sweep", "_sweep_cell",
          lambda fn: recorder.boundary(fn, "cell", _l2_key, l2_record))
    for module, qualname in FIGURES:
        key = qualname.removeprefix("build_")
        patch(module, qualname,
              lambda fn, key=key: recorder.boundary(
                  fn, "figure", lambda _a: key, figure_record))
    if traced:
        patch("repro.workloads.base", "run_workload", _force_verify)


# -- workloads ---------------------------------------------------------------
def ordered(items, seed: int, index: int) -> list:
    """``items`` in registry order for seed 0, else the permutation the
    seed gives pass ``index``.  A new order per pass spreads the cold
    first-use costs over different cells, so a run's medians do not hinge
    on one order."""
    items = list(items)
    if seed:
        random.Random(f"{seed}/{index}").shuffle(items)
    return items


def attempt(fn) -> None:
    """Run a top-level call whose failures the operation records (or the
    golden check's missing entries) already count; report it on stderr."""
    try:
        fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)


def plan_catt_all_test(p: dict, order, work_dir: Path, recorder):
    from repro import Session, SimOptions
    from repro.experiments import (fig2, fig3, fig6, fig7, fig8, fig9, fig10,
                                   overhead, table3)
    from repro.experiments.sweep import all_cells
    from repro.options import use_options
    from repro.workloads import CI_GROUP, CS_GROUP

    scale = p["scale"]
    cs, ci = p["cs_apps"] or list(CS_GROUP), p["ci_apps"] or list(CI_GROUP)
    session = Session(options=SimOptions(cache_dir=str(work_dir / "cache")))
    # The seed orders the apps; each app's cells keep registry order, so
    # its first-use costs always land on the same cell.
    registry = all_cells(scale)
    cells = [c for app in order(cs + ci) for c in registry if c[0] == app]
    figures = (
        lambda: table3.build_table3(apps=cs, scale=scale),
        lambda: fig2.build_fig2(apps=cs, scale=scale),
        lambda: fig3.build_fig3(fill_points=tuple(p["fig3_fill_points"]),
                                tlps=tuple(p["fig3_tlps"])),
        lambda: fig6.build_fig6(apps=cs, scale=scale),
        lambda: fig7.build_fig7(apps=cs, scale=scale),
        lambda: fig8.build_fig8(apps=ci, scale=scale),
        lambda: fig9.build_fig9(apps=cs, scale=scale),
        lambda: fig10.build_fig10(apps=cs, scale=scale),
        lambda: overhead.build_overhead(apps=cs + ci, scale=scale),
    )

    def run() -> None:
        attempt(lambda: session.sweep(cells, scale=scale))
        # The figure functions read the swept cells back through the
        # default cache, which the active options point at the session's
        # store.
        with use_options(session.options):
            for build in figures:
                attempt(build)

    return run


def plan_compare_bench(p: dict, order, work_dir: Path, recorder):
    from repro import SimOptions
    from repro.experiments import compare
    from repro.experiments.common import ResultCache
    from repro.options import use_options
    from repro.workloads import WORKLOADS

    options = SimOptions(cache_dir="")
    # Only the apps move: the scheme order changes which allocations
    # coexist, and with it the peak RSS.
    apps = order(p["apps"] or sorted(WORKLOADS))

    def run() -> None:
        with use_options(options):
            attempt(lambda: compare.build_compare(
                apps=apps, scale=p["scale"], schemes=tuple(p["schemes"]),
                cache=ResultCache("")))

    return run


def plan_l2_sms_bench(p: dict, order, work_dir: Path, recorder):
    from repro import SimOptions
    from repro.experiments import l2sweep
    from repro.workloads import CS_GROUP

    options = SimOptions(cache_dir="")
    schemes = tuple(order(p["schemes"]))
    sweeps = [(tuple(order(s["apps"] or CS_GROUP)), tuple(order(s["sms"])))
              for s in order(p["sweeps"])]

    def run() -> None:
        for apps, sms in sweeps:
            attempt(lambda: l2sweep.build_l2sweep(
                apps=apps, sms_values=sms, scale=p["scale"], options=options,
                schemes=schemes))

    return run


def plan_compile_registry(p: dict, order, work_dir: Path, recorder):
    from repro import Session, SimOptions
    from repro.workloads import WORKLOADS, get_workload

    sessions = {spec: Session(spec, SimOptions()) for spec in p["specs"]}
    apps = p["apps"] or list(WORKLOADS)
    inputs = {}
    for app in apps:
        wl = get_workload(app, p["scale"])
        inputs[app] = (wl.source(), dict(wl.launch_configs()))
    requests = order([(a, s) for a in apps for s in p["specs"]])

    def request(app: str, spec: str) -> dict:
        source, launches = inputs[app]
        session = sessions[spec]
        unit = session.compile(source)
        analyses = {k: session.analyze(unit, k, block, grid=grid)
                    for k, (grid, block) in launches.items()}
        comp = session.catt(unit, launches, validate=True)
        return compile_record(analyses, comp)

    def run() -> None:
        for _ in range(p["rounds"]):
            for app, spec in requests:
                recorder.run_op(f"{app}|{spec}",
                                lambda: request(app, spec))

    return run


PLANS = {
    "catt-all-test": plan_catt_all_test,
    "compare-bench": plan_compare_bench,
    "l2-sms-bench": plan_l2_sms_bench,
    "compile-registry": plan_compile_registry,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(PLANS))
    parser.add_argument("--profile", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from hostclock import Sampler
    from profiles import PROFILES

    params = PROFILES[args.profile][args.workload]
    ledger = None
    if args.traced:
        from instrument import install_layers
        from ledger import Ledger

        ledger = Ledger()
        ledger.calibrate()
        install_layers(ledger)
    # Untraced passes sample the host's speed as they run (hostclock.py);
    # their times leave out the sampling.  Traced passes do not sample, so
    # the samples never land in a layer's self time.
    sampler = None if args.traced else Sampler()
    clock = time.perf_counter
    if sampler is not None:
        clock = lambda: time.perf_counter() - sampler.spent_s  # noqa: E731
    recorder = Recorder(ledger, clock)
    install_boundaries(recorder, args.traced)
    run = PLANS[args.workload](
        params, lambda items: ordered(items, args.seed, args.pass_index),
        args.work_dir, recorder)
    print("READY", flush=True)

    t0 = time.perf_counter()
    if sampler is not None:
        sampler.start()
    run()
    if sampler is not None:
        sampler.stop()
    run_s = time.perf_counter() - t0

    result = {
        "run_s": run_s - (sampler.spent_s if sampler else 0.0),
        "ref_s": sampler.unit_s() if sampler else None,
        "samples": len(sampler.samples) if sampler else 0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": recorder.ops,
        "launch_s": recorder.launch_s,
        "totals": recorder.totals,
    }
    if ledger is not None:
        result["ledger"] = ledger.summary()
        result["covered_s"] = ledger.covered
        result["overhead_s"] = ledger.overhead()
        result["wrapper_ns"] = {
            "inner": ledger.inner * 1e9, "outer": ledger.outer * 1e9,
            "generator_inner": ledger.gen_inner * 1e9,
            "generator_outer": ledger.gen_outer * 1e9}
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.workload}.trace.json").write_text(
            json.dumps(ledger.chrome_trace()))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
