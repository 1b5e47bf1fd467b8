"""Time the cycle-level timing loop (R) alone, on recorded event streams.

The script records the warp event streams of a fixed launch set once.
Then it replays only the timing loop over them (``SMEngine.run`` or
``GPUEngine.run``), each repetition in a fresh Python process.  The launch
set is:

* compare-bench's four apps (GEMM, LUD, LVMD, PF) under baseline, catt,
  dyncta, ciao, ata and bypass, at one SM;
* l2-sms-bench's nine cells: BFS and MVT at two SMs and PF at four, each
  under baseline, ciao and ata.

Each replay gets a fresh clone of its launch's governor and a fresh ATA
tag array.  Per repetition and launch set, the script prints R in the
reference units of ``benchmarks/e2e/hostclock.py`` (host-speed
independent), and the nanoseconds per event and per L1 line probe::

    python benchmarks/timing_replay.py --reps 3 [--scale test]

It exits 1 when a replay's per-SM ``summary()`` differs from the recorded
launch's.
"""

from __future__ import annotations

import argparse
import json
import pickle
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HOSTCLOCK = ROOT / "benchmarks" / "e2e"

COMPARE_APPS = ("GEMM", "LUD", "LVMD", "PF")
COMPARE_SCHEMES = ("baseline", "catt", "dyncta", "ciao", "ata", "bypass")
L2_CELLS = (("BFS", 2), ("MVT", 2), ("PF", 4))
L2_SCHEMES = ("baseline", "ciao", "ata")


@dataclass
class Launch:
    """One recorded timing-loop run: its engine settings, the event
    streams of its timed TBs and the per-SM summaries it produced."""

    workload: str
    spec: object
    config: object
    sms: int
    scheduler: str
    l1_bypass: bool
    governor: object          # a fresh clone, or None
    governor_period: int
    ata_entries: int | None
    tb_ids: list
    resident_limit: int
    streams: dict             # tb_id -> per-warp event lists
    summaries: list

    def replay(self):
        from repro.sim.cache import AggregatedTagArray
        from repro.sim.gpu import GPUEngine
        from repro.sim.sm import SMEngine

        kwargs = {
            "scheduler": self.scheduler, "l1_bypass": self.l1_bypass,
            "governor_period": self.governor_period,
            "governor": (self.governor.clone()
                         if self.governor is not None else None),
            "ata": (AggregatedTagArray(self.ata_entries)
                    if self.ata_entries is not None else None),
        }
        streams = self.streams

        def warp_factory(tb_id):
            return [iter(warp) for warp in streams[tb_id]]

        if self.sms == 1:
            engine = SMEngine(self.spec, self.config, **kwargs)
            return [engine.run(self.tb_ids, warp_factory,
                               self.resident_limit)]
        gpu = GPUEngine(self.spec, self.config, self.sms, **kwargs)
        return gpu.run(self.tb_ids, warp_factory, self.resident_limit)

    def counts(self) -> tuple[int, int]:
        """(events, L1 line probes): global memory events count one probe
        per line."""
        from repro.sim.events import MemEvent

        events = probes = 0
        for warps in self.streams.values():
            for warp in warps:
                events += len(warp)
                probes += sum(len(e.lines) for e in warp
                              if e.__class__ is MemEvent
                              and e.space == "global")
        return events, probes


def record(scale: str) -> list[Launch]:
    """Run the launch set once, capturing every timing-loop run."""
    sys.path.insert(0, str(SRC))
    from repro import SimOptions
    from repro.experiments.common import ResultCache, run_app
    from repro.experiments.l2sweep import _sweep_cell
    from repro.options import use_options
    from repro.sim.gpu import GPUEngine
    from repro.sim.sm import SMEngine

    launches: list[Launch] = []
    workload = [""]

    def capture(run, settings):
        def wrapper(self, tb_ids, warp_factory, resident_limit):
            streams = {}

            def factory(tb_id):
                warps = [list(gen) for gen in warp_factory(tb_id)]
                streams[tb_id] = warps
                return [iter(warp) for warp in warps]

            engine, sms = settings(self)
            governor = engine.governor
            launch = Launch(
                workload[0], engine.spec, engine.config, sms,
                engine.scheduler, engine.l1_bypass,
                governor.clone() if governor is not None else None,
                engine.governor_period,
                engine.ata.tag_entries if engine.ata is not None else None,
                list(tb_ids), resident_limit, streams, [])
            result = run(self, tb_ids, factory, resident_limit)
            per_sm = result if isinstance(result, list) else [result]
            launch.summaries = [m.summary() for m in per_sm]
            launches.append(launch)
            return result
        return wrapper

    sm_run, gpu_run = SMEngine.run, GPUEngine.run
    SMEngine.run = capture(sm_run, lambda engine: (engine, 1))
    GPUEngine.run = capture(gpu_run,
                            lambda gpu: (gpu.engines[0], gpu.sms))
    try:
        options = SimOptions(cache_dir="")
        workload[0] = "compare-bench"
        with use_options(options):
            for app in COMPARE_APPS:
                for scheme in COMPARE_SCHEMES:
                    run_app(app, scheme, "max", scale, cache=ResultCache(""),
                            on_error="raise")
        workload[0] = "l2-sms-bench"
        for app, sms in L2_CELLS:
            for scheme in L2_SCHEMES:
                with use_options(options.replace(sms=sms)):
                    _sweep_cell(app, scale, "max", sms, scheme)
    finally:
        SMEngine.run, GPUEngine.run = sm_run, gpu_run
    return launches


def replay_all(path: str) -> dict:
    """One repetition: replay every recorded launch, timing only the
    timing loop."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HOSTCLOCK))
    from hostclock import Sampler

    with open(path, "rb") as fh:
        launches: list[Launch] = pickle.load(fh)
    seconds: dict[str, float] = {}
    results = []
    sampler = Sampler()
    sampler.start()
    try:
        for launch in launches:
            spent = sampler.spent_s
            t0 = time.perf_counter()
            per_sm = launch.replay()
            elapsed = time.perf_counter() - t0 - (sampler.spent_s - spent)
            seconds[launch.workload] = (seconds.get(launch.workload, 0.0)
                                        + elapsed)
            results.append(per_sm)
    finally:
        sampler.stop()
    mismatches = sum(
        [m.summary() for m in per_sm] != launch.summaries
        for launch, per_sm in zip(launches, results))
    return {"seconds": seconds, "unit_s": sampler.unit_s(),
            "mismatches": mismatches}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="bench",
                        help="workload scale of the recorded launches")
    parser.add_argument("--reps", type=int, default=3,
                        help="fresh processes, run one after another")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(replay_all(args.child)))
        return 0
    launches = record(args.scale)
    totals: dict[str, list[int]] = {}
    for launch in launches:
        acc = totals.setdefault(launch.workload, [0, 0, 0])
        events, probes = launch.counts()
        acc[0] += 1
        acc[1] += events
        acc[2] += probes
    for name, (n, events, probes) in totals.items():
        print(f"{name}: {n} launches, {events:,} events, "
              f"{probes:,} L1 line probes")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "launches.pickle")
        with open(path, "wb") as fh:
            pickle.dump(launches, fh, protocol=pickle.HIGHEST_PROTOCOL)
        del launches
        for rep in range(args.reps):
            out = subprocess.run(
                [sys.executable, __file__, "--child", path],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out)
            unit = result["unit_s"]
            for name, secs in result["seconds"].items():
                _, events, probes = totals[name]
                ref = secs / unit if unit else float("nan")
                print(f"rep {rep + 1} {name}: R {ref:.2f} ref "
                      f"({secs:.3f} s), {secs / events * 1e9:,.0f} ns/event, "
                      f"{secs / probes * 1e9:,.0f} ns/line probe")
            if result["mismatches"]:
                print(f"rep {rep + 1}: {result['mismatches']} replayed "
                      f"launches differ from their recorded summaries")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
