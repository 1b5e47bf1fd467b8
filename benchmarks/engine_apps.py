#!/usr/bin/env python
"""Per-app host seconds of the tape engine against compiled+dedup.

Runs every registry app's baseline (untransformed) kernels under
``SimOptions(engine="tape")`` and ``SimOptions(engine="compiled",
dedup=True)``, one fresh process per (repetition, engine) so in-process
memos start cold as they do for a ``catt`` command, alternating which
engine goes first::

    python benchmarks/engine_apps.py --scale bench --reps 5
    python benchmarks/engine_apps.py --scale test --apps MVT --fig3

``--fig3`` adds the Fig. 3 microbenchmark launches (fill point 16,
TLP 1-32).  Prints a Markdown table of per-item medians, the median
per-repetition tape/compiled ratio (< 1: tape is faster) and in how many
repetitions the tape was faster; ``--out`` also writes the raw samples as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

ENGINES = ("compiled", "tape")
FIG3_FILL = 16
FIG3_TLPS = (1, 2, 4, 8, 16, 32)


def _worker(engine: str, scale: str, items: list[str]) -> dict[str, float]:
    from repro.options import SimOptions, use_options
    from repro.workloads import get_workload
    from repro.workloads.base import run_workload
    from repro.workloads.microbench import run_microbench

    seconds: dict[str, float] = {}
    with use_options(SimOptions(engine=engine, dedup=True, cache_dir="")):
        for item in items:
            start = time.perf_counter()
            if item.startswith("fig3:"):
                run_microbench(FIG3_FILL, int(item[5:]), iters=4)
            else:
                run_workload(get_workload(item, scale=scale), verify=False)
            seconds[item] = time.perf_counter() - start
    return seconds


def format_table(samples: dict[str, dict[str, list[float]]]) -> str:
    """Markdown table: per-item medians, the median over repetitions of
    tape/compiled (robust to host drift between repetitions), and in how
    many repetitions the tape was faster."""
    lines = ["| app | compiled+dedup s | tape s | tape / compiled "
             "| tape faster |", "|---|---|---|---|---|"]
    totals = {e: 0.0 for e in ENGINES}
    for item, compiled in samples["compiled"].items():
        tape = samples["tape"][item]
        totals["compiled"] += statistics.median(compiled)
        totals["tape"] += statistics.median(tape)
        ratio = statistics.median(t / c for c, t in zip(compiled, tape))
        wins = sum(t < c for c, t in zip(compiled, tape))
        lines.append(f"| {item} | {statistics.median(compiled):.3f} | "
                     f"{statistics.median(tape):.3f} | {ratio:.2f} | "
                     f"{wins}/{len(tape)} |")
    lines.append(f"| total | {totals['compiled']:.2f} | "
                 f"{totals['tape']:.2f} | "
                 f"{totals['tape'] / totals['compiled']:.2f} | |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="bench", choices=["bench", "test"])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--apps", default=None,
                        help="comma-separated registry apps (default: all)")
    parser.add_argument("--fig3", action="store_true",
                        help=f"add the Fig. 3 launches (fill {FIG3_FILL})")
    parser.add_argument("--out", default=None, help="raw samples as JSON")
    parser.add_argument("--worker", choices=ENGINES, help=argparse.SUPPRESS)
    parser.add_argument("items", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(_worker(args.worker, args.scale, args.items)))
        return 0

    from repro.workloads import WORKLOADS

    items = args.apps.split(",") if args.apps else sorted(WORKLOADS)
    if args.fig3:
        items += [f"fig3:{t}" for t in FIG3_TLPS]
    samples: dict[str, dict[str, list[float]]] = {
        e: {i: [] for i in items} for e in ENGINES}
    for rep in range(args.reps):
        for engine in (ENGINES if rep % 2 == 0 else ENGINES[::-1]):
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", engine,
                 "--scale", args.scale, *items],
                capture_output=True, text=True, check=True)
            for item, s in json.loads(proc.stdout.splitlines()[-1]).items():
                samples[engine][item].append(s)

    print(format_table(samples))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"scale": args.scale, "reps": args.reps, "samples": samples},
            indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
