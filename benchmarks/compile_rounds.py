"""Time the compile path's cold first round apart from its warm rounds.

Each repetition is a fresh Python process that runs ``--rounds`` rounds of
``Session.compile`` + ``Session.analyze`` (every kernel) +
``Session.catt(..., validate=True)`` over the 23 registry apps at both L1D
sizes (46 requests per round, bench scale): the requests of the
repository benchmark's compile-registry workload, in registry order.  It
prints the first round's seconds (cold: nothing parsed, analysed or
lowered yet) and the mean of the later rounds (warm)::

    python benchmarks/compile_rounds.py --reps 3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def rounds(n: int) -> list[float]:
    sys.path.insert(0, str(SRC))
    from repro import Session, SimOptions
    from repro.workloads import WORKLOADS, get_workload

    sessions = [Session(spec, SimOptions()) for spec in ("max", "32k")]
    inputs = []
    for app in WORKLOADS:
        wl = get_workload(app, "bench")
        inputs.append((wl.source(), dict(wl.launch_configs())))
    seconds = []
    for _ in range(n):
        t0 = time.perf_counter()
        for source, launches in inputs:
            for session in sessions:
                unit = session.compile(source)
                for kernel, (grid, block) in launches.items():
                    session.analyze(unit, kernel, block, grid=grid)
                session.catt(unit, launches, validate=True)
        seconds.append(time.perf_counter() - t0)
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=8,
                        help="rounds per repetition, the first cold")
    parser.add_argument("--reps", type=int, default=3,
                        help="fresh processes, run one after another")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(rounds(args.rounds)))
        return 0
    for rep in range(args.reps):
        out = subprocess.run(
            [sys.executable, __file__, "--child", "--rounds",
             str(args.rounds)],
            check=True, capture_output=True, text=True).stdout
        cold, *warm = json.loads(out)
        line = f"rep {rep + 1}: cold round {cold:.3f} s"
        if warm:
            line += (f", warm rounds {sum(warm) / len(warm):.3f} s mean "
                     f"({len(warm)})")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
