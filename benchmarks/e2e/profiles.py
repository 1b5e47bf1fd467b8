"""What each benchmark workload runs, per profile.

``full`` is the repository benchmark.  Each workload is a fixed amount of
work (one *pass*) run in a fresh interpreter; a run repeats passes for its
time budget and reports medians.  The passes are cut down from the full
commands (``command`` below), which take 15 s to 40 s each, to about 4 s.
The subsets were chosen so that a traced pass spends its time across the
layers in the same shares as the traced full command; README.md cites both
side by side.

``smoke`` is the one-app, test-scale profile the self-test runs.

This module is pure data: run.py imports it without importing
``repro``.
"""

from __future__ import annotations

WORKLOADS = ("catt-all-test", "compare-bench", "l2-sms-bench",
             "compile-registry")

#: Passes every run makes at least, whatever its time budget; the tail
#: percentile is chosen from this many passes' samples (see stats.py).
MIN_PASSES = 3

PROFILES: dict[str, dict[str, dict]] = {
    "full": {
        # Cold sweep + the nine table/figure functions `catt all` runs, on
        # two CS apps (KM, MVT: BFTT searches, CATT) and two CI apps (HP,
        # SYRK), and one whole fig3 curve: the full command spends 38 % of
        # its time in fig3's long, narrow microbenchmark launches.
        "catt-all-test": {
            "scale": "test",
            "cs_apps": ["KM", "MVT"],
            "ci_apps": ["HP", "SYRK"],
            "fig3_fill_points": [16],
            "fig3_tlps": [1, 2, 4, 8, 16, 32],
        },
        # Two functional-execution-heavy apps (LVMD, LUD) and two
        # timing-loop-heavy ones (PF, GEMM): together they split their time
        # between E and R as the 23-app command does.
        "compare-bench": {
            "scale": "bench",
            "apps": ["GEMM", "LUD", "LVMD", "PF"],
            "schemes": ["catt", "dyncta", "ciao", "ata"],
        },
        # Each entry is one build_l2sweep call: BFS (E-heavy) and MVT at two
        # SMs, PF at four.
        "l2-sms-bench": {
            "scale": "bench",
            "schemes": ["baseline", "ciao", "ata"],
            "sweeps": [{"apps": ["BFS", "MVT"], "sms": [2]},
                       {"apps": ["PF"], "sms": [4]}],
        },
        # Every registry app at both L1D configurations; the first round is
        # cold, the rest reuse the process's warm code paths.
        "compile-registry": {
            "scale": "bench",
            "apps": None,
            "specs": ["max", "32k"],
            "rounds": 8,
        },
    },
    # The full commands the ``full`` passes are cut down from, run as one
    # pass each; ``None`` means every registry app of the group the command
    # uses.  Their traced ledgers are what the ``full`` subsets are matched
    # against (README.md).
    "command": {
        "catt-all-test": {
            "scale": "test",
            "cs_apps": None,
            "ci_apps": None,
            "fig3_fill_points": [4, 8, 16],
            "fig3_tlps": [1, 2, 4, 8, 16, 32],
        },
        "compare-bench": {
            "scale": "bench",
            "apps": None,
            "schemes": ["catt", "dyncta", "ciao", "ata"],
        },
        "l2-sms-bench": {
            "scale": "bench",
            "schemes": ["baseline", "ciao", "ata"],
            "sweeps": [{"apps": None, "sms": [2, 4]}],
        },
        "compile-registry": {
            "scale": "bench",
            "apps": None,
            "specs": ["max", "32k"],
            "rounds": 40,
        },
    },
    "smoke": {
        "catt-all-test": {
            "scale": "test",
            "cs_apps": ["GSMV"],
            "ci_apps": ["MC"],
            "fig3_fill_points": [16],
            "fig3_tlps": [16, 32],
        },
        "compare-bench": {
            "scale": "test",
            "apps": ["GSMV"],
            "schemes": ["catt", "dyncta", "ciao", "ata"],
        },
        "l2-sms-bench": {
            "scale": "test",
            "schemes": ["baseline", "ciao", "ata"],
            "sweeps": [{"apps": ["GSMV"], "sms": [2]}],
        },
        "compile-registry": {
            "scale": "bench",
            "apps": ["GSMV", "BFS"],
            "specs": ["max", "32k"],
            "rounds": 2,
        },
    },
}
