"""Self-test of the benchmark harness on the one-app smoke profile.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import instrument  # noqa: E402
import run as harness  # noqa: E402
from compare import verdict  # noqa: E402
from ledger import Ledger  # noqa: E402
from profiles import PROFILES, WORKLOADS  # noqa: E402
from stats import (MIN_BEYOND, TAIL_LADDER, percentile,  # noqa: E402
                   tail_percentile)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads(harness.BENCHMARK.read_text())

#: The workload each wrapped layer must be exercised by.
EXERCISED_BY = {
    "frontend.parse": "compile-registry",
    "analysis.analyze_kernel": "compile-registry",
    "transform.catt_compile": "compile-registry",
    "transform.validate": "compile-registry",
    "sim.launch": "compare-bench",
    "sim.compile": "compare-bench",
    "sim.dedup.analyze": "compare-bench",
    "sim.dedup.record": "compare-bench",
    "sim.exec": "compare-bench",
    "sim.sm.run": "compare-bench",
    "sim.coalescer": "compare-bench",
    "sim.cache.l1": "compare-bench",
    "sim.cache.l2": "compare-bench",
    "baselines.governor": "compare-bench",
    "workloads.setup": "compare-bench",
    "workloads.run": "compare-bench",
    "experiments.run_app": "compare-bench",
    "sim.sm.step": "l2-sms-bench",
    "sim.gpu.run": "l2-sms-bench",
    "baselines.bftt": "catt-all-test",
    "experiments.sweep": "catt-all-test",
    "experiments.store.put": "catt-all-test",
    "experiments.figures": "catt-all-test",
}
#: Layers only a non-default engine reaches (checked by
#: test_engine_layers_are_wired).
ENGINE_ONLY = {"sim.tape.lower", "sim.tape.record"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced smoke pass of every workload."""
    out = tmp_path_factory.mktemp("out")
    return {w: harness.run_workload(w, trace=True, profile="smoke",
                                    min_passes=1, out_dir=out)
            for w in WORKLOADS}


def _entries(workload: str) -> dict:
    return harness.load_golden(harness.golden_path(workload, "smoke"))


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(PROFILES["full"]) == set(WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= harness.MAX_BOUND, m
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        if m["name"] != "trace.overhead_pct":
            harness.layer_metric(m["name"])
    with pytest.raises(harness.BenchError):
        harness.layer_metric("sim.no_such_layer.calls")


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "compile-registry", "--profile", "smoke", "--seconds", "0",
         "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(re.match(rf"\s+{re.escape(m['name'])}\s+\S+ "
                            rf"{re.escape(m['unit'])}(\s|$)", line)
                   for line in lines), m["name"]


def test_traced_run_prints_every_per_layer_metric(runs, capsys, tmp_path):
    for workload, run in runs.items():
        result = harness.report(run, _entries(workload))
        printed = capsys.readouterr().out
        assert result["correct"], printed
        for m in SPEC["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ "
                             rf"{re.escape(m['unit'])}(\s|$)", printed,
                             re.MULTILINE), (workload, m["name"])
        layers = json.loads(harness.write_layers(run, tmp_path).read_text())
        assert set(layers["metrics"]) == set(result["metrics"])
        assert layers["metrics"]["trace.coverage_pct"] >= 95.0, workload
        assert abs(sum(layers["shares"].values()) - 1.0) < 1e-9
        if workload == "compare-bench":
            # Every layer runs inside a compare cell, so the operations'
            # self times add up to the ledger's.
            for name, layer in layers["layers"].items():
                assert sum(op["layers"].get(name, 0.0)
                           for op in layers["ops"]) == pytest.approx(
                    layer["self_s"], abs=1e-9), name


def test_tail_percentile_keeps_ten_samples_beyond_it():
    for n in range(1, 3000):
        p = tail_percentile(n)
        if n * (100 - TAIL_LADDER[-1]) / 100 < MIN_BEYOND:
            assert p == TAIL_LADDER[-1]
            continue
        assert n * (100 - p) / 100 >= MIN_BEYOND
        higher = [q for q in TAIL_LADDER if q > p]
        assert all(n * (100 - q) / 100 < MIN_BEYOND for q in higher)
    assert tail_percentile(1000) == 99.0
    assert percentile(range(101), 75.0) == 75.0
    assert percentile([1.0, 3.0], 50.0) == 2.0


def test_run_time_is_in_units_of_each_pass_reference():
    def plain(run_s, ref_s, latencies):
        return {"traced": False, "run_s": run_s, "ref_s": ref_s,
                "setup_s": 0.25, "rss_mb": 50.0,
                "totals": {"instructions": 1000},
                "ops": [{"kind": "cell", "latency_s": s} for s in latencies]
                + [{"kind": "figure", "latency_s": 9.0}]}

    run = {"passes": [plain(2.0, 0.5, [0.2, 0.4]),
                      plain(3.0, 1.0, [0.3, 0.9])]}
    values = harness.end_to_end(run)
    assert values["run_ref"] == pytest.approx(3.5)     # median of 4 and 3
    assert values["run_s"] == pytest.approx(2.5)
    assert values["ref_s"] == pytest.approx(0.75)
    assert values["setup_s"] == pytest.approx(     # median of 0.025, 0.0125
        0.25 * hostclock.NOMINAL_UNIT_S * (1 / 0.5 + 1 / 1.0) / 2)
    assert values["setup_wall_s"] == pytest.approx(0.25)
    assert values["cell_p50_s"] == pytest.approx(
        percentile([0.2, 0.4, 0.3, 0.9], 50.0))


def test_sampler_times_the_reference_while_the_pass_runs():
    sampler = hostclock.Sampler(interval_s=0.01)
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        hostclock.reference_loop(1000)
    sampler.stop()
    assert len(sampler.samples) >= 5
    assert 0 < sum(sampler.samples) <= sampler.spent_s
    assert sampler.spent_s < 0.3
    assert sampler.unit_s() == pytest.approx(
        sum(sampler.samples) / len(sampler.samples)
        * hostclock.REF_ITERATIONS / hostclock.CHUNK)
    # Stopped means stopped: no sample lands after stop().
    count = len(sampler.samples)
    time.sleep(0.05)
    assert len(sampler.samples) == count


def test_self_time_is_duration_minus_child_coverage():
    now = [0.0]
    ledger = Ledger(clock=lambda: now[0])

    def leaf(cost):
        now[0] += cost

    def middle():
        now[0] += 1.0
        traced_leaf(2.0)
        now[0] += 0.5
        traced_leaf(3.0)

    def root():
        now[0] += 4.0
        traced_middle()
        now[0] += 0.25

    traced_leaf = ledger.wrap("leaf", leaf)
    traced_middle = ledger.wrap("middle", middle)
    ledger.wrap("root", root)()
    layers = ledger.summary()
    assert layers["leaf"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert layers["middle"]["total_s"] == 6.5
    assert layers["middle"]["self_s"] == 1.5
    assert layers["root"]["total_s"] == 10.75
    assert layers["root"]["self_s"] == 4.25
    assert ledger.covered == 10.75
    parents = {e[0]: e[4] for e in ledger.events}
    ids = {e[0]: e[3] for e in ledger.events}
    assert parents["leaf"] == ids["middle"] and parents["root"] == -1

    # The wrapper's own cost comes off both sides of each span.
    ledger = Ledger(clock=lambda: now[0])
    ledger.inner, ledger.outer = 0.1, 0.2
    traced_leaf = ledger.wrap("leaf", leaf)
    traced_middle = ledger.wrap("middle", middle)
    traced_middle()
    layers = ledger.summary()
    assert layers["leaf"]["self_s"] == pytest.approx(5.0 - 2 * 0.1)
    assert layers["middle"]["self_s"] == pytest.approx(1.5 - 2 * 0.2 - 0.1)


def test_traced_and_untraced_passes_simulate_identically(runs):
    for workload, run in runs.items():
        plain, traced = run["passes"]
        assert not plain["traced"] and traced["traced"]
        records = [{op["key"]: op["record"] for op in p["ops"]}
                   for p in (plain, traced)]
        assert records[0] == records[1], workload
        assert plain["totals"] == traced["totals"], workload
        assert harness.check(run, _entries(workload))[1] == 0, workload


def test_corrupted_golden_counts_as_failed(runs):
    run = runs["compare-bench"]
    entries = _entries("compare-bench")
    assert harness.check(run, entries)[1] == 0
    corrupt = copy.deepcopy(entries)
    key = sorted(corrupt)[0]
    corrupt[key]["total_cycles"] += 1
    attempted, failed, problems = harness.check(run, corrupt)
    assert failed / attempted > 0
    assert any(key in p for p in problems)
    del corrupt[key]
    assert harness.check(run, corrupt)[1] > 0
    assert harness.check(run, None)[1] > 0


def test_every_wrapped_layer_is_exercised(runs):
    assert instrument.LAYERS == set(EXERCISED_BY) | ENGINE_ONLY
    for layer, workload in EXERCISED_BY.items():
        ledger = runs[workload]["passes"][1]["ledger"]
        assert ledger[layer]["calls"] > 0, (layer, workload)


def test_engine_layers_are_wired():
    """The tape and interp engines are not the default, so no workload
    reaches them; drive one launch under each through the same wiring."""
    code = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(harness.ROOT / 'src')!r}]
from instrument import install_layers
from ledger import Ledger
ledger = Ledger()
install_layers(ledger)
from repro import SimOptions
from repro.options import use_options
from repro.workloads import get_workload
from repro.workloads.base import run_workload
out = {{}}
for engine in ("tape", "interp"):
    before = {{k: l.calls for k, l in ledger.layers.items()}}
    with use_options(SimOptions(engine=engine)):
        run_workload(get_workload("GSMV", "test"))
    out[engine] = {{k: l.calls - before.get(k, 0)
                   for k, l in ledger.layers.items()}}
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert calls["tape"]["sim.tape.lower"] > 0
    assert calls["tape"]["sim.tape.record"] > 0
    assert calls["interp"]["sim.exec"] > 0
    assert calls["interp"]["sim.compile"] == 0


def test_compare_claims_a_gain_only_under_the_pairing_rule():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [p - 1.0 for p in parent]
    assert verdict(parent, faster, "lower", 0.1, True) == "GAIN"
    assert verdict(parent, faster, "lower", 0.1, False) == "ok"
    assert verdict(parent[:5], faster[:5], "lower", 0.1, True) == "ok"
    slower = [p * 1.2 for p in parent]
    assert verdict(parent, slower, "lower", 0.1, True) == "REGRESSION"
    noisy = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
    assert verdict(noisy, noisy, "lower", 0.1, True) == "unresolved"
