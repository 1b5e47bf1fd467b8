"""Exporter tests: human tree, JSONL round-trip, Chrome trace_event
round-trip and Perfetto-format invariants."""

from __future__ import annotations

import json

from repro.obs.exporters import (
    from_chrome_trace,
    from_jsonl,
    phase_totals,
    render_tree,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.trace import Span


def forest():
    root = Span("experiment.cell", {"app": "ATAX"}, start=10.0)
    root.end = 10.5
    launch = Span("sim.launch", {"kernel": "k1"}, start=10.1)
    launch.end = 10.4
    compile_ = Span("sim.compile", {}, start=10.1)
    compile_.end = 10.15
    compile_.error = "RuntimeError: nope"
    launch.children.append(compile_)
    root.children.append(launch)
    other = Span("frontend.parse", {"tokens": 3}, start=10.6)
    other.end = 10.7
    return [root, other]


def test_render_tree_shows_nesting_durations_and_metrics():
    text = render_tree(forest(), {"counters": {"sim.launches": 4},
                                  "histograms": {}})
    lines = text.splitlines()
    assert lines[0].startswith("experiment.cell")
    assert "500.000 ms" in lines[0]
    assert lines[1].startswith("  sim.launch")          # indented child
    assert "!! RuntimeError: nope" in text
    assert "sim.launches" in text and "4" in text


def test_phase_totals_aggregates_top_level_names():
    totals = phase_totals(forest())
    assert totals == {"experiment.cell": 0.5, "frontend.parse": 0.1}


def test_jsonl_round_trip():
    text = to_jsonl(forest())
    assert len(text.splitlines()) == 4          # one record per span
    restored = from_jsonl(text)
    assert [s.name for s in restored] == ["experiment.cell", "frontend.parse"]
    (root, other) = restored
    assert root.children[0].name == "sim.launch"
    assert root.children[0].children[0].error == "RuntimeError: nope"
    assert other.attrs == {"tokens": 3}
    # Spans also survive the dict form (worker-shipped payloads).
    assert from_jsonl(to_jsonl([s.to_dict() for s in forest()]))


def test_chrome_trace_is_valid_trace_event_json():
    payload = to_chrome_trace(forest(), {"counters": {"c": 1}})
    assert json.loads(json.dumps(payload)) == payload   # serializable
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert meta and meta[0]["args"]["name"] == "catt"
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 4
    for e in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(e)
        assert e["ts"] >= 0 and e["dur"] >= 0           # µs, zero-based
    by_name = {e["name"]: e for e in complete}
    assert by_name["sim.launch"]["cat"] == "sim"
    assert by_name["experiment.cell"]["args"]["app"] == "ATAX"
    assert by_name["sim.compile"]["args"]["error"] == "RuntimeError: nope"


def test_chrome_trace_round_trip_recovers_nesting():
    restored = from_chrome_trace(to_chrome_trace(forest()))
    assert [s.name for s in restored] == ["experiment.cell", "frontend.parse"]
    (root, other) = restored
    (launch,) = root.children
    assert launch.name == "sim.launch"
    (compile_,) = launch.children
    assert compile_.name == "sim.compile"
    assert compile_.error == "RuntimeError: nope"
    assert abs(root.seconds - 0.5) < 1e-6
    assert other.children == []


def test_empty_forest_exports():
    assert to_jsonl([]) == ""
    assert from_jsonl("") == []
    payload = to_chrome_trace([])
    assert [e["ph"] for e in payload["traceEvents"]] == ["M"]
    assert from_chrome_trace(payload) == []
    assert render_tree([]) == ""
