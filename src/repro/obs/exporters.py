"""Trace/metrics exporters: human tree, JSON Lines, Chrome ``trace_event``.

Three consumers, three formats:

* :func:`render_tree` — terminal summary (``catt profile`` / ``catt trace``);
* :func:`to_jsonl` / :func:`from_jsonl` — lossless line-oriented archive;
* :func:`to_chrome_trace` / :func:`from_chrome_trace` — the Chrome
  ``trace_event`` JSON object format, loadable in Perfetto / ``chrome://tracing``
  (complete ``"ph": "X"`` events with microsecond timestamps).

All functions accept either :class:`~repro.obs.trace.Span` objects or their
``to_dict`` form, so worker-exported spans need no re-hydration first.
"""

from __future__ import annotations

import json

from .trace import Span


def _as_spans(spans) -> list[Span]:
    return [s if isinstance(s, Span) else Span.from_dict(s) for s in spans]


# ---------------------------------------------------------------------------
# Human tree
# ---------------------------------------------------------------------------


def render_tree(spans, metrics: dict | None = None) -> str:
    """Indented span tree with durations, plus an optional metrics appendix."""
    spans = _as_spans(spans)
    lines: list[str] = []

    def fmt(s: Span, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
        err = f"  !! {s.error}" if s.error else ""
        lines.append(
            f"{'  ' * depth}{s.name:{max(40 - 2 * depth, 8)}s}"
            f"{s.seconds * 1e3:10.3f} ms"
            + (f"  [{attrs}]" if attrs else "") + err
        )
        for c in s.children:
            fmt(c, depth + 1)

    for s in spans:
        fmt(s, 0)
    if metrics:
        health = _sweep_health_lines(metrics.get("counters", {}))
        if health:
            lines.append("")
            lines.append("sweep health:")
            lines.extend(health)
        lines.append("")
        lines.append("metrics:")
        for name, value in metrics.get("counters", {}).items():
            lines.append(f"  {name:42s} {value:>14,}")
        for name, s in metrics.get("histograms", {}).items():
            lines.append(
                f"  {name:42s} n={s['count']} mean={s['mean']:.6g} "
                f"min={s['min']:.6g} max={s['max']:.6g}"
            )
    return "\n".join(lines)


#: Supervisor/cache counters surfaced as a dedicated health section: every
#: entry is a fault the run *survived* — nonzero values mean the sweep or
#: the store did recovery work that would previously have been fatal.
_HEALTH_COUNTERS = (
    ("sweep.retries", "cell attempts retried"),
    ("sweep.timeouts", "cells killed by deadline"),
    ("sweep.crashes", "worker crashes survived"),
    ("sweep.respawns", "workers respawned"),
    ("sweep.quarantined", "poison cells quarantined"),
    ("sweep.interrupted", "sweeps interrupted cleanly"),
    ("cache.integrity_failures", "cache records failing sha256"),
    ("cache.shards_quarantined", "corrupt cache shards archived"),
    ("cache.write_errors", "cache writes degraded to memory"),
)


def _sweep_health_lines(counters: dict) -> list[str]:
    lines = []
    for name, label in _HEALTH_COUNTERS:
        value = counters.get(name)
        if value:
            lines.append(f"  {label:42s} {value:>14,}")
    return lines


def phase_totals(spans) -> dict[str, float]:
    """Wall-clock seconds per *top-level* span name (the manifest's phases)."""
    totals: dict[str, float] = {}
    for s in _as_spans(spans):
        totals[s.name] = totals.get(s.name, 0.0) + s.seconds
    return {k: round(v, 6) for k, v in sorted(totals.items())}


# ---------------------------------------------------------------------------
# JSON Lines
# ---------------------------------------------------------------------------


def to_jsonl(spans) -> str:
    """One flat JSON object per span per line (``parent`` links by id)."""
    spans = _as_spans(spans)
    lines: list[str] = []
    next_id = [0]

    def emit(s: Span, parent: int | None) -> None:
        sid = next_id[0]
        next_id[0] += 1
        rec = {"id": sid, "parent": parent, "name": s.name,
               "start": s.start, "end": s.end, "attrs": s.attrs}
        if s.error:
            rec["error"] = s.error
        lines.append(json.dumps(rec, sort_keys=True, default=str))
        for c in s.children:
            emit(c, sid)

    for s in spans:
        emit(s, None)
    return "\n".join(lines) + ("\n" if lines else "")


def from_jsonl(text: str) -> list[Span]:
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        s = Span(rec["name"], dict(rec.get("attrs", {})), rec["start"])
        s.end = rec["end"]
        s.error = rec.get("error")
        by_id[rec["id"]] = s
        parent = rec.get("parent")
        if parent is None:
            roots.append(s)
        else:
            by_id[parent].children.append(s)
    return roots


# ---------------------------------------------------------------------------
# Chrome trace_event (Perfetto-loadable)
# ---------------------------------------------------------------------------


def to_chrome_trace(spans, metrics: dict | None = None,
                    process_name: str = "catt") -> dict:
    """Complete-event (``ph: X``) Chrome trace; open in Perfetto to explore."""
    spans = _as_spans(spans)
    starts = [s.start for root in spans for s in root.walk()]
    t0 = min(starts) if starts else 0.0
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]

    def emit(s: Span) -> None:
        args = {k: v if isinstance(v, (int, float, str, bool, type(None)))
                else str(v) for k, v in s.attrs.items()}
        if s.error:
            args["error"] = s.error
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(max(s.end - s.start, 0.0) * 1e6, 3),
            "pid": 0,
            "tid": 0,
            "args": args,
        })
        for c in s.children:
            emit(c)

    for s in spans:
        emit(s)
    payload: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics:
        payload["metrics"] = metrics
    return payload


def from_chrome_trace(payload: dict) -> list[Span]:
    """Rebuild the span forest from a Chrome trace (round-trip of the above).

    Nesting is recovered from interval containment per (pid, tid); ties on
    identical start are broken by longer-duration-first, matching pre-order
    emission.
    """
    events = [e for e in payload.get("traceEvents", [])
              if e.get("ph") == "X"]
    events.sort(key=lambda e: (e.get("pid", 0), e.get("tid", 0),
                               e["ts"], -e.get("dur", 0)))
    roots: list[Span] = []
    stack: list[tuple[float, Span]] = []  # (end_ts, span)
    for e in events:
        start = e["ts"] / 1e6
        end = (e["ts"] + e.get("dur", 0)) / 1e6
        attrs = dict(e.get("args", {}))
        error = attrs.pop("error", None)
        s = Span(e["name"], attrs, start)
        s.end = end
        s.error = error
        while stack and e["ts"] >= stack[-1][0] - 1e-9:
            stack.pop()
        if stack:
            stack[-1][1].children.append(s)
        else:
            roots.append(s)
        stack.append((e["ts"] + e.get("dur", 0), s))
    return roots
