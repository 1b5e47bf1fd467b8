"""Pipeline-wide observability: tracing, metrics, exporters, run manifests.

Zero-dependency (stdlib only) and cheap enough to leave compiled in
everywhere: every entry point checks one ``enabled`` flag and returns a
shared no-op when observability is off.  See docs/OBSERVABILITY.md for the
architecture and the manifest schema.

* :mod:`repro.obs.trace` — nested spans (:func:`span`, :class:`Tracer`);
* :mod:`repro.obs.metrics_registry` — counters/histograms;
* :mod:`repro.obs.exporters` — human tree, JSON Lines, Chrome trace_event;
* :mod:`repro.obs.manifest` — signed run manifests.
"""

from .exporters import (
    from_chrome_trace,
    from_jsonl,
    phase_totals,
    render_tree,
    to_chrome_trace,
    to_jsonl,
)
from .manifest import (
    RunManifest,
    build_manifest,
    load_manifest,
    manifest_path_for,
    verify_manifest,
    write_manifest,
)
from .metrics_registry import MetricsRegistry, registry
from .trace import NULL_SPAN, Span, Tracer, span, tracer

__all__ = [
    "Span",
    "Tracer",
    "span",
    "tracer",
    "NULL_SPAN",
    "MetricsRegistry",
    "registry",
    "render_tree",
    "phase_totals",
    "to_jsonl",
    "from_jsonl",
    "to_chrome_trace",
    "from_chrome_trace",
    "RunManifest",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "verify_manifest",
    "manifest_path_for",
]
