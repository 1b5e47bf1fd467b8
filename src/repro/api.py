"""``repro.api`` — the unified :class:`Session` facade.

One object that ties the whole pipeline together: a
:class:`~repro.options.SimOptions` (``SimOptions()`` unless given), a
simulated :class:`~repro.runtime.device.Device`, and the observability layer
(:mod:`repro.obs`).  Every Session method runs with the session's options
active, so engine/dedup/cache selection is deterministic and explicit
instead of ambient process state.

Quickstart::

    from repro import Session, SimOptions

    with Session("max", SimOptions(trace=True)) as sess:
        unit = sess.compile(CUDA_SOURCE)
        comp = sess.catt(unit, {"my_kernel": (grid, block)})
        result = sess.launch(comp.unit, "my_kernel", grid, block, args=[...])
        print(sess.render_trace())
        sess.write_manifest("run.manifest.json")

Sessions are context managers: ``close()`` (or leaving the ``with`` block)
releases the session; a closed session refuses further pipeline work.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from .obs import (
    build_manifest,
    metrics_registry,
    render_tree,
    to_chrome_trace,
    to_jsonl,
    trace as _trace_mod,
    write_manifest,
)
from .options import SimOptions, set_active_options
from .runtime import Device
from .sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K, GPUSpec

SPEC_NAMES: dict[str, GPUSpec] = {
    "max": TITAN_V_SIM,
    "32k": TITAN_V_SIM_32K,
}


class Session:
    """A configured pipeline: spec + options + device + observability."""

    def __init__(self, spec: GPUSpec | str = "max",
                 options: SimOptions | None = None):
        if isinstance(spec, str):
            try:
                self.spec_name, self.spec = spec, SPEC_NAMES[spec]
            except KeyError:
                raise ValueError(
                    f"unknown spec {spec!r}; options: {sorted(SPEC_NAMES)}"
                ) from None
        else:
            self.spec = spec
            self.spec_name = next(
                (k for k, v in SPEC_NAMES.items() if v is spec), "custom")
        self.options = options if options is not None else SimOptions()
        self.device = Device(self.spec)
        self._result_cache = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Retire this session (idempotent).

        After ``close()`` every pipeline method raises — a closed session
        holds no promises about cache or observability state.  Closing
        drops the session's :class:`~repro.experiments.common.ResultCache`
        with its in-process memo; the store wrote every cell through to
        disk when it was put, so a later session reads them there.
        """
        self._closed = True
        self._result_cache = None

    def __enter__(self) -> "Session":
        if self._closed:
            raise RuntimeError("session is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- option scoping -----------------------------------------------------
    @contextmanager
    def _scope(self):
        if self._closed:
            raise RuntimeError(
                "session is closed; construct a new Session to keep working")
        previous = set_active_options(self.options)
        tracer = _trace_mod.tracer()
        registry = metrics_registry.registry()
        prev_trace, prev_metrics = tracer.enabled, registry.enabled
        if self.options.trace:
            tracer.enabled = True
        if self.options.metrics:
            registry.enabled = True
        try:
            yield
        finally:
            tracer.enabled, registry.enabled = prev_trace, prev_metrics
            set_active_options(previous)

    # -- pipeline stages ----------------------------------------------------
    def compile(self, source: str):
        """Parse a CUDA-subset source into a TranslationUnit."""
        with self._scope():
            return self.device.compile(source)

    def analyze(self, unit, kernel_name: str, block, grid=None):
        """CATT static analysis (Eqs. 1–9) for one kernel."""
        from .analysis import analyze_kernel

        with self._scope():
            return analyze_kernel(unit, kernel_name, block, self.spec,
                                  grid=grid)

    def catt(self, unit, launches: dict, **kwargs):
        """Run the CATT transform pipeline on ``unit``."""
        from .transform import catt_compile

        with self._scope():
            return catt_compile(unit, launches, self.spec, **kwargs)

    def launch(self, module, kernel_name: str, grid, block, args: list,
               **launch_kw):
        """Simulate one kernel launch under this session's options."""
        with self._scope():
            return self.device.launch(module, kernel_name, grid, block, args,
                                      **launch_kw)

    # -- device memory passthrough ------------------------------------------
    def to_device(self, host):
        return self.device.to_device(host)

    def zeros(self, shape, dtype=None):
        import numpy as np

        return self.device.zeros(shape, dtype or np.float32)

    def empty_like(self, host):
        return self.device.empty_like(host)

    # -- experiment harness --------------------------------------------------
    def _cache(self):
        if self._result_cache is None:
            from .experiments.common import ResultCache

            self._result_cache = ResultCache(self.options.cache_dir)
        return self._result_cache

    def run_app(self, app: str, scheme: str, scale: str = "bench",
                verify: bool = False, on_error: str = "degrade"):
        """One (app, scheme) simulation cell via the experiment harness."""
        from .experiments.common import run_app

        with self._scope():
            return run_app(app, scheme, self.spec_name, scale,
                           cache=self._cache(), verify=verify,
                           on_error=on_error)

    def sweep(self, cells=None, scale: str = "bench"):
        """Populate this session's cache with simulation cells.

        ``cells=None`` sweeps everything ``catt all`` consumes; jobs come
        from the session options.  Each finished cell is committed to the
        cache at once, so rerunning an interrupted sweep computes only what
        is missing.
        """
        from .experiments.sweep import all_cells, run_sweep

        with self._scope():
            return run_sweep(cells if cells is not None else all_cells(scale),
                             jobs=self.options.jobs, cache=self._cache(),
                             options=self.options)

    # -- observability ------------------------------------------------------
    def spans(self):
        """Root spans collected so far (tracing must be enabled)."""
        return _trace_mod.tracer().roots

    def metrics_snapshot(self) -> dict:
        return metrics_registry.registry().snapshot()

    def render_trace(self) -> str:
        return render_tree(self.spans(), self.metrics_snapshot()
                           if self.options.metrics else None)

    def write_trace(self, path: str | Path, fmt: str = "chrome") -> Path:
        """Dump collected spans: ``fmt`` is ``"chrome"`` or ``"jsonl"``."""
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "chrome":
            payload = to_chrome_trace(self.spans(), self.metrics_snapshot())
            path.write_text(json.dumps(payload, indent=1) + "\n")
        elif fmt == "jsonl":
            path.write_text(to_jsonl(self.spans()))
        else:
            raise ValueError(f"unknown trace format {fmt!r}")
        return path

    def write_manifest(self, path: str | Path, command: str = "session",
                       extra_config: dict | None = None) -> Path:
        config = {"spec": self.spec_name, **self.options.summary()}
        if extra_config:
            config.update(extra_config)
        manifest = build_manifest(
            command, config, spans=self.spans(),
            metrics=self.metrics_snapshot() if self.options.metrics else None,
        )
        return write_manifest(manifest, path)

    def reset_observability(self) -> None:
        _trace_mod.tracer().reset()
        metrics_registry.registry().reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Session(spec={self.spec_name!r}, options={self.options})"
