"""Session facade tests: option resolution, the retired environment
variables, and observability wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session, SimOptions
from repro.options import current_options, resolve_cache_path, use_options

SRC = """
__global__ void scale(float* x, float* y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) y[i] = 2.0f * x[i];
}
"""


# -- SimOptions ------------------------------------------------------------


def test_simoptions_validation():
    with pytest.raises(ValueError):
        SimOptions(engine="vulkan")
    with pytest.raises(ValueError):
        SimOptions(jobs=0)


def test_simoptions_cache_path_semantics(tmp_path):
    """``cache_dir`` reaches the result cache verbatim: ``None`` keeps the
    default store, ``""`` is memory-only, any other path roots a store."""
    from repro.experiments.common import ResultCache

    default = str(tmp_path / "default")
    assert resolve_cache_path(default) == default      # nothing active
    with use_options(SimOptions()):
        assert resolve_cache_path(default) == default
    with use_options(SimOptions(cache_dir="")):
        assert resolve_cache_path(default) == ""
        assert ResultCache().path is None
    store = str(tmp_path / "store")
    with use_options(SimOptions(cache_dir=store)):
        assert resolve_cache_path(default) == store
        assert str(ResultCache().path) == store


def test_repro_environment_variables_change_nothing(monkeypatch, tmp_path):
    """Only SimOptions configures a run: the retired ``REPRO_*`` variables
    reach neither a launch, a Session nor the result cache."""
    from repro.experiments.common import ResultCache
    from repro.runtime import Device
    from repro.sim.arch import TITAN_V_SIM

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_SIM_ENGINE", "interp")
    monkeypatch.setenv("REPRO_SIM_DEDUP", "0")
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env_store"))
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
    assert current_options() == SimOptions()
    assert Session("max").options == SimOptions()
    dev = Device(TITAN_V_SIM)
    x = dev.to_device(np.arange(64, dtype=np.float32))
    y = dev.zeros(64, np.float32)
    res = dev.launch(SRC, "scale", 2, 32, [x, y, 64])
    assert res.engine == "tape" and res.sanitizer is None
    np.testing.assert_allclose(y.to_host(), 2.0 * np.arange(64))
    assert ResultCache().path == tmp_path / ".bench_cache"


# -- Session ---------------------------------------------------------------


def test_session_rejects_unknown_spec():
    with pytest.raises(ValueError, match="unknown spec"):
        Session("16k")


def test_session_end_to_end_launch():
    sess = Session("max", SimOptions())
    unit = sess.compile(SRC)
    x = sess.to_device(np.arange(8, dtype=np.float32))
    y = sess.zeros(8)
    res = sess.launch(unit, "scale", 1, 8, [x, y, 8])
    np.testing.assert_allclose(y.to_host(), 2.0 * np.arange(8))
    assert res.metrics.cycles > 0


def test_session_scope_restores_ambient_state():
    from repro.obs.metrics_registry import registry
    from repro.obs.trace import tracer

    sess = Session("max", SimOptions(trace=True, metrics=True))
    assert not tracer().enabled and not registry().enabled
    sess.compile(SRC)
    assert not tracer().enabled and not registry().enabled
    assert current_options() == SimOptions()


def test_session_trace_and_manifest(tmp_path):
    import json

    from repro.obs.manifest import verify_manifest

    sess = Session("max", SimOptions(trace=True, metrics=True))
    sess.reset_observability()
    unit = sess.compile(SRC)
    x = sess.to_device(np.arange(8, dtype=np.float32))
    y = sess.zeros(8)
    sess.launch(unit, "scale", 1, 8, [x, y, 8])

    names = {s.name for root in sess.spans() for s in root.walk()}
    assert "frontend.parse" in names and "sim.launch" in names
    assert sess.metrics_snapshot()["counters"]["sim.launches"] == 1
    assert "sim.launch" in sess.render_trace()

    trace_path = sess.write_trace(tmp_path / "t.json")
    payload = json.loads(trace_path.read_text())
    assert any(e.get("ph") == "X" for e in payload["traceEvents"])
    jsonl_path = sess.write_trace(tmp_path / "t.jsonl", fmt="jsonl")
    assert jsonl_path.read_text().strip()

    manifest_path = sess.write_manifest(tmp_path / "m.json",
                                        command="test-run")
    assert verify_manifest(manifest_path)
    sess.reset_observability()
    assert sess.spans() == []


def test_session_run_app_uses_session_cache():
    sess = Session("max", SimOptions(cache_dir=""))   # memory-only
    r1 = sess.run_app("ATAX", "baseline", scale="test")
    r2 = sess.run_app("ATAX", "baseline", scale="test")
    assert r1.total_cycles == r2.total_cycles > 0


def test_session_sweep_commits_cells_like_run_sweep(tmp_path):
    from repro.experiments.common import ResultCache
    from repro.experiments.sweep import run_sweep

    cells = [("ATAX", "baseline", "max", "test"),
             ("ATAX", "catt", "max", "test")]
    options = SimOptions(cache_dir=str(tmp_path / "session"))
    with Session("max", options) as sess:
        first = sess.sweep(cells, scale="test")
        again = sess.sweep(cells, scale="test")
    assert (first.cells, first.computed, first.cached) == (2, 2, 0)
    assert (again.cells, again.computed, again.cached) == (2, 0, 2)
    direct = ResultCache(tmp_path / "direct")
    run_sweep(cells, jobs=options.jobs, cache=direct, options=options)
    assert ResultCache(tmp_path / "session").digest() == direct.digest()


# -- context manager / lifecycle --------------------------------------------


def test_session_is_a_context_manager(tmp_path):
    with Session("max", SimOptions(cache_dir=str(tmp_path))) as sess:
        assert not sess.closed
        result = sess.run_app("ATAX", "baseline", scale="test")
        assert result.total_cycles > 0
    assert sess.closed
    # The cells the store wrote through are readable by a brand-new session.
    with Session("max", SimOptions(cache_dir=str(tmp_path))) as sess2:
        again = sess2.run_app("ATAX", "baseline", scale="test")
    assert again.total_cycles == result.total_cycles


def test_closed_session_refuses_pipeline_work():
    sess = Session("max", SimOptions(cache_dir=""))
    sess.close()
    sess.close()                      # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        sess.compile(SRC)
    with pytest.raises(RuntimeError, match="closed"):
        sess.run_app("ATAX", "baseline", scale="test")
    with pytest.raises(RuntimeError, match="closed"):
        with sess:
            pass


# -- SimOptions.signature ----------------------------------------------------


def test_signature_is_empty_for_default_identity():
    assert SimOptions().signature() == ""
    # Knobs that change HOW results are computed — not WHAT they are — must
    # not participate: caches stay shareable across engines and job counts.
    assert SimOptions(engine="interp", dedup=False, jobs=8,
                      cache_dir="x", trace=True).signature() == ""


def test_signature_reflects_result_identity_fields():
    assert SimOptions(sms=4).signature() == "sms4"
    assert SimOptions(sms=4).signature() == SimOptions(sms=4, jobs=2).signature()
    assert SimOptions(sms=2).signature() != SimOptions(sms=4).signature()


def test_cache_key_signature_matches_legacy_sms_suffix():
    from repro.experiments.common import ResultCache

    cell = ("ATAX", "baseline", "max", "test")
    assert ResultCache.key(*cell, signature="") == ResultCache.key(*cell)
    assert ResultCache.key(*cell, signature=SimOptions(sms=4).signature()) \
        == "ATAX|baseline|max|test|sms4"


def test_package_exports_session_api():
    import repro

    assert repro.Session is Session
    assert repro.SimOptions is SimOptions
    assert "Session" in repro.__all__
    # Every public name resolves, so a stale export fails here.
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []


def test_default_engine_is_tape():
    assert SimOptions().engine == "tape"
