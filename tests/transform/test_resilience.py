"""Resilient-driver tests: fault isolation, validation gate, typed
force_throttle errors — the degradation paths of docs/ROBUSTNESS.md."""

import numpy as np
import pytest

from repro.errors import ThrottleSearchError, WarpSplitError
from repro.frontend import emit, parse
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM
from repro.testing import FaultSpec, InjectedFault, inject_faults
from repro.transform import catt_compile, differential_validate, force_throttle
from repro.transform import pipeline as pipeline_mod
from repro.transform.diagnostics import (
    E_ANALYSIS,
    E_FRONTEND,
    E_TRANSFORM,
    W_REVERTED,
)
from repro.workloads import get_workload

ATAX = """
#define NX 1024
#define NY 64
__global__ void atax_kernel1(float *A, float *x, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            tmp[i] += A[i * NY + j] * x[j];
        }
    }
}

__global__ void atax_kernel2(float *A, float *y, float *tmp) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < NY) {
        for (int i = 0; i < NX; i++) {
            y[j] += A[i * NY + j] * tmp[i];
        }
    }
}
"""

LAUNCHES = {"atax_kernel1": (4, 256), "atax_kernel2": (1, 64)}


# ---------------------------------------------------------------------------
# Per-kernel fault isolation
# ---------------------------------------------------------------------------


def test_missing_kernel_degrades_not_raises():
    launches = dict(LAUNCHES, ghost_kernel=(4, 256))
    comp = catt_compile(parse(ATAX), launches, TITAN_V_SIM)
    # The real kernels compiled as usual...
    assert comp.transforms["atax_kernel1"].warp_splits == [(0, 2)]
    # ...the ghost passed through with a structured frontend diagnostic.
    ghost = comp.transforms["ghost_kernel"]
    assert ghost.analysis is None and not ghost.transformed
    diags = comp.diagnostics_for("ghost_kernel")
    assert len(diags) == 1
    d = diags[0]
    assert d.code == E_FRONTEND and d.stage == "frontend"
    assert d.severity == "error" and d.kernel == "ghost_kernel"
    assert not comp.ok


def test_malformed_launch_config_degrades_at_analysis():
    # Zero threads per TB breaks the occupancy model — a natural analysis
    # failure, no injection needed.
    launches = {"atax_kernel1": (4, 256), "atax_kernel2": (1, 0)}
    comp = catt_compile(parse(ATAX), launches, TITAN_V_SIM)
    assert comp.transforms["atax_kernel1"].transformed
    bad = comp.transforms["atax_kernel2"]
    assert bad.analysis is None and not bad.transformed
    codes = {d.code for d in comp.diagnostics_for("atax_kernel2")}
    assert codes == {E_ANALYSIS}


def test_malformed_plus_valid_unit_compiles_end_to_end():
    """The acceptance scenario: one kernel's analysis dies, the unit still
    compiles, the valid kernel is throttled, and the emitted code runs."""
    with inject_faults(FaultSpec(stage="analysis", match="atax_kernel2")):
        comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM)
    t1, t2 = comp.transforms["atax_kernel1"], comp.transforms["atax_kernel2"]
    assert t1.warp_splits == [(0, 2)]
    assert t2.analysis is None and not t2.transformed
    d, = comp.diagnostics_for("atax_kernel2")
    assert d.code == E_ANALYSIS and d.stage == "analysis"
    assert d.exception and "InjectedFault" in d.exception
    assert d.elapsed_seconds >= 0.0
    # The degraded kernel is byte-identical to the original source.
    assert emit(comp.unit.kernel("atax_kernel2")) == \
        emit(comp.original.kernel("atax_kernel2"))
    # End to end: both kernels execute and produce correct results.
    rng = np.random.default_rng(7)
    A = rng.standard_normal((1024, 64)).astype(np.float32)
    x = rng.standard_normal(64).astype(np.float32)
    dev = Device(TITAN_V_SIM)
    dA, dx = dev.to_device(A), dev.to_device(x)
    tmp, y = dev.zeros(1024), dev.zeros(64)
    dev.launch(comp.unit, "atax_kernel1", 4, 256, [dA, dx, tmp])
    dev.launch(comp.unit, "atax_kernel2", 1, 64, [dA, y, tmp])
    np.testing.assert_allclose(tmp.to_host(), A @ x, rtol=1e-3)
    np.testing.assert_allclose(y.to_host(), A.T @ (A @ x), rtol=1e-2)


def test_transform_fault_isolated_per_loop():
    with inject_faults(FaultSpec(stage="transform", match="atax_kernel1")):
        comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM)
    t1 = comp.transforms["atax_kernel1"]
    assert not t1.warp_splits          # the split was the failing stage
    assert not t1.transformed
    d, = comp.diagnostics_for("atax_kernel1")
    assert d.code == E_TRANSFORM and d.loop_id == 0


def test_resilient_false_propagates():
    with inject_faults(FaultSpec(stage="analysis")):
        with pytest.raises(InjectedFault):
            catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM, resilient=False)


# ---------------------------------------------------------------------------
# Analysis failures are loud: no fallback path
# ---------------------------------------------------------------------------


def _gsmv():
    """GSMV's kernel, which CATT warp-splits at test scale."""
    wl = get_workload("GSMV", "test")
    return wl.unit(), wl.launch_configs()


def test_affine_flow_failure_degrades_kernel(monkeypatch):
    """The dataflow fixpoint is the only source of index forms: its failure
    propagates out of find_loops and degrades the kernel in catt_compile."""
    from repro.analysis import loops as loops_mod

    def broken_flow(*args, **kwargs):
        raise RuntimeError("fixpoint bug")

    unit, launches = _gsmv()
    monkeypatch.setattr(loops_mod, "AffineFlow", broken_flow)
    with pytest.raises(RuntimeError, match="fixpoint bug"):
        loops_mod.find_loops(unit.kernel("gesummv_kernel"), (256, 1, 1))
    comp = catt_compile(unit, launches, TITAN_V_SIM)
    t = comp.transforms["gesummv_kernel"]
    assert t.analysis is None and not t.transformed
    d, = comp.diagnostics_for("gesummv_kernel")
    assert d.code == E_ANALYSIS and "fixpoint bug" in d.message
    assert emit(comp.unit.kernel("gesummv_kernel")) == \
        emit(unit.kernel("gesummv_kernel"))
    with pytest.raises(RuntimeError, match="fixpoint bug"):
        catt_compile(unit, launches, TITAN_V_SIM, resilient=False)


def test_race_analysis_crash_blocks_transforms(monkeypatch):
    """Without race verdicts nothing is proved race-free: a prover crash
    blocks warp split and TB throttle with CATT-E-ANALYSIS."""
    from repro.analysis.dataflow import races

    unit, launches = _gsmv()
    assert catt_compile(unit, launches,
                        TITAN_V_SIM).transforms["gesummv_kernel"].transformed

    def crash(analysis):
        raise RuntimeError("prover bug")

    monkeypatch.setattr(races, "analyze_races", crash)
    comp = catt_compile(unit, launches, TITAN_V_SIM)
    t = comp.transforms["gesummv_kernel"]
    assert t.race_blocked and t.race_report is None
    assert t.warp_splits == [] and t.tb_plan is None and not t.transformed
    d, = comp.diagnostics_for("gesummv_kernel")
    assert d.code == E_ANALYSIS and d.severity == "error"
    assert d.message.startswith("race analysis failed: prover bug")
    assert emit(comp.unit.kernel("gesummv_kernel")) == \
        emit(unit.kernel("gesummv_kernel"))
    with pytest.raises(RuntimeError, match="prover bug"):
        catt_compile(unit, launches, TITAN_V_SIM, resilient=False)


# ---------------------------------------------------------------------------
# Typed exceptions (narrowed from blanket ValueError)
# ---------------------------------------------------------------------------


def test_force_throttle_raises_typed_errors():
    with pytest.raises(ThrottleSearchError):
        force_throttle(parse(ATAX), "atax_kernel1", 256, TITAN_V_SIM, 3, 0)
    with pytest.raises(ThrottleSearchError):
        force_throttle(parse(ATAX), "atax_kernel1", 256, TITAN_V_SIM, 1, 99,
                       grid=4)
    # Still ValueError subclasses: historical call sites keep working.
    assert issubclass(ThrottleSearchError, ValueError)
    assert issubclass(WarpSplitError, ValueError)


def test_unexpected_transform_bug_not_swallowed(monkeypatch):
    """A genuine bug (not a WarpSplitError) must surface as an error-severity
    diagnostic, not be silently treated as 'cannot throttle'."""
    def buggy_split(*args, **kwargs):
        raise TypeError("a real bug in the splitter")

    monkeypatch.setattr(pipeline_mod, "split_loop_for_warp_groups",
                        buggy_split)
    comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM)
    d, = comp.diagnostics_for("atax_kernel1")
    assert d.code == E_TRANSFORM and d.severity == "error"
    assert "TypeError" in (d.exception or "")


# ---------------------------------------------------------------------------
# Differential validation gate
# ---------------------------------------------------------------------------


def test_validation_gate_passes_real_transform():
    comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM, validate=True)
    t1 = comp.transforms["atax_kernel1"]
    assert t1.transformed and not t1.reverted
    assert t1.validation is not None and t1.validation.ok


def test_validation_gate_reverts_divergent_transform(monkeypatch):
    broken = parse(ATAX.replace("* x[j]", "* x[j] + 1.0f"))

    def bad_split(kernel, *args, **kwargs):
        return broken.kernel(kernel.name)

    monkeypatch.setattr(pipeline_mod, "split_loop_for_warp_groups", bad_split)
    comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM, validate=True)
    t1 = comp.transforms["atax_kernel1"]
    assert t1.reverted and not t1.transformed
    assert t1.validation.status == "diverged"
    assert any(d.code == W_REVERTED for d in comp.diagnostics)
    # The emitted unit carries the *original* kernel.
    assert emit(comp.unit.kernel("atax_kernel1")) == \
        emit(comp.original.kernel("atax_kernel1"))


def test_differential_validate_detects_barrier_deadlock():
    original = parse(ATAX)
    dead = parse(ATAX.replace(
        "if (i < NX) {",
        "if (threadIdx.x >= 64) { return; }\n    __syncthreads();\n"
        "    if (i < NX) {"))
    report = differential_validate(original, dead, "atax_kernel1", 4, 256)
    assert report.status == "deadlock" and report.must_revert
    assert report.executor == "tape"


def test_differential_validate_pass_and_diverge():
    original = parse(ATAX)
    ok = differential_validate(original, parse(ATAX), "atax_kernel1", 4, 256)
    assert ok.ok
    broken = parse(ATAX.replace("* x[j]", "* x[j] + 1.0f"))
    bad = differential_validate(original, broken, "atax_kernel1", 4, 256)
    assert bad.status == "diverged" and "tmp" in bad.detail


def test_no_budget_means_no_budget_diagnostics():
    comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM)
    assert comp.ok
