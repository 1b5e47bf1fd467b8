"""Static validation pre-gate: verifier-proven-safe kernels skip the
lockstep differential run, and the gate changes no transform decisions."""

from repro.frontend import emit, parse
from repro.sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K
from repro.transform import catt_compile
from repro.transform import pipeline as pipeline_mod
from repro.transform.diagnostics import (
    I_STATIC_SAFE,
    W_REVERTED,
    W_STATIC_PROOF,
)
from repro.transform.validate import STATIC_SAFE

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
"""

LAUNCHES = {"atax_kernel1": (4, 256)}

# A kernel the throttle decision fires on but the verifier cannot prove:
# the guard bound is a runtime parameter.
UNPROVABLE = """
__global__ void k(float *A, float *x, float *tmp, int nx) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < nx) {
        for (int j = 0; j < 64; j++) {
            tmp[i] += A[i * 64 + j] * x[j];
        }
    }
}
"""


def _count_differential(monkeypatch):
    calls = []
    real = pipeline_mod.differential_validate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "differential_validate", counting)
    return calls


def test_proven_safe_kernel_skips_differential(monkeypatch):
    calls = _count_differential(monkeypatch)
    comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM, validate=True)
    t = comp.transforms["atax_kernel1"]
    assert t.warp_splits == [(0, 2)]          # the transform still happened
    assert t.validation is not None
    assert t.validation.status == STATIC_SAFE
    assert t.validation.ok
    assert not calls                           # interpreter never ran
    codes = {d.code for d in comp.diagnostics_for("atax_kernel1")}
    assert I_STATIC_SAFE in codes


def test_unprovable_kernel_falls_back_to_differential(monkeypatch):
    calls = _count_differential(monkeypatch)
    comp = catt_compile(parse(UNPROVABLE), {"k": (4, 256)}, TITAN_V_SIM,
                        validate=True)
    t = comp.transforms["k"]
    assert t.warp_splits                       # the decision did throttle
    assert calls                               # dynamic gate did run
    assert t.validation.status != STATIC_SAFE
    # And the dynamic gate is not decorative: with `i < nx` unprovable, warps
    # whose threads all fail the guard never reach the inserted barrier —
    # the gate detects the hazard and reverts.
    assert t.validation.must_revert


# CATT splits the inner loop (loop 1) by 2; the split's barriers land in the
# body of the outer loop.
NESTED = """
__global__ void k(float *A, float *y, int *len) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    for (int r = 0; BOUND; r++) {
        HEAD
        for (int j = 0; j < 256; j++) {
            y[t * 256 + j] += A[t * 256 + j];
        }
    }
}
"""


def _compile_nested(monkeypatch, bound, head=""):
    calls = _count_differential(monkeypatch)
    src = NESTED.replace("BOUND", bound).replace("HEAD", head)
    comp = catt_compile(parse(src), {"k": (4, 256)}, TITAN_V_SIM,
                        validate=True)
    t = comp.transforms["k"]
    assert t.warp_splits == [(1, 2)]
    codes = {d.code for d in comp.diagnostics_for("k")}
    assert calls and I_STATIC_SAFE not in codes
    return t, codes


def test_split_in_loop_with_thread_dependent_trip_count_is_validated(
        monkeypatch):
    """Threads leave ``r < len[t]`` after different trips, so warps whose
    threads are all done skip the split's barriers that the others wait at:
    the static proof must not call the split safe, and the differential
    gate catches the deadlock and reverts."""
    t, codes = _compile_nested(monkeypatch, "r < len[t]")
    assert t.validation.status == "deadlock"
    assert t.reverted and W_REVERTED in codes


def test_split_in_loop_with_thread_dependent_break_is_validated(monkeypatch):
    """A thread-dependent ``break`` in the enclosing loop makes the split's
    barriers divergent too, so the kernel goes to the differential gate.
    The gate passes it: each warp keeps live lanes that reach every
    barrier."""
    t, codes = _compile_nested(monkeypatch, "r < 4", "if (t == r) break;")
    assert t.validation.ok and not t.reverted
    assert W_REVERTED not in codes


def test_static_proof_crash_is_reported_before_dynamic_gate(monkeypatch):
    """If the race analysis crashes inside the static proof, the pipeline
    records why (CATT-W-STATIC-PROOF) and the differential gate decides."""
    from repro.analysis.dataflow import races

    def crash_in_proof(analysis, loop):
        raise RuntimeError("prover bug")

    # The pipeline's own race stage still succeeds.
    monkeypatch.setattr(races, "loop_conflicts", crash_in_proof)
    calls = _count_differential(monkeypatch)
    comp = catt_compile(parse(ATAX), LAUNCHES, TITAN_V_SIM, validate=True)
    t = comp.transforms["atax_kernel1"]
    assert t.warp_splits == [(0, 2)]
    assert calls and t.validation.status != STATIC_SAFE and t.validation.ok
    d, = [d for d in comp.diagnostics_for("atax_kernel1")
          if d.code == W_STATIC_PROOF]
    assert d.severity == "warning" and d.stage == "validate"
    assert "RuntimeError('prover bug')" in d.message


def test_decisions_unchanged_across_gate_modes():
    """validate=True (static gate active) must transform exactly what
    validate=False transforms, for every cache scheme."""
    for spec in (TITAN_V_SIM, TITAN_V_SIM_32K):
        plain = catt_compile(parse(ATAX), LAUNCHES, spec)
        gated = catt_compile(parse(ATAX), LAUNCHES, spec, validate=True)
        for name in LAUNCHES:
            tp, tg = plain.transforms[name], gated.transforms[name]
            assert tp.warp_splits == tg.warp_splits
            assert (tp.tb_plan is None) == (tg.tb_plan is None)
            assert emit(plain.unit.kernel(name)) == emit(gated.unit.kernel(name))


def test_static_safe_report_counts_as_ok():
    from repro.transform.validate import ValidationReport

    r = ValidationReport("k", STATIC_SAFE, "proven")
    assert r.ok and not r.must_revert


def test_syr2k_upgraded_to_static_fast_path(monkeypatch):
    """Regression: SYR2K once fell back to the differential gate because
    an index-span check could not reason about threadIdx.y in a written
    index (2-D TB).  The race analysis proves 'c' cross-thread disjoint in
    every barrier interval the loop touches, so the kernel takes the static
    fast path with zero lockstep runs."""
    from repro.workloads import get_workload

    calls = _count_differential(monkeypatch)
    wl = get_workload("SYR2K", "test")
    comp = catt_compile(wl.unit(), dict(wl.launch_configs()), TITAN_V_SIM,
                        validate=True)
    t = comp.transforms["syr2k_kernel"]
    assert t.warp_splits                       # the transform still happened
    assert t.validation.status == STATIC_SAFE
    assert not calls                           # differential never ran


RACY_ATAX = """
#define NX 1024
#define NY 64
__global__ void atax_racy(float *A, float *x, float *tmp) {
    __shared__ float tile[257];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    tile[threadIdx.x] = x[0];
    tmp[0] = tile[threadIdx.x + 1];
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            tmp[i] += A[i * NY + j] * x[j];
        }
    }
}
"""


def test_proved_race_blocks_transforms():
    """A proved shared-memory race means the kernel's result already depends
    on scheduling: warp-split and TB-throttle are blocked outright."""
    from repro.transform.diagnostics import E_PROVED_RACE

    comp = catt_compile(parse(RACY_ATAX), {"atax_racy": (4, 256)},
                        TITAN_V_SIM, validate=True)
    t = comp.transforms["atax_racy"]
    assert t.race_blocked
    assert t.warp_splits == [] and t.tb_plan is None
    codes = {d.code for d in comp.diagnostics_for("atax_racy")}
    assert E_PROVED_RACE in codes
    # the emitted unit carries the kernel untouched
    assert emit(comp.unit.kernel("atax_racy")) == \
        emit(comp.original.kernel("atax_racy"))
