"""Static transform-safety verifier tests: range proofs, warp-split
legality rules, the structural shape matcher, and lint findings."""

import pytest

from repro.analysis import analyze_kernel
from repro.analysis.affine import BIDX, TIDX, AffineForm, SymbolicEnv
from repro.analysis.dataflow.races import (
    PROVED_SAFE,
    analyze_races,
    cond_always_true,
    cond_tb_uniform,
    form_range,
)
from repro.analysis.dataflow.safety import (
    findings_for_analysis,
    split_shape_matches,
    verify_warp_split,
)
from repro.frontend import parse, parse_kernel
from repro.sim.arch import TITAN_V_SIM
from repro.transform.diagnostics import (
    E_ANALYSIS,
    E_DIVERGENT_BARRIER,
    E_PROVED_RACE,
    W_IRREGULAR_INDEX,
    W_RACE_UNKNOWN,
    W_UNCOALESCED,
)
from repro.transform.warp_throttle import split_loop_for_warp_groups

BLOCK = (256, 1, 1)
GRID = (4, 1, 1)


def analysis_of(src, kernel=None, block=BLOCK, grid=GRID):
    unit = parse(src)
    name = kernel or unit.kernels()[0].name
    return analyze_kernel(unit, name, block, TITAN_V_SIM, grid=grid)


# ---------------------------------------------------------------------------
# Range analysis and guard proofs
# ---------------------------------------------------------------------------


def test_form_range_over_thread_and_block_symbols():
    form = (AffineForm.symbol(BIDX) * AffineForm.constant(256)
            + AffineForm.symbol(TIDX))
    assert form_range(form, BLOCK, GRID) == (0, 4 * 256 - 1)


def test_form_range_unknown_symbol_defeats():
    form = AffineForm.symbol("param:n")
    assert form_range(form, BLOCK, GRID) is None


def test_form_range_iterator_uses_trip_count():
    form = AffineForm.symbol("j") * AffineForm.constant(-2)
    assert form_range(form, BLOCK, GRID, trips={"j": 8}) == (-14, 0)


def _cond(src):
    kernel = parse_kernel(f"""
__global__ void k(float *a) {{
    if ({src}) {{ a[0] = 0.0f; }}
}}
""")
    stmt = kernel.body.statements[0]
    return stmt.cond


def test_guard_covering_the_whole_launch_is_always_true():
    env = SymbolicEnv(block_dim=BLOCK, grid_dim=GRID)
    # 1024 launched threads, bound 1024: i < NX holds for every thread.
    cond = _cond("blockIdx.x * 256 + threadIdx.x < 1024")
    assert cond_always_true(cond, env, BLOCK, GRID)


def test_guard_cutting_the_launch_is_not_provable():
    env = SymbolicEnv(block_dim=BLOCK, grid_dim=GRID)
    cond = _cond("blockIdx.x * 256 + threadIdx.x < 1000")
    assert not cond_always_true(cond, env, BLOCK, GRID)


def test_conjunction_requires_both_sides():
    env = SymbolicEnv(block_dim=BLOCK, grid_dim=GRID)
    good = _cond("threadIdx.x < 256 && threadIdx.x >= 0")
    bad = _cond("threadIdx.x < 256 && threadIdx.x < 100")
    assert cond_always_true(good, env, BLOCK, GRID)
    assert not cond_always_true(bad, env, BLOCK, GRID)


def test_tb_uniform_guards():
    env = SymbolicEnv(block_dim=BLOCK, grid_dim=GRID)
    assert cond_tb_uniform(_cond("blockIdx.x < 2"), env)
    assert not cond_tb_uniform(_cond("threadIdx.x < 2"), env)


# ---------------------------------------------------------------------------
# Warp-split legality rules
# ---------------------------------------------------------------------------

SAFE_SRC = """
__global__ void k(float *A, float *x, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < 1024) {
        tmp[i] = 0.0f;
        for (int j = 0; j < 64; j++) {
            tmp[i] += A[i * 64 + j] * x[j];
        }
    }
}
"""


def test_safe_kernel_passes_all_rules():
    analysis = analysis_of(SAFE_SRC)
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert verdict.safe, verdict.reasons


def test_sync_in_loop_fails():
    analysis = analysis_of("""
__global__ void k(float *a) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 64; j++) {
        a[i * 64 + j] = 0.0f;
        __syncthreads();
    }
}
""")
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert not verdict.safe
    assert any("__syncthreads" in r for r in verdict.reasons)


def test_unprovable_thread_guard_fails():
    analysis = analysis_of("""
__global__ void k(float *a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        for (int j = 0; j < 64; j++) { a[i * 64 + j] = 0.0f; }
    }
}
""")
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert not verdict.safe
    assert any("guard" in r for r in verdict.reasons)


def test_non_exclusive_write_fails():
    # Every thread writes a[j]: massively overlapping.
    analysis = analysis_of("""
__global__ void k(float *a) {
    for (int j = 0; j < 64; j++) { a[j] = 1.0f; }
}
""")
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert not verdict.safe
    assert any("'a'" in r for r in verdict.reasons)


def test_overlapping_thread_stride_fails():
    # stride 2 but span 64 per thread: neighbours collide.
    analysis = analysis_of("""
__global__ void k(float *a) {
    int i = threadIdx.x;
    for (int j = 0; j < 64; j++) { a[i * 2 + j] = 1.0f; }
}
""")
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert not verdict.safe


def test_shared_write_private_slot_upgraded_by_race_proof():
    # Each thread only ever touches tile[threadIdx.x]: the race analysis
    # proves every barrier interval disjoint, so a loop that writes shared
    # memory passes checks 3-4.
    analysis = analysis_of("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 64; j++) {
        tile[threadIdx.x] = a[i * 64 + j];
        a[i * 64 + j] = tile[threadIdx.x];
    }
}
""")
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert verdict.safe


def test_shared_write_cross_thread_in_loop_fails():
    # Reading a neighbour's slot defeats the disjointness proof (the modulo
    # makes the index irregular -> UNKNOWN), so checks 3-4 still block.
    analysis = analysis_of("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    int t = threadIdx.x;
    for (int j = 0; j < 64; j++) {
        tile[t] = a[t * 64 + j];
        a[t * 64 + j] = tile[(t + 1) % 256];
    }
}
""")
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert not verdict.safe
    assert any("'tile' is UNKNOWN" in r for r in verdict.reasons)


def test_store_through_a_dereference_fails():
    # ``*(a + t + 1)`` names no array the analysis can place, so it may
    # write the ``a[t]`` another warp group reads.
    analysis = analysis_of("""
__global__ void k(float *a, float *b) {
    int t = threadIdx.x;
    for (int j = 0; j < 8; j++) {
        b[t * 8 + j] = a[t];
        *(a + t + 1) = b[t * 8 + j];
    }
}
""", grid=(1, 1, 1))
    verdict = verify_warp_split(analysis, analysis.loops[0])
    assert not verdict.safe
    assert verdict.reasons


# Every loop of every registry launch at test scale: "S" where
# ``verify_warp_split`` proves the loop's split safe, "U" where it does not,
# by loop_id.  Both L1D specs give the same verdicts.
REGISTRY_VERDICTS = {
    ("2MM", "mm2_kernel1"): "U", ("2MM", "mm2_kernel2"): "U",
    ("3MM", "mm3_kernel1"): "U", ("3MM", "mm3_kernel2"): "U",
    ("3MM", "mm3_kernel3"): "U",
    ("ATAX", "atax_kernel1"): "S", ("ATAX", "atax_kernel2"): "U",
    ("BFS", "bfs_kernel1"): "U",
    ("BICG", "bicg_kernel1"): "U", ("BICG", "bicg_kernel2"): "S",
    ("BP", "bpnn_layerforward"): "U",
    ("BT", "btree_findk"): "SS",
    ("CFD", "cfd_compute_flux"): "S", ("CFD", "cfd_initialize"): "S",
    ("CORR", "corr_kernel"): "UU", ("CORR", "corr_mean"): "S",
    ("CORR", "corr_normalize"): "S", ("CORR", "corr_std"): "S",
    ("GEMM", "gemm_kernel"): "S",
    ("GRAM", "gram_rdot"): "U", ("GRAM", "gram_update"): "U",
    ("GSMV", "gesummv_kernel"): "S",
    ("HM", "huffman_decode"): "S",
    ("HP", "hotspot_kernel"): "U",
    ("HW", "hw_track"): "SS",
    ("KM", "kmeans_assign"): "SS", ("KM", "kmeans_swap"): "S",
    ("LUD", "lud_diagonal"): "SUUU",
    ("LVMD", "lavamd_kernel"): "S",
    ("MC", "myocyte_solve"): "S",
    ("MVT", "mvt_kernel1"): "S", ("MVT", "mvt_kernel2"): "U",
    ("PF", "pf_likelihood"): "SSS", ("PF", "pf_moments"): "S",
    ("PF", "pf_normalize"): "S", ("PF", "pf_weights"): "S",
    ("SYR2K", "syr2k_kernel"): "S",
    ("SYRK", "syrk_kernel"): "S",
}


@pytest.mark.parametrize("spec_name", ["max", "32k"])
def test_registry_static_verdicts(spec_name):
    from repro.experiments.common import SPECS
    from repro.workloads import WORKLOADS, get_workload

    got = {}
    for app in sorted(WORKLOADS):
        wl = get_workload(app, "test")
        unit = wl.unit()
        for kernel, (grid, block) in wl.launch_configs().items():
            analysis = analyze_kernel(unit, kernel, block, SPECS[spec_name],
                                      grid=grid)
            if analysis.loops:
                got[app, kernel] = "".join(
                    "S" if verify_warp_split(analysis, la).safe else "U"
                    for la in analysis.loops)
    assert got == REGISTRY_VERDICTS
    verdicts = "".join(got.values())
    assert (len(verdicts), verdicts.count("S")) == (47, 29)


# ---------------------------------------------------------------------------
# Structural translation validation (Fig. 4 shape)
# ---------------------------------------------------------------------------


def _split_fixture(n, warps_per_tb=8):
    original = parse_kernel(SAFE_SRC)
    from repro.frontend.ast_nodes import ForStmt, statements_in

    loop = [s for s in statements_in(original.body)
            if isinstance(s, ForStmt)][0]
    transformed = split_loop_for_warp_groups(
        original, loop, n, warps_per_tb=warps_per_tb, block_dim=BLOCK)
    return original, transformed, {id(loop): n}


def test_real_split_output_matches_shape():
    original, transformed, splits = _split_fixture(2)
    assert split_shape_matches(original, transformed, splits, 8, BLOCK)


def test_wrong_factor_rejected():
    original, transformed, splits = _split_fixture(2)
    wrong = {k: 4 for k in splits}
    assert not split_shape_matches(original, transformed, wrong, 8, BLOCK)


def test_wrong_partition_rejected():
    # Split computed for 4 warps/TB: the guards cover [0, 4), not [0, 8).
    original, transformed, splits = _split_fixture(2, warps_per_tb=4)
    assert not split_shape_matches(original, transformed, splits, 8, BLOCK)


def test_unsplit_kernels_must_be_identical():
    original = parse_kernel(SAFE_SRC)
    transformed = parse_kernel(SAFE_SRC.replace("j < 64", "j < 63"))
    assert not split_shape_matches(original, transformed, {}, 8, BLOCK)
    assert split_shape_matches(original, original, {}, 8, BLOCK)


def test_unexpected_dummy_prologue_rejected():
    original, transformed, splits = _split_fixture(2)
    from repro.transform.tb_throttle import add_dummy_shared

    with_dummy = add_dummy_shared(transformed, 1024)
    assert not split_shape_matches(
        original, with_dummy, splits, 8, BLOCK, expect_dummy=False)
    assert split_shape_matches(
        original, with_dummy, splits, 8, BLOCK, expect_dummy=True)


# ---------------------------------------------------------------------------
# Lint findings
# ---------------------------------------------------------------------------


def _codes(analysis):
    return {f.code for f in findings_for_analysis(analysis)}


def test_uncoalesced_reference_flagged():
    analysis = analysis_of("""
__global__ void k(float *A, float *x, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 64; j++) {
        tmp[i] += A[i * 64 + j] * x[j];
    }
}
""")
    findings = findings_for_analysis(analysis)
    hits = [f for f in findings if f.code == W_UNCOALESCED]
    assert len(hits) == 1 and hits[0].array == "A"
    assert hits[0].line is not None


def test_irregular_index_flagged():
    analysis = analysis_of("""
__global__ void k(int *idx, float *a) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 64; j++) {
        a[idx[i * 64 + j]] = 0.0f;
    }
}
""")
    hits = [f for f in findings_for_analysis(analysis)
            if f.code == W_IRREGULAR_INDEX]
    assert {f.array for f in hits} == {"a"}


def test_divergent_barrier_under_thread_guard_flagged():
    analysis = analysis_of("""
__global__ void k(float *a) {
    if (threadIdx.x < 32) {
        a[threadIdx.x] = 0.0f;
        __syncthreads();
    }
}
""")
    assert E_DIVERGENT_BARRIER in _codes(analysis)


def test_barrier_under_uniform_guard_clean():
    analysis = analysis_of("""
__global__ void k(float *a) {
    if (blockIdx.x < 2) {
        a[threadIdx.x] = 0.0f;
        __syncthreads();
    }
}
""")
    assert E_DIVERGENT_BARRIER not in _codes(analysis)


def test_divergent_barrier_in_loop_with_thread_dependent_break_flagged():
    # Thread 3 leaves the loop at its first iteration; the rest of its warp
    # and the other warps wait at the barrier every iteration.
    analysis = analysis_of("""
__global__ void k(float *a) {
    __shared__ float s[256];
    int t = threadIdx.x;
    for (int j = 0; j < 8; j++) {
        if (t == 3) break;
        s[t] = a[t * 8 + j];
        __syncthreads();
        a[t * 8 + j] = s[255 - t];
    }
}
""")
    hits = [f for f in findings_for_analysis(analysis)
            if f.code == E_DIVERGENT_BARRIER]
    assert [(f.loop_id, f.line) for f in hits] == [(0, 8)]
    assert "break" in hits[0].message


_INNER_LOOPS = {
    "for": "for (int j = 0; j < 8; j++) {{ if (t == j) {exit}; "
           "a[t * 8 + j] += 1.0f; }}",
    "while": "int j = -1; while (j < 7) {{ j++; if (t == j) {exit}; "
             "a[t * 8 + j] += 1.0f; }}",
    "do": "int j = -1; do {{ j++; if (t == j) {exit}; "
          "a[t * 8 + j] += 1.0f; }} while (j < 7);",
}


@pytest.mark.parametrize("exit_stmt", ["break", "continue"])
@pytest.mark.parametrize("inner", sorted(_INNER_LOOPS))
def test_thread_dependent_exit_of_a_nested_loop_keeps_outer_barriers(
        inner, exit_stmt):
    # The guarded break/continue leaves the inner loop only; every thread
    # still reaches both barriers of the outer loop, so they separate the
    # write of s from its cross-thread read.
    analysis = analysis_of(f"""
__global__ void k(float *a) {{
    __shared__ float s[256];
    int t = threadIdx.x;
    for (int i = 0; i < 4; i++) {{
        {_INNER_LOOPS[inner].format(exit=exit_stmt)}
        s[t] = a[t * 8 + i];
        __syncthreads();
        a[t * 8 + i] = s[255 - t];
        __syncthreads();
    }}
}}
""", grid=(1, 1, 1))
    verdicts = [(v.interval, v.verdict)
                for v in analyze_races(analysis).verdicts if v.array == "s"]
    assert verdicts == [(0, PROVED_SAFE), (1, PROVED_SAFE)]
    assert E_DIVERGENT_BARRIER not in _codes(analysis)


def test_shared_race_without_barrier_proved():
    analysis = analysis_of("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    int t = threadIdx.x;
    tile[t] = a[t];
    a[t] = tile[t + 1];
}
""")
    hits = [f for f in findings_for_analysis(analysis)
            if f.code == E_PROVED_RACE]
    assert len(hits) == 1 and hits[0].array == "tile"


def test_shared_race_separated_by_barrier_clean():
    analysis = analysis_of("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    int t = threadIdx.x;
    tile[t] = a[t];
    __syncthreads();
    a[t] = tile[t + 1];
}
""")
    codes = _codes(analysis)
    assert E_PROVED_RACE not in codes and W_RACE_UNKNOWN not in codes


def test_shared_race_2d_subscript_chain():
    # The backprop reduction pattern: 2-D tile written and read at a
    # different first-dimension index between two barriers of the same loop
    # iteration.  The old flat epoch counter separated them (false
    # negative); the interval machinery keeps them concurrent.
    analysis = analysis_of("""
__global__ void k(float *a, int n) {
    __shared__ float w[16][16];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    for (int i = 1; i <= 4; i++) {
        w[ty][tx] = w[ty][tx] + w[ty + i][tx];
        __syncthreads();
    }
}
""", block=(16, 16, 1))
    hits = [f for f in findings_for_analysis(analysis)
            if f.code == E_PROVED_RACE]
    assert len(hits) == 1 and hits[0].array == "w"


def test_same_index_read_write_is_not_a_race():
    analysis = analysis_of("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    int t = threadIdx.x;
    tile[t] = tile[t] + a[t];
}
""")
    codes = _codes(analysis)
    assert E_PROVED_RACE not in codes and W_RACE_UNKNOWN not in codes


def test_race_analysis_crash_is_a_finding(monkeypatch):
    """A race-analysis crash is a CATT-E-ANALYSIS finding naming the
    exception, in ``catt lint`` and in the analysis report — not silence."""
    from repro.analysis import format_analysis
    from repro.analysis.dataflow import races
    from repro.experiments.lint import lint_workload

    def crash(analysis):
        raise RuntimeError("prover bug")

    monkeypatch.setattr(races, "analyze_races", crash)
    hits = [f for app, f in lint_workload("BP", "test")
            if f.code == E_ANALYSIS]
    assert hits and all(f.severity == "error" for f in hits)
    assert "RuntimeError('prover bug')" in hits[0].message
    report = format_analysis(analysis_of("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    int t = threadIdx.x;
    tile[t] = a[t];
    a[t] = tile[t + 1];
}
"""))
    assert "CATT-E-ANALYSIS" in report and "prover bug" in report
