"""Loop discovery and access-collection tests."""

import pytest

from repro.analysis import analyze_kernel
from repro.analysis.affine import TIDX
from repro.analysis.dataflow import races
from repro.analysis.dataflow.safety import findings_for_analysis
from repro.analysis.loops import find_loops
from repro.frontend import parse, parse_kernel
from repro.sim.arch import TITAN_V_SIM


def loops_of(src, block=(256, 1, 1)):
    return find_loops(parse_kernel(src), block_dim=block)


def analysis_of(src, block=(256, 1, 1), grid=(4, 1, 1)):
    unit = parse(src)
    return analyze_kernel(unit, unit.kernels()[0].name, block, TITAN_V_SIM,
                          grid=grid)


def test_atax_loop_accesses():
    kl = loops_of("""
__global__ void k(float *A, float *B, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 64; j++) {
        tmp[i] += A[i * 64 + j] * B[j];
    }
}
""")
    assert len(kl.loops) == 1
    loop = kl.loops[0]
    assert loop.iterator == "j" and loop.step == 1
    refs = {a.array: a for a in loop.unique_accesses()}
    assert set(refs) == {"tmp", "A", "B"}
    assert refs["tmp"].is_read and refs["tmp"].is_write   # compound assign
    assert refs["A"].index.coeff(TIDX) == 64
    assert refs["A"].index.coeff("j") == 1
    assert refs["B"].index.coeff(TIDX) == 0


def test_rmw_counted_once():
    # A compound assignment is one read-modify-write reference.
    kl = loops_of("""
__global__ void k(float *a) {
    int i = threadIdx.x;
    for (int j = 0; j < 8; j++) {
        a[i] += 1.0f;
    }
}
""")
    refs = kl.loops[0].unique_accesses()
    assert len(refs) == 1
    assert refs[0].is_read and refs[0].is_write


def test_direction_in_dedup_key():
    # An explicit re-load plus store are two memory instructions (a load and
    # a store), and a pure load never collapses with an RMW of the same
    # (array, index, width) triple.
    kl = loops_of("""
__global__ void k(float *a) {
    int i = threadIdx.x;
    for (int j = 0; j < 8; j++) {
        a[i] = a[i] + 1.0f;
    }
}
""")
    refs = kl.loops[0].unique_accesses()
    assert sorted((r.is_read, r.is_write) for r in refs) == \
        [(False, True), (True, False)]

    kl = loops_of("""
__global__ void k(float *a, float *b) {
    int i = threadIdx.x;
    for (int j = 0; j < 8; j++) {
        a[i] += b[j];
        b[j] = a[i];
    }
}
""")
    a_refs = [r for r in kl.loops[0].unique_accesses() if r.array == "a"]
    # RMW a[i] (+=) and the pure load a[i] stay distinct references.
    assert sorted((r.is_read, r.is_write) for r in a_refs) == \
        [(True, False), (True, True)]


def test_nested_loops_parentage():
    kl = loops_of("""
__global__ void k(float *a) {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 8; j++) {
            a[i * 8 + j] = 0.0f;
        }
    }
}
""")
    outer, inner = kl.loops
    assert outer.depth == 0 and inner.depth == 1
    assert inner.parent_id == outer.loop_id
    # access recorded in both loops, innermost id attached
    assert len(outer.accesses) == 1
    assert outer.accesses[0].loop_id == inner.loop_id


def test_trip_count_constant():
    kl = loops_of("""
__global__ void k(float *a) {
    for (int j = 2; j < 34; j += 2) { a[j] = 0.0f; }
}
""")
    assert kl.loops[0].trip_count() == 16


def test_trip_count_unknown_for_data_dependent_bounds():
    kl = loops_of("""
__global__ void k(int *starts, int *edges, float *a) {
    int tid = threadIdx.x;
    for (int e = starts[tid]; e < starts[tid + 1]; e++) {
        a[edges[e]] = 1.0f;
    }
}
""")
    loop = kl.loops[0]
    assert loop.trip_count() is None
    refs = {a.array for a in loop.unique_accesses()}
    assert "edges" in refs and "a" in refs
    target = [a for a in loop.unique_accesses() if a.array == "a"][0]
    assert target.index.irregular


def test_induction_variable_recognized():
    kl = loops_of("""
__global__ void k(float *a) {
    int tid = threadIdx.x;
    int idx = tid;
    for (int j = 0; j < 16; j++) {
        a[idx] = 0.0f;
        idx += 32;
    }
}
""")
    ref = kl.loops[0].unique_accesses()[0]
    assert not ref.index.irregular
    assert ref.index.coeff("j") == 32
    assert ref.index.coeff(TIDX) == 1


def test_variable_assigned_twice_in_loop_is_poisoned():
    kl = loops_of("""
__global__ void k(float *a) {
    int idx = threadIdx.x;
    for (int j = 0; j < 16; j++) {
        idx += 1;
        idx += 2;
        a[idx] = 0.0f;
    }
}
""")
    ref = kl.loops[0].unique_accesses()[0]
    assert ref.index.irregular


def test_shared_and_local_arrays_excluded():
    kl = loops_of("""
__global__ void k(float *a) {
    __shared__ float tile[64];
    float local[4];
    for (int j = 0; j < 4; j++) {
        tile[j] = 1.0f;
        local[j] = 2.0f;
        a[j] = tile[j] + local[j];
    }
}
""")
    refs = {r.array for r in kl.loops[0].unique_accesses()}
    assert refs == {"a"}
    assert "tile" in kl.shared_arrays
    assert "local" in kl.local_arrays


def test_accesses_outside_loops_ignored():
    kl = loops_of("""
__global__ void k(float *a) {
    a[threadIdx.x] = 1.0f;
    for (int j = 0; j < 4; j++) { a[j] = 0.0f; }
}
""")
    assert len(kl.loops[0].accesses) == 1


def test_if_assignment_poisons_variable():
    kl = loops_of("""
__global__ void k(float *a) {
    int off = 3;
    if (threadIdx.x > 16) { off = 7; }
    for (int j = 0; j < 4; j++) { a[off + j] = 0.0f; }
}
""")
    ref = kl.loops[0].unique_accesses()[0]
    assert ref.index.irregular


def test_while_loop_recorded():
    kl = loops_of("""
__global__ void k(float *a) {
    int j = 0;
    while (j < 8) { a[j] = 0.0f; j++; }
}
""")
    assert len(kl.loops) == 1
    # Dataflow induction recognition identifies the while-style iterator.
    loop = kl.loops[0]
    assert loop.iterator == "j" and loop.step == 1
    assert loop.trip_count() == 8
    ref = loop.unique_accesses()[0]
    assert ref.index.coeff("j") == 1


def test_contains_sync_flag():
    kl = loops_of("""
__global__ void k(float *a) {
    for (int j = 0; j < 4; j++) {
        a[j] = 0.0f;
        __syncthreads();
    }
}
""")
    assert kl.loops[0].contains_sync


@pytest.mark.parametrize("update", [
    "y[t]++", "++y[t]", "y[t]--", "--y[t]", "atomicAdd(&y[t], 1.0f)"])
def test_increment_and_atomic_read_and_write(update):
    # The loop record and the race analysis read one reference table, so an
    # increment or atomicAdd of an element is a read and a write in both,
    # and Eq. 8 keeps it apart from the plain load of y[t].
    analysis = analysis_of(f"""
__global__ void k(float *x, float *y) {{
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    for (int i = 0; i < 8; i++) {{
        {update};
        x[t] += y[t];
    }}
}}
""")
    (loop,) = analysis.kernel_loops.loops
    update_line = 5
    (acc,) = [a for a in loop.accesses
              if a.array == "y" and a.loc.line == update_line]
    assert (acc.is_read, acc.is_write) == (True, True)
    (site,) = [s for s, _ in races._race_facts(analysis).sites
               if s.array == "y" and s.line == update_line]
    assert (site.is_read, site.is_write) == (acc.is_read, acc.is_write)
    assert sorted((a.is_read, a.is_write) for a in loop.unique_accesses()
                  if a.array == "y") == [(True, False), (True, True)]


UNROOTED_POINTER = """
__global__ void k(float *a, float *b, int n) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    float *p = a;
    if (n > 2) p = b;
    for (int i = 0; i < 32; i++) {
        p[t * 32 + i] = 1.0f;
    }
}
"""


def test_reference_through_unrooted_pointer_is_no_access():
    # ``p`` may point into a or b: the reference names no array, so it is in
    # no loop record and no lint finding, and the loop still has a conflict.
    analysis = analysis_of(UNROOTED_POINTER)
    (loop,) = analysis.kernel_loops.loops
    assert not any(a.array == "p" for a in loop.accesses)
    assert not any(f.array == "p" or "'p'" in f.message
                   for f in findings_for_analysis(analysis))
    assert races.loop_conflicts(analysis, loop.stmt) == (
        "the loop holds a reference the race analysis cannot place on an "
        "array",)


@pytest.mark.parametrize("init, conflict", [
    ("int j = a[0]", True), ("int j = *a", True), ("j = a[t]", True),
    ("int j = 0", False)])
def test_for_init_reading_memory_is_a_conflict(init, conflict):
    analysis = analysis_of(f"""
__global__ void k(float *a, float *b) {{
    int t = threadIdx.x;
    int j;
    for ({init}; j < 8; j++) {{ b[t * 8 + j] = 1.0f; }}
}}
""", block=(64, 1, 1), grid=(1, 1, 1))
    reasons = races.loop_conflicts(analysis, analysis.loops[0].record.stmt)
    assert ("the loop's for-init references memory" in reasons) == conflict


def test_do_while_condition_accesses_come_first():
    kl = loops_of("""
__global__ void k(float *a, float *b) {
    int t = threadIdx.x;
    int i = 0;
    do {
        b[t * 8 + i] = 1.0f;
        i++;
    } while (a[t * 8 + i] > 0.0f);
}
""")
    assert [a.array for a in kl.loops[0].accesses] == ["a", "b"]


# ---------------------------------------------------------------------------
# Registry pin: every kernel's loop records and race verdict kinds
# ---------------------------------------------------------------------------


def _form(f):
    return None if f is None else (f.coeffs, f.const, f.irregular)


def _record(r):
    return (r.loop_id, r.depth, r.parent_id, r.iterator, r.step,
            _form(r.start), _form(r.bound), r.contains_sync,
            tuple((a.array, _form(a.index), a.element_size, a.is_read,
                   a.is_write, a.loop_id, a.loc.line, a.loc.column)
                  for a in r.accesses))


def registry_reference_digests():
    """(app, kernel) -> a short digest of the kernel's loop records and its
    race verdicts' (array, interval, verdict), at test and bench scale under
    both L1D specs."""
    import hashlib

    from repro.experiments.common import SPECS
    from repro.workloads import WORKLOADS, get_workload

    parts: dict[tuple[str, str], list] = {}
    for app in sorted(WORKLOADS):
        for scale in ("test", "bench"):
            wl = get_workload(app, scale)
            unit = wl.unit()
            for kernel, (grid, block) in wl.launch_configs().items():
                for spec in ("max", "32k"):
                    a = analyze_kernel(unit, kernel, block, SPECS[spec],
                                       grid=grid)
                    parts.setdefault((app, kernel), []).append((
                        tuple(_record(r) for r in a.kernel_loops.loops),
                        tuple((v.array, v.interval, v.verdict)
                              for v in races.analyze_races(a).verdicts)))
    return {key: hashlib.sha256(repr(p).encode()).hexdigest()[:12]
            for key, p in parts.items()}



# A change to how references are resolved, ordered or judged moves the
# digest of every kernel it touches; only a change meant to move them may
# rewrite these from registry_reference_digests().
REGISTRY_REFERENCES = {
    ("2MM", "mm2_kernel1"): "69e62b3d75d6",
    ("2MM", "mm2_kernel2"): "878472587d93",
    ("3MM", "mm3_kernel1"): "80de26a4fccb",
    ("3MM", "mm3_kernel2"): "7a9d43ab8e33",
    ("3MM", "mm3_kernel3"): "a1fceb615048",
    ("ATAX", "atax_kernel1"): "16e108574325",
    ("ATAX", "atax_kernel2"): "33b3c328a737",
    ("BFS", "bfs_kernel1"): "21628602d44f",
    ("BFS", "bfs_kernel2"): "e5a90179a710",
    ("BICG", "bicg_kernel1"): "95f5ec9c198c",
    ("BICG", "bicg_kernel2"): "492268a55507",
    ("BP", "bpnn_layerforward"): "dfba539e37d0",
    ("BT", "btree_findk"): "16c8feb45ba0",
    ("CFD", "cfd_compute_flux"): "53c3d07c1bae",
    ("CFD", "cfd_initialize"): "0ba552f36bf8",
    ("CFD", "cfd_step_factor"): "3be08e19a067",
    ("CFD", "cfd_time_step"): "3241d3995197",
    ("CORR", "corr_kernel"): "370ca9406b89",
    ("CORR", "corr_mean"): "5187c3e65fab",
    ("CORR", "corr_normalize"): "54817b470660",
    ("CORR", "corr_std"): "6e93b45f6587",
    ("GEMM", "gemm_kernel"): "48725bce3915",
    ("GRAM", "gram_rdot"): "4e9e3c16a63c",
    ("GRAM", "gram_update"): "369fd5950754",
    ("GSMV", "gesummv_kernel"): "934d48aef4b3",
    ("HM", "huffman_decode"): "deb2e4a37deb",
    ("HP", "hotspot_kernel"): "724b6ef3e520",
    ("HW", "hw_track"): "7795bd1c8ab7",
    ("KM", "kmeans_assign"): "b4cdfeef9a82",
    ("KM", "kmeans_swap"): "23e3edbbb183",
    ("LUD", "lud_diagonal"): "8d30a4d2fb38",
    ("LVMD", "lavamd_kernel"): "6c38fae71c4f",
    ("MC", "myocyte_solve"): "130e0915a67d",
    ("MVT", "mvt_kernel1"): "414dd315807e",
    ("MVT", "mvt_kernel2"): "afcaf27e22d1",
    ("PF", "pf_likelihood"): "c5d534c8a1fb",
    ("PF", "pf_moments"): "ff9280e385e9",
    ("PF", "pf_normalize"): "50837982e7c2",
    ("PF", "pf_weights"): "89fb61c60ec8",
    ("SYR2K", "syr2k_kernel"): "fbe550bb50bb",
    ("SYRK", "syrk_kernel"): "b75c81d9d019",
}


def test_registry_loop_records_and_race_verdicts():
    assert registry_reference_digests() == REGISTRY_REFERENCES
