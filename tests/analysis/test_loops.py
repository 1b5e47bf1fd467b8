"""Loop discovery and access-collection tests."""

from repro.analysis.affine import TIDX
from repro.analysis.loops import find_loops
from repro.frontend import parse_kernel


def loops_of(src, block=(256, 1, 1)):
    return find_loops(parse_kernel(src), block_dim=block)


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
