"""Barrier-interval MHP race analysis: interval construction, affine
disjointness proofs, the verdict lattice, and divergent-barrier edge
cases."""

from repro.analysis import analyze_kernel
from repro.analysis.dataflow.races import (
    PROVED_RACE,
    PROVED_SAFE,
    UNKNOWN,
    analyze_races,
)
from repro.frontend import parse
from repro.sim.arch import TITAN_V_SIM

BLOCK = (256, 1, 1)
GRID = (4, 1, 1)


def report_of(src, block=BLOCK, grid=GRID):
    unit = parse(src)
    name = unit.kernels()[0].name
    analysis = analyze_kernel(unit, name, block, TITAN_V_SIM, grid=grid)
    return analyze_races(analysis)


def verdict_of(report, array, space="shared"):
    vs = [v for v in report.verdicts
          if v.array == array and v.space == space]
    assert vs, f"no verdict for {array}"
    # worst verdict across intervals
    order = {PROVED_RACE: 0, UNKNOWN: 1, PROVED_SAFE: 2}
    return sorted(vs, key=lambda v: order[v.verdict])[0].verdict


# ---------------------------------------------------------------------------
# Interval construction
# ---------------------------------------------------------------------------


def test_straight_line_sync_splits_two_intervals():
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    tile[t] = a[t];
    __syncthreads();
    a[t] = tile[t + 1];
}
""")
    assert report.intervals == 2
    assert verdict_of(report, "tile") == PROVED_SAFE


def test_no_barrier_conflict_proved():
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    tile[t] = a[t];
    a[t] = tile[t + 1];
}
""")
    assert verdict_of(report, "tile") == PROVED_RACE


def test_barrier_in_loop_merges_across_iterations():
    # The old epoch counter incremented once for the in-loop barrier and
    # concluded the write and read were ordered — a false negative.  The
    # back edge places iteration i's read and iteration i+1's write in the
    # same interval, so the race is caught.
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    for (int j = 0; j < 4; j++) {
        tile[t] = a[t + j];
        __syncthreads();
        a[t + j] = tile[t + 1];
    }
}
""")
    assert verdict_of(report, "tile") == PROVED_RACE


def test_double_barrier_loop_is_clean():
    # A second sync after the read orders every cross-iteration pair.
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    for (int j = 0; j < 4; j++) {
        tile[t] = a[t + j];
        __syncthreads();
        a[t + j] = tile[t + 1];
        __syncthreads();
    }
}
""")
    assert verdict_of(report, "tile") == PROVED_SAFE


# ---------------------------------------------------------------------------
# Disjointness proofs
# ---------------------------------------------------------------------------


def test_private_slot_proved_safe():
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    int t = threadIdx.x;
    tile[t] = a[t];
    a[t] = tile[t] * 2.0f;
}
""")
    assert verdict_of(report, "tile") == PROVED_SAFE
    assert "tile" in report.safe_arrays("shared")


def test_read_only_interval_proved_safe():
    report = report_of("""
__global__ void k(float *a, float *b) {
    int t = threadIdx.x;
    b[t] = a[t] + a[t + 1];
}
""")
    assert verdict_of(report, "a", space="global") == PROVED_SAFE


def test_increment_is_a_read_and_a_write():
    # Each form stores a[t + 1], which thread t + 1 reads in the interval.
    for inc in ("a[t + 1]++", "++a[t + 1]", "a[t + 1]--", "--a[t + 1]"):
        report = report_of(f"""
__global__ void k(float *a, float *b) {{
    int t = threadIdx.x;
    {inc};
    b[t] = a[t];
}}
""")
        assert verdict_of(report, "a", space="global") == PROVED_RACE, inc


def test_unplaced_reference_caps_its_interval_at_unknown():
    """A store through a pointer the flow cannot resolve, or through a
    ``*`` dereference, may touch any array: no verdict of its interval is
    PROVED-SAFE.  A local array is thread-private and caps nothing."""
    report = report_of("""
__global__ void k(float *a, float *b, int n) {
    __shared__ float s[64];
    float r[2];
    int t = threadIdx.x;
    r[t % 2] = a[t];
    s[t] = r[t % 2];
    __syncthreads();
    float *p = n > 2 ? a : b;
    p[t + 1] = 1.0f;
    *(a + t + 1) = s[t];
    b[t] = a[t];
}
""", block=(64, 1, 1), grid=(2, 1, 1))
    got = {(v.array, v.interval): v for v in report.verdicts}
    assert sorted(got) == [("a", 0), ("a", 1), ("b", 1), ("s", 0), ("s", 1)]
    assert got["a", 0].verdict == got["s", 0].verdict == PROVED_SAFE
    for region in (("a", 1), ("b", 1), ("s", 1)):
        assert got[region].verdict == UNKNOWN
        assert got[region].reason.endswith("cannot resolve (line 10,11)")


def test_stride_parity_disjoint_by_gcd():
    # Writes hit even elements, reads hit odd ones: no common element for
    # any thread pair (constant-distance / stride reasoning).
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[600];
    int t = threadIdx.x;
    tile[2 * t] = a[t];
    a[t] = tile[2 * t + 1];
}
""")
    assert verdict_of(report, "tile") == PROVED_SAFE


def test_irregular_index_unknown():
    report = report_of("""
__global__ void k(float *a, int *idx) {
    __shared__ float tile[256];
    int t = threadIdx.x;
    tile[idx[t]] = a[t];
    a[t] = tile[t];
}
""")
    assert verdict_of(report, "tile") == UNKNOWN


def test_atomic_pairs_are_safe():
    report = report_of("""
__global__ void k(int *a) {
    __shared__ int counter[1];
    atomicAdd(&counter[0], 1);
    a[threadIdx.x] = counter[0 * threadIdx.x];
}
""")
    # atomic-atomic pairs never race; the plain read of counter[0] in the
    # same interval as the atomic writes does.
    assert verdict_of(report, "counter") == PROVED_RACE


def test_guarded_single_writer_is_not_proved_race():
    # if (t == 0) writes: cross-thread overlap exists only under the guard,
    # so the prover must not claim a proof either way.
    report = report_of("""
__global__ void k(float *a, int n) {
    __shared__ float best[1];
    int t = threadIdx.x;
    if (t < n) { best[0] = a[t]; }
    a[t] = best[0];
}
""")
    assert verdict_of(report, "best") == UNKNOWN


# ---------------------------------------------------------------------------
# Divergent-barrier edge cases
# ---------------------------------------------------------------------------


def test_thread_dep_guarded_barrier_in_loop_not_separating():
    # The sync only executes for t < n: it cannot be trusted to order the
    # surrounding accesses, so the write/read pair stays concurrent.
    report = report_of("""
__global__ void k(float *a, int n) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    for (int j = 0; j < 8; j++) {
        tile[t] = a[t + j];
        if (t < n) { __syncthreads(); }
        a[t + j] = tile[t + 1];
    }
}
""")
    assert verdict_of(report, "tile") == PROVED_RACE


def test_barrier_in_one_if_branch_not_separating():
    report = report_of("""
__global__ void k(float *a, int n) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    tile[t] = a[t];
    if (t < n) { __syncthreads(); }
    a[t] = tile[t + 1];
}
""")
    assert verdict_of(report, "tile") == PROVED_RACE


def test_barrier_under_uniform_guard_separates():
    # n > 0 is TB-uniform: every thread takes the same branch, so the sync
    # is a real barrier whenever it runs... but when n <= 0 nobody syncs,
    # so the conservative answer is still "not separating" ONLY for
    # thread-dependent guards.  A uniform guard with the access pair inside
    # the same branch is ordered.
    report = report_of("""
__global__ void k(float *a, int n) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    if (n > 0) {
        tile[t] = a[t];
        __syncthreads();
        a[t] = tile[t + 1];
    }
}
""")
    assert verdict_of(report, "tile") == PROVED_SAFE


def test_dowhile_barrier_before_condition():
    # Barrier placed right before the do-while condition: the write at the
    # top of iteration i+1 races with nothing — every cross-iteration pair
    # crosses the sync — but the read in the same iteration as the write
    # does not cross it.
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    int j = 0;
    do {
        tile[t] = a[t + j];
        a[t + j] = tile[t + 1];
        j = j + 1;
        __syncthreads();
    } while (j < 4);
}
""")
    assert verdict_of(report, "tile") == PROVED_RACE


def test_dowhile_barrier_orders_write_read():
    report = report_of("""
__global__ void k(float *a) {
    __shared__ float tile[257];
    int t = threadIdx.x;
    int j = 0;
    do {
        tile[t] = a[t + j];
        __syncthreads();
        a[t + j] = tile[t + 1];
        j = j + 1;
        __syncthreads();
    } while (j < 4);
}
""")
    assert verdict_of(report, "tile") == PROVED_SAFE


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def test_report_cached_on_analysis():
    unit = parse("""
__global__ void k(float *a) {
    __shared__ float tile[256];
    tile[threadIdx.x] = a[threadIdx.x];
}
""")
    analysis = analyze_kernel(unit, "k", BLOCK, TITAN_V_SIM, grid=GRID)
    assert analyze_races(analysis) is analyze_races(analysis)


def test_registry_classification_floor():
    """Acceptance criterion: >= 60% of the registry's shared (array,
    interval) pairs are classified PROVED-SAFE or PROVED-RACE."""
    from repro.workloads import WORKLOADS, get_workload

    total = classified = 0
    for app in sorted(WORKLOADS):
        wl = get_workload(app, "test")
        unit = wl.unit()
        for kernel, (grid, block) in wl.launch_configs().items():
            analysis = analyze_kernel(unit, kernel, block, TITAN_V_SIM,
                                      grid=grid)
            for v in analyze_races(analysis).for_space("shared"):
                total += 1
                classified += v.verdict != UNKNOWN
    assert total > 0
    assert classified / total >= 0.6, (classified, total)
