"""Cross-validation: PTX-level analysis agrees with source-level analysis.

For every PTX-lowerable kernel in the workload registry, the multiset of
Eq.-7 request counts recovered from the instruction stream must match the
source analysis's per-reference counts.  This is the strongest evidence the
two independent implementations compute the same paper quantities.
"""

import pytest

from repro.analysis import analyze_kernel
from repro.ptx import LoweringError, analyze_ptx_kernel, lower_kernel
from repro.sim.arch import TITAN_V_SIM, as_dim3
from repro.workloads import WORKLOADS, get_workload


def _cases():
    cases = []
    for name in sorted(WORKLOADS):
        wl = get_workload(name, scale="test")
        for kernel, (grid, block) in wl.launch_configs().items():
            cases.append(pytest.param(name, kernel, grid, block,
                                      id=f"{name}:{kernel}"))
    return cases


@pytest.mark.parametrize("app,kernel,grid,block", _cases())
def test_ptx_request_counts_match_source_analysis(app, kernel, grid, block):
    wl = get_workload(app, scale="test")
    unit = wl.unit()
    try:
        ptx = lower_kernel(unit, kernel)
    except LoweringError:
        pytest.skip("kernel uses constructs outside the PTX-lowerable subset")
    block3 = as_dim3(block)
    if block3[1] * block3[2] > 1:
        pytest.skip("multidim TBs use warp enumeration at source level")

    src_analysis = analyze_kernel(unit, kernel, block, TITAN_V_SIM, grid=grid)
    # Source side: REQ per unique in-loop reference (reads and writes listed
    # separately when both happen, to mirror ld/st instructions).
    src_reqs = []
    for la in src_analysis.loops:
        if la.record.depth != 0:
            continue  # nested accesses are already in the outermost record
        for af in la.footprint.per_access:
            acc = af.locality.access
            if acc.is_read:
                src_reqs.append(af.req_warp)
            if acc.is_write:
                src_reqs.append(af.req_warp)

    ptx_accs = analyze_ptx_kernel(ptx, block_dim=block3)
    # Static references, like the source side: dedupe repeated instructions
    # with the same address form (e.g. `x[j]` loaded twice in one statement).
    seen = set()
    ptx_reqs = []
    for a in ptx_accs:
        if not a.loop_labels:
            continue
        if a.address.irregular:
            # Irregular forms are all distinct references; never dedupe.
            key = (a.opcode.startswith("st"), a.width, "irr", a.index)
        else:
            key = (a.opcode.startswith("st"), a.width, str(a.address))
        if key in seen:
            continue
        seen.add(key)
        ptx_reqs.append(a.req_warp)

    if not src_reqs:
        # Source found no in-loop off-chip references; PTX must agree that
        # nothing divergent hides in loops.
        assert all(r == 1 for r in ptx_reqs)
        return
    assert sorted(src_reqs) == sorted(ptx_reqs), (
        f"{app}:{kernel} source={sorted(src_reqs)} ptx={sorted(ptx_reqs)}"
    )


# ---------------------------------------------------------------------------
# Coefficient-level cross-check on strength-reduced microbenches
# ---------------------------------------------------------------------------

MICROBENCHES = {
    "secondary_induction": """
__global__ void k(float *a) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    int stride = 256;
    int idx = t;
    for (int j = 0; j < 16; j++) {
        a[idx] = 0.0f;
        idx += stride;
    }
}
""",
    "while_increment": """
__global__ void k(float *a) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    int f = 0;
    while (f < 8) {
        a[f * 256 + t] = a[f * 256 + t] + 1.0f;
        f = f + 1;
    }
}
""",
    "diverged_row_walk": """
__global__ void k(float *a, float *x) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    int row = t * 64;
    for (int j = 0; j < 64; j++) {
        a[row + j] = x[j];
    }
}
""",
}


@pytest.mark.parametrize("name", sorted(MICROBENCHES))
def test_ast_and_ptx_agree_on_distances(name):
    """The AST dataflow and the PTX induction recognizer must recover the
    same (C_tid, C_i) element distances for every in-loop reference."""
    from repro.frontend import parse

    block = 256
    unit = parse(MICROBENCHES[name])
    analysis = analyze_kernel(unit, "k", block, TITAN_V_SIM, grid=4)
    src_pairs = []
    for la in analysis.loops:
        for af in la.footprint.per_access:
            loc = af.locality
            pair = (abs(loc.inter_thread_elems)
                    if loc.inter_thread_elems is not None else None,
                    abs(loc.intra_thread_elems)
                    if loc.intra_thread_elems is not None else None)
            if loc.access.is_read:
                src_pairs.append(pair)
            if loc.access.is_write:
                src_pairs.append(pair)

    ptx = lower_kernel(unit, "k")
    ptx_pairs = []
    seen = set()
    for a in analyze_ptx_kernel(ptx, block_dim=(block, 1, 1)):
        if not a.loop_labels:
            continue
        key = (a.opcode.startswith("st"), a.width, str(a.address))
        if key in seen:
            continue
        seen.add(key)
        ct = a.c_tid_elems
        ci = a.c_iter_bytes()
        ptx_pairs.append((abs(ct) if ct is not None else None,
                          abs(ci) // a.width if ci is not None else None))

    assert sorted(src_pairs, key=str) == sorted(ptx_pairs, key=str), (
        f"{name}: src={sorted(src_pairs, key=str)} "
        f"ptx={sorted(ptx_pairs, key=str)}"
    )
