"""Forward dataflow framework tests: CFG lowering, the worklist fixpoint,
constant/affine propagation through joins, induction recognition, and exact
index forms on strength-reduced workload kernels."""

from repro.analysis.affine import TIDX, AffineForm
from repro.analysis.dataflow import AffineFlow, build_cfg, ptr_state_of
from repro.analysis.dataflow.cfg import EVAL
from repro.analysis.loops import find_loops
from repro.frontend import parse_kernel
from repro.frontend.ast_nodes import Ident
from repro.sim.arch import TITAN_V_SIM, as_dim3
from repro.workloads import get_workload


def kernel_of(src):
    return parse_kernel(src)


def flow_of(src, block=(256, 1, 1), grid=(4, 1, 1)):
    return AffineFlow(kernel_of(src), block_dim=block, grid_dim=grid)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


def test_cfg_straight_line_single_block_chain():
    cfg = build_cfg(kernel_of("""
__global__ void k(float *a) {
    int i = threadIdx.x;
    a[i] = 1.0f;
}
""").body)
    assert not cfg.loops
    # entry reaches exit; every eval/decl action is on that path
    order = cfg.rpo()
    assert order[0] == cfg.entry
    kinds = [a.kind for b in cfg.blocks for a in b.actions]
    assert kinds.count("decl") == 1 and kinds.count("eval") == 1


def test_cfg_if_produces_diamond():
    cfg = build_cfg(kernel_of("""
__global__ void k(float *a) {
    int i = 0;
    if (threadIdx.x > 16) { i = 1; } else { i = 2; }
    a[i] = 0.0f;
}
""").body)
    # Some block has two successors (the branch) and some block two
    # predecessors (the join).
    assert any(len(b.succs) == 2 for b in cfg.blocks)
    assert any(len(b.preds) >= 2 for b in cfg.blocks)


def test_cfg_loops_in_source_preorder():
    cfg = build_cfg(kernel_of("""
__global__ void k(float *a) {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 8; j++) { a[i * 8 + j] = 0.0f; }
    }
    while (a[0] > 0.0f) { a[0] -= 1.0f; }
}
""").body)
    assert [l.kind for l in cfg.loops] == ["for", "for", "while"]
    for l in cfg.loops:
        # back-edge target is the header; exit is outside the member set
        assert l.header in l.blocks
        assert l.exit not in l.blocks
        header = cfg.blocks[l.header]
        assert any(p in l.blocks for p in header.preds)  # the back edge


def test_cfg_break_edges_to_exit_block():
    cfg = build_cfg(kernel_of("""
__global__ void k(float *a) {
    for (int i = 0; i < 64; i++) {
        if (a[i] < 0.0f) { break; }
        a[i] = 0.0f;
    }
    a[0] = 1.0f;
}
""").body)
    loop = cfg.loops[0]
    exit_preds = cfg.blocks[loop.exit].preds
    # reached both from the header (cond false) and from the break
    assert len(exit_preds) >= 2


# ---------------------------------------------------------------------------
# Fixpoint propagation
# ---------------------------------------------------------------------------


def _env_at_store(flow, array):
    """Fixpoint env at the (unique) statement storing into ``array``."""
    from repro.frontend.ast_nodes import (
        ArrayRef, Assign, ExprStmt, statements_in, walk_expr,
    )

    for stmt in statements_in(flow.kernel.body):
        if not isinstance(stmt, ExprStmt):
            continue
        for node in walk_expr(stmt.expr):
            if isinstance(node, Assign) and isinstance(node.target, ArrayRef) \
                    and isinstance(node.target.base, Ident) \
                    and node.target.base.name == array:
                return flow.env_sites[id(stmt.expr)]
    raise AssertionError(f"no store to {array}")


def test_constants_propagate_through_copies():
    flow = flow_of("""
__global__ void k(float *a) {
    int n = 16;
    int m = n * 4;
    int i = threadIdx.x + m;
    a[i] = 0.0f;
}
""")
    env = _env_at_store(flow, "a")
    form = env.lookup("i")
    assert form.coeff(TIDX) == 1 and form.const == 64


def test_if_join_agreeing_arms_keep_the_fact():
    flow = flow_of("""
__global__ void k(float *a, int p) {
    int off = 0;
    if (p > 0) { off = 8; } else { off = 8; }
    a[threadIdx.x + off] = 0.0f;
}
""")
    env = _env_at_store(flow, "a")
    assert env.lookup("off") == AffineForm.constant(8)


def test_if_join_disagreeing_arms_poison():
    flow = flow_of("""
__global__ void k(float *a, int p) {
    int off = 0;
    if (p > 0) { off = 8; }
    a[threadIdx.x + off] = 0.0f;
}
""")
    env = _env_at_store(flow, "a")
    assert env.lookup("off").irregular


def test_loop_exit_poisons_body_assigned_names():
    flow = flow_of("""
__global__ void k(float *a) {
    int idx = threadIdx.x;
    for (int j = 0; j < 16; j++) { idx += 32; }
    a[idx] = 0.0f;
}
""")
    env = _env_at_store(flow, "a")
    # after the loop idx is the trip-count-dependent final iterate
    assert env.lookup("idx").irregular


def test_secondary_induction_named_constant_step():
    # The hotspot3d pattern: a hoisted plane size as the step.
    flow = flow_of("""
__global__ void k(float *a) {
    int xy = 8 * 8;
    int c = threadIdx.x;
    for (int j = 0; j < 4; j++) {
        a[c] = 0.0f;
        c += xy;
    }
}
""")
    env = _env_at_store(flow, "a")
    form = env.lookup("c")
    assert not form.irregular
    assert form.coeff("j") == 64 and form.coeff(TIDX) == 1


def test_pointer_bump_resolves_through_ptr_state():
    # The gramschmidt pattern: a walking pointer with a named-constant step.
    flow = flow_of("""
__global__ void k(float *a) {
    int stride = 32;
    float *p = a + threadIdx.x;
    for (int j = 0; j < 4; j++) {
        p[0] = 0.0f;
        p += stride;
    }
}
""")
    env = _env_at_store(flow, "p")
    ps = ptr_state_of(Ident("p"), env)
    assert ps is not None and ps.root == "a"
    assert ps.offset.coeff(TIDX) == 1 and ps.offset.coeff("j") == 32


def test_while_loop_increment_recognized():
    # The kmeans_swap pattern: `f = f + 1` in a while loop.
    flow = flow_of("""
__global__ void k(float *a) {
    int tid = threadIdx.x;
    int f = 0;
    while (f < 8) {
        a[f * 256 + tid] = 0.0f;
        f = f + 1;
    }
}
""")
    env = _env_at_store(flow, "a")
    form = env.lookup("f")
    assert not form.irregular and form.coeff("f") == 1
    meta = [m for m in flow.loop_meta.values()][0]
    assert meta.iterator == "f" and meta.step == 1
    assert meta.bound is not None and meta.bound.const == 8


def test_two_updates_per_iteration_disqualify():
    flow = flow_of("""
__global__ void k(float *a) {
    int c = threadIdx.x;
    for (int j = 0; j < 4; j++) {
        c += 1;
        a[c] = 0.0f;
        c += 2;
    }
}
""")
    env = _env_at_store(flow, "a")
    assert env.lookup("c").irregular


def test_loop_variant_step_disqualifies():
    flow = flow_of("""
__global__ void k(float *a) {
    int c = 0;
    int s = 1;
    for (int j = 0; j < 4; j++) {
        a[c] = 0.0f;
        c += s;
        s += 1;   // step changes every iteration
    }
}
""")
    env = _env_at_store(flow, "a")
    assert env.lookup("c").irregular


def test_env_snapshot_is_per_site():
    flow = flow_of("""
__global__ void k(float *a) {
    int i = 1;
    a[i] = 0.0f;
    i = 2;
    a[i + 64] = 0.0f;
}
""")
    envs = []
    from repro.frontend.ast_nodes import ExprStmt, statements_in

    for stmt in statements_in(flow.kernel.body):
        if isinstance(stmt, ExprStmt) and id(stmt.expr) in flow.env_sites:
            envs.append(flow.env_sites[id(stmt.expr)])
    stores = [e for e in envs if "i" in e.bindings]
    assert stores[0].lookup("i") == AffineForm.constant(1)
    assert stores[-1].lookup("i") == AffineForm.constant(2)


# ---------------------------------------------------------------------------
# Workload kernels whose index forms only the fixpoint can follow
# ---------------------------------------------------------------------------


def _kernel_regularity(app, kernel_name):
    wl = get_workload(app, scale="test")
    unit = wl.unit()
    grid, block = wl.launch_configs()[kernel_name]
    kl = find_loops(unit.kernel(kernel_name), block_dim=as_dim3(block),
                    grid_dim=as_dim3(grid))
    out = {}
    for rec in kl.loops:
        for acc in rec.unique_accesses():
            out.setdefault(acc.array, []).append(acc.index)
    return out


def test_hotspot3d_plane_walk_gains_exact_coefficients():
    precise = _kernel_regularity("HP", "hotspot_kernel")
    # The hoisted `c += xy` plane walk is exact: the iterator advances by
    # the 16x16 plane size.
    assert all(not f.irregular for f in precise["tOut"])
    assert {f.coeff("z") for f in precise["tOut"]} == {256}


def test_kmeans_swap_while_loop_gains_exact_coefficients():
    precise = _kernel_regularity("KM", "kmeans_swap")
    # `f = f + 1` in a while loop is recognized as the iterator.
    assert all(not f.irregular for f in precise["feature"])
    assert {f.coeff("f") for f in precise["feature"]} == {512}


def test_gramschmidt_pointer_walk_gains_exact_coefficients():
    precise = _kernel_regularity("GRAM", "gram_update")
    # The bumped pointer keeps its root array and a per-iteration offset.
    assert all(not f.irregular for forms in precise.values() for f in forms)
    assert {f.coeff("i") for f in precise["a"]} == {64}
