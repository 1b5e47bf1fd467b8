"""Warp-level throttling transform tests (Fig. 4)."""

import numpy as np
import pytest

from repro.frontend import emit, parse, parse_kernel
from repro.frontend.ast_nodes import Block, ForStmt, IfStmt, SyncthreadsStmt
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM
from repro.transform.warp_throttle import split_loop_for_warp_groups

SRC = """
__global__ void k(float *a, float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < 512) {
        for (int j = 0; j < 16; j++) {
            out[i] += a[i * 16 + j];
        }
    }
}
"""


def find_loop(kernel):
    from repro.frontend.ast_nodes import statements_in

    for s in statements_in(kernel.body):
        if isinstance(s, ForStmt):
            return s
    raise AssertionError("no loop")


def test_split_structure_matches_fig4():
    kernel = parse_kernel(SRC)
    loop = find_loop(kernel)
    split = split_loop_for_warp_groups(kernel, loop, 2, 8, (256, 1, 1))
    text = emit(split)
    assert text.count("__syncthreads();") == 2
    assert "threadIdx.x / 32 >= 0 && threadIdx.x / 32 < 4" in text
    assert "threadIdx.x / 32 >= 4 && threadIdx.x / 32 < 8" in text
    assert text.count("for (") == 2


def test_split_n4_produces_four_groups():
    kernel = parse_kernel(SRC)
    split = split_loop_for_warp_groups(kernel, find_loop(kernel), 4, 8, (256, 1, 1))
    text = emit(split)
    assert text.count("__syncthreads();") == 4
    assert text.count("for (") == 4


def test_n1_is_identity():
    kernel = parse_kernel(SRC)
    assert split_loop_for_warp_groups(kernel, find_loop(kernel), 1, 8,
                                      (256, 1, 1)) is kernel


def test_invalid_n_rejected():
    kernel = parse_kernel(SRC)
    with pytest.raises(ValueError):
        split_loop_for_warp_groups(kernel, find_loop(kernel), 3, 8, (256, 1, 1))


def test_loop_with_barrier_rejected():
    """Each guarded copy runs for one warp group only: a barrier inside the
    loop would sit in warp-divergent code."""
    from repro.errors import WarpSplitError

    kernel = parse_kernel("""
__global__ void k(float *a) {
    __shared__ float s[256];
    for (int j = 0; j < 4; j++) {
        s[threadIdx.x] = a[threadIdx.x + j];
        if (j > 0) { __syncthreads(); }
        a[threadIdx.x] = s[255 - threadIdx.x];
    }
}
""")
    with pytest.raises(WarpSplitError, match="__syncthreads"):
        split_loop_for_warp_groups(kernel, find_loop(kernel), 2, 8,
                                   (256, 1, 1))
    # N = 1 leaves the kernel as it is, barrier included.
    assert split_loop_for_warp_groups(kernel, find_loop(kernel), 1, 8,
                                      (256, 1, 1)) is kernel


def test_multidim_block_linearizes_warp_id():
    src = """
__global__ void k(float *a, float *out) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    for (int t = 0; t < 4; t++) { out[j] += a[j + t]; }
}
"""
    kernel = parse_kernel(src)
    split = split_loop_for_warp_groups(kernel, find_loop(kernel), 2, 8, (32, 8, 1))
    text = emit(split)
    assert "threadIdx.y * 32 + threadIdx.x" in text


def test_transformed_kernel_is_functionally_equivalent():
    kernel = parse_kernel(SRC)
    split = split_loop_for_warp_groups(kernel, find_loop(kernel), 2, 8, (256, 1, 1))
    unit = parse(emit(split))
    a = np.random.default_rng(1).standard_normal((512, 16)).astype(np.float32)
    dev = Device(TITAN_V_SIM)
    da, dout = dev.to_device(a), dev.zeros(512)
    dev.launch(unit, "k", 2, 256, [da, dout])
    np.testing.assert_allclose(dout.to_host(), a.sum(axis=1), rtol=1e-4)


def test_split_reduces_concurrent_active_warps():
    """Timing check: the split serializes warp groups, so a cache-thrashing
    kernel gets faster while a tail barrier adds little."""
    src = """
__global__ void k(float *a, float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 48; j++) {
        out[i] += a[i * 48 + j];
    }
}
"""
    kernel = parse_kernel(src)
    split = split_loop_for_warp_groups(kernel, find_loop(kernel), 2, 8, (256, 1, 1))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 48)).astype(np.float32)

    def run(u):
        dev = Device(TITAN_V_SIM)
        da, dout = dev.to_device(a), dev.zeros(1024)
        res = dev.launch(u, "k", 4, 256, [da, dout])
        np.testing.assert_allclose(dout.to_host(), a.sum(axis=1), rtol=1e-3)
        return res

    base = run(parse(SRC.replace("16", "48").replace("512", "1024")))
    thr = run(parse(emit(split)))
    assert thr.l1_hit_rate > base.l1_hit_rate
