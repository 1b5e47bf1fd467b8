"""Reduction-tiling transform tests (the paper's CORR future-work case)."""

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.analysis.loops import loop_statements
from repro.frontend import emit, parse
from repro.frontend.parser import parse_memo
from repro.frontend.ast_nodes import ForStmt, statements_in
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K
from repro.transform import catt_compile
from repro.transform.tiling import (
    TILE_VAR,
    choose_tile,
    find_reduction_pattern,
    tile_reduction,
    try_tile_unresolvable,
)

PAIRWISE = """
#define M 64
#define N 64
__global__ void pairwise(float *data, float *out) {
    int j1 = blockIdx.x * blockDim.x + threadIdx.x;
    if (j1 < M) {
        for (int j2 = 0; j2 < M; j2++) {
            float sum = 0.0f;
            for (int i = 0; i < N; i++) {
                sum += data[i * M + j1] * data[i * M + j2];
            }
            out[j1 * M + j2] = sum;
        }
    }
}
"""


def outer_loop(kernel):
    for s in statements_in(kernel.body):
        if isinstance(s, ForStmt):
            return s
    raise AssertionError


def test_pattern_recognized():
    kernel = parse(PAIRWISE).kernel("pairwise")
    pattern = find_reduction_pattern(outer_loop(kernel))
    assert pattern is not None
    assert pattern.acc_name == "sum"
    assert pattern.inner_iter == "i"
    assert len(pattern.stores) == 1


def test_pattern_rejects_non_reductions():
    src = """
__global__ void k(float *a) {
    for (int j = 0; j < 8; j++) {
        a[j] = (float)j;
    }
}
"""
    kernel = parse(src).kernel("k")
    assert find_reduction_pattern(outer_loop(kernel)) is None


def test_tiled_kernel_structure():
    kernel = parse(PAIRWISE).kernel("pairwise")
    pattern = find_reduction_pattern(outer_loop(kernel))
    tiled = tile_reduction(kernel, pattern, 16)
    text = emit(tiled)
    assert TILE_VAR in text
    assert f"{TILE_VAR} += 16" in text
    assert "out[j1 * 64 + j2] = 0.0f;" in text
    assert "out[j1 * 64 + j2] += sum;" in text


def test_tiled_kernel_is_correct():
    kernel = parse(PAIRWISE).kernel("pairwise")
    pattern = find_reduction_pattern(outer_loop(kernel))
    tiled = tile_reduction(kernel, pattern, 16)
    unit = parse(emit(tiled))
    rng = np.random.default_rng(5)
    data = rng.standard_normal((64, 64)).astype(np.float32)
    dev = Device(TITAN_V_SIM)
    d, out = dev.to_device(data), dev.zeros((64, 64))
    dev.launch(unit, "pairwise", 1, 64, [d, out])
    ref = data.T @ data
    np.testing.assert_allclose(out.to_host(), ref, rtol=1e-3, atol=1e-3)


def test_choose_tile():
    # budget = 256/2 - 64 = 64 lines; per trip 2 -> max 32; trips 128 -> 32.
    assert choose_tile(64, 2, 128, 1, 2, 256) == 32
    # No budget at all.
    assert choose_tile(300, 2, 128, 1, 1, 256) is None
    # A tile equal to (or beyond) the whole sweep is pointless.
    assert choose_tile(0, 1, 8, 1, 1, 1024) is None
    # Smallest useful tile when the sweep is just twice the minimum.
    assert choose_tile(0, 1, 16, 1, 1, 1024) == 8


def test_try_tile_on_unresolvable_corr_loop():
    src = PAIRWISE.replace("#define N 64", "#define N 512")
    unit = parse(src)
    an = analyze_kernel(unit, "pairwise", 64, TITAN_V_SIM_32K, grid=1)
    la = an.loops[0]
    assert la.decision.needed and not la.decision.fits
    kernel = unit.kernel("pairwise")
    result = try_tile_unresolvable(
        kernel, loop_statements(kernel)[la.loop_id], la,
        an.occupancy.l1d_bytes // TITAN_V_SIM_32K.cache_line,
    )
    assert result is not None
    _, tile = result
    assert tile >= 8


def test_pipeline_tiling_opt_in():
    wl_src = PAIRWISE.replace("#define N 64", "#define N 512")
    unit = parse(wl_src)
    default = catt_compile(unit, {"pairwise": (1, 64)}, TITAN_V_SIM_32K)
    assert default.transforms["pairwise"].tiles == []  # off by default
    tiled = catt_compile(unit, {"pairwise": (1, 64)}, TITAN_V_SIM_32K,
                         enable_tiling=True)
    assert tiled.transforms["pairwise"].tiles
    assert TILE_VAR in emit(tiled.unit.kernel("pairwise"))


def test_equal_unit_tiles_its_own_loop():
    """An analysis memoized from one unit drives the tiling of an equal,
    separately parsed unit: the transform finds the loop in its own kernel
    by ``loop_id``."""
    src = PAIRWISE.replace("#define N 64", "#define N 512")
    unit = parse(src)
    direct = catt_compile(unit, {"pairwise": (1, 64)}, TITAN_V_SIM_32K,
                          enable_tiling=True)
    parse_memo.clear()
    twin = parse(src)
    assert twin is not unit
    tiled = catt_compile(twin, {"pairwise": (1, 64)}, TITAN_V_SIM_32K,
                         enable_tiling=True)
    assert tiled.transforms["pairwise"].analysis is \
        direct.transforms["pairwise"].analysis
    assert tiled.transforms["pairwise"].tiles == \
        direct.transforms["pairwise"].tiles != []
    assert emit(tiled.unit) == emit(direct.unit)
