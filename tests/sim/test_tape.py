"""Divergence-mask execution on the tape engine: hypothesis differentials.

The tape engine executes every resident slot of a launch at once, driving
structured control flow with per-slot divergence masks.  The hardest cases
are the mask-maintenance corners: a ``break`` taken under a nested guard,
``if``/``else`` partitions nested inside each other, and ``do``/``while``
loops whose bottom-tested condition gives every thread at least one trip.
Hypothesis generates kernels with data-dependent per-thread trip counts and
branch choices; for each one, the tape engine must bit-match the AST-walk
interpreter on both the device buffers and the cycle/cache metrics (which
embed the per-statement event stream through the timing model).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.options import SimOptions, use_options
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM

N = 128


def _run(src: str, x: np.ndarray, engine: str):
    with use_options(SimOptions(engine=engine, dedup=False)):
        dev = Device(TITAN_V_SIM)
        dx = dev.to_device(x)
        dout = dev.zeros(N, np.int32)
        res = dev.launch(src, "k", N // 32, 32, [dx, dout])
    sig = tuple(sorted(res.metrics.summary().items()))
    return dout.to_host(), sig, res.engine


def _assert_tape_matches_interp(src: str, x: np.ndarray):
    ref_out, ref_sig, ref_engine = _run(src, x, "interp")
    assert ref_engine == "interp"
    out, sig, engine = _run(src, x, "tape")
    assert engine == "tape", "tape launch silently fell back"
    np.testing.assert_array_equal(out, ref_out)
    assert sig == ref_sig, "tape event stream diverges from interp"


@settings(max_examples=20, deadline=None)
@given(
    cut=st.integers(-50, 50),
    limit=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_guarded_break_divergence(cut, limit, seed):
    """Data-dependent ``break`` under an ``if``: per-thread trip counts."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < {limit}; j++) {{
        if (x[(i + j) % {N}] > {cut}) {{
            acc += 1000;
            break;
        }}
        acc += x[(i * 7 + j) % {N}];
    }}
    out[i] = acc;
}}
"""
    _assert_tape_matches_interp(src, x)


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(-40, 40),
    b=st.integers(-40, 40),
    seed=st.integers(0, 2**16),
)
def test_nested_if_divergence(a, b, seed):
    """Nested if/else partitions: four-way mask split per warp."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int v = x[i];
    int r = 0;
    if (v > {a}) {{
        if ((i & 3) == 0) {{
            r = v * 2;
        }} else {{
            r = v - {b};
        }}
    }} else {{
        if (v < {b}) {{
            r = -v;
        }} else {{
            r = v * v;
        }}
    }}
    out[i] = r;
}}
"""
    _assert_tape_matches_interp(src, x)


@settings(max_examples=20, deadline=None)
@given(
    modulo=st.integers(2, 9),
    thresh=st.integers(-3, 3),
    seed=st.integers(0, 2**16),
)
def test_do_while_divergence(modulo, thresh, seed):
    """Bottom-tested loop with per-thread trip counts (>= 1 for all)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 20, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = x[i] % {modulo};
    int acc = 0;
    do {{
        acc += j * j + 1;
        j = j - 1;
    }} while (j > {thresh});
    out[i] = acc;
}}
"""
    _assert_tape_matches_interp(src, x)


@settings(max_examples=15, deadline=None)
@given(
    cut=st.integers(-30, 30),
    limit=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_continue_in_nested_if(cut, limit, seed):
    """``continue`` under a nested guard re-merges at the loop step."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < {limit}; j++) {{
        int v = x[(i + 3 * j) % {N}];
        if (v > {cut}) {{
            if ((j & 1) == 0) {{
                continue;
            }}
            acc -= v;
        }}
        acc += v;
    }}
    out[i] = acc;
}}
"""
    _assert_tape_matches_interp(src, x)


def test_equal_kernels_share_one_program():
    """The lowering memo keys on content: two separately parsed units with
    equal kernels share one program, and a changed ``__device__`` function
    (the kernel itself unchanged) misses."""
    from repro.frontend import parse
    from repro.frontend.parser import parse_memo
    from repro.obs import metrics_registry
    from repro.sim import tape

    src = """
__global__ void k(float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = half(out[i]);
}
__device__ float half(float v) { return v * 0.5f; }
"""
    first = parse(src)
    parse_memo.clear()
    second = parse(src)
    third = parse(src.replace("0.5f", "0.25f"))
    assert first is not second and first.kernel("k") == second.kernel("k")
    assert third.kernel("k") == first.kernel("k")
    reg = metrics_registry.MetricsRegistry(enabled=True)
    prev = metrics_registry.install(reg)
    try:
        program = tape.lower_kernel(first, "k")
        assert tape.lower_kernel(second, "k") is program
        assert tape.lower_kernel(third, "k") is not program
    finally:
        metrics_registry.install(prev)
    assert (reg.counter("sim.tape.cache_hits").value,
            reg.counter("sim.tape.cache_misses").value) == (1, 2)


def test_rejected_lowering_is_cached(monkeypatch):
    """A kernel the lowerer rejects is lowered once, not on every launch:
    later launches fall back to the compiled engine from the cache."""
    from repro.sim import tape
    from repro.sim.interp import SimulationError

    attempts = []

    def reject(self, kernel):
        attempts.append(kernel.name)
        raise SimulationError("lowering rejected")

    monkeypatch.setattr(tape._Lowerer, "lower", reject)
    dev = Device(TITAN_V_SIM)
    unit = dev.compile("""
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = 2 * x[i];
}
""")
    dx = dev.to_device(np.arange(32, dtype=np.int32))
    dout = dev.zeros(32, np.int32)
    # One TB of one warp: nothing to dedup, so the fallback is "compiled".
    with use_options(SimOptions()):
        results = [dev.launch(unit, "k", 1, 32, [dx, dout]) for _ in range(2)]
    assert attempts == ["k"]
    assert [r.engine for r in results] == ["compiled", "compiled"]
    assert results[0].metrics.summary() == results[1].metrics.summary()
    np.testing.assert_array_equal(dout.to_host(), 2 * np.arange(32))
