"""Quickstart: compile a contended kernel with CATT and measure the win.

Runs the paper's flagship example (ATAX kernel 1, Fig. 1): a row-major
matrix-vector product whose ``A[i*NY+j]`` walk is fully divergent, thrashing
the L1D.  CATT's static analysis finds the footprint, picks a warp-throttling
factor (Eq. 9), splits the loop into guarded warp groups (Fig. 4), and the
simulator shows the L1D hit rate and execution time recovering.

Everything goes through one :class:`repro.Session` — the typed facade over
the whole pipeline.  Its :class:`repro.SimOptions` carries the simulator
knobs explicitly (no environment variables; the default engine is the
launch-wide uop tape), and ``trace=True`` records a span tree of every
phase, printed at the end.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Session, SimOptions, format_analysis

SOURCE = """
#define NX 1024
#define NY 192

__global__ void atax_kernel1(float *A, float *x, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            tmp[i] += A[i * NY + j] * x[j];
        }
    }
}
"""

GRID, BLOCK = 4, 256


def run(sess, unit, label):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((1024, 192)).astype(np.float32)
    x = rng.standard_normal(192).astype(np.float32)
    dA, dx, dtmp = sess.to_device(A), sess.to_device(x), sess.zeros(1024)
    res = sess.launch(unit, "atax_kernel1", GRID, BLOCK, [dA, dx, dtmp])
    np.testing.assert_allclose(dtmp.to_host(), A @ x, rtol=1e-3)
    print(f"{label:10s} cycles={res.cycles:>9,}  L1D hit rate={res.l1_hit_rate:6.1%}  "
          f"TLP=({res.occupancy.warps_per_tb} warps/TB x {res.occupancy.tb_sm} TBs)")
    return res.cycles


def main():
    # The with-block closes the session on exit, flushing its result cache.
    with Session("max", SimOptions(trace=True, metrics=True)) as sess:
        unit = sess.compile(SOURCE)

        print("=== CATT static analysis ===")
        comp = sess.catt(unit, {"atax_kernel1": (GRID, BLOCK)})
        print(format_analysis(comp.transforms["atax_kernel1"].analysis))
        print()

        print("=== Simulated execution (1 SM of a Titan V) ===")
        base = run(sess, unit, "baseline")
        catt = run(sess, comp.unit, "CATT")
        print(f"\nCATT speedup: {base / catt:.2f}x  "
              f"(paper reports up to ~3x for individual CS kernels)")

        print("\n=== Pipeline trace (Session(trace=True)) ===")
        print(sess.render_trace())


if __name__ == "__main__":
    main()
