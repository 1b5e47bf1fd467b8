"""The validation gate on the tape: parity with the interpreter reference,
the event and loop-trip budget, the interpreter fallback and the
synthesized buffers' guard gaps (docs/ROBUSTNESS.md §3)."""

import signal
from contextlib import contextmanager

import pytest

from repro.baselines.bftt import candidate_factors
from repro.errors import ThrottleSearchError, WarpSplitError
from repro.experiments.common import SPECS
from repro.frontend import parse
from repro.sim.memory import MemoryError_
from repro.transform import catt_compile, differential_validate, force_throttle
from repro.transform import validate
from repro.workloads import WORKLOADS, get_workload


@pytest.fixture
def on_interp(monkeypatch):
    """Call ``fn`` with the gate running as if the lowerer rejected every
    kernel: both functional runs go to the interpreter."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(validate, "_program", lambda unit, name: None)
            return fn()
    return run


def _same_report(tape, interp):
    assert (tape.status, tape.detail) == (interp.status, interp.detail)
    assert tape == interp
    assert (tape.executor, interp.executor) == ("tape", "interp")


def test_catt_compile_gate_matches_interp(on_interp):
    """Every ``catt_compile(validate=True)`` unit of the registry gets the
    same report from both executors.  At test scale every transform is
    proved statically; the bench scale (the compile-registry benchmark's)
    runs the differential gate."""
    ran = 0
    for scale in ("test", "bench"):
        for app in WORKLOADS:
            wl = get_workload(app, scale)
            unit = wl.unit()
            launches = dict(wl.launch_configs())
            for spec in SPECS.values():
                tape = catt_compile(unit, launches, spec, validate=True)
                interp = on_interp(lambda: catt_compile(
                    unit, launches, spec, validate=True))
                for name in launches:
                    rt = tape.transforms[name].validation
                    ri = interp.transforms[name].validation
                    assert rt == ri, (app, scale, name)
                    if rt is not None and rt.executor:
                        _same_report(rt, ri)
                        ran += 1
    assert ran > 0


def _factor_pairs(app: str):
    """The distinct validations of ``force_throttle``'s factor pairs with
    M <= 2 (BFTT's search space) for one app under both L1D specs.  Pairs
    whose throttled kernel is equal give equal reports, so each kernel is
    validated once."""
    wl = get_workload(app, "test")
    unit = wl.unit()
    seen = {}
    for spec in SPECS.values():
        for n, m in candidate_factors(wl, spec, 2):
            for name, (grid, block) in wl.launch_configs().items():
                try:
                    throttled = force_throttle(unit, name, block, spec, n, m,
                                               grid=grid)
                except (ThrottleSearchError, WarpSplitError):
                    continue
                key = (name, grid, block, throttled.kernel(name))
                seen.setdefault(key, (unit, throttled, name, grid, block))
    return list(seen.values())


@pytest.mark.parametrize("app", sorted(WORKLOADS))
def test_factor_pair_gate_matches_interp(app, on_interp):
    for unit, throttled, name, grid, block in _factor_pairs(app):
        tape = differential_validate(unit, throttled, name, grid, block)
        interp = on_interp(lambda: differential_validate(
            unit, throttled, name, grid, block))
        _same_report(tape, interp)


@pytest.mark.parametrize("header", [
    "for (int j = 0; j < NY; j += 0) {",
    "for (int j = 0; j < NY; j += 0) { if (j < 0) { break; }",
    "int j = 0; while (j < NY) {",
], ids=["for", "for-with-break", "while"])
def test_runaway_transformed_loop_is_deadlock_within_budget(atax_src,
                                                            header):
    original = parse(atax_src)
    runaway = parse(atax_src.replace("for (int j = 0; j < NY; j++) {",
                                     header))
    report = differential_validate(original, runaway, "atax_kernel1", 2, 256,
                                   max_events=50_000)
    assert report.status == validate.DEADLOCK and report.must_revert
    # The transformed run's budget: 4 x the original's 6,208 events plus 64
    # per warp slot (2 TBs x 8 warps), under the 50,000 cap.
    assert report.detail == "exceeded 25856 events"
    assert report.executor == "tape"


SPIN = """
__global__ void k(float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = 1.0f;
    %s
}
"""


@contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang the suite, when the body outlives ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("loop", [
    "for (;;) { }",
    "while (1) { }",
    "do { } while (1);",
    "for (;;) { i = i + 1; }",
], ids=["empty-for", "while", "do-while", "for-with-op"])
def test_endless_loop_ends_within_budget(loop, on_interp):
    """An endless loop ends the run on both executors: ``deadlock`` in the
    transformed kernel, ``inconclusive`` in the original.  A trip of
    ``for (;;) { }`` records no event, so its trips are what spend the
    budget."""
    plain, spin = parse(SPIN % ""), parse(SPIN % loop)

    def reports():
        return (differential_validate(plain, spin, "k", 2, 64,
                                      max_events=10_000),
                differential_validate(spin, spin, "k", 2, 64,
                                      max_events=10_000))

    with _deadline(20):
        tape = reports()
        interp = on_interp(reports)
    transformed, original = tape
    assert transformed.status == validate.DEADLOCK
    # 4 x the original's 12 events plus 64 per warp slot (2 TBs x 2 warps).
    assert transformed.detail == "exceeded 304 events"
    assert original.status == validate.INCONCLUSIVE
    assert original.detail == \
        "original kernel not runnable: exceeded 10000 events"
    for t, i in zip(tape, interp):
        _same_report(t, i)


@pytest.mark.parametrize("loop", ["for (;;) { }", "while (1) { }"],
                         ids=["empty-for", "while"])
def test_endless_transformed_loop_ends_at_the_default_budget(loop,
                                                             on_interp):
    """At the default ``max_events`` the transformed run's budget still
    follows from the original run, so a runaway transform ends at once on
    both executors (with the full 2,000,000 it took tens of seconds)."""
    plain, spin = parse(SPIN % ""), parse(SPIN % loop)

    def report():
        return differential_validate(plain, spin, "k", 2, 64)

    with _deadline(20):
        tape = report()
        interp = on_interp(report)
    assert (tape.status, tape.detail) == (validate.DEADLOCK,
                                          "exceeded 304 events")
    _same_report(tape, interp)


RECURSIVE = """
__device__ int tri(int n) { if (n <= 0) { return 0; } return n + tri(n - 1); }
__global__ void k(int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = tri(threadIdx.x % 4);
}
"""


def test_kernel_the_lowerer_rejects_validates_on_interp():
    # The tape lowerer rejects recursive __device__ functions.
    unit = parse(RECURSIVE)
    assert validate._program(unit, "k") is None
    ok = differential_validate(unit, unit, "k", 2, 64)
    assert (ok.status, ok.executor) == (validate.PASS, "interp")
    broken = parse(RECURSIVE.replace("n + tri", "1 + n + tri"))
    bad = differential_validate(unit, broken, "k", 2, 64)
    assert (bad.status, bad.executor) == (validate.DIVERGED, "interp")


def test_synthesized_buffers_fault_on_overrun_and_grow():
    """ATAX's ``atax_kernel1`` reads ``A[i*48+j]`` far past an
    8,192-element buffer at test scale.  A guard gap after each buffer
    makes that fault instead of reading ``x`` and ``tmp``, and the gate
    retries with larger buffers until the original runs in bounds."""
    wl = get_workload("ATAX", "test")
    unit = wl.unit()
    grid, block = wl.launch_configs()["atax_kernel1"]
    kernel = unit.kernel("atax_kernel1")
    scalars, arrays = validate.synthesize_inputs(kernel, grid, block)
    assert {a.size for a in arrays.values()} == {8192}
    for program in (validate._program(unit, "atax_kernel1"), None):
        with pytest.raises(MemoryError_):
            validate.run_functional(unit, "atax_kernel1", grid, block,
                                    arrays, scalars, program)
    report = differential_validate(unit, unit, "atax_kernel1", grid, block)
    assert (report.status, report.executor) == (validate.PASS, "tape")
