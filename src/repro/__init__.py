"""repro — reproduction of "Compiler-Assisted GPU Thread Throttling for
Reduced Cache Contention" (Kim et al., ICPP 2019).

Layers
------
* :mod:`repro.frontend` — CUDA-C subset parser / emitter;
* :mod:`repro.analysis` — CATT static analysis (Eqs. 1-9);
* :mod:`repro.transform` — warp-level (Fig. 4) and TB-level (Fig. 5)
  throttling transforms and the :func:`catt_compile` pipeline;
* :mod:`repro.sim` — the GPU simulator substrate (single-SM, event-driven);
* :mod:`repro.runtime` — PyCUDA-style host API (`Device`, `DeviceArray`);
* :mod:`repro.obs` — tracing/metrics/run-manifest observability layer;
* :mod:`repro.api` — the :class:`Session` facade tying it all together;
* :mod:`repro.workloads` — the Table-2 benchmark suite, scaled for simulation;
* :mod:`repro.baselines` — BFTT / Best-SWL / DynCTA-style comparators;
* :mod:`repro.experiments` — regenerators for every table and figure.

Quickstart::

    from repro import Session, SimOptions

    sess = Session("max", SimOptions())
    unit = sess.compile(CUDA_SOURCE)
    comp = sess.catt(unit, {"my_kernel": (grid, block)})
    result = sess.launch(comp.unit, "my_kernel", grid, block, args=[...])
    print(result.cycles, result.l1_hit_rate)

``SimOptions`` is the single source of truth for the engine/dedup/cache
knobs; no environment variable changes them.  Enable
``SimOptions(trace=True, metrics=True)`` (or run ``catt profile <app>``) to
collect a Perfetto-loadable trace and a signed run manifest — see
docs/OBSERVABILITY.md.
"""

from .analysis import KernelAnalysis, analyze_kernel, format_analysis
from .api import Session
from .frontend import emit, parse, parse_kernel
from .options import SimOptions, use_options
from .runtime import Device, DeviceArray
from .sim import TITAN_V, TITAN_V_32K, TITAN_V_SIM, TITAN_V_SIM_32K, GPUSpec
from .transform import CattCompilation, catt_compile, force_throttle

__version__ = "1.1.0"

__all__ = [
    "KernelAnalysis",
    "analyze_kernel",
    "format_analysis",
    "emit",
    "parse",
    "parse_kernel",
    "Device",
    "DeviceArray",
    "Session",
    "SimOptions",
    "use_options",
    "TITAN_V",
    "TITAN_V_32K",
    "TITAN_V_SIM",
    "TITAN_V_SIM_32K",
    "GPUSpec",
    "CattCompilation",
    "catt_compile",
    "force_throttle",
    "__version__",
]
