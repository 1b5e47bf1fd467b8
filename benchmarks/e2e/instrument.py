"""Where the benchmark attaches to ``repro``.

:func:`patch` replaces a function where it is defined and in every loaded
``repro`` module that imported it by name, so a call through any import
site reaches the wrapper; a method is replaced on its class.  Modules
imported later bind the wrapper, because they import it from the patched
definition.

:func:`install_layers` attaches the traced run's ledger.  The table below is
the layer map: each entry names the ``repro`` function whose calls a layer
counts, and the layer is named after the module it lives in.
"""

from __future__ import annotations

import importlib
import sys

#: (layer, module, qualname, keep events for the Chrome trace)
FUNCTIONS = (
    ("frontend.parse", "repro.frontend.parser", "parse", True),
    ("analysis.analyze_kernel", "repro.analysis.kernel_info",
     "analyze_kernel", True),
    ("transform.catt_compile", "repro.transform.pipeline", "catt_compile",
     True),
    ("transform.validate", "repro.transform.validate",
     "differential_validate", True),
    ("sim.launch", "repro.sim.launch", "launch_kernel", True),
    ("sim.compile", "repro.sim.compile", "compile_kernel", True),
    ("sim.dedup.analyze", "repro.analysis.dataflow.homogeneity",
     "block_homogeneity", True),
    ("sim.dedup.record", "repro.sim.replay", "record_block_streams", True),
    ("sim.tape.lower", "repro.sim.tape", "lower_kernel", True),
    ("sim.tape.record", "repro.sim.tape", "record_tape_streams", True),
    ("sim.sm.run", "repro.sim.sm", "SMEngine.run", True),
    ("sim.sm.step", "repro.sim.sm", "SMEngine.step", False),
    ("sim.gpu.run", "repro.sim.gpu", "GPUEngine.run", True),
    ("sim.coalescer", "repro.sim.coalescer", "coalesce_lines", False),
    ("baselines.governor", "repro.baselines.dyncta",
     "DynCtaGovernor.__call__", False),
    ("baselines.governor", "repro.baselines.ciao", "CiaoGovernor.__call__",
     False),
    ("baselines.bftt", "repro.baselines.bftt", "bftt_search", True),
    ("workloads.run", "repro.workloads.base", "run_workload", True),
    ("experiments.sweep", "repro.experiments.sweep", "run_sweep", True),
    ("experiments.run_app", "repro.experiments.common", "run_app", True),
    ("experiments.store.put", "repro.experiments.store", "ShardStore.put",
     True),
)

#: Warp generators: one ``sim.exec`` span per ``next()``, the functional
#: execution (E) of launches that are not recorded up front.
GENERATORS = (
    ("repro.sim.compile", "CompiledWarp.run_compiled"),
    ("repro.sim.interp", "WarpInterpreter.run"),
)

#: ``Cache`` probes, split into ``sim.cache.l1``/``sim.cache.l2`` by the
#: cache's name.
CACHE_METHODS = ("access", "access_owned", "touch", "fill", "write")

#: Every layer :func:`install_layers` records.
LAYERS = frozenset({layer for layer, *_ in FUNCTIONS}
                   | {"sim.exec", "sim.cache.l1", "sim.cache.l2",
                      "experiments.figures", "workloads.setup"})

#: The table/figure functions ``catt all`` runs (``experiments.figures``).
FIGURES = (
    ("repro.experiments.table3", "build_table3"),
    ("repro.experiments.fig2", "build_fig2"),
    ("repro.experiments.fig3", "build_fig3"),
    ("repro.experiments.fig6", "build_fig6"),
    ("repro.experiments.fig7", "build_fig7"),
    ("repro.experiments.fig8", "build_fig8"),
    ("repro.experiments.fig9", "build_fig9"),
    ("repro.experiments.fig10", "build_fig10"),
    ("repro.experiments.overhead", "build_overhead"),
)


def patch(module_name: str, qualname: str, make) -> object:
    """Replace ``module_name.qualname`` with ``make(original)``; returns the
    original."""
    module = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if owner is module:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return original


def _count_transforms(layer, _token, comp) -> None:
    layer.add("kernels", len(comp.transforms))
    layer.add("transformed",
              sum(1 for t in comp.transforms.values() if t.transformed))


def _count_eligible(layer, _token, verdict) -> None:
    layer.add("eligible", int(bool(verdict.eligible)))


def _count_candidates(layer, _token, result) -> None:
    layer.add("candidates", len(result.runs))


def _shard_of(args, _kwargs):
    return args[0], args[1]


def _count_shard_bytes(layer, token, _ok) -> None:
    store, key = token
    path = store.shard_path(store.shard_of(key))
    if path.exists():
        layer.add("bytes", path.stat().st_size)


def install_layers(ledger) -> None:
    """Wrap every layer in the map with ``ledger`` spans."""
    launches = ledger.layer("sim.launch")

    def launches_so_far(_args, _kwargs):
        return launches.calls

    def count_computed(layer, before, _result) -> None:
        # A cell that launched a kernel was simulated, not served from the
        # result cache.
        layer.add("computed", int(launches.calls > before))

    hooks = {
        "transform.catt_compile": {"post": _count_transforms},
        "sim.dedup.analyze": {"post": _count_eligible},
        "baselines.bftt": {"post": _count_candidates},
        "experiments.run_app": {"pre": launches_so_far,
                                "post": count_computed},
        "experiments.store.put": {"pre": _shard_of,
                                  "post": _count_shard_bytes},
    }
    for layer, module, qualname, emit in FUNCTIONS:
        extra = hooks.get(layer, {})
        patch(module, qualname,
              lambda fn, layer=layer, emit=emit, extra=extra:
              ledger.wrap(layer, fn, emit=emit, **extra))
    for module, qualname in GENERATORS:
        patch(module, qualname,
              lambda fn: ledger.wrap_generator("sim.exec", fn))

    l1, l2 = ledger.layer("sim.cache.l1"), ledger.layer("sim.cache.l2")

    def cache_level(cache):
        return l1 if cache.name == "L1D" else l2

    for method in CACHE_METHODS:
        patch("repro.sim.cache", f"Cache.{method}",
              lambda fn: ledger.wrap("sim.cache", fn, emit=False,
                                     pick=cache_level))
    for module, qualname in FIGURES:
        patch(module, qualname,
              lambda fn: ledger.wrap("experiments.figures", fn))

    from repro.workloads import WORKLOADS

    for cls in WORKLOADS.values():
        if "setup" in cls.__dict__:
            patch(cls.__module__, f"{cls.__name__}.setup",
                  lambda fn: ledger.wrap("workloads.setup", fn))
