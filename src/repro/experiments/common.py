"""Shared experiment machinery: schemes, result records, and a run cache.

Every figure/table regenerator goes through :func:`run_app`, which memoizes
simulation results both in-process and (optionally) in the sharded on-disk
store, so e.g. Fig. 7, Fig. 9 and Table 3 share one BFTT sweep instead of
re-simulating.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..baselines.ata import run_with_ata
from ..baselines.bftt import bftt_search
from ..baselines.bypass import run_with_bypass
from ..baselines.ciao import run_with_ciao
from ..baselines.dyncta import run_with_dyncta
from ..baselines.swl import best_swl_search
from ..obs.metrics_registry import registry as _registry
from ..obs.trace import span as _span
from ..options import current_options, resolve_cache_path
from ..sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K, GPUSpec
from ..transform import catt_compile
from ..transform.diagnostics import E_SIM, Diagnostic
from ..workloads import get_workload
from ..workloads.base import WorkloadRun, run_workload
from .store import ShardStore

SPECS: dict[str, GPUSpec] = {
    "max": TITAN_V_SIM,       # maximum L1D (Eq.-4 carveout, up to 128 KB)
    "32k": TITAN_V_SIM_32K,   # the §5.1.3 32 KB L1D configuration
}

SCHEMES = ("baseline", "catt", "bftt", "dyncta", "swl", "bypass",
           "ciao", "ata")


@dataclass
class KernelStats:
    cycles: int
    l1_hit_rate: float
    tlp: tuple[int, int] | None = None   # (#warps_TB, #TBs) realized
    # Shared-L2 hit rate across the timed SMs (attributed accesses); 0.0 in
    # records written before the multi-SM model existed.
    l2_hit_rate: float = 0.0


@dataclass
class AppResult:
    """One (app, scheme, spec) simulation outcome."""

    app: str
    scheme: str
    spec: str
    scale: str
    total_cycles: int
    kernels: dict[str, KernelStats]
    # CATT extras
    loop_tlps: dict[str, list[tuple[int, tuple[int, int]]]] = field(
        default_factory=dict)   # kernel -> [(loop_id, tlp)]
    # BFTT extras
    factors: tuple[int, int] | None = None
    sweep: dict[str, dict] | None = None   # "n,m" -> {total, kernels:{k:cycles}}
    # Fig.-2 trace (baseline scheme only)
    mem_trace: list[tuple[int, int]] | None = None
    # Degradation records (resilient sweeps): Diagnostic.to_dict() payloads.
    diagnostics: list[dict] = field(default_factory=list)
    degraded: bool = False   # True = this cell failed and carries no timing
    # Co-simulated SMs the cell ran with (the SimOptions.sms knob).
    sms: int = 1
    # Scheme-specific activity counters (governor pauses, warps bypassed,
    # ATA remote hits, ...) — whatever the scheme's mechanism reports.
    extras: dict = field(default_factory=dict)


def geomean(values: list[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class ResultCache:
    """In-process + on-disk memo of :class:`AppResult` records.

    ``""`` is memory-only (workers, profiling); any other path is the root
    directory of a **sharded, crash-safe store**
    (:class:`~repro.experiments.store.ShardStore`): one small shard
    rewritten per put, per-shard locks for safe concurrent use from
    multiple processes, sha256 per record verified on read, and corrupt
    shards archived with a warning instead of silently ignored.  The
    default root is ``.bench_cache/`` in the working directory.  A path
    that names an existing regular file is rejected with ``ValueError``.
    """

    VERSION = 6  # bump to invalidate stale caches after model changes

    def __init__(self, path: str | Path | None = None):
        if path is None:
            path = resolve_cache_path(str(Path.cwd() / ".bench_cache"))
        self.path = Path(path) if path else None
        self._mem: dict[str, AppResult] = {}
        self._store: ShardStore | None = None
        if self.path is not None:
            if self.path.is_file():
                raise ValueError(
                    f"result cache {self.path} is a file; the cache is a "
                    f"directory of shards (pass a directory path, or '' "
                    f"for memory-only)")
            self._store = ShardStore(self.path, version=self.VERSION)

    @staticmethod
    def key(app: str, scheme: str, spec: str, scale: str,
            signature: str = "") -> str:
        """The cache key of one cell under one configuration identity.

        ``signature`` is :meth:`SimOptions.signature` — the canonical
        config identity (``""`` for the default configuration).  The suffix
        only appears for non-default configurations, so every key (and
        cached record) written by the pre-signature substrate stays valid.
        """
        base = f"{app}|{scheme}|{spec}|{scale}"
        return base if not signature else f"{base}|{signature}"

    def get(self, key: str) -> AppResult | None:
        if key in self._mem:
            return self._mem[key]
        raw = self._store.get(key) if self._store is not None else None
        if raw is None:
            return None
        result = _from_json(raw)
        self._mem[key] = result
        return result

    def put(self, key: str, result: AppResult) -> None:
        self._mem[key] = result
        if self._store is not None:
            self._store.put(key, _to_json(result))

    def put_transient(self, key: str, result: AppResult) -> None:
        """Memoize in-process only — used for degraded cells, which should be
        retried by the next sweep instead of poisoning the disk cache."""
        self._mem[key] = result

    def digest(self) -> str:
        """sha256 hex digest over the on-disk shard bytes.

        Shards serialize canonically (sorted keys), so the digest depends
        only on the *set* of records — two caches populated with the same
        cells, by any mix of processes, in any order, digest identically.
        ``""`` for memory-only caches (nothing on disk).
        """
        return self._store.digest() if self._store is not None else ""


def _to_json(result: AppResult) -> dict:
    d = asdict(result)
    d["kernels"] = {k: asdict(v) for k, v in result.kernels.items()}
    return d


def _from_json(raw: dict) -> AppResult:
    kernels = {
        k: KernelStats(v["cycles"], v["l1_hit_rate"],
                       tuple(v["tlp"]) if v.get("tlp") else None,
                       l2_hit_rate=v.get("l2_hit_rate", 0.0))
        for k, v in raw["kernels"].items()
    }
    loop_tlps = {
        k: [(lid, tuple(tlp)) for lid, tlp in v]
        for k, v in raw.get("loop_tlps", {}).items()
    }
    return AppResult(
        app=raw["app"], scheme=raw["scheme"], spec=raw["spec"],
        scale=raw["scale"], total_cycles=raw["total_cycles"], kernels=kernels,
        loop_tlps=loop_tlps,
        factors=tuple(raw["factors"]) if raw.get("factors") else None,
        sweep=raw.get("sweep"),
        mem_trace=[tuple(p) for p in raw["mem_trace"]] if raw.get("mem_trace") else None,
        diagnostics=raw.get("diagnostics", []),
        degraded=raw.get("degraded", False),
        sms=raw.get("sms", 1),
        extras=raw.get("extras", {}),
    )


_DEFAULT_CACHE: ResultCache | None = None


def default_cache() -> ResultCache:
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ResultCache()
    return _DEFAULT_CACHE


# ---------------------------------------------------------------------------
# Scheme execution
# ---------------------------------------------------------------------------


def _kernel_stats(run: WorkloadRun, tlps: dict[str, tuple[int, int]] | None = None
                  ) -> dict[str, KernelStats]:
    cycles = run.cycles_by_kernel()
    hits = run.hit_rate_by_kernel()
    l2_hits = run.l2_hit_rate_by_kernel()
    return {
        k: KernelStats(cycles[k], round(hits.get(k, 0.0), 4),
                       (tlps or {}).get(k),
                       l2_hit_rate=round(l2_hits.get(k, 0.0), 4))
        for k in cycles
    }


def run_app(
    app: str,
    scheme: str,
    spec_name: str = "max",
    scale: str = "bench",
    cache: ResultCache | None = None,
    verify: bool = False,
    on_error: str = "degrade",
) -> AppResult:
    """Simulate ``app`` under ``scheme`` and return (cached) results.

    With ``on_error="degrade"`` (the default) a failed cell — frontend,
    compile, or simulation crash — returns a zero-cycle ``AppResult`` with
    ``degraded=True`` and the failure recorded in ``diagnostics``, so a full
    sweep always completes; the degraded cell is memoized in-process only and
    will be retried by a fresh sweep.  Pass ``on_error="raise"`` to debug the
    underlying failure.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; options: {SCHEMES}")
    if on_error not in ("degrade", "raise"):
        raise ValueError(f"on_error must be 'degrade' or 'raise', "
                         f"got {on_error!r}")
    spec = SPECS[spec_name]
    cache = cache or default_cache()
    opts = current_options()
    sms = opts.sms
    key = ResultCache.key(app, scheme, spec_name, scale,
                          signature=opts.signature())
    with _span("experiment.cell", app=app, scheme=scheme, spec=spec_name,
               scale=scale, sms=sms) as sp:
        cached = cache.get(key)
        if cached is not None:
            sp.set(cached=True)
            reg = _registry()
            if reg.enabled:
                reg.counter("experiment.cells.cached").inc()
            return cached

        t0 = time.perf_counter()
        try:
            result = _run_scheme(app, scheme, spec, spec_name, scale, verify)
            result.sms = sms
        except Exception as exc:
            if on_error == "raise":
                raise
            diag = Diagnostic(
                code=E_SIM, stage="sim",
                message=f"({app}, {scheme}, {spec_name}, {scale}) failed: "
                        f"{exc}",
                kernel=None, severity="error",
                elapsed_seconds=time.perf_counter() - t0,
                exception=repr(exc),
            )
            result = AppResult(
                app, scheme, spec_name, scale, total_cycles=0, kernels={},
                diagnostics=[diag.to_dict()], degraded=True, sms=sms,
            )
            cache.put_transient(key, result)
            sp.set(cached=False, degraded=True)
            _feed_cell_metrics(time.perf_counter() - t0, degraded=True)
            return result
        cache.put(key, result)
        sp.set(cached=False, degraded=result.degraded,
               cycles=result.total_cycles)
        _feed_cell_metrics(time.perf_counter() - t0, degraded=result.degraded)
        _feed_baseline_metrics(result)
        return result


def _feed_cell_metrics(seconds: float, degraded: bool) -> None:
    reg = _registry()
    if not reg.enabled:
        return
    reg.counter("experiment.cells").inc()
    if degraded:
        reg.counter("experiment.cells.degraded").inc()
    reg.histogram("experiment.cell.seconds").record(seconds)


def _feed_baseline_metrics(result: AppResult) -> None:
    """Per-scheme observability: one counter family per comparison scheme.

    ``baseline.<scheme>.cells`` / ``.cycles`` plus whatever the scheme's
    mechanism reported through ``AppResult.extras`` (governor pauses, warps
    bypassed, ATA remote hits, ...).  Fresh cells only — cached reads do
    not re-count.
    """
    reg = _registry()
    if not reg.enabled:
        return
    c = reg.counter
    c(f"baseline.{result.scheme}.cells").inc()
    c(f"baseline.{result.scheme}.cycles").inc(result.total_cycles)
    for name, value in sorted(result.extras.items()):
        if isinstance(value, int) and value:
            c(f"baseline.{result.scheme}.{name}").inc(value)


def _run_scheme(
    app: str,
    scheme: str,
    spec: GPUSpec,
    spec_name: str,
    scale: str,
    verify: bool,
) -> AppResult:
    """Execute one (app, scheme) cell; may raise — ``run_app`` degrades."""
    if scheme == "baseline":
        wl = get_workload(app, scale)
        run = run_workload(wl, spec, verify=verify)
        trace: list[tuple[int, int]] = []
        offset = 0
        for r in run.results:
            xs, ys = r.metrics.mem_trace.series()
            trace.extend((offset + x, y) for x, y in zip(xs, ys))
            offset += r.metrics.mem_trace.seq
        baseline_tlps = {
            r.kernel_name: (r.occupancy.warps_per_tb,
                            min(r.occupancy.tb_sm, r.tbs_simulated))
            for r in run.results
        }
        if len(trace) > 2048:
            # Decimate uniformly — keep the whole execution span so phase
            # changes (Fig. 2's point) stay visible.
            step = -(-len(trace) // 2048)
            trace = trace[::step]
        result = AppResult(
            app, scheme, spec_name, scale, run.total_cycles,
            _kernel_stats(run, baseline_tlps), mem_trace=trace,
        )
    elif scheme == "catt":
        wl = get_workload(app, scale)
        comp = catt_compile(wl.unit(), dict(wl.launch_configs()), spec)
        run = run_workload(get_workload(app, scale), spec, unit=comp.unit,
                           verify=verify)
        # Kernels whose compilation degraded (analysis is None) pass through
        # untransformed; their diagnostics ride along on the result.
        analyzed = {name: t for name, t in comp.transforms.items()
                    if t.analysis is not None}
        loop_tlps = {
            name: [(la.loop_id, la.decision.tlp) for la in t.analysis.loops]
            for name, t in analyzed.items()
        }
        kernel_tlps = {}
        for name, t in analyzed.items():
            occ = t.analysis.occupancy
            # Kernel-level TLP: the most throttled loop's choice (Table 3
            # lists per-loop rows; this is the per-kernel summary).
            tlps = [la.decision.tlp for la in t.analysis.loops
                    if la.decision.throttles]
            kernel_tlps[name] = min(
                tlps, default=(occ.warps_per_tb, occ.tb_sm),
                key=lambda t_: t_[0] * t_[1],
            )
        result = AppResult(
            app, scheme, spec_name, scale, run.total_cycles,
            _kernel_stats(run, kernel_tlps), loop_tlps=loop_tlps,
            diagnostics=[d.to_dict() for d in comp.diagnostics],
        )
    elif scheme in ("bftt", "swl"):
        # Best-SWL is the BFTT search restricted to warp-level limiting.
        search = bftt_search if scheme == "bftt" else best_swl_search
        res = search(lambda: get_workload(app, scale), spec, verify=verify)
        sweep = {
            f"{n},{m}": {
                "total": r.total_cycles,
                "kernels": r.cycles_by_kernel(),
            }
            for (n, m), r in res.runs.items()
        }
        run = res.best_run
        n, _m = res.best_factors
        tlps = {}
        for r in run.results:
            occ = r.occupancy
            tlps[r.kernel_name] = (max(occ.warps_per_tb // n, 1),
                                   max(min(occ.tb_sm, r.tbs_simulated), 1))
        result = AppResult(
            app, scheme, spec_name, scale, run.total_cycles,
            _kernel_stats(run, tlps), factors=res.best_factors, sweep=sweep,
        )
    elif scheme == "bypass":
        run = run_with_bypass(get_workload(app, scale), spec, verify=verify)
        result = AppResult(
            app, scheme, spec_name, scale, run.total_cycles,
            _kernel_stats(run),
        )
    elif scheme == "ciao":
        run = run_with_ciao(get_workload(app, scale), spec, verify=verify)
        result = AppResult(
            app, scheme, spec_name, scale, run.total_cycles,
            _kernel_stats(run), extras=_governor_extras(run),
        )
    elif scheme == "ata":
        run = run_with_ata(get_workload(app, scale), spec, verify=verify)
        result = AppResult(
            app, scheme, spec_name, scale, run.total_cycles,
            _kernel_stats(run), extras=_ata_extras(run),
        )
    else:  # dyncta
        run = run_with_dyncta(get_workload(app, scale), spec, verify=verify)
        result = AppResult(
            app, scheme, spec_name, scale, run.total_cycles,
            _kernel_stats(run), extras=_governor_extras(run),
        )
    return result


def _governor_extras(run: WorkloadRun) -> dict:
    """Governor activity summed over the app's launches (DynCTA/CIAO)."""
    return {
        "governor_pauses": sum(r.metrics.governor_pauses
                               for r in run.results),
        "governor_resumes": sum(r.metrics.governor_resumes
                                for r in run.results),
        "warps_bypassed": sum(r.metrics.warps_bypassed
                              for r in run.results),
    }


def _ata_extras(run: WorkloadRun) -> dict:
    """ATA mechanism activity summed over the app's launches."""
    return {
        "l1_remote_hits": sum(r.metrics.l1_remote_hits
                              for r in run.results),
        "ata_second_touches": sum(r.metrics.ata_second_touches
                                  for r in run.results),
        "ata_first_touch_bypasses": sum(r.metrics.ata_first_touch_bypasses
                                        for r in run.results),
    }
