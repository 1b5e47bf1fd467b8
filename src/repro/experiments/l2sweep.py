"""``catt l2sweep`` — shared-L2 contention across co-simulated SM counts.

The single-SM model sizes a static L2 slice per SM, so inter-SM
interference is invisible by construction.  This sweep runs a few
cache-sensitive workloads at increasing ``sms`` and reports how the shared
L2 behaves once multiple SMs' working sets actually compete: the aggregate
hit rate, the per-SM attribution spread, and the DRAM transaction count
(what the L2 failed to absorb).

The sweep deliberately bypasses the :class:`~repro.experiments.common.
ResultCache` — it is a model-inspection tool, cheap at any scale, and the
interesting quantity (per-SM attribution) is not part of the cached
:class:`AppResult` schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.ata import run_with_ata
from ..baselines.ciao import run_with_ciao
from ..obs.trace import span as _span
from ..options import SimOptions, current_options, use_options
from ..workloads import get_workload
from ..workloads.base import run_workload
from .common import SPECS

#: Cache-sensitive probes (Table 2's CS group): dense row-reuse kernels
#: whose L2 behaviour actually moves with co-residency.
DEFAULT_APPS = ("ATAX", "MVT", "GSMV")

DEFAULT_SMS = (1, 2, 4)

#: Management schemes swept per (app, sms) cell: the unmanaged baseline
#: against the two shared-cache contention managers — exactly the schemes
#: whose value should *grow* with co-residency.
DEFAULT_SCHEMES = ("baseline", "ciao", "ata")
_RUNNERS = {"baseline": run_workload, "ciao": run_with_ciao,
            "ata": run_with_ata}


@dataclass
class L2SweepRow:
    """One (app, sms, scheme) cell of the contention sweep."""

    app: str
    sms: int
    scheme: str
    cycles: int              # launch-critical-path cycles, summed over launches
    l1_hit_rate: float       # aggregate over all timed SMs
    l2_hit_rate: float       # aggregate shared-L2 hit rate
    dram_transactions: int
    tbs_timed: int           # thread blocks executed on timed SMs
    # Per-SM attributed shared-L2 hit rates, summed over the app's launches;
    # (the single-SM row carries a 1-tuple).  The spread between entries is
    # the inter-SM asymmetry the aggregate hides.
    per_sm_l2_hit_rates: tuple[float, ...]


def _sweep_cell(app: str, scale: str, spec_name: str, sms: int,
                scheme: str = "baseline") -> L2SweepRow:
    runner = _RUNNERS.get(scheme)
    if runner is None:
        raise ValueError(f"unknown l2sweep scheme {scheme!r}; "
                         f"options: {DEFAULT_SCHEMES}")
    run = runner(get_workload(app, scale), SPECS[spec_name], verify=False)
    l2_hits = l2_accesses = 0
    l1_hits = l1_accesses = 0
    dram = 0
    tbs = 0
    per_sm = [[0, 0] for _ in range(sms)]
    for r in run.results:
        l2_hits += r.metrics.l2_load.hits
        l2_accesses += r.metrics.l2_load.accesses
        l1_hits += r.metrics.l1_load.hits
        l1_accesses += r.metrics.l1_load.accesses
        dram += r.metrics.dram_transactions
        tbs += r.metrics.tbs_executed
        sms_metrics = r.per_sm if r.per_sm is not None else (r.metrics,)
        for i, m in enumerate(sms_metrics):
            per_sm[i][0] += m.l2_load.hits
            per_sm[i][1] += m.l2_load.accesses
    return L2SweepRow(
        app=app,
        sms=sms,
        scheme=scheme,
        cycles=run.total_cycles,
        l1_hit_rate=round(l1_hits / l1_accesses, 4) if l1_accesses else 0.0,
        l2_hit_rate=round(l2_hits / l2_accesses, 4) if l2_accesses else 0.0,
        dram_transactions=dram,
        tbs_timed=tbs,
        per_sm_l2_hit_rates=tuple(
            round(h / a, 4) if a else 0.0 for h, a in per_sm
        ),
    )


def build_l2sweep(
    apps: tuple[str, ...] = DEFAULT_APPS,
    sms_values: tuple[int, ...] = DEFAULT_SMS,
    scale: str = "bench",
    spec_name: str = "max",
    options: SimOptions | None = None,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
) -> list[L2SweepRow]:
    """Run the contention sweep; rows come back in (app, sms, scheme) order."""
    base = options or current_options()
    rows: list[L2SweepRow] = []
    for app in apps:
        for sms in sms_values:
            for scheme in schemes:
                opts = base.replace(sms=sms)
                # Spans carry the canonical config identity, so a trace row
                # is attributable to the same signature the cache keys use.
                with use_options(opts), \
                        _span("experiment.l2cell", app=app, scale=scale,
                              scheme=scheme, signature=opts.signature()):
                    rows.append(
                        _sweep_cell(app, scale, spec_name, sms, scheme))
    return rows


def format_l2sweep(rows: list[L2SweepRow]) -> str:
    lines = [
        "Shared-L2 contention sweep (per-SM attribution)",
        "",
        f"{'App':6s} {'SMs':>3s} {'Scheme':>8s} {'Cycles':>12s} "
        f"{'L1 hit':>7s} {'L2 hit':>7s} {'DRAM txn':>9s} {'TBs':>5s}  "
        f"per-SM L2 hit",
        "-" * 86,
    ]
    for r in rows:
        per_sm = " ".join(f"{x:.3f}" for x in r.per_sm_l2_hit_rates)
        lines.append(
            f"{r.app:6s} {r.sms:3d} {r.scheme:>8s} {r.cycles:12,d} "
            f"{r.l1_hit_rate:7.4f} {r.l2_hit_rate:7.4f} "
            f"{r.dram_transactions:9,d} {r.tbs_timed:5d}  [{per_sm}]"
        )
    return "\n".join(lines)
