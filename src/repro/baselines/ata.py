"""ATA-Cache — aggregated-tag-array L1 management, for comparison.

ATA-Cache (PAPERS.md) attacks the same thrashing the paper's static
throttling removes, but from the cache side: one aggregated tag directory
spans the SMs' L1s, so a local miss can be served as a **remote hit** from
a peer L1 (no L2/DRAM traffic, no duplicate allocation), and a line only
earns a local data slot on its **second touch** within the directory's
reach — first-touch streams are serviced downstream without evicting
anything.  Reuse survives; streams stop polluting.

The mechanism lives in the simulator
(:class:`~repro.sim.cache.AggregatedTagArray` + the ATA load path in the
event loop behind :meth:`~repro.sim.sm.SMEngine.step`) and is selected per
launch (``l1_ata=True``); the directory reach comes from
``GPUSpec.ata_tag_factor`` and the remote-hit cost from
``TimingModel.l1_remote_latency``.  This module is the thin baseline
runner the comparison experiments call.
"""

from __future__ import annotations

from ..sim.arch import GPUSpec
from ..workloads.base import Workload, WorkloadRun, run_workload


def run_with_ata(
    workload: Workload,
    spec: GPUSpec,
    verify: bool = True,
) -> WorkloadRun:
    """Run a workload with the L1(s) behind an aggregated tag array."""
    return run_workload(workload, spec, verify=verify, l1_ata=True)
