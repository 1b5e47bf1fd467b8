"""The host-side programming model: compile kernels, allocate, launch.

Mirrors a PyCUDA workflow on the simulator substrate::

    dev = Device()
    mod = dev.compile(CUDA_SOURCE)
    A = dev.to_device(a_host)
    result = dev.launch(mod, "atax_kernel1", grid=4, block=256, args=[A, B, tmp])
    print(result.cycles, result.l1_hit_rate)
"""

from __future__ import annotations

import numpy as np

from ..frontend import TranslationUnit, parse
from ..sim.arch import TITAN_V, GPUSpec
from ..sim.launch import LaunchResult, launch_kernel, resolve_args
from ..sim.memory import GlobalMemory
from .arrays import DeviceArray


class Device:
    """A simulated GPU device (single simulated SM; see DESIGN.md)."""

    def __init__(self, spec: GPUSpec = TITAN_V, scheduler: str = "gto"):
        self.spec = spec
        self.scheduler = scheduler
        self.memory = GlobalMemory()

    # -- compilation -------------------------------------------------------
    def compile(self, source: str) -> TranslationUnit:
        """'nvcc' for the subset: preprocess + parse to a TranslationUnit."""
        return parse(source)

    # -- memory ------------------------------------------------------------
    def to_device(self, host: np.ndarray) -> DeviceArray:
        return DeviceArray(self.memory, np.asarray(host))

    def zeros(self, shape, dtype=np.float32) -> DeviceArray:
        return DeviceArray(self.memory, np.zeros(shape, dtype=dtype))

    def empty_like(self, host: np.ndarray) -> DeviceArray:
        return DeviceArray(self.memory, np.zeros_like(host))

    # -- launch --------------------------------------------------------------
    def launch(
        self,
        module: TranslationUnit | str,
        kernel_name: str,
        grid,
        block,
        args: list,
        max_tbs: int | None = None,
        carveout_kb: int | None = None,
        spec: GPUSpec | None = None,
        governor=None,
        governor_period: int = 256,
        l1_bypass: bool = False,
        l1_ata: bool = False,
        shared_bytes: int = 0,
        sms: int | None = None,
    ) -> LaunchResult:
        """Simulate a kernel launch; returns metrics + resolved occupancy.

        ``args`` entries may be :class:`DeviceArray`, raw device addresses,
        or host scalars, matched positionally against kernel parameters.
        ``sms`` co-simulates that many SMs against one shared L2 (default:
        the active :class:`~repro.options.SimOptions`).
        """
        unit = self.compile(module) if isinstance(module, str) else module
        kernel = unit.kernel(kernel_name)
        values = [int(a) if isinstance(a, DeviceArray) else a for a in args]
        resolved = resolve_args(kernel, values)
        return launch_kernel(
            unit,
            kernel_name,
            grid,
            block,
            resolved,
            self.memory,
            spec or self.spec,
            scheduler=self.scheduler,
            max_tbs=max_tbs,
            carveout_kb=carveout_kb,
            governor=governor,
            governor_period=governor_period,
            l1_bypass=l1_bypass,
            l1_ata=l1_ata,
            shared_bytes=shared_bytes,
            sms=sms,
        )
