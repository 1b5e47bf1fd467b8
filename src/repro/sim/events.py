"""Events exchanged between warp interpreters and the SM timing engine.

A warp executes as a generator; each yielded event tells the engine what the
warp just did so the engine can account cycles, drive the caches, and decide
when the warp may issue again.

Events and the event lists recorded for a launch are read-only once built:
the timing loop never mutates an event or a recorded list, so one recorded
stream may be replayed by any number of launches (the record memo in
:mod:`repro.sim.launch` relies on this).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .coalescer import coalesce_lines


@dataclass(frozen=True, slots=True)
class ComputeEvent:
    """``ops`` ALU instructions (plus ``sfu_ops`` transcendental ones)."""

    ops: int
    sfu_ops: int = 0


@dataclass(slots=True)
class MemEvent:
    """One warp-level memory instruction.

    ``lines`` holds the coalesced line transactions of the *active* lanes:
    sorted, unique line ids, built once by :func:`mem_event` (and shared
    with the coalescer's memo).  ``space`` is ``"global"`` (goes through
    L1D/L2/DRAM) or ``"shared"`` (fixed-latency scratchpad, ``lines`` is
    ``()``).

    Immutable by convention, not enforcement: millions are created per run,
    and a frozen dataclass pays one ``object.__setattr__`` call per field
    per instance.
    """

    lines: Sequence[int]
    write: bool
    space: str = "global"


@dataclass(frozen=True, slots=True)
class SyncEvent:
    """``__syncthreads()`` — the warp parks until its whole TB arrives."""


Event = ComputeEvent | MemEvent | SyncEvent


class EventBudgetExceeded(Exception):
    """A functional run used up its event budget."""


# Events are immutable, and the same small (ops, sfu_ops) combinations recur
# millions of times per launch, so producers intern them instead of paying a
# frozen-dataclass construction per statement flush.
SYNC_EVENT = SyncEvent()
_CE_CACHE: dict[tuple[int, int], ComputeEvent] = {}
_SHARED_EVENTS = {write: MemEvent((), write, "shared")
                  for write in (False, True)}


def compute_event(ops: int, sfu_ops: int = 0) -> ComputeEvent:
    key = (ops, sfu_ops)
    ev = _CE_CACHE.get(key)
    if ev is None:
        ev = _CE_CACHE[key] = ComputeEvent(ops, sfu_ops)
    return ev


def mem_event(addresses: np.ndarray, itemsize: int, write: bool,
              space: str, line_size: int) -> MemEvent:
    """The event of one warp memory instruction.

    ``addresses`` are the active lanes' byte addresses and ``itemsize`` the
    bytes each lane touches.  Global accesses are coalesced here into
    ``line_size``-byte transactions, once per event; shared accesses never
    reach the caches and get an interned event with no lines.
    """
    if space == "shared":
        return _SHARED_EVENTS[write]
    return MemEvent(coalesce_lines(addresses, itemsize, line_size), write,
                    space)
