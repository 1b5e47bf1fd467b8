"""Warp memory-access coalescing unit.

Given the byte addresses issued by the active lanes of one warp for a single
memory instruction, the coalescer merges them into the minimal set of
cache-line transactions, exactly as §3 of the paper describes: perfectly
coalesced accesses produce one 128 B transaction; fully divergent accesses
produce up to 32.

Coalescing depends on the addresses only, so it happens when an engine
builds the instruction's :class:`~repro.sim.events.MemEvent`
(:func:`~repro.sim.events.mem_event`), once per event; the timing loop
walks the event's precomputed lines.
"""

from __future__ import annotations

import numpy as np

LINE_SHIFT_128 = 7  # log2(128)

# Content-keyed memo: coalescing is a pure function of the address vector,
# and real sweeps replay the same warp address patterns over and over (loop
# iterations, repeated launches across TLP configurations), so the hit rate
# is high and a ~250 B bytes-key hash is far cheaper than recomputing.
# Bounded: cleared wholesale when it grows past _CACHE_LIMIT entries.
_CACHE: dict[tuple[bytes, int, int], list[int]] = {}
_CACHE_LIMIT = 200_000


def coalesce_lines(addresses: np.ndarray, access_size: int,
                   line_size: int = 128) -> list[int]:
    """Merge per-lane byte addresses into unique line addresses.

    Returns the sorted, de-duplicated line addresses as a plain Python list —
    the timing engine iterates the lines one by one anyway, and for the
    warp-sized vectors that reach the coalescer a ``tolist``/``set``/``sorted``
    pipeline is several times cheaper than ``np.unique``'s sort machinery.
    Callers must treat the returned list as immutable (it is shared through
    the memo).
    """
    if addresses.size == 0:
        return []
    key = (addresses.tobytes(), access_size, line_size)
    lines = _CACHE.get(key)
    if lines is not None:
        return lines
    shift = int(line_size).bit_length() - 1
    if (1 << shift) != line_size:
        raise ValueError(f"line_size must be a power of two, got {line_size}")
    first = (addresses >> shift).tolist()
    if access_size > 1:
        # An access that straddles a line boundary contributes both lines.
        last = ((addresses + (access_size - 1)) >> shift).tolist()
        if last != first:
            lines = sorted(set(first).union(last))
        else:
            lines = sorted(set(first))
    else:
        lines = sorted(set(first))
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = lines
    return lines


def coalesce(addresses: np.ndarray, access_size: int, line_size: int = 128) -> np.ndarray:
    """Merge per-lane byte addresses into unique line addresses.

    Parameters
    ----------
    addresses:
        int64 array of byte addresses for the *active* lanes (inactive lanes
        must already be filtered out).
    access_size:
        Bytes touched per lane (4 for float/int, 8 for double).  An access
        that straddles a line boundary contributes both lines.
    line_size:
        Transaction granularity (128 B on Volta L1D).

    Returns
    -------
    Sorted, de-duplicated int64 array of line addresses (byte_addr // line).
    """
    return np.array(coalesce_lines(addresses, access_size, line_size),
                    dtype=np.int64)


def transactions_per_warp(addresses: np.ndarray, access_size: int,
                          line_size: int = 128) -> int:
    """Number of line transactions one warp instruction generates."""
    return len(coalesce_lines(addresses, access_size, line_size))
