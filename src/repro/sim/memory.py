"""Global-memory model: a flat virtual address space over NumPy buffers.

The runtime allocates device arrays here; the interpreter performs vectorized
gathers/scatters with raw byte addresses.  A single allocation backs each
array, so the common case (all lanes of a warp touching one array) resolves
the target buffer with one binary search.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_BASE_ADDRESS = 0x1000_0000
_ALIGN = 256


class MemoryError_(Exception):
    """Out-of-bounds or unmapped device memory access."""


@dataclass
class Allocation:
    start: int
    size: int
    buffer: np.ndarray  # 1-D view of the underlying bytes' typed storage

    @property
    def end(self) -> int:
        return self.start + self.size


class GlobalMemory:
    """Allocator + vectorized load/store over a flat address space."""

    def __init__(self) -> None:
        self._allocs: list[Allocation] = []
        self._starts = np.empty(0, dtype=np.int64)
        self._next = _BASE_ADDRESS

    # -- allocation ------------------------------------------------------
    def alloc(self, array: np.ndarray, guard: int = 0) -> int:
        """Register ``array`` (any shape; stored as a flat typed view) and
        return its device base address.

        ``guard`` bytes after the allocation stay unmapped, so an access
        that overruns it by less than that raises :class:`MemoryError_`
        instead of reaching the next allocation."""
        flat = np.ascontiguousarray(array).reshape(-1)
        size = flat.nbytes
        start = self._next
        self._next = (start + size + guard + _ALIGN - 1) & ~(_ALIGN - 1)
        self._allocs.append(Allocation(start, size, flat))
        self._starts = np.array([a.start for a in self._allocs], dtype=np.int64)
        return start

    def find(self, addr: int) -> Allocation:
        idx = int(np.searchsorted(self._starts, addr, side="right")) - 1
        if idx < 0:
            raise MemoryError_(f"address {addr:#x} below all allocations")
        alloc = self._allocs[idx]
        if addr >= alloc.end:
            raise MemoryError_(f"address {addr:#x} is unmapped")
        return alloc

    def aliases(self, addrs: dict[str, int]) -> list[list[str]]:
        """The names in ``addrs`` that share an allocation with another,
        one list per shared allocation (an unmapped address keys its own)."""
        groups: dict[int, list[str]] = {}
        for name, addr in addrs.items():
            try:
                start = self.find(addr).start
            except MemoryError_:
                start = addr
            groups.setdefault(start, []).append(name)
        return [m for m in groups.values() if len(m) > 1]

    # -- content identity ---------------------------------------------------
    def digests(self) -> tuple[tuple[int, int, str, bytes], ...]:
        """One ``(start, size, dtype, content hash)`` entry per allocation,
        in allocation order: equal digests mean equal device memory."""
        return tuple(
            (a.start, a.size, a.buffer.dtype.str,
             hashlib.sha1(a.buffer, usedforsecurity=False).digest())
            for a in self._allocs)

    def snapshot(self, indices) -> tuple[tuple[int, np.ndarray], ...]:
        """Copies of the allocations at ``indices`` (allocation order)."""
        return tuple((i, self._allocs[i].buffer.copy()) for i in indices)

    def restore(self, snapshot: tuple[tuple[int, np.ndarray], ...]) -> None:
        """Write a :meth:`snapshot` back in place; host views of the
        buffers see the restored contents."""
        for i, saved in snapshot:
            self._allocs[i].buffer[...] = saved

    # -- vectorized access -------------------------------------------------
    def load(self, addresses: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Gather one element of ``dtype`` per byte address."""
        return self._access(addresses, dtype, None)

    def store(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Scatter ``values`` (one per byte address)."""
        self._access(addresses, values.dtype, values)

    def _access(self, addresses: np.ndarray, dtype: np.dtype,
                values: np.ndarray | None) -> np.ndarray | None:
        if addresses.size == 0:
            return np.empty(0, dtype=dtype) if values is None else None
        itemsize = np.dtype(dtype).itemsize
        lo = int(addresses.min())
        alloc = self.find(lo)
        hi = int(addresses.max())
        if hi + itemsize <= alloc.end:
            # Fast path: the whole access hits a single allocation.
            return self._one_alloc(alloc, addresses, dtype, values, lo, hi)
        # Slow path: split per allocation (cross-array warp access).
        out = np.empty(addresses.shape, dtype=dtype) if values is None else None
        idx = np.searchsorted(self._starts, addresses, side="right") - 1
        for alloc_idx in np.unique(idx):
            if alloc_idx < 0:
                raise MemoryError_("access below all allocations")
            mask = idx == alloc_idx
            a = self._allocs[int(alloc_idx)]
            if values is None:
                out[mask] = self._one_alloc(a, addresses[mask], dtype, None)
            else:
                self._one_alloc(a, addresses[mask], dtype, values[mask])
        return out

    def _one_alloc(self, alloc: Allocation, addresses: np.ndarray,
                   dtype: np.dtype, values: np.ndarray | None,
                   lo: int | None = None, hi: int | None = None):
        itemsize = np.dtype(dtype).itemsize
        offsets = addresses - alloc.start
        # The caller may pass the address extrema it already computed so the
        # bounds check needs no extra reductions over the lane vector.
        if lo is None:
            lo = int(addresses.min())
        if hi is None:
            hi = int(addresses.max())
        if lo < alloc.start or hi - alloc.start + itemsize > alloc.size:
            raise MemoryError_(
                f"access outside allocation [{alloc.start:#x}, {alloc.end:#x})"
            )
        buf_itemsize = alloc.buffer.dtype.itemsize
        if buf_itemsize == itemsize and np.dtype(dtype) == alloc.buffer.dtype:
            index = offsets // itemsize
            if values is None:
                return alloc.buffer[index]
            alloc.buffer[index] = values
            return None
        # Type-punned access (e.g. int view of float array): go through bytes.
        raw = alloc.buffer.view(np.uint8)
        if values is None:
            out = np.empty(addresses.shape, dtype=dtype)
            out_bytes = out.view(np.uint8).reshape(addresses.size, itemsize)
            for b in range(itemsize):
                out_bytes[:, b] = raw[offsets + b]
            return out
        val_bytes = np.ascontiguousarray(values, dtype=dtype).view(np.uint8)
        val_bytes = val_bytes.reshape(addresses.size, itemsize)
        for b in range(itemsize):
            raw[offsets + b] = val_bytes[:, b]
        return None
