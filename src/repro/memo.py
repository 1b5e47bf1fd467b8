"""Bounded LRU memos for the compile and simulation layers.

Each kernel memo (parse, analysis, lowering, record, ...) maps a content key
to a result that every caller with an equal key shares, so results are
read-only.  :class:`Memo` keeps one such map, evicts its least recently
used entry beyond ``limit`` and counts ``<name>_hits`` / ``<name>_misses``
in the metrics registry; :func:`clear_memos` empties every memo of the
process.
"""

from __future__ import annotations

from collections import OrderedDict

from .obs.metrics_registry import registry

_memos: list["Memo"] = []


class Memo:
    """A bounded LRU map whose lookups count as hits or misses."""

    def __init__(self, name: str, limit: int):
        self.limit = limit
        self._hits = f"{name}_hits"
        self._misses = f"{name}_misses"
        self._entries: OrderedDict = OrderedDict()
        _memos.append(self)

    def get(self, key):
        """The value stored for ``key`` (now the most recent), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        reg = registry()
        if reg.enabled:
            reg.counter(self._misses if value is None else self._hits).inc()
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def clear_memos() -> None:
    """Empty every memo, so the next lookups run the memoized code."""
    for memo in _memos:
        memo.clear()
