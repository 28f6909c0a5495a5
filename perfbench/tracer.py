"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, item): spans are opened and closed on
one thread's call stack, so a span's children are disjoint intervals inside
it, and all spans recorded while one benchmark item runs share its item id.
Spans are kept in flat arrays while the run lasts and written out once at
the end.  Calls made outside an item (set-up, output checks) pass straight
through and are not recorded.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.item = array("i")
        self.item_kinds: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._item = -1

    @property
    def in_item(self) -> bool:
        return self._item >= 0

    @property
    def item_kind(self) -> str:
        return self.item_kinds[self._item]

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int):
        self.end[idx] = _clock()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        if self._item < 0:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def run_item(self, kind: str, fn, *args):
        """Run one benchmark item as a root span ``bench.item`` of its own id."""
        self._item = len(self.item_kinds)
        self.item_kinds.append(kind)
        try:
            return self.span("bench.item", fn, *args)
        finally:
            self._item = -1

    def arrays(self):
        """Spans as numpy arrays: (names, start, end, parent, name_id, item_id)."""
        return (self.names, np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.item, dtype=np.int32))

    def save(self, path):
        names, start, end, parent, name, item = self.arrays()
        np.savez(path, names=np.array(names), kinds=np.array(self.item_kinds),
                 start=start, end=end, parent=parent, name=name, item=item)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children of one span are disjoint (they come from one call stack), so
    the covered part is the sum of their durations.
    """
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent = np.asarray(parent)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered
