"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` replaces module attributes of ``cvtalloc`` with wrappers
that record one span per call: the span's name, the span that was open when
it started (its parent), and its start and end times.  The package's own
functions look their callees up as module globals (``dens.interval_moments``,
``residual``, ``dyn.negotiate_round``, ...), so the wrappers also see the
calls made inside the package.  Spans are kept in flat arrays in memory and
written out when the run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn, on_return=None):
        """Return fn wrapped in a span named ``name``.

        ``on_return(tracer, args, kwargs, result)`` runs after a successful
        call, outside the span, to update counters.
        """
        nid = self._name_id(name)
        open_spans = self._open
        calls = self.calls
        calls.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_return))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(self.names, np.array(self.name_id, dtype=np.int64),
                     np.array(self.parent, dtype=np.int64),
                     np.array(self.start), np.array(self.end))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))


class Spans:
    """Read-only view of recorded spans with the aggregations the benchmark
    reports.  Parents always precede their children."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.duration[has_parent],
                            minlength=self.duration.size)
        self.self_time = self.duration - child

    def __len__(self) -> int:
        return self.duration.size

    def select(self, names) -> np.ndarray:
        if isinstance(names, str):
            names = (names,)
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def _parent_is(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        has_parent = self.parent >= 0
        parent_name = np.where(has_parent, self.name_id[np.maximum(self.parent, 0)], -1)
        return parent_name == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Mask of spans that have a span called ``name`` among their ancestors."""
        mask = np.zeros(len(self), dtype=bool)
        if name not in self.names:
            return mask
        target = self.names.index(name)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            mask |= live & (self.name_id[np.maximum(anc, 0)] == target)
            anc = np.where(live, self.parent[np.maximum(anc, 0)], -1)
        return mask

    def calls(self, names, parent: str | None = None) -> int:
        mask = self.select(names)
        if parent is not None:
            mask &= self._parent_is(parent)
        return int(np.count_nonzero(mask))

    def inclusive(self, names, parent: str | None = None) -> float:
        """Summed duration of the named spans (none of them nest in each other)."""
        mask = self.select(names)
        if parent is not None:
            mask &= self._parent_is(parent)
        return float(np.sum(self.duration[mask]))

    def self_total(self, names) -> float:
        """Summed self time: duration minus the time covered by child spans."""
        return float(np.sum(self.self_time[self.select(names)]))
