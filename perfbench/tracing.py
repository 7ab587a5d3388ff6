"""Span tracer that times calls into the program from outside it.

The library keeps wall clocks out of ``src/``, so the traced run wraps
layer boundaries here instead: each boundary (a class method or a module
function) is swapped for a wrapper that records one span per call —
name, start, end, parent span and the id of the cause (the DES event or
billing read being processed) — and keeps per-boundary counters. Spans
live in flat in-memory arrays and are written out once, at the end.

Self time is computed online: a span's duration minus the durations of
its direct children, so nested boundaries (a decode burst calling the
radio source, which calls nothing traced) never double-count.
"""

from __future__ import annotations

import sys
import time
from array import array
from importlib import import_module

#: Cause id when no DES event or read is in flight.
NO_CAUSE = -1


def resolve(target: str):
    """``"pkg.mod:Class"`` -> the class, ``"pkg.mod"`` -> the module."""
    module, _, cls = target.partition(":")
    obj = import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for wrapped callables; see :meth:`patch`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One row per span, column-wise.
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cause_id = array("q")
        #: name -> [calls, total_s, self_s, entries]; an entry is a call
        #: whose parent span belongs to another layer (the prefix of the
        #: span name before "/"), so a layer calling itself counts once.
        self.stats: dict[str, list] = {}
        #: free-form counters and samples the boundary notes add to
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        #: the DES event or read currently being processed
        self.cause = NO_CAUSE
        self._stack: list[list] = []  # [span index, child seconds, layer]
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0, 0]
        return self._name_ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, note=None):
        """``fn`` wrapped in a span called ``name``.

        ``note(tracer, args, kwargs, result)`` runs after the call, outside
        the span, to take counts at the same boundary.
        """
        nid = self._id(name)
        stat = self.stats[name]
        layer = name.partition("/")[0]
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.cause_id.append(self.cause)
            self.start.append(0.0)
            self.end.append(0.0)
            if not stack or stack[-1][2] != layer:
                stat[3] += 1
            frame = [index, 0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
                duration = t1 - t0
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if note is not None:
                note(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(self, name: str, target: str, attr: str, note=None) -> None:
        """Wrap ``target.attr`` for the rest of the traced run.

        A module-level function is also replaced in every ``repro``
        module that imported it by name, so callers that did
        ``from ..dsp.peaks import f`` are traced too.
        """
        owner = resolve(target)
        original = owner.__dict__[attr]
        wrapped = self.wrap(name, original, note)
        if isinstance(owner, type):
            self._swap(owner, attr, wrapped)
            return
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and module.__dict__.get(attr) is original
            ):
                self._swap(module, attr, wrapped)

    def hook(self, target: str, attr: str, make) -> None:
        """Replace ``target.attr`` with ``make(original)`` (no span)."""
        owner = resolve(target)
        self._swap(owner, attr, make(owner.__dict__[attr]))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def entries(self, name: str) -> int:
        return self.stats[name][3] if name in self.stats else 0

    def n_spans(self) -> int:
        return len(self.start)

    def span_self_times(self) -> list[float]:
        """Self time of every span, recomputed from the stored rows."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(child))]

    def save(self, path) -> None:
        """Write every span once, as numpy columns."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_s=np.frombuffer(self.start, dtype=np.float64),
            end_s=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            cause=np.frombuffer(self.cause_id, dtype=np.int64),
        )
