"""In-memory span recorder that wraps library functions from outside.

A span is one call of a wrapped function: its name, start and end
(``perf_counter_ns``) and the span that was open when it started. Spans are
appended to flat arrays while the run goes on and written out once, by
``save``, when it ends. Self time is a span's duration minus the durations
of its direct children.

``Tracer.installed`` patches each target attribute with a recording wrapper
and restores the original on exit, so code outside that block runs with no
wrapper at all.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """A function that calls ``fn`` inside a span called ``name``."""
        nid = self._name_id(name)
        names, parent, start, end, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap ``(owner, attribute, span name)`` targets for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in targets:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def arrays(self):
        """(name id, parent, duration ns, self ns) per span, as numpy arrays."""
        name = np.frombuffer(self._name, dtype=np.int32) if len(self._name) else np.zeros(0, np.int32)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end, dtype=np.int64) - np.array(self._start, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, and every duration."""
        name, _, dur, self_ns = self.arrays()
        out = {}
        for nid, n in enumerate(self.names):
            mask = name == nid
            out[n] = {
                "calls": int(mask.sum()),
                "total_ns": int(dur[mask].sum()),
                "self_ns": int(self_ns[mask].sum()),
                "durations_ns": dur[mask],
            }
        return out

    def save(self, path) -> None:
        """Write every span to ``path`` (.npz) with the name table as JSON."""
        name, parent, dur, self_ns = self.arrays()
        np.savez(
            path,
            name=name,
            parent=parent,
            start_ns=np.array(self._start, dtype=np.int64),
            duration_ns=dur,
            self_ns=self_ns,
            names=np.array(json.dumps(self.names)),
        )
