"""In-memory span tracing around the calls into each bitoss layer.

The tracer replaces functions at the module attributes through which their
callers reach them (``bitoss.em.dagger``, ``bitoss.binomials.moments``, ...)
with wrappers that record a span: name, start, end and parent.  Spans stay
in memory until :meth:`Tracer.dump`.  Two very hot kernel methods,
``Dist.__init__`` and ``Dist.__call__``, are recorded as *leaves*: their
calls and time are summed, and their time is charged to the enclosing span
as child time, but no span record is kept per call.

A span's self time is its duration minus the time its child spans and
leaves cover.  Busy time for a name counts only its outermost calls, so a
name that nests inside itself (``grid_to_json`` calling ``dist_to_json``)
is not counted twice.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans, busy and self seconds, and counters, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.busy: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._depth: dict = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple] = []
        self._wrappers: dict = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (the function wrappers use it too)."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            if self._depth[name] == 0:
                self.busy[name] += dur
            self.self_time[name] += dur - frame[1]
            self.counts[name + ".calls"] += 1
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name: str, count=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``count(result, args, kwargs)`` may return extra counters to add
        after a call that returned normally.
        """
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, n in count(result, args, kwargs).items():
                    self.counts[key] += n
            return result

        return traced

    def wrap_leaf(self, fn, name: str):
        """Wrap a hot function whose calls are summed, not kept as spans."""
        clock = time.perf_counter
        stack = self._stack
        calls = name + ".calls"

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self.busy[name] += dur
                self.counts[calls] += 1
                if stack:
                    stack[-1][1] += dur

        return traced

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None, leaf: bool = False) -> None:
        """Replace ``owner.attr`` by a traced wrapper (one per function, so a
        function reached through several attributes shares its wrapper)."""
        fn = getattr(owner, attr)
        key = (id(fn), name)
        if key not in self._wrappers:
            self._wrappers[key] = (
                self.wrap_leaf(fn, name) if leaf else self.wrap(fn, name, count)
            )
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrappers[key])

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def take(self) -> dict:
        """Busy and self seconds and counts since the last call, then reset
        them (spans are kept for the dump)."""
        out = {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }
        self.busy.clear()
        self.self_time.clear()
        self.counts.clear()
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span as ``[id, parent, name, start, end]`` rows."""
        doc = dict(meta)
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = [list(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
