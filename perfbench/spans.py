"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call across a layer boundary: ``(id, name, thread, parent,
start, end)`` with times from ``time.perf_counter``.  Spans are kept in a
list while the traced program runs and written out once it has finished.

Self time is wall-clock time.  A span is charged for the instants in which
it is the innermost open span of its thread; when several threads are busy
at the same instant, that instant is split equally between them.  The self
times of all spans therefore add up to the wall time in which at least one
thread was busy, whether or not the program ran work in threads.  A span
whose name is listed as idle (a thread blocked on other threads' results)
is never busy, so its waiting is charged to the threads it waits for.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Recorder", "self_times"]


class Recorder:
    """Collects spans and named counts from any number of threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread (or the adopted parent)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def adopt(self, parent) -> None:
        """Make ``parent`` the parent of this thread's outermost spans."""
        self._local.base = parent

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self.current()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, threading.get_ident(), parent, start, end))

    def wrap(self, fn, name: str, count=None):
        """``fn`` recorded as a span named ``name``.

        ``count(recorder, args, kwargs, result)``, if given, runs after the
        call, outside the span, and records counts.
        """
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else getattr(local, "base", None)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, get_ident(), parent, start, end))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced


def _innermost_segments(spans):
    """Per-thread ``(start, end, span id)`` pieces where that span is innermost.

    Spans of one thread must nest properly, as call spans do.
    """
    ordered = sorted(spans, key=lambda s: (s[4], -s[5]))
    out = []
    stack = []
    at = None
    for sid, _name, _thread, _parent, start, end in ordered:
        while stack and stack[-1][1] <= start:
            top, top_end = stack.pop()
            out.append((at, top_end, top))
            at = top_end
        if stack:
            out.append((at, start, stack[-1][0]))
        stack.append((sid, end))
        at = start
    while stack:
        top, top_end = stack.pop()
        out.append((at, top_end, top))
        at = top_end
    return [seg for seg in out if seg[1] > seg[0]]


def self_times(spans, idle=()) -> dict:
    """Wall-clock self time of every span, keyed by span id (see module doc)."""
    idle = set(idle)
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s[2]].append(s)
    names = {s[0]: s[1] for s in spans}
    out = {s[0]: 0.0 for s in spans}
    events = []
    for thread, group in by_thread.items():
        for start, end, sid in _innermost_segments(group):
            if names[sid] in idle:
                continue
            # at equal times a piece ends before the next one starts
            events.append((start, 1, thread, sid))
            events.append((end, 0, thread, None))
    events.sort(key=lambda e: (e[0], e[1]))
    busy: dict = {}
    prev = None
    for t, _kind, thread, sid in events:
        if busy and t > prev:
            share = (t - prev) / len(busy)
            for s in busy.values():
                out[s] += share
        if sid is None:
            busy.pop(thread, None)
        else:
            busy[thread] = sid
        prev = t
    return out
