"""In-memory span tracing by wrapping public functions where they are imported.

A :class:`Tracer` replaces ``module.attr`` for each traced site with a wrapper
that records a :class:`Span` (name, start, end, parent span, pass id) around
every call, and puts the originals back on :meth:`Tracer.restore`.  Because
the program looks its collaborators up as module globals at call time
(``training.train`` calls ``mlp_forward`` through ``form_lab.training``), a
wrapper installed at the import site sees every internal call too.

Spans opened on a worker thread with no open span of its own are parented to
the innermost open span of the thread that installed the tracer: that thread
is blocked waiting on the pool, as ``datasets.generate`` is.  Self time is a
span's duration minus the union of its children's intervals, so children that
overlap on several threads are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack: list[int], sid: int, parent: int | None, name: str, start: float) -> None:
        end = self._clock()
        stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.pass_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block; yields its id."""
        stack, sid, parent = self._open()
        start = self._clock()
        try:
            yield sid
        finally:
            self._close(stack, sid, parent, name, start)

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` recording one span per call; ``name`` may compute the label from the call's arguments."""
        label = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = label(*args, **kwargs)
            stack, sid, parent = self._open()
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, span_name, start)

        return traced

    def install(self, sites) -> None:
        """Wrap each ``(module, attribute, name)`` site; undone by :meth:`restore`."""
        for module_name, attr, name in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(s.start, s.end, children.get(s.id, ())) for s in spans}


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total ``busy_s``, total ``self_s`` and number of ``calls``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
    for s in spans:
        row = out[s.name]
        row["busy_s"] += s.duration
        row["self_s"] += own[s.id]
        row["calls"] += 1
    return dict(out)
