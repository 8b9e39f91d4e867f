"""Spans recorded from outside the program, around each layer's entry points.

The traced run wraps the public entry points of the live objects with
a timer.  Each call becomes one span: name, layer, start, end, parent and
request id, kept in memory and written out when the run ends.

The engine hands work across threads (the event loop, the serving
executor's threads, the fan-out pool), where a thread-local stack alone
cannot see the caller.  A span that starts on a thread with nothing open
takes as parent the newest open *anchor* span of a higher layer: the
client call, the serving entry or the executor dispatch, which are the
points that hand work to other threads.  The benchmark is a closed loop
with one caller, so at most one request is in flight and the newest
anchor is the caller's.

A layer's self time is its span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import json
import threading
import time
from typing import Callable, Dict, List, Optional

#: Layers by depth; a thread-crossing span attaches to an anchor of a
#: strictly smaller rank.
RANK = {"client": 0, "serving": 1, "planner": 2, "executor": 2,
        "writes": 2, "core": 3, "metrics": 3, "io": 4}

NAME, LAYER, START, END, PARENT, REQUEST, INFO = range(7)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request = -1
        self.active = False
        self._local = threading.local()
        self._anchors: List[int] = []
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, anchor: bool) -> int:
        if not self.active:
            return -1
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else -1
            if parent < 0:
                for index in reversed(self._anchors):
                    if RANK[self.spans[index][LAYER]] < RANK[layer]:
                        parent = index
                        break
            index = len(self.spans)
            self.spans.append([name, layer, 0.0, 0.0, parent,
                               self.request, None])
            if anchor:
                self._anchors.append(index)
        stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def end(self, index: int, ended: float) -> None:
        if index < 0:
            return
        self.spans[index][END] = ended
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)
        with self._lock:
            if index in self._anchors:
                self._anchors.remove(index)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, layer: str,
             anchor: bool = False,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``before(args)`` runs ahead of the call and its value goes to
        ``after(state, args, result)``, whose return value is stored as
        the span's info.  Both run outside the timed interval.  The
        wrapper is set on the instance ``owner``, shadowing the class
        attribute until :meth:`unwrap_all`.
        """
        original = getattr(owner, attr)
        recorder = self

        def finish(index, state, args, result):
            ended = time.perf_counter()
            if index >= 0 and after is not None:
                recorder.spans[index][INFO] = after(state, args, result)
            recorder.end(index, ended)

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                state = before(args) if before is not None else None
                index = recorder.begin(name, layer, anchor)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    finish(index, state, args, result)
        else:
            def wrapper(*args, **kwargs):
                state = before(args) if before is not None else None
                index = recorder.begin(name, layer, anchor)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    finish(index, state, args, result)
        self._undo.append((owner, attr))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr in reversed(self._undo):
            delattr(owner, attr)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------
    def of(self, name: str) -> List[list]:
        return [span for span in self.spans if span[NAME] == name]

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                kids.setdefault(span[PARENT], []).append(index)
        return kids

    def self_times(self, name: str) -> List[float]:
        """Each ``name`` span's duration minus what its children cover."""
        kids = self.children()
        out = []
        for index, span in enumerate(self.spans):
            if span[NAME] != name:
                continue
            start, end = span[START], span[END]
            covered, reach = 0.0, start
            for lo, hi in sorted((max(self.spans[k][START], start),
                                  min(self.spans[k][END], end))
                                 for k in kids.get(index, ())):
                if hi <= reach:
                    continue
                covered += hi - max(lo, reach)
                reach = hi
            out.append(end - start - covered)
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "layer": span[LAYER],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "request": span[REQUEST],
                    "info": span[INFO]}, default=str) + "\n")


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def durations(spans: List[list]) -> List[float]:
    return [span[END] - span[START] for span in spans]
