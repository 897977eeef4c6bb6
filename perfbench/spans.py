"""Span recording from outside the program, and the arithmetic on spans.

The benchmark never turns on the program's own ``Tracer``: an enabled
tracer changes what runs (cluster reduce goes serial, the engine's
dataflow switches to timed mode). Instead :class:`Recorder` patches
wrappers around public functions and methods of the package, records one
span per call and removes the wrappers again when the traced pass ends.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of
the enclosing span (``-1`` for a top-level span) and ``job`` is the index
of the top-level span the call nests under, shared by every span of one
job. Spans are kept column-wise in arrays, because a traced pass of the
BT pipeline records over a million per-row calls. Self time, per-layer
totals and the unattributed share are plain functions of a
:class:`SpanTable`, so the self-tests drive them with a fake clock.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class SpanTable(NamedTuple):
    """Recorded spans, one column per field, in the order calls began."""

    names: List[str]
    starts: Sequence[float]
    ends: Sequence[float]
    parents: Sequence[int]
    jobs: Sequence[int]


class Recorder:
    """Collects spans from wrapped calls made on the recording thread.

    Calls from other threads (executor pools) pass straight through:
    their spans could not nest on this thread's stack. Calls inside
    forked workers record into the child's copy and are lost with it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.table = SpanTable([], array("d"), array("d"), array("q"), array("q"))
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        t = self.table
        parent = self._stack[-1] if self._stack else -1
        index = len(t.names)
        t.names.append(name)
        t.parents.append(parent)
        t.jobs.append(t.jobs[parent] if parent >= 0 else index)
        t.ends.append(0.0)
        self._stack.append(index)
        t.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.table.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (top {popped})")

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``after(args, result)`` runs
        once the span is closed, so its cost is charged to no layer."""
        recorder = self
        thread = self._thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            index = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`unpatch`.

        ``owner`` is the module or class where callers look the name up.
        """
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after=after))

    def patch_factory(self, owner, attr: str, name: str) -> None:
        """Wrap the callables a factory ``owner.attr`` returns (not the factory)."""
        factory = owner.__dict__[attr]
        recorder = self

        @functools.wraps(factory)
        def wrapped_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            return None if made is None else recorder.wrap(name, made)

        self._patches.append((owner, attr, factory))
        setattr(owner, attr, wrapped_factory)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- arithmetic ----------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(t: SpanTable) -> array:
    """Each span's duration minus the time its children cover.

    The recorder nests spans on one thread's stack, so a span's children
    run one after another inside it and cover exactly the sum of their
    durations.
    """
    own = array("d", (e - s for s, e in zip(t.starts, t.ends)))
    for child, parent in enumerate(t.parents):
        if parent >= 0:
            own[parent] -= t.ends[child] - t.starts[child]
    return own


def layer_totals(t: SpanTable) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    out: Dict[str, Dict[str, float]] = {}
    for name, s, e, own in zip(t.names, t.starts, t.ends, self_times(t)):
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        agg["calls"] += 1
        agg["total_s"] += e - s
        agg["self_s"] += own
    return out


def unattributed_frac(t: SpanTable, wall_start: float, wall_end: float) -> float:
    """Share of ``[wall_start, wall_end]`` that no top-level span covers."""
    wall = wall_end - wall_start
    if wall <= 0:
        raise ValueError("empty wall interval")
    top = [(s, e) for s, e, p in zip(t.starts, t.ends, t.parents) if p < 0]
    return (wall - covered(top, wall_start, wall_end)) / wall


def span_tree(t: SpanTable) -> dict:
    """Spans folded by call path: ``{"a/b": {calls, total_s, self_s}}``.

    Over a million per-row spans fold into one entry per distinct path,
    which is what a regression report needs to name the layer that moved.
    """
    path_ids: Dict[Tuple[int, str], int] = {}
    paths: List[str] = []
    nodes: List[List[float]] = []
    span_path = array("q")
    for name, parent, s, e, own in zip(t.names, t.parents, t.starts, t.ends, self_times(t)):
        parent_path = span_path[parent] if parent >= 0 else -1
        pid = path_ids.get((parent_path, name))
        if pid is None:
            pid = path_ids[(parent_path, name)] = len(paths)
            paths.append(name if parent_path < 0 else paths[parent_path] + "/" + name)
            nodes.append([0, 0.0, 0.0])
        span_path.append(pid)
        node = nodes[pid]
        node[0] += 1
        node[1] += e - s
        node[2] += own
    return {
        path: {"calls": n[0], "total_s": round(n[1], 6), "self_s": round(n[2], 6)}
        for path, n in sorted(zip(paths, nodes))
    }
