"""Select (Where), Project, AlterLifetime, and window operators.

AlterLifetime (Section II-A.2) is the windowing workhorse: it rewrites
event lifetimes, which controls the time range over which an event
contributes to downstream snapshot computations. Sliding windows, hopping
windows, and lifetime shifts are all AlterLifetime specializations.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable

from ..batch import EventBatch
from ..event import Event
from ..time import MAX_TIME, TICK
from .base import UnaryOperator

PayloadPredicate = Callable[[dict], bool]
PayloadTransform = Callable[[dict], dict]


class Where(UnaryOperator):
    """Keep events whose payload satisfies ``predicate``.

    ``spec`` optionally declares the predicate's shape —
    ``("eq", key, value)``, ``("ge", key, value)``, or
    ``("gt", key, value)`` — letting the columnar kernel sweep the named
    column directly with zero per-row Python calls. The spec must
    describe ``predicate`` exactly (same contract as AlterLifetime's
    spec).
    """

    supports_columnar = True

    def __init__(self, predicate: PayloadPredicate, spec: tuple = None):
        self.predicate = predicate
        self.spec = spec

    def on_event(self, event: Event) -> Iterable[Event]:
        if self.predicate(event.payload):
            yield event

    def on_batch(self, events) -> list:
        # hot path: a comprehension beats per-event generator dispatch
        # (input order is preserved)
        pred = self.predicate
        if isinstance(events, EventBatch):
            spec = self.spec
            # spec kernel only when the key is in every layout: a row
            # missing the key must raise KeyError exactly like the
            # row-mode predicate would
            if spec is not None and all(
                spec[1] in keys for keys in events.layouts
            ):
                column = events.columns.get(spec[1])
                if column is not None:
                    value = spec[2]
                    if spec[0] == "eq":
                        keep = [i for i, v in enumerate(column) if v == value]
                    elif spec[0] == "ge":
                        keep = [i for i, v in enumerate(column) if v >= value]
                    else:  # "gt"
                        keep = [i for i, v in enumerate(column) if v > value]
                    if len(keep) == len(events):
                        return events
                    return events.gather(keep)
            # columnar fallback: predicate sweep over a reused row view
            # produces a selection index, then one gather
            view = events.row_view()
            keep = []
            append = keep.append
            for i in range(len(events)):
                view.index = i
                if pred(view):
                    append(i)
            if len(keep) == len(events):
                return events  # all rows pass: batches are immutable, share
            return events.gather(keep)
        return [e for e in events if pred(e.payload)]

    def is_idle(self) -> bool:
        return True

    def next_wakeup(self) -> int:
        return MAX_TIME


class Project(UnaryOperator):
    """Rewrite each payload with ``fn`` (schema change, derived columns)."""

    supports_columnar = True

    def __init__(self, fn: PayloadTransform):
        self.fn = fn

    def on_event(self, event: Event) -> Iterable[Event]:
        yield event.with_payload(self.fn(event.payload))

    def on_batch(self, events) -> list:
        fn = self.fn
        if isinstance(events, EventBatch):
            # columnar kernel: rebuild payload columns from fn's output
            # mappings; lifetimes are untouched so the arrays are shared.
            # fn gets a private dict per row (not the shared view):
            # projections overwhelmingly splat the whole payload
            # ({**p, ...}), which runs at C speed on a real dict
            return EventBatch.from_payloads(
                events.les,
                events.res,
                [fn(p) for p in events.payload_dicts()],
            )
        return [e.with_payload(fn(e.payload)) for e in events]

    def is_idle(self) -> bool:
        return True

    def next_wakeup(self) -> int:
        return MAX_TIME


class AlterLifetime(UnaryOperator):
    """Generic lifetime rewrite: ``(le, re) -> (le_fn(le, re), re_fn(le, re))``.

    Note: a rewrite may *reorder* events by their new LE (e.g. hopping
    quantization); batch ``apply`` re-sorts, so downstream operators still
    see LE order.
    """

    supports_columnar = True

    def __init__(
        self,
        le_fn: Callable[[int, int], int],
        re_fn: Callable[[int, int], int],
        spec: tuple = None,
    ):
        self.le_fn = le_fn
        self.re_fn = re_fn
        # recognized shapes get pure-arithmetic columnar kernels with no
        # per-row lambda dispatch: ("window", w) | ("hop", w, h) |
        # ("shift", dle, dre) | ("point",) | ("infinity",); None falls
        # back to calling le_fn/re_fn per row
        self.spec = spec

    def on_event(self, event: Event) -> Iterable[Event]:
        new_le = self.le_fn(event.le, event.re)
        new_re = self.re_fn(event.le, event.re)
        if new_re > new_le:  # empty lifetimes vanish from the relation
            yield Event(new_le, new_re, event.payload)

    def on_batch(self, events) -> list:
        if isinstance(events, EventBatch):
            return self._columnar(events)
        le_fn, re_fn = self.le_fn, self.re_fn
        out = []
        append = out.append
        for e in events:
            le, re = e.le, e.re
            new_le = le_fn(le, re)
            new_re = re_fn(le, re)
            if new_re > new_le:
                append(Event(new_le, new_re, e.payload))
        return out

    def _columnar(self, batch: EventBatch) -> EventBatch:
        """Lifetime arithmetic over the packed le/re arrays."""
        les, res = batch.les, batch.res
        spec = self.spec
        if spec is not None:
            kind = spec[0]
            if kind == "window":
                w = spec[1]
                return batch.with_lifetimes(les, array("q", [le + w for le in les]))
            if kind == "hop":
                w, h = spec[1], spec[2]
                new_les = array("q", [-(-le // h) * h for le in les])
                return batch.with_lifetimes(
                    new_les, array("q", [le + w for le in new_les])
                )
            if kind == "point":
                return batch.with_lifetimes(
                    les, array("q", [le + TICK for le in les])
                )
            if kind == "infinity":
                if not les or max(les) < MAX_TIME:
                    return batch.with_lifetimes(
                        les, array("q", [MAX_TIME]) * len(les)
                    )
                keep = [i for i in range(len(les)) if les[i] < MAX_TIME]
                gathered = batch.gather(keep)
                return gathered.with_lifetimes(
                    gathered.les, array("q", [MAX_TIME]) * len(keep)
                )
            if kind == "shift":
                dle, dre = spec[1], spec[2]
                new_les = array("q", [le + dle for le in les]) if dle else les
                new_res = array("q", [re + dre for re in res]) if dre else res
                if dle == dre:
                    # a pure shift preserves extents: nothing can empty
                    return batch.with_lifetimes(new_les, new_res)
                keep = [
                    i for i in range(len(new_les)) if new_res[i] > new_les[i]
                ]
                if len(keep) == len(new_les):
                    return batch.with_lifetimes(new_les, new_res)
                return batch.gather(keep).with_lifetimes(
                    array("q", [new_les[i] for i in keep]),
                    array("q", [new_res[i] for i in keep]),
                )
        # custom rewrite: per-row le_fn/re_fn calls, but still no Event
        # allocation and no payload traffic
        le_fn, re_fn = self.le_fn, self.re_fn
        new_les = array("q")
        new_res = array("q")
        keep = []
        append = keep.append
        for i in range(len(les)):
            le, re = les[i], res[i]
            new_le = le_fn(le, re)
            new_re = re_fn(le, re)
            if new_re > new_le:
                append(i)
                new_les.append(new_le)
                new_res.append(new_re)
        if len(keep) == len(les):
            return batch.with_lifetimes(new_les, new_res)
        return batch.gather(keep).with_lifetimes(new_les, new_res)

    def is_idle(self) -> bool:
        return True

    def next_wakeup(self) -> int:
        return MAX_TIME


def sliding_window(w: int) -> AlterLifetime:
    """Sliding window of width ``w``: set ``re = le + w``.

    At any time *t* the active set then contains all events with timestamp
    in ``(t - w, t]`` (paper Section II-A.2).
    """
    if w <= 0:
        raise ValueError("window width must be positive")
    return AlterLifetime(
        lambda le, re: le, lambda le, re: le + w, spec=("window", w)
    )


def hopping_window(w: int, h: int) -> AlterLifetime:
    """Hopping window of width ``w`` advancing every ``h`` ticks.

    An event with timestamp *t* becomes visible to every hop boundary
    *b* (a multiple of ``h``) such that its window ``(b - w, b]`` contains
    *t* — i.e. lifetime ``[ceil(t / h) * h, ceil(t / h) * h + w)``.
    Downstream snapshots therefore only change at hop boundaries.
    """
    if w <= 0 or h <= 0:
        raise ValueError("window width and hop size must be positive")
    if w % h != 0:
        raise ValueError("window width must be a multiple of the hop size")

    def quantize_up(t: int) -> int:
        return -(-t // h) * h

    return AlterLifetime(
        lambda le, re: quantize_up(le),
        lambda le, re: quantize_up(le) + w,
        spec=("hop", w, h),
    )


def shift_lifetime(delta_le: int, delta_re: int = None) -> AlterLifetime:
    """Shift LE by ``delta_le`` and RE by ``delta_re`` (defaults to LE's shift).

    ``shift_lifetime(-d, 0)`` reproduces Figure 12's ``LE = OldLE - 5min``:
    a click at *c* then covers ``[c - d, c + 1)``, so an AntiSemiJoin drops
    impressions followed by a click within *d*.
    """
    if delta_re is None:
        delta_re = delta_le
    return AlterLifetime(
        lambda le, re: le + delta_le,
        lambda le, re: re + delta_re,
        spec=("shift", delta_le, delta_re),
    )


def to_point_events() -> AlterLifetime:
    """Collapse each event to a point event at its LE."""
    return AlterLifetime(
        lambda le, re: le, lambda le, re: le + TICK, spec=("point",)
    )


def extend_to_infinity() -> AlterLifetime:
    """Extend each event's lifetime to the end of time (RE = MAX_TIME)."""
    return AlterLifetime(
        lambda le, re: le, lambda le, re: MAX_TIME, spec=("infinity",)
    )


class CountWindow(UnaryOperator):
    """Keep each event alive until ``n`` further events have arrived.

    The count-based window of CEP engines (the "Count Window w=3" box of
    the paper's Figure 3): at any instant the active set is the last
    ``n`` events by arrival timestamp. Implemented by rewriting event
    ``i``'s RE to event ``i+n``'s LE (events sharing that LE expire
    together; an event is never alive past the point where ``n`` newer
    events exist). Unlike time windows this operator is stateful — it
    buffers ``n`` events — but it remains streaming-friendly: an event
    is released as soon as its successor ``n`` steps later arrives.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("count window size must be positive")
        self.n = n
        self._buffer = []  # the last <= n events, pending their RE

    def on_event(self, event: Event) -> Iterable[Event]:
        self._buffer.append(event)
        if len(self._buffer) > self.n:
            expired = self._buffer.pop(0)
            if event.le > expired.le:
                yield Event(expired.le, event.le, expired.payload)
            # events with identical timestamps expire instantly: they
            # never own a snapshot, so they vanish from the relation

    def on_flush(self) -> Iterable[Event]:
        # the trailing n events never expire: alive to the end of time
        for event in self._buffer:
            yield Event(event.le, MAX_TIME, event.payload)
        self._buffer = []

    def on_watermark(self, w: int) -> Iterable[Event]:
        return ()

    def watermark_out(self, w: int) -> int:
        if self._buffer:
            return min(w, self._buffer[0].le)
        return w

    def is_idle(self) -> bool:
        return not self._buffer

    def next_wakeup(self) -> int:
        # a watermark never releases anything: only arrivals do
        return MAX_TIME


def count_window(n: int) -> CountWindow:
    """Events stay active until ``n`` newer events arrive (Figure 3)."""
    return CountWindow(n)


class SessionWindow(UnaryOperator):
    """Group activity into sessions separated by gaps of at least ``gap``.

    Every event's lifetime becomes its whole session: ``[le,
    last_event_of_session.le + gap)``. A downstream per-snapshot count
    then reports "events in the current session so far", and a
    TemporalJoin against a session stream implements "same-session"
    correlation — the natural unit of web-analytics behavior in the
    paper's domain. Sessions close ``gap`` ticks after their last event,
    so results are emitted with at most that delay.
    """

    def __init__(self, gap: int):
        if gap <= 0:
            raise ValueError("session gap must be positive")
        self.gap = gap
        self._session = []  # events of the currently open session

    def _close(self) -> Iterable[Event]:
        if not self._session:
            return
        session_end = self._session[-1].le + self.gap
        for event in self._session:
            yield Event(event.le, session_end, event.payload)
        self._session = []

    def on_event(self, event: Event) -> Iterable[Event]:
        if self._session and event.le - self._session[-1].le >= self.gap:
            yield from self._close()
        self._session.append(event)

    def on_flush(self) -> Iterable[Event]:
        yield from self._close()

    def on_watermark(self, w: int) -> Iterable[Event]:
        if self._session and w - self._session[-1].le >= self.gap:
            yield from self._close()

    def watermark_out(self, w: int) -> int:
        if self._session:
            return min(w, self._session[0].le)
        return w

    def is_idle(self) -> bool:
        return not self._session

    def next_wakeup(self) -> int:
        # on_watermark closes the session once w - last LE >= gap
        if self._session:
            return self._session[-1].le + self.gap
        return MAX_TIME


def session_window(gap: int) -> SessionWindow:
    """Events stay active for their whole gap-delimited session."""
    return SessionWindow(gap)
