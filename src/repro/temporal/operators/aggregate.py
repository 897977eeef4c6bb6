"""Snapshot aggregation.

An aggregation operator (Count, Sum, Min, ...) computes and reports an
aggregate result *each time the active event set changes* — i.e. per
snapshot (Section II-A.2). Combined with AlterLifetime windowing this
yields windowed aggregates: ``sliding_window(w)`` followed by ``Count``
reports the count over the last ``w`` ticks, refreshed whenever it
changes.

The operator runs a single endpoint sweep: additions arrive in LE order,
expirations are drained from a min-heap of REs, and one output event is
emitted per maximal interval of constant aggregate value (empty snapshots
emit nothing). Aggregate state is fully incremental (`add`/`remove`), so
the same code path serves a live feed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..batch import EventBatch
from ..event import Event
from ..time import MAX_TIME
from .base import UnaryOperator


class AggregateFunction:
    """Incremental aggregate state: payloads enter and leave the snapshot."""

    def add(self, payload: dict) -> None:
        raise NotImplementedError

    def remove(self, payload: dict) -> None:
        raise NotImplementedError

    def value(self):
        raise NotImplementedError


class CountAgg(AggregateFunction):
    """Number of payloads in the snapshot."""

    def __init__(self):
        self.n = 0

    def add(self, payload):
        self.n += 1

    def remove(self, payload):
        self.n -= 1

    def value(self):
        return self.n


class SumAgg(AggregateFunction):
    """Sum of ``column`` over the snapshot."""

    def __init__(self, column: str):
        self.column = column
        self.total = 0

    def add(self, payload):
        self.total += payload[self.column]

    def remove(self, payload):
        self.total -= payload[self.column]

    def value(self):
        return self.total


class AvgAgg(AggregateFunction):
    """Arithmetic mean of ``column`` over the snapshot (None when empty)."""

    def __init__(self, column: str):
        self.column = column
        self.total = 0.0
        self.n = 0

    def add(self, payload):
        self.total += payload[self.column]
        self.n += 1

    def remove(self, payload):
        self.total -= payload[self.column]
        self.n -= 1

    def value(self):
        return self.total / self.n if self.n else None


class _OrderStatAgg(AggregateFunction):
    """Shared machinery for Min/Max: a sorted multiset of column values."""

    def __init__(self, column: str):
        self.column = column
        self.values: List = []

    def add(self, payload):
        insort(self.values, payload[self.column])

    def remove(self, payload):
        v = payload[self.column]
        idx = bisect_left(self.values, v)
        if idx >= len(self.values) or self.values[idx] != v:
            raise RuntimeError(f"removing value {v!r} not present in snapshot")
        del self.values[idx]


class MinAgg(_OrderStatAgg):
    """Minimum of ``column`` over the snapshot (None when empty)."""

    def value(self):
        return self.values[0] if self.values else None


class MaxAgg(_OrderStatAgg):
    """Maximum of ``column`` over the snapshot (None when empty)."""

    def value(self):
        return self.values[-1] if self.values else None


class TopKAgg(_OrderStatAgg):
    """The ``k`` largest values of ``column``, descending (a tuple)."""

    def __init__(self, column: str, k: int = 3):
        super().__init__(column)
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k

    def value(self):
        return tuple(reversed(self.values[-self.k :]))


class StdDevAgg(AggregateFunction):
    """Population standard deviation of ``column`` (None when empty)."""

    def __init__(self, column: str):
        self.column = column
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, payload):
        v = payload[self.column]
        self.n += 1
        self.total += v
        self.total_sq += v * v

    def remove(self, payload):
        v = payload[self.column]
        self.n -= 1
        self.total -= v
        self.total_sq -= v * v

    def value(self):
        if self.n == 0:
            return None
        mean = self.total / self.n
        variance = max(0.0, self.total_sq / self.n - mean * mean)
        return variance**0.5


#: Registry used by the query builder to construct aggregate state by name.
AGGREGATE_FACTORIES: Dict[str, Callable[..., AggregateFunction]] = {
    "count": CountAgg,
    "sum": SumAgg,
    "avg": AvgAgg,
    "min": MinAgg,
    "max": MaxAgg,
    "topk": TopKAgg,
    "stddev": StdDevAgg,
}


class AggSpec:
    """Declarative description of one aggregate output column.

    Args:
        kind: one of ``count``, ``sum``, ``avg``, ``min``, ``max``,
            ``topk``, ``stddev``.
        into: output column name.
        column: input column (unused by ``count``).
        params: extra constructor arguments (e.g. ``k`` for ``topk``).
    """

    __slots__ = ("kind", "into", "column", "params")

    def __init__(
        self, kind: str, into: str, column: Optional[str] = None, **params
    ):
        if kind not in AGGREGATE_FACTORIES:
            raise ValueError(f"unknown aggregate kind {kind!r}")
        if kind != "count" and column is None:
            raise ValueError(f"aggregate {kind!r} requires an input column")
        self.kind = kind
        self.into = into
        self.column = column
        self.params = params

    def build(self) -> AggregateFunction:
        if self.kind == "count":
            return CountAgg()
        return AGGREGATE_FACTORIES[self.kind](self.column, **self.params)

    def __repr__(self):
        return f"AggSpec({self.kind}, into={self.into!r}, column={self.column!r})"


class SnapshotAggregate(UnaryOperator):
    """Compute one or more aggregates per snapshot via an endpoint sweep."""

    supports_columnar = True

    def __init__(self, specs: Sequence[AggSpec]):
        if not specs:
            raise ValueError("SnapshotAggregate needs at least one AggSpec")
        self.specs = list(specs)
        self._states = [s.build() for s in self.specs]
        self._pending: List = []  # min-heap of (re, seq, payload)
        self._seq = 0
        self._active = 0
        self._segment_start: Optional[int] = None

    def _value_payload(self) -> dict:
        return {s.into: st.value() for s, st in zip(self.specs, self._states)}

    def _emit_segment(self, end: int) -> Iterable[Event]:
        """Close the current constant-value segment at ``end``."""
        if self._active > 0 and self._segment_start is not None and end > self._segment_start:
            yield Event(self._segment_start, end, self._value_payload())
        self._segment_start = end

    def _drain_until(self, t: int) -> Iterable[Event]:
        """Retire all expirations with RE <= t, emitting closed segments."""
        while self._pending and self._pending[0][0] <= t:
            re = self._pending[0][0]
            yield from self._emit_segment(re)
            while self._pending and self._pending[0][0] == re:
                _, _, payload = heapq.heappop(self._pending)
                for st in self._states:
                    st.remove(payload)
                self._active -= 1
        if self._active == 0:
            self._segment_start = None

    def on_event(self, event: Event) -> Iterable[Event]:
        yield from self._drain_until(event.le)
        if self._active > 0:
            yield from self._emit_segment(event.le)
        else:
            self._segment_start = event.le
        for st in self._states:
            st.add(event.payload)
        self._active += 1
        self._seq += 1
        heapq.heappush(self._pending, (event.re, self._seq, event.payload))

    def on_batch(self, events) -> list:
        if isinstance(events, EventBatch):
            return self._columnar_batch(events)
        # hot path: same sweep as on_event, list-building instead of
        # generator dispatch (identical emission order and state updates)
        out = []
        append = out.append
        pending = self._pending
        states = self._states
        heappop, heappush = heapq.heappop, heapq.heappush
        for event in events:
            le = event.le
            while pending and pending[0][0] <= le:
                re = pending[0][0]
                if self._active > 0 and self._segment_start is not None and re > self._segment_start:
                    append(Event(self._segment_start, re, self._value_payload()))
                self._segment_start = re
                while pending and pending[0][0] == re:
                    _, _, payload = heappop(pending)
                    for st in states:
                        st.remove(payload)
                    self._active -= 1
            if self._active > 0:
                if self._segment_start is not None and le > self._segment_start:
                    append(Event(self._segment_start, le, self._value_payload()))
                self._segment_start = le
            else:
                self._segment_start = le
            payload = event.payload
            for st in states:
                st.add(payload)
            self._active += 1
            self._seq += 1
            heappush(pending, (event.re, self._seq, payload))
        return out

    def _columnar_batch(self, batch: EventBatch) -> list:
        # the same endpoint sweep reading the packed le/re arrays; the
        # only per-row materialisation is the payload dict, which must
        # be real (it persists in the expiration heap and in aggregate
        # state between batches)
        out = []
        append = out.append
        pending = self._pending
        states = self._states
        heappop, heappush = heapq.heappop, heapq.heappush
        les, res = batch.les, batch.res
        payload_at = batch.payload_at
        for i in range(len(les)):
            le = les[i]
            while pending and pending[0][0] <= le:
                re = pending[0][0]
                if self._active > 0 and self._segment_start is not None and re > self._segment_start:
                    append(Event(self._segment_start, re, self._value_payload()))
                self._segment_start = re
                while pending and pending[0][0] == re:
                    _, _, payload = heappop(pending)
                    for st in states:
                        st.remove(payload)
                    self._active -= 1
            if self._active > 0:
                if self._segment_start is not None and le > self._segment_start:
                    append(Event(self._segment_start, le, self._value_payload()))
                self._segment_start = le
            else:
                self._segment_start = le
            payload = payload_at(i)
            for st in states:
                st.add(payload)
            self._active += 1
            self._seq += 1
            heappush(pending, (res[i], self._seq, payload))
        return out

    def on_flush(self) -> Iterable[Event]:
        yield from self._drain_until(MAX_TIME)

    def on_watermark(self, w: int) -> Iterable[Event]:
        # all changepoints < w are final: retiring expirations with RE <= w
        # is exactly what the arrival of an event at LE = w would trigger
        yield from self._drain_until(w)

    def watermark_out(self, w: int) -> int:
        # the open segment (if any) will be emitted later with its
        # original start, so the output watermark lags to that start
        if self._active > 0 and self._segment_start is not None:
            return min(w, self._segment_start)
        return w

    def is_idle(self) -> bool:
        return not self._pending

    def next_wakeup(self) -> int:
        # the earliest expiration closes the open segment
        return self._pending[0][0] if self._pending else MAX_TIME
