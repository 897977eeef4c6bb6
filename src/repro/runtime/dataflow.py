"""The incremental operator runtime shared by batch and streaming drivers.

This module is the single execution engine for CQ plans. A
:class:`Dataflow` instantiates one live operator per plan node and
advances the whole DAG whenever new input or watermarks arrive:

* ``feed(source, events, watermark)`` appends time-ordered events to the
  named source leaves;
* ``advance()`` propagates them through every operator in topological
  order and returns the query outputs that are now *final* — no future
  input can change them (the CTI/watermark contract of Section III-C.1);
* ``flush()`` declares end-of-input and drains all remaining state.

Both execution modes are thin drivers over this one graph:
:class:`repro.temporal.Engine` feeds whole sources through in bounded
batches (memory proportional to window state plus one batch, not to the
partition), while :class:`repro.temporal.StreamingEngine` feeds one
event per push. They share the identical operator objects, multicast
buffering, and GroupApply keying, so batch ≡ streaming holds by
construction.

Operators hold only active-window state. Every node's output log is
trimmed as soon as all consumers (and the driver, for the root) have
read past it, which is what makes the batch driver's memory bounded.

Plans containing an operator whose output timestamps may precede its
input unboundedly (a *custom* AlterLifetime) cannot run incrementally.
The streaming driver rejects them (:class:`StreamingUnsupported`); the
batch driver sets ``allow_unstreamable=True``, which runs exactly those
nodes in deferred mode — buffer until flush, then apply the same
operator object over the buffered input.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
import warnings
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from ..temporal.batch import EventBatch
from ..temporal.event import Event
from ..temporal.plan import (
    AlterLifetimeNode,
    ExchangeNode,
    GroupApplyNode,
    GroupInputNode,
    PlanNode,
    ProjectNode,
    SourceNode,
    WhereNode,
    subplan_streaming_future,
    topological_order,
)
from ..temporal.time import MAX_TIME, MIN_TIME
from ..obs.trace import NULL_TRACER, WorkerSpanRecorder, absorb_worker_state
from .parallel import (
    ExecutorDegradedWarning,
    OverheadStats,
    ParallelStats,
    WaveBatcher,
    WorkerLostError,
    WorkerStats,
    resolve_retry_budget,
    resolve_worker_timeout,
)

#: The reserved source name a GroupApply chain feeds its sub-plan under.
GROUP_SOURCE = "<group>"

#: Minimum events before a cross-process feed/reply is packed as one
#: EventBatch; below this the packed form's array/layout framing costs
#: more wire bytes than pickling the rows themselves.
_PACK_MIN_EVENTS = 16


class StreamingUnsupported(ValueError):
    """The plan cannot run incrementally (unbounded lifetime rewrites)."""


def group_key(payload: dict, keys: Tuple[str, ...]) -> Tuple:
    """The grouping key of one payload (shared by both drivers)."""
    try:
        return tuple(payload[k] for k in keys)
    except KeyError as exc:
        raise KeyError(
            f"GroupApply key column {exc} missing from payload {payload!r}"
        ) from None


def _batch_per_key(
    fresh: List[Event], keys: Tuple[str, ...]
) -> Dict[Tuple, List[Event]]:
    """Batch one round's events per group key so each chain advances once
    (identical results to event-at-a-time feeding; the pending backlog
    re-establishes cross-group LE order). Insertion order — key
    first-appearance order — is what chain creation and shard assignment
    key off, so it must stay a pure function of the input stream."""
    per_key: Dict[Tuple, List[Event]] = {}
    if len(keys) <= 2:
        try:
            if len(keys) == 1:
                (k0,) = keys
                for event in fresh:
                    per_key.setdefault((event.payload[k0],), []).append(event)
            else:
                k0, k1 = keys
                for event in fresh:
                    p = event.payload
                    per_key.setdefault((p[k0], p[k1]), []).append(event)
        except KeyError as exc:
            raise KeyError(
                f"GroupApply key column {exc} missing from payload "
                f"{event.payload!r}"
            ) from None
    else:
        for event in fresh:
            per_key.setdefault(group_key(event.payload, keys), []).append(event)
    return per_key


class _PlanMeta:
    """Shared, immutable per-plan metadata (memoized on the plan root).

    Every GroupApply chain instantiates a fresh operator graph over the
    *same* sub-plan, so the topological order, per-node future extents,
    and consumer lists are computed once and reused by every chain.
    """

    __slots__ = ("order", "futures", "consumers", "delay")

    def __init__(self, root: PlanNode):
        self.order = topological_order(root)
        self.futures: Dict[int, Optional[int]] = {
            n.node_id: n.streaming_future_extent() for n in self.order
        }
        # how far the root's watermark trails the leaves' once every
        # operator is idle (None when a nested GroupApply or a deferred
        # node makes the lag state-dependent)
        self.delay: Optional[int] = (
            None
            if any(isinstance(n, GroupApplyNode) for n in self.order)
            else subplan_streaming_future(root)
        )
        # node_id -> [(consumer node_id, input index)]
        self.consumers: Dict[int, List[Tuple[int, int]]] = {}
        for plan_node in self.order:
            for i, child in enumerate(plan_node.inputs):
                self.consumers.setdefault(child.node_id, []).append(
                    (plan_node.node_id, i)
                )

    @classmethod
    def of(cls, root: PlanNode) -> "_PlanMeta":
        meta = getattr(root, "_dataflow_meta", None)
        if meta is None:
            meta = cls(root)
            root._dataflow_meta = meta
        return meta


class _InputBuffer:
    """One input side of a node: queued events plus the source watermark."""

    __slots__ = ("events", "watermark", "cursor", "src_cursor")

    def __init__(self):
        self.events: List[Event] = []
        self.watermark: int = MIN_TIME
        self.cursor: int = 0  # index of the first un-consumed event
        self.src_cursor: int = 0  # absolute read position in the upstream log

    def head(self) -> Optional[Event]:
        if self.cursor < len(self.events):
            return self.events[self.cursor]
        return None

    def pop(self) -> Event:
        e = self.events[self.cursor]
        self.cursor += 1
        if self.cursor > 1024 and self.cursor * 2 > len(self.events):
            del self.events[: self.cursor]
            self.cursor = 0
        return e

    def take(self) -> List[Event]:
        """Drain and return everything queued (unary bulk consumption)."""
        if self.cursor:
            events = self.events[self.cursor :]
            self.cursor = 0
        else:
            events = self.events
        self.events = []
        return events


class _OutputLog:
    """A node's output stream with absolute positions and prefix trimming.

    Consumers address entries by *absolute* index (``total`` never
    decreases); ``trim_to`` drops the prefix every consumer has read, so
    buffered memory tracks the consumer lag, not the stream length.

    In a columnar flow each entry is one *chunk* — an
    :class:`~repro.temporal.batch.EventBatch` or a plain event list —
    and all cursor/trim arithmetic counts chunks; ``event_total`` keeps
    the row count either way, so per-node statistics are format-blind.
    """

    __slots__ = ("events", "base", "total", "event_total")

    def __init__(self):
        self.events: List[Event] = []
        self.base = 0  # absolute index of events[0]
        self.total = 0  # absolute index one past the last entry
        self.event_total = 0  # total event rows across all entries

    def append(self, event: Event) -> None:
        self.events.append(event)
        self.total += 1
        self.event_total += 1

    def extend(self, events: Iterable[Event]) -> None:
        self.events.extend(events)
        new_total = self.base + len(self.events)
        self.event_total += new_total - self.total
        self.total = new_total

    def append_chunk(self, chunk) -> None:
        """Columnar mode: log one batch (or row-list) chunk as one entry."""
        self.events.append(chunk)
        self.total += 1
        self.event_total += len(chunk)

    def read_from(self, cursor: int) -> List[Event]:
        return self.events[cursor - self.base :]

    def trim_to(self, cursor: int) -> None:
        drop = cursor - self.base
        if drop > 0:
            del self.events[:drop]
            self.base = cursor


class _OpNode:
    """A live operator with buffered inputs and a trimmable output log."""

    def __init__(
        self, plan_node: PlanNode, flow: "Dataflow", future: Optional[int]
    ):
        self.plan_node = plan_node
        self.flow = flow
        self.inputs = [_InputBuffer() for _ in plan_node.inputs]
        self.edges: List[Tuple[_InputBuffer, "_OpNode"]] = []  # wired by flow
        self.outputs = _OutputLog()
        self.watermark: int = MIN_TIME
        self.flushed = False
        self.events_in = 0
        self.busy_seconds = 0.0
        self._operator = None
        self.deferred = False
        self._future = 0
        self.columnar = flow.columnar
        if isinstance(plan_node, GroupApplyNode):
            self._groups: Dict[Tuple, _GroupChain] = {}
            self._active: Dict[Tuple, _GroupChain] = {}
            self._pending: List[Tuple[int, int, Event]] = []
            self._seq = itertools.count()
            self._fed_since_wave = 0
            self._idle_delta = -1  # < 0: no chain has gone idle yet
            self._linear_stages = _linear_stages(plan_node)
            #: the wave index (docs/EXECUTION.md, "Wakeups"). A wave
            #: advances only the active chains that can change: the ones
            #: fed, or left unsettled, since their last advance
            #: (``_dirty``: key -> rank) and the ones whose recorded
            #: wakeup is at or below the wave's watermark (``_wakeups``).
            #: ``_holds`` keeps every active chain's watermark, so the
            #: group watermark is a heap top, not a scan. Both heaps hold
            #: ``(value, rank, key)`` and are invalidated lazily: an entry
            #: counts only while it matches the chain's recorded value
            #: and activation rank. Ranks follow ``_active`` insertion
            #: order, so due chains are visited in the order the
            #: exhaustive loop over ``_active`` would visit them.
            self._ranks = itertools.count()
            self._dirty: Dict[Tuple, int] = {}
            self._wakeups: List[Tuple[int, int, Tuple]] = []
            self._holds: List[Tuple[int, int, Tuple]] = []
            #: deferred-wave scheduling state (docs/PARALLELISM.md,
            #: "Scheduling granularity"): feeds of the current —
            #: not-yet-boundary — wave, and complete waves awaiting one
            #: batched dispatch as ``(watermark, feeds)`` windows. Wave
            #: *boundaries* stay exactly where the serial schedule puts
            #: them; only the dispatch is deferred, so outputs are
            #: byte-identical for every waves_per_dispatch value.
            self._wave_feeds: Dict[Tuple, List[Event]] = {}
            self._wave_queue: List[Tuple[int, Dict[Tuple, List[Event]]]] = []
            # Per-key chains are independent, so waves can fan out. The
            # schedule (which chains advance, in what order the merge
            # assigns sequence numbers) is replayed exactly as the serial
            # path would run it — only the chain *computation* moves to
            # workers — which is what keeps output byte-identical.
            ex = flow.executor
            if ex is None:
                self._group_mode = "serial"
            elif flow.race_checker is not None:
                # the checker instruments the wave path; sharded workers
                # would hide chain state behind a fork boundary
                self._group_mode = "thread"
            elif ex.supports_shards:
                # forked workers keep chain state across waves
                self._group_mode = "shard"
                self._shards: Optional[_ShardedGroups] = None
            else:
                self._group_mode = "thread"
            # Coarse scheduling only engages on genuinely parallel modes
            # (the shadow race checker instruments individual waves, so
            # it pins the fine-grained schedule).
            wpd = flow.waves_per_dispatch
            self._defer_waves = (
                self._group_mode in ("thread", "shard")
                and flow.race_checker is None
                and (wpd == "auto" or wpd > 1)
            )
        elif not isinstance(plan_node, (SourceNode, GroupInputNode, ExchangeNode)):
            self._operator = plan_node.make_operator()
        if future is None:
            if not flow.allow_unstreamable:
                raise StreamingUnsupported(
                    f"operator {plan_node.describe()!r} has an unbounded "
                    "lifetime rewrite; it cannot run in streaming mode"
                )
            # GroupApply chains defer inside their sub-flow; direct
            # operators buffer here and apply at flush.
            self.deferred = self._operator is not None
            self._stores: List[List[Event]] = [[] for _ in self.inputs]
        else:
            self._future = future
        # nodes that still think in Event rows (binary merges, GroupApply
        # keying, deferred stores) get columnar chunks flattened at the
        # edge — the transparent row bridge that keeps correctness
        # independent of which operators understand EventBatch
        self._flatten = self.columnar and (
            self.deferred
            or len(self.inputs) >= 2
            or isinstance(plan_node, GroupApplyNode)
        )

    @property
    def events_out(self) -> int:
        return self.outputs.event_total

    def _emit(self, events) -> None:
        """Append row events to the output log (as one chunk when the
        flow is columnar, so cursor arithmetic stays uniform)."""
        if self.columnar:
            if not isinstance(events, list):
                events = list(events)
            if events:
                self.outputs.append_chunk(events)
        else:
            self.outputs.extend(events)

    def is_idle(self) -> bool:
        """True iff a future (non-flush) watermark can emit nothing here
        and shifts this node's watermark by exactly the watermark delta.

        Only meaningful right after an ``advance`` pass (when all input
        and output logs have been drained by their consumers)."""
        node = self.plan_node
        if isinstance(node, (SourceNode, GroupInputNode)):
            return True  # driver-fed; watermark tracks the driver exactly
        if self.deferred:
            return self.flushed
        if isinstance(node, GroupApplyNode):
            return (
                not self._pending
                and not self._active
                and not self._fed_since_wave
                and not self._wave_queue
                and not self._wave_feeds
            )
        for buf in self.inputs:
            if buf.head() is not None:
                return False
        if self._operator is None:
            return True  # Exchange: pure passthrough
        if len(self.inputs) == 1:
            return self._operator.is_idle()
        # binary operators only emit on event delivery, never on a bare
        # watermark (synopsis contents don't block the watermark)
        return True

    # -- per-kind advance ----------------------------------------------------

    def advance(self) -> None:
        """Consume newly available input and emit what is now final."""
        node = self.plan_node
        if isinstance(node, (SourceNode, GroupInputNode)):
            return  # fed directly by the driver
        if isinstance(node, ExchangeNode):
            # Logical repartitioning is the identity on a single node.
            buf = self.inputs[0]
            fresh = buf.take()
            if self.columnar:
                for chunk in fresh:
                    self.events_in += len(chunk)
                    self.outputs.append_chunk(chunk)
            else:
                self.events_in += len(fresh)
                self.outputs.extend(fresh)
            self.watermark = buf.watermark
            return
        if isinstance(node, GroupApplyNode):
            self._advance_group_apply()
            return
        if self.deferred:
            self._advance_deferred()
            return
        if len(self.inputs) == 1:
            self._advance_unary()
        else:
            self._advance_binary()

    def _advance_unary(self) -> None:
        buf = self.inputs[0]
        op = self._operator
        fresh = buf.take()
        if self.columnar:
            self._advance_unary_columnar(buf, op, fresh)
            return
        if fresh:
            self.events_in += len(fresh)
            self.outputs.extend(op.on_batch(fresh))
        if buf.watermark >= MAX_TIME and not self.flushed:
            self.outputs.extend(op.on_flush())
            self.flushed = True
            self.watermark = MAX_TIME
        else:
            self.outputs.extend(op.on_watermark(buf.watermark))
            base = op.watermark_out(buf.watermark)
            self.watermark = max(self.watermark, base - self._future)

    def _advance_unary_columnar(self, buf, op, fresh) -> None:
        """Columnar chunk flow: columnar-capable operators consume and
        produce chunks directly; everything else crosses the row bridge
        (one flattened row batch, exactly what row mode would feed)."""
        if fresh:
            if op.supports_columnar:
                outputs = self.outputs
                for chunk in fresh:
                    self.events_in += len(chunk)
                    out = op.on_batch(chunk)
                    if len(out):
                        outputs.append_chunk(out)
            else:
                events: List[Event] = []
                for chunk in fresh:
                    if type(chunk) is list:
                        events.extend(chunk)
                    else:
                        events.extend(chunk.to_events())
                self.events_in += len(events)
                self._emit(op.on_batch(events))
        if buf.watermark >= MAX_TIME and not self.flushed:
            self._emit(op.on_flush())
            self.flushed = True
            self.watermark = MAX_TIME
        else:
            self._emit(op.on_watermark(buf.watermark))
            base = op.watermark_out(buf.watermark)
            self.watermark = max(self.watermark, base - self._future)

    def _advance_binary(self) -> None:
        left, right = self.inputs
        op = self._operator
        out: List[Event] = []
        ext = out.extend
        on_left_batch = op.on_left_batch
        on_right_batch = op.on_right_batch
        rw = right.watermark
        w = min(left.watermark, rw)
        levs, revs = left.events, right.events
        li, ri = left.cursor, right.cursor
        nl, nr = len(levs), len(revs)
        delivered = -li - ri
        # deliver merged input up to the joint watermark, right side first
        # at ties, so the right synopsis is complete before a left probe
        # (the guarantee merge_streams gives the one-shot apply path).
        # While one side's head does not change, the other side's
        # deliverability bound is a constant — so maximal same-side runs
        # are found by a scan and handed to the batch kernels in one call.
        while True:
            lh = levs[li] if li < nl else None
            rh = revs[ri] if ri < nr else None
            if rh is not None and rh.le <= w and (lh is None or rh.le <= lh.le):
                bound = w if lh is None or w <= lh.le else lh.le
                rj = ri + 1
                while rj < nr and revs[rj].le <= bound:
                    rj += 1
                ext(on_right_batch(revs[ri:rj]))
                ri = rj
            elif lh is not None and (lh.le < rw or rw >= MAX_TIME):
                if rw >= MAX_TIME:
                    bound = rh.le if (rh is not None and rh.le <= w) else None
                else:
                    bound = rw
                    if rh is not None and rh.le <= w and rh.le < bound:
                        bound = rh.le
                if bound is None:
                    lj = nl
                else:
                    lj = li + 1
                    while lj < nl and levs[lj].le < bound:
                        lj += 1
                ext(on_left_batch(levs[li:lj]))
                li = lj
            else:
                break
        if w >= MAX_TIME and not self.flushed:
            # drain any tail in merged order, then flush
            while True:
                lh = levs[li] if li < nl else None
                rh = revs[ri] if ri < nr else None
                if rh is not None and (lh is None or rh.le <= lh.le):
                    if lh is None:
                        rj = nr
                    else:
                        bound = lh.le
                        rj = ri + 1
                        while rj < nr and revs[rj].le <= bound:
                            rj += 1
                    ext(on_right_batch(revs[ri:rj]))
                    ri = rj
                elif lh is not None:
                    if rh is None:
                        lj = nl
                    else:
                        bound = rh.le
                        lj = li + 1
                        while lj < nl and levs[lj].le < bound:
                            lj += 1
                    ext(on_left_batch(levs[li:lj]))
                    li = lj
                else:
                    break
            ext(op.on_flush())
            self.flushed = True
            self.watermark = MAX_TIME
        elif self.watermark < w:
            self.watermark = w
        if out:
            self._emit(out)
        self.events_in += delivered + li + ri
        # write back read positions, compacting long-consumed prefixes
        if li > 1024 and li * 2 > nl:
            del levs[:li]
            li = 0
        left.cursor = li
        if ri > 1024 and ri * 2 > nr:
            del revs[:ri]
            ri = 0
        right.cursor = ri

    def _advance_deferred(self) -> None:
        """Unbounded-rewrite fallback: buffer everything, apply at flush.

        The *same* operator object executes — via its batch ``apply``
        helper — so the plan still has exactly one implementation per
        operator; only the scheduling differs. The node's watermark
        stays at the beginning of time until flush, which makes every
        downstream operator hold its own output back correctly.
        """
        for buf, store in zip(self.inputs, self._stores):
            fresh = buf.take()
            self.events_in += len(fresh)
            store.extend(fresh)
        if all(b.watermark >= MAX_TIME for b in self.inputs) and not self.flushed:
            op = self._operator
            if len(self._stores) == 1:
                self._emit(op.apply(self._stores[0]))
            else:
                self._emit(op.apply(self._stores[0], self._stores[1]))
            self._stores = [[] for _ in self.inputs]
            self.flushed = True
            self.watermark = MAX_TIME

    def _advance_group_apply(self) -> None:
        if self._group_mode == "shard":
            self._advance_group_apply_sharded()
            return
        buf = self.inputs[0]
        fresh = buf.take()
        if fresh:
            self.events_in += len(fresh)
            self._fed_since_wave += len(fresh)
            per_key = _batch_per_key(fresh, self.plan_node.keys)
            if self._defer_waves:
                self._accumulate_feeds(per_key)
            else:
                self._feed_local_chains(per_key)
        w = buf.watermark
        if w >= MAX_TIME:
            if self._defer_waves:
                self._drain_deferred()
                if self._wave_feeds:
                    # partial (pre-boundary) feeds buffer exactly where
                    # the serial path would have left them: in chains
                    self._feed_local_chains(self._wave_feeds)
                    self._wave_feeds = {}
            self._run_group_flush(w)
            return
        # The batch driver amortizes watermark waves: buffered group
        # input stays bounded by the wave threshold while each chain is
        # advanced once per threshold's worth of events, not per chunk.
        threshold = self.flow.group_wave_events
        if threshold:
            # each wave advances every fed chain once, so batching waves
            # pays once a comparable volume of fresh input has
            # accumulated; buffered input stays bounded by
            # O(threshold + keys), both independent of stream length
            if self._fed_since_wave < threshold + 2 * len(self._groups):
                return
        self._fed_since_wave = 0
        if self._defer_waves:
            self._queue_wave(w)
            return
        self._run_group_wave(w)

    def _feed_local_chains(self, per_key) -> None:
        """Buffer one batch of per-key events into driver-local chains."""
        node: GroupApplyNode = self.plan_node
        linear = self._linear_stages
        active = self._active
        dirty = self._dirty
        for key, events in per_key.items():
            chain = self._groups.get(key)
            if chain is None:
                if linear is not None:
                    chain = _LinearChain(node, key, linear)
                else:
                    chain = _GroupChain(node, key, self.flow)
                self._groups[key] = chain
            chain.buffer(events)
            if key not in active:
                # a fresh rank: entries the wave index holds from an
                # earlier activation turn stale
                chain.rank = next(self._ranks)
                chain.wake = chain.hold = None
                active[key] = chain
            dirty[key] = chain.rank

    # -- deferred-wave scheduling (coarse dispatch granularity) --------------

    def _accumulate_feeds(self, per_key) -> None:
        """Hold one batch of per-key feeds for a later batched dispatch.

        Chains (or shard proxies) are still *created* here — ``_groups``
        insertion order and the wave-threshold arithmetic must stay a
        pure function of the input stream — but buffering and activation
        are deferred to the dispatch/merge, because a chain must only see
        the events fed before the wave it is being advanced at.
        """
        node: GroupApplyNode = self.plan_node
        linear = self._linear_stages
        groups = self._groups
        feeds = self._wave_feeds
        sharded = self._group_mode == "shard"
        if sharded:
            backend = self._shards
            if backend is None:
                backend = self._shards = _ShardedGroups(node, self.flow)
        for key, events in per_key.items():
            if key not in groups:
                if sharded:
                    groups[key] = _ChainProxy(backend.shard_for_new_key())
                elif linear is not None:
                    groups[key] = _LinearChain(node, key, linear)
                else:
                    groups[key] = _GroupChain(node, key, self.flow)
            prev = feeds.get(key)
            if prev is None:
                feeds[key] = events
            else:
                prev.extend(events)

    def _queue_wave(self, w: int) -> None:
        """Close the current wave at boundary ``w`` and dispatch once
        enough waves are queued (the waves_per_dispatch target)."""
        self._wave_queue.append((w, self._wave_feeds))
        self._wave_feeds = {}
        batcher = self.flow.wave_batcher
        target = (
            batcher.waves if batcher is not None
            else self.flow.waves_per_dispatch
        )
        if len(self._wave_queue) >= target:
            self._drain_deferred()

    def _drain_deferred(self) -> None:
        """Dispatch every queued wave as one coarse work unit and merge."""
        window = self._wave_queue
        if not window:
            return
        if self._group_mode == "shard":
            if self._dispatch_window_shard(window):
                self._wave_queue = []
                return
            # a shard degradation rebuilt the chains locally; re-run the
            # same window (events were retained parent-side) on threads
        self._wave_queue = []
        self._dispatch_window_thread(window)

    def _dispatch_window_thread(self, window) -> None:
        """Run one deferred window on driver-local chains.

        Each chain that the serial schedule would touch in this window
        becomes one task that replays *all* its waves — buffer the
        wave's feeds, advance, record ``(outs, watermark, idle_delta)``
        per wave. Chains idle for a wave early-return from ``advance``
        (pure watermark arithmetic, no operator calls), so advancing a
        chain at waves where the serial path would have skipped it is
        unobservable; newly created chains start at their first fed wave
        because their operators must not see earlier watermarks.
        """
        flow = self.flow
        entries: List[Tuple[Tuple, int]] = []  # (key, first wave index)
        seen = set()
        for key in self._active:
            seen.add(key)
            entries.append((key, 0))
        for j, (_w, feeds) in enumerate(window):
            for key in feeds:
                if key not in seen:
                    seen.add(key)
                    entries.append((key, j))
        n = len(window)
        tasks = []
        for key, birth in entries:
            chain = self._groups[key]
            waves = [
                (window[j][0], window[j][1].get(key))
                for j in range(birth, n)
            ]
            tasks.append(_window_advance(chain, waves))
        results = flow.run_window_tasks(tasks)
        by_wave: List[Dict[Tuple, tuple]] = [{} for _ in window]
        for (key, birth), recs in zip(entries, results):
            for off, rec in enumerate(recs):
                by_wave[birth + off][key] = rec
        self._merge_deferred(window, by_wave)
        stats = flow.parallel_stats
        if stats is not None:
            stats.dispatches += 1
            stats.waves += n
            batcher = flow.wave_batcher
            if batcher is not None and len(tasks) > 1:
                batcher.observe(flow.executor.last_overhead)

    def _dispatch_window_shard(self, window) -> bool:
        """Ship one deferred window to the shard workers as a single
        batched ``("waves", ...)`` message per shard; False when a shard
        degradation pulled the chains home (caller re-runs on threads).
        """
        flow = self.flow
        backend = self._shards
        if backend is None:
            # watermark-only waves before any feed: no chains anywhere
            self._merge_deferred(window, [{} for _ in window])
            return True
        num = backend.num_shards
        per_shard_waves: List[list] = [[] for _ in range(num)]
        for w, feeds in window:
            fed_by_shard: List[list] = [[] for _ in range(num)]
            for key, events in feeds.items():
                shard = self._groups[key].shard
                fed_by_shard[shard].append(
                    backend.pack_feed(shard, key, events)
                )
            for shard in range(num):
                per_shard_waves[shard].append(("wave", fed_by_shard[shard], w))
        last_w = window[-1][0]
        msgs = [
            ("waves", per_shard_waves[shard], last_w) for shard in range(num)
        ]
        try:
            shard_results = backend.exchange(msgs)
        except _ShardDegradation as deg:
            self._degrade_to_local(deg)
            return False
        flow.parallel_stats.add(backend.take_stats())
        by_wave: List[Dict[Tuple, tuple]] = [{} for _ in window]
        for result in shard_results:
            for j, wave_result in enumerate(result):
                d = by_wave[j]
                for key, outs, chain_w, idle in wave_result:
                    d[key] = (outs, chain_w, idle)
        self._merge_deferred(window, by_wave)
        stats = flow.parallel_stats
        stats.dispatches += 1
        stats.waves += len(window)
        batcher = flow.wave_batcher
        if batcher is not None and backend.last_overhead is not None:
            batcher.observe(backend.last_overhead)
        return True

    def _merge_deferred(self, window, by_wave) -> None:
        """Replay the serial per-wave merge over recorded results.

        Wave by wave: activate the wave's fed keys, walk the active set
        in exactly the serial iteration order assigning ``(le, seq)``
        merge positions from the *recorded* per-wave outputs, retire
        idled chains, then release everything below the group watermark
        — the same bookkeeping ``_run_group_wave`` does live, driven
        from data instead of live chain attributes. Byte-identity across
        waves_per_dispatch values holds by construction: outputs are
        released later, never changed.
        """
        flow = self.flow
        pending = self._pending
        seq = self._seq
        groups = self._groups
        active = self._active
        tracer_enabled = flow.tracer.enabled
        for j, (w, feeds) in enumerate(window):
            by_key = by_wave[j]
            for key in feeds:
                active[key] = groups[key]
            if tracer_enabled:
                # the window replay advances every active chain
                metrics = flow.tracer.metrics
                metrics.histogram("dataflow.wave_width").observe(len(active))
                metrics.histogram("dataflow.chains_advanced").observe(
                    len(active)
                )
            added = False
            for key in list(active):
                outs, chain_w, idle = by_key[key]
                obj = active[key]
                if type(obj) is _ChainProxy:
                    obj.watermark = chain_w
                    obj.idle_delta = idle
                if outs:
                    pending.extend((out.le, next(seq), out) for out in outs)
                    added = True
                if idle is not None:
                    del active[key]
                    self._idle_delta = max(self._idle_delta, idle)
            if added:
                pending.sort()
            group_w = w if self._idle_delta < 0 else w - self._idle_delta
            for key in active:
                chain_w = by_key[key][1]
                if chain_w < group_w:
                    group_w = chain_w
            idx = bisect_left(pending, (group_w,))
            if idx:
                self._emit([item[2] for item in pending[:idx]])
                del pending[:idx]
            self.watermark = max(self.watermark, group_w)

    def _run_group_flush(self, w: int) -> None:
        """End of input: every chain flushes for real."""
        pending = self._pending
        seq = self._seq
        chains = list(self._groups.values())
        if self._group_mode == "thread" and len(chains) > 1:
            all_outs = self.flow.run_chain_tasks(chains, w)
        else:
            all_outs = None
        for i, chain in enumerate(chains):
            outs = chain.advance(w) if all_outs is None else all_outs[i]
            if outs:
                pending.extend((out.le, next(seq), out) for out in outs)
        # (le, seq) sort == the cross-group LE merge; seq breaks ties
        # in chain order, so events never compare
        pending.sort()
        self._emit([item[2] for item in pending])
        del pending[:]
        self.flushed = True
        self.watermark = MAX_TIME

    def _run_group_wave(self, w: int) -> None:
        """One watermark wave over the driver-local chains.

        Advances only the active chains that can change at ``w`` — fed
        or unsettled since their last advance, or with a wakeup at or
        below ``w`` — in activation order; every other active chain's
        watermark is provably frozen, so skipping it is unobservable.
        Quiescent chains left ``_active`` and track the watermark
        arithmetically (their delta is a plan constant, so one
        representative bound covers all of them). Costs
        O((fed + due) · chain + log active), not O(active).
        """
        flow = self.flow
        stats = flow.parallel_stats
        if stats is not None:
            # the fine-grained schedule: one dispatch per wave
            stats.dispatches += 1
            stats.waves += 1
        pending = self._pending
        seq = self._seq
        added = False
        active = self._active
        due = self._due_keys(w)
        chains = [active[key] for key in due]
        if flow.tracer.enabled:
            # both are pure functions of the data and the wave schedule —
            # identical across executors and seeds alike
            metrics = flow.tracer.metrics
            metrics.histogram("dataflow.wave_width").observe(len(active))
            metrics.histogram("dataflow.chains_advanced").observe(len(chains))
        if self._group_mode == "thread" and len(chains) > 1:
            # chain computation fans out; the merge below consumes the
            # results in exactly the order the serial loop would produce
            # them, so sequence numbers — and output bytes — are identical
            all_outs = flow.run_chain_tasks(chains, w)
        else:
            all_outs = None
        for i, key in enumerate(due):
            chain = chains[i]
            outs = chain.advance(w) if all_outs is None else all_outs[i]
            if outs:
                pending.extend((out.le, next(seq), out) for out in outs)
                added = True
            if chain.idle_delta is not None:
                del active[key]
                self._idle_delta = max(self._idle_delta, chain.idle_delta)
            else:
                self._settle(key, chain, w)
        if added:
            # timsort merges the sorted backlog with this wave's sorted
            # per-chain runs in near-linear time
            pending.sort()
        group_w = w if self._idle_delta < 0 else w - self._idle_delta
        hold = self._min_hold()
        if hold < group_w:
            group_w = hold
        self._compact_wave_index()
        idx = bisect_left(pending, (group_w,))
        if idx:
            self._emit([item[2] for item in pending[:idx]])
            del pending[:idx]
        self.watermark = max(self.watermark, group_w)

    def _due_keys(self, w: int) -> List[Tuple]:
        """The keys a wave at ``w`` must advance, in activation order."""
        due = self._dirty
        self._dirty = {}
        active = self._active
        heap = self._wakeups
        while heap and heap[0][0] <= w:
            wake, rank, key = heapq.heappop(heap)
            chain = active.get(key)
            if chain is not None and chain.rank == rank and chain.wake == wake:
                chain.wake = None
                due[key] = rank
        # ranks are unique, so keys never compare
        return [key for _, key in sorted((r, k) for k, r in due.items())]

    def _settle(self, key: Tuple, chain, w: int) -> None:
        """Record a still-active chain's wakeup and watermark after its
        advance at ``w``."""
        wake = chain.next_wakeup(w)
        if wake <= w:
            chain.wake = None
            self._dirty[key] = chain.rank
        elif wake < MAX_TIME:
            if wake != chain.wake:
                chain.wake = wake
                heapq.heappush(self._wakeups, (wake, chain.rank, key))
        else:
            chain.wake = None  # only new input can wake it
        hold = chain.watermark
        if hold != chain.hold:
            chain.hold = hold
            heapq.heappush(self._holds, (hold, chain.rank, key))

    def _min_hold(self) -> int:
        """The smallest active chain watermark (MAX_TIME when none)."""
        active = self._active
        heap = self._holds
        while heap:
            hold, rank, key = heap[0]
            chain = active.get(key)
            if chain is not None and chain.rank == rank and chain.hold == hold:
                return hold
            heapq.heappop(heap)
        return MAX_TIME

    def _compact_wave_index(self) -> None:
        """Drop stale heap entries once they outnumber the live ones, so
        a chain frozen below every other keeps memory bounded by the
        active set (amortized O(1) per recorded entry)."""
        limit = 2 * len(self._active) + 64
        if len(self._holds) > limit:
            self._holds = [
                (c.hold, c.rank, k)
                for k, c in self._active.items()
                if c.hold is not None
            ]
            heapq.heapify(self._holds)
        if len(self._wakeups) > limit:
            self._wakeups = [
                (c.wake, c.rank, k)
                for k, c in self._active.items()
                if c.wake is not None
            ]
            heapq.heapify(self._wakeups)

    def _reindex_active(self) -> None:
        """Rebuild the wave index over ``_active`` (after chains were
        replaced wholesale): every active chain is due once."""
        self._ranks = itertools.count()
        self._wakeups = []
        self._holds = []
        for key, chain in self._active.items():
            chain.rank = next(self._ranks)
            chain.wake = chain.hold = None
        self._dirty = {key: chain.rank for key, chain in self._active.items()}

    def _advance_group_apply_sharded(self) -> None:
        """GroupApply waves over persistent forked shard workers.

        Chain state lives in the children; the parent mirrors the serial
        path's bookkeeping — which keys exist, which are active, in what
        insertion order — on lightweight :class:`_ChainProxy` records.
        Parent and child apply the *same* deterministic activation rules
        to the same fed events, so their active sets never diverge, and
        the parent assigns merge sequence numbers by walking its own
        dicts in exactly the serial iteration order.
        """
        node: GroupApplyNode = self.plan_node
        buf = self.inputs[0]
        fresh = buf.take()
        if fresh:
            self.events_in += len(fresh)
            self._fed_since_wave += len(fresh)
            per_key = _batch_per_key(fresh, node.keys)
            if self._defer_waves:
                self._accumulate_feeds(per_key)
            else:
                backend = self._shards
                if backend is None:
                    backend = self._shards = _ShardedGroups(node, self.flow)
                for key, events in per_key.items():
                    proxy = self._groups.get(key)
                    if proxy is None:
                        # keys shard round-robin by first-seen order: a
                        # pure function of the input stream, so resumed/
                        # replayed runs land every key on the same shard
                        proxy = _ChainProxy(backend.shard_for_new_key())
                        self._groups[key] = proxy
                    backend.queue_feed(proxy.shard, key, events)
                    proxy.idle_delta = None
                    self._active[key] = proxy

        w = buf.watermark
        if self._defer_waves and w >= MAX_TIME:
            self._drain_deferred()
            if self._group_mode != "shard":
                # degraded mid-drain: chains now live in the driver
                if self._wave_feeds:
                    self._feed_local_chains(self._wave_feeds)
                    self._wave_feeds = {}
                self._run_group_flush(w)
                return
            if self._wave_feeds:
                # partial (pre-boundary) feeds ride with the flush
                # message, exactly where the legacy path queues them
                backend = self._shards
                for key, events in self._wave_feeds.items():
                    proxy = self._groups[key]
                    backend.queue_feed(proxy.shard, key, events)
                    proxy.idle_delta = None
                    self._active[key] = proxy
                self._wave_feeds = {}
        pending = self._pending
        seq = self._seq
        backend = self._shards
        if w >= MAX_TIME:
            if backend is not None and self._groups:
                try:
                    shard_results = backend.roundtrip("flush", w)
                except _ShardDegradation as deg:
                    self._degrade_to_local(deg)
                    self._run_group_flush(w)
                    return
                by_key = {}
                for result in shard_results:
                    for key, outs in result:
                        by_key[key] = outs
                self.flow.parallel_stats.add(backend.take_stats())
                # parent _groups insertion order == serial iteration order
                for key in self._groups:
                    outs = by_key[key]
                    if outs:
                        pending.extend((out.le, next(seq), out) for out in outs)
            pending.sort()
            self._emit([item[2] for item in pending])
            del pending[:]
            self.flushed = True
            self.watermark = MAX_TIME
            return
        threshold = self.flow.group_wave_events
        if threshold:
            if self._fed_since_wave < threshold + 2 * len(self._groups):
                return
        self._fed_since_wave = 0
        if self._defer_waves:
            self._queue_wave(w)
            return
        stats = self.flow.parallel_stats
        stats.dispatches += 1
        stats.waves += 1
        added = False
        if self.flow.tracer.enabled:
            # shard workers advance every active chain
            metrics = self.flow.tracer.metrics
            metrics.histogram("dataflow.wave_width").observe(len(self._active))
            metrics.histogram("dataflow.chains_advanced").observe(
                len(self._active)
            )
        if backend is not None and self._active:
            try:
                shard_results = backend.roundtrip("wave", w)
            except _ShardDegradation as deg:
                self._degrade_to_local(deg)
                self._run_group_wave(w)
                return
            by_key = {}
            for result in shard_results:
                for key, outs, chain_w, idle in result:
                    by_key[key] = (outs, chain_w, idle)
            self.flow.parallel_stats.add(backend.take_stats())
            for key, proxy in list(self._active.items()):
                outs, chain_w, idle = by_key[key]
                proxy.watermark = chain_w
                proxy.idle_delta = idle
                if outs:
                    pending.extend((out.le, next(seq), out) for out in outs)
                    added = True
                if idle is not None:
                    del self._active[key]
                    self._idle_delta = max(self._idle_delta, idle)
        if added:
            pending.sort()
        group_w = w if self._idle_delta < 0 else w - self._idle_delta
        for proxy in self._active.values():
            group_w = min(group_w, proxy.watermark)
        idx = bisect_left(pending, (group_w,))
        if idx:
            self._emit([item[2] for item in pending[:idx]])
            del pending[:idx]
        self.watermark = max(self.watermark, group_w)

    def _degrade_to_local(self, deg: "_ShardDegradation") -> None:
        """Shard recovery exhausted its budget: pull the chains home.

        Every shard's chain state is rebuilt in the driver by replaying
        that shard's acknowledged message log; the failing wave's feeds
        are re-buffered without advancing, and the caller immediately
        re-runs the wave on the local path. Replay applies the same
        deterministic message semantics the workers did, and the parent
        ``_groups`` / ``_active`` dicts keep their insertion order, so
        merge sequence numbers — and output bytes — stay on the serial
        schedule. The run then continues thread-degraded instead of
        failing.
        """
        flow = self.flow
        node: GroupApplyNode = self.plan_node
        settings = _ChainSettings(
            flow.allow_unstreamable, flow.group_wave_events
        )
        chain_by_key: Dict[Tuple, object] = {}
        for shard, log in enumerate(deg.logs):
            chains = _ShardChains(node, settings)
            for msg in log:
                chains.apply(msg)  # outputs were already delivered
            tag, fed, _w = deg.current[shard]
            if tag != "waves":
                # re-buffer the failing wave's feeds; the caller advances
                # (deferred windows retain their events parent-side, so
                # a failing "waves" message is simply dropped here and
                # re-dispatched through the local path)
                chains.feed(fed)
            chain_by_key.update(chains.groups)

        def resolve(key):
            # keys first fed in a not-yet-acknowledged deferred window
            # have no worker-side state to replay; serial would have
            # just created their chains, so a fresh chain is exact
            chain = chain_by_key.get(key)
            if chain is None:
                linear = self._linear_stages
                if linear is not None:
                    chain = _LinearChain(node, key, linear)
                else:
                    chain = _GroupChain(node, key, flow)
                chain_by_key[key] = chain
            return chain

        self._groups = {key: resolve(key) for key in self._groups}
        self._active = {key: resolve(key) for key in self._active}
        self._reindex_active()
        backend, self._shards = self._shards, None
        backend.close()
        flow.parallel_stats.recovery.degradations += 1
        if flow.tracer.enabled:
            flow.tracer.event(
                "supervision.degraded", category="supervision",
                lane="driver", to="thread", shard=deg.shard,
            )
        flow.executor.force_degrade("thread")
        self._group_mode = "thread"
        warnings.warn(
            ExecutorDegradedWarning(
                f"GroupApply shard worker {deg.shard} (keys "
                f"{deg.keys_preview()}) kept failing past the retry "
                f"budget; rebuilt {len(chain_by_key)} chain(s) in the "
                "driver by deterministic replay and degraded to thread "
                "execution for the remainder of the run"
            ),
            stacklevel=5,
        )


#: Plan nodes whose operators hold no mutable state: one instance can be
#: shared by every chain of a GroupApply instead of rebuilt per key.
_STATELESS_NODES = (WhereNode, ProjectNode, AlterLifetimeNode)


def _linear_stages(node: GroupApplyNode):
    """The sub-plan as ``(plan_nodes, futures, shared, delay)`` when it
    is a straight unary pipeline off the group input, else ``None``.

    Linear sub-plans (window → aggregate …, the overwhelmingly common
    shape) run on :class:`_LinearChain`, which drives the same operator
    objects without per-key Dataflow scaffolding. Anything else — nested
    GroupApply, binary operators, exchanges, unbounded rewrites — falls
    back to the general :class:`_GroupChain`. ``shared[i]`` is a
    pre-built operator for stateless stages (pure per-event functions),
    ``None`` where each chain needs its own instance; ``delay`` is the
    sum of the futures (:attr:`_PlanMeta.delay`).
    """
    meta = _PlanMeta.of(node.subplan_root)
    order = meta.order
    if not order or not isinstance(order[0], GroupInputNode):
        return None
    for prev, n in zip(order, order[1:]):
        if (
            len(n.inputs) != 1
            or n.inputs[0] is not prev
            or isinstance(n, (GroupApplyNode, ExchangeNode))
            or meta.futures[n.node_id] is None
        ):
            return None
    stages = order[1:]
    shared = [
        n.make_operator() if isinstance(n, _STATELESS_NODES) else None
        for n in stages
    ]
    return stages, [meta.futures[n.node_id] for n in stages], shared, meta.delay


class _LinearChain:
    """One group's sub-plan, specialized for straight unary pipelines.

    Same operator objects, same incremental protocol calls, no per-key
    Dataflow/graph scaffolding — each advance simply threads the batch
    through ``on_batch``/``on_watermark`` (or ``on_flush``) stage by
    stage, tracking per-stage monotone watermark floors exactly as the
    generic graph does. With millions of group keys this is what keeps
    chain construction and watermark waves cheap.
    """

    __slots__ = (
        "key_columns",
        "ops",
        "futures",
        "delay",
        "watermark",
        "idle_delta",
        "rank",
        "wake",
        "hold",
        "_stage_w",
        "_buf",
    )

    def __init__(self, node: GroupApplyNode, key: Tuple, stages):
        plan_nodes, futures, shared, delay = stages
        self.key_columns = dict(zip(node.keys, key))
        self.ops = [
            op if op is not None else p.make_operator()
            for p, op in zip(plan_nodes, shared)
        ]
        self.futures = futures
        self.delay = delay
        self.watermark = MIN_TIME
        self.idle_delta: Optional[int] = None
        # wave-index bookkeeping, owned by the GroupApply node
        self.rank = self.wake = self.hold = None
        self._stage_w = [MIN_TIME] * len(futures)
        self._buf: List[Event] = []

    def buffer(self, events: List[Event]) -> None:
        self._buf.extend(events)
        self.idle_delta = None

    def advance(self, watermark: int) -> List[Event]:
        flush = watermark >= MAX_TIME
        if flush:
            self.idle_delta = None
        elif self.idle_delta is not None:
            self.watermark = watermark - self.idle_delta
            return []
        events = self._buf
        if events:
            self._buf = []
        w = watermark
        idle = not flush
        stage_w = self._stage_w
        for i, op in enumerate(self.ops):
            out = op.on_batch(events) if events else []
            if flush:
                out.extend(op.on_flush())
            else:
                out.extend(op.on_watermark(w))
                ww = op.watermark_out(w) - self.futures[i]
                if ww < stage_w[i]:
                    ww = stage_w[i]
                else:
                    stage_w[i] = ww
                w = ww
                if idle and not op.is_idle():
                    idle = False
            events = out
        if flush:
            self.watermark = MAX_TIME
        else:
            self.watermark = w
            if idle:
                self.idle_delta = watermark - w
        if not events:
            return events
        key_columns = self.key_columns
        out = []
        for e in events:
            payload = dict(e.payload)
            payload.update(key_columns)
            out.append(e.with_payload(payload))
        return out

    def next_wakeup(self, watermark: int) -> int:
        """Right after ``advance(watermark)``: the smallest later wave
        watermark at which advancing could emit, change state, or move
        this chain's watermark (``<= watermark``: advance every wave).

        Every stage maps its input watermark ``x`` to
        ``max(floor, min(x, hold) - future)``, so the chain's watermark
        is ``min(w - delay, C)`` for a constant ``C`` until some
        operator wakes. Below ``watermark - delay`` it is held by that
        constant: frozen. Otherwise it tracks ``w`` and the chain is due
        at the next higher watermark.
        """
        if self.watermark < watermark - self.delay:
            wake = MAX_TIME
        else:
            wake = watermark + 1
        for op in self.ops:
            t = op.next_wakeup()
            if t < wake:
                wake = t
        return wake


class _GroupChain:
    """One group's live sub-plan inside a GroupApply node.

    Each chain is a nested :class:`Dataflow` over the sub-plan, with the
    group-input leaf registered as its only source. Key columns are
    re-attached to every output payload; ``allow_unstreamable`` is
    inherited, so a batch run of a GroupApply whose sub-plan contains a
    custom AlterLifetime defers inside the chain.
    """

    __slots__ = (
        "key_columns", "sub", "delay", "watermark", "idle_delta",
        "rank", "wake", "hold",
    )

    def __init__(self, node: GroupApplyNode, key: Tuple, flow: "Dataflow"):
        self.key_columns = dict(zip(node.keys, key))
        self.sub = Dataflow(
            node.subplan_root,
            group_input=node.group_input,
            allow_unstreamable=flow.allow_unstreamable,
            group_wave_events=flow.group_wave_events,
        )
        self.delay = _PlanMeta.of(node.subplan_root).delay
        self.watermark = MIN_TIME
        #: when not None the chain is quiescent: a watermark ``w`` maps to
        #: output watermark ``w - idle_delta`` (a plan constant) and emits
        #: nothing, so the sub-flow need not be touched at all
        self.idle_delta: Optional[int] = None
        # wave-index bookkeeping, owned by the GroupApply node
        self.rank = self.wake = self.hold = None

    def _attach_key(self, events: Iterable[Event]) -> List[Event]:
        out = []
        for e in events:
            payload = dict(e.payload)
            payload.update(self.key_columns)
            out.append(e.with_payload(payload))
        return out

    def buffer(self, events: List[Event]) -> None:
        """Queue LE-ordered ``events``; the next ``advance`` delivers them."""
        self.sub.feed(GROUP_SOURCE, events, events[-1].le)
        self.idle_delta = None

    def advance(self, watermark: int) -> List[Event]:
        if watermark >= MAX_TIME:
            self.idle_delta = None
            outs = self._attach_key(self.sub.flush())
            self.watermark = MAX_TIME
            return outs
        if self.idle_delta is not None:
            self.watermark = watermark - self.idle_delta
            return []
        self.sub.set_watermarks(watermark)
        outs = self._attach_key(self.sub.advance())
        self.watermark = self.sub.output_watermark
        if self.sub.is_quiescent():
            self.idle_delta = watermark - self.watermark
        return outs

    def next_wakeup(self, watermark: int) -> int:
        """The :meth:`_LinearChain.next_wakeup` contract for a sub-flow.

        The sub-flow's input watermark is ``max(src, w)``, where ``src``
        already covers every fed LE, so nothing moves while ``w <= src``;
        past it the frozen-watermark argument of the linear chain holds
        with ``src`` in place of ``w``.
        """
        if self.delay is None:
            return MIN_TIME  # nested GroupApply or deferred node
        src = self.sub.source_watermark(GROUP_SOURCE)
        wake = MAX_TIME if self.watermark < src - self.delay else src + 1
        t = self.sub.next_wakeup()
        return t if t < wake else wake


class _ChainProxy:
    """Parent-side stand-in for a chain living in a forked shard worker.

    Carries exactly what the parent's wave merge reads: the owning shard,
    the chain's output watermark, and its idle delta. Updated from the
    shard's wave responses under the same rules the serial path applies
    to real chains, so the parent's active-set bookkeeping is a faithful
    replay of serial execution.
    """

    __slots__ = ("shard", "watermark", "idle_delta")

    def __init__(self, shard: int):
        self.shard = shard
        self.watermark = MIN_TIME
        self.idle_delta: Optional[int] = None


class _ChainSettings:
    """The Dataflow fields a chain constructor reads, fork-portable.

    ``trace`` tells a forked shard worker to record wave spans/metrics
    into a :class:`~repro.obs.trace.WorkerSpanRecorder` and ship the
    buffer back with each reply (the chains themselves never read it).
    """

    __slots__ = (
        "allow_unstreamable",
        "group_wave_events",
        "executor",
        "trace",
        "columnar",
    )

    def __init__(
        self,
        allow_unstreamable: bool,
        group_wave_events: int,
        trace: bool = False,
        columnar: bool = False,
    ):
        self.allow_unstreamable = allow_unstreamable
        self.group_wave_events = group_wave_events
        self.executor = None  # chains never nest parallelism
        self.trace = trace
        self.columnar = columnar


class _ShardChains:
    """The real chain state of one shard, driven by wave messages.

    Shared by the forked shard worker loop and the parent-side rebuild
    after a shard degradation: both apply identical message semantics —
    chain creation, buffering, activation, idling all follow the exact
    serial rules — which is what makes replaying a shard's acknowledged
    message log reproduce its state byte-identically.
    """

    __slots__ = ("node", "settings", "linear", "groups", "active")

    def __init__(self, node: GroupApplyNode, settings: "_ChainSettings"):
        self.node = node
        self.settings = settings
        self.linear = _linear_stages(node)
        self.groups: Dict[Tuple, object] = {}
        self.active: Dict[Tuple, object] = {}

    def feed(self, fed) -> None:
        node = self.node
        linear = self.linear
        for key, events in fed:
            if not isinstance(events, list):
                # columnar shard dispatch ships one packed EventBatch
                # per (key, feed); chains always run on rows
                events = events.to_events()
            chain = self.groups.get(key)
            if chain is None:
                if linear is not None:
                    chain = _LinearChain(node, key, linear)
                else:
                    chain = _GroupChain(node, key, self.settings)
                self.groups[key] = chain
            chain.buffer(events)
            self.active[key] = chain

    def apply(self, msg):
        """Process one ``(tag, fed, watermark)`` message; return the
        keyed reply payload.

        A ``("waves", [wave messages], w)`` message is one deferred
        window: each inner wave replays the exact per-wave feed/advance
        semantics in order, so a batched dispatch reproduces the serial
        wave schedule message for message (and replay recovery replays
        windows just like single waves).
        """
        tag, fed, w = msg
        if tag == "waves":
            return [self.apply(wave_msg) for wave_msg in fed]
        self.feed(fed)
        if tag == "flush":
            return [
                (key, chain.advance(w)) for key, chain in self.groups.items()
            ]
        result = []
        for key, chain in list(self.active.items()):
            outs = chain.advance(w)
            if chain.idle_delta is not None:
                del self.active[key]
            result.append((key, outs, chain.watermark, chain.idle_delta))
        return result


def _encode_reply(result):
    """Pack each keyed reply's non-empty output list into one
    :class:`EventBatch` so a wave's outputs pickle as a few packed
    buffers instead of one ``Event`` object per row (lists below the
    packing cutoff ship as rows — see ``_PACK_MIN_EVENTS``). Works for
    both flush replies ``(key, outs)`` and wave replies ``(key, outs,
    watermark, idle_delta)``."""
    packed = []
    for item in result:
        outs = item[1]
        if len(outs) >= _PACK_MIN_EVENTS:
            item = (item[0], EventBatch.from_events(outs)) + item[2:]
        packed.append(item)
    return packed


def _decode_reply(payload):
    """Inverse of :func:`_encode_reply`; row-list replies (recovery
    fakes, local rebuilds) pass through untouched."""
    decoded = []
    for item in payload:
        outs = item[1]
        if not isinstance(outs, list):
            item = (item[0], outs.to_events()) + item[2:]
        decoded.append(item)
    return decoded


def _encode_window_reply(tag, result):
    """Columnar packing dispatcher: per-wave for batched ``"waves"``
    replies, flat for single wave/flush replies."""
    if tag == "waves":
        return [_encode_reply(wave) for wave in result]
    return _encode_reply(result)


def _decode_window_reply(tag, payload):
    """Inverse of :func:`_encode_window_reply`."""
    if tag == "waves":
        return [_decode_reply(wave) for wave in payload]
    return _decode_reply(payload)


def _shard_worker(conn, node, settings):  # pragma: no cover - forked child
    """Main loop of one persistent shard worker (runs in a forked child).

    Owns the real chain objects for its subset of keys (one
    :class:`_ShardChains`). Each message carries the events fed since
    the last wave plus the watermark; the child's active set mirrors the
    parent's proxies. Results go back keyed — the parent re-establishes
    serial merge order from its own bookkeeping, never from child
    ordering.
    """
    import traceback

    chains = _ShardChains(node, settings)
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            return
        recorder = WorkerSpanRecorder() if settings.trace else None
        t0 = _time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span(
                    "shard.wave", category="worker", tag=msg[0], fed=len(msg[1])
                ) as span:
                    result = chains.apply(msg)
                    span.set("keys", len(result))
                if settings.columnar:
                    result = _encode_window_reply(msg[0], result)
                busy = _time.perf_counter() - t0
                import pickle as _pickle

                s0 = _time.perf_counter()
                payload_bytes = len(_pickle.dumps(result))
                send_s = _time.perf_counter() - s0
                recorder.metrics.histogram(
                    "executor.pipe_bytes", deterministic=False
                ).observe(payload_bytes)
                extras = {"send_seconds": send_s, "state": recorder.state()}
                conn.send(("ok", result, len(result), busy, extras))
            else:
                result = chains.apply(msg)
                if settings.columnar:
                    result = _encode_window_reply(msg[0], result)
                conn.send(("ok", result, len(result), _time.perf_counter() - t0))
        except BaseException:
            conn.send(("err", traceback.format_exc(), 0, 0.0))


class _ShardDegradation(Exception):
    """Internal: a shard exhausted the retry budget. Carries the replay
    state the owning node needs for a parent-side rebuild; never escapes
    the dataflow (the node converts it into a local-chain takeover plus
    an :class:`ExecutorDegradedWarning`).
    """

    def __init__(self, logs, current, shard, keys, cause):
        super().__init__(str(cause))
        self.logs = logs  # per-shard acknowledged-message logs
        self.current = current  # the failing roundtrip's messages
        self.shard = shard
        self.keys = keys
        self.cause = cause

    def keys_preview(self) -> str:
        head = ", ".join(repr(k) for k in self.keys[:4])
        return head + (", ..." if len(self.keys) > 4 else "")


class _ShardedGroups:
    """Parent handle on the persistent shard workers of one GroupApply.

    Keys are assigned to shards round-robin in first-seen order (a pure
    function of the input stream); fed events accumulate in per-shard
    outboxes and ship with the next wave or flush message, so a wave
    costs one round-trip per shard regardless of how many feed calls
    preceded it. All sends go out before any receive, so shards compute
    their waves concurrently.

    Supervision: every acknowledged message is logged per shard. A shard
    that dies (or goes silent past the worker timeout) is respawned
    under its original id and its chain state rebuilt by deterministic
    replay of that log — byte-identical because chain advancement is a
    pure function of the message sequence. Respawns count against the
    run's retry budget and charge exponential backoff to simulated
    time; past the budget, :class:`_ShardDegradation` hands the state
    to the owning node for a local rebuild instead of failing the run.
    """

    def __init__(self, node: GroupApplyNode, flow: "Dataflow"):
        executor = flow.executor
        self.executor = executor
        self.flow = flow
        self.num_shards = max(1, executor.max_workers)
        self.columnar = flow.columnar
        settings = _ChainSettings(
            flow.allow_unstreamable,
            flow.group_wave_events,
            trace=flow.tracer.enabled,
            columnar=flow.columnar,
        )

        def shard_main(conn, worker_id):  # pragma: no cover - forked child
            _shard_worker(conn, node, settings)

        self._shard_main = shard_main
        self.handles = executor.spawn_workers(shard_main, self.num_shards)
        if flow.tracer.enabled:
            for shard in range(self.num_shards):
                flow.tracer.event(
                    "supervision.spawn", category="supervision",
                    lane=f"shard-{shard}", worker=shard, tier="shard",
                )
        self.outbox: List[List[Tuple[Tuple, List[Event]]]] = [
            [] for _ in range(self.num_shards)
        ]
        self._next_shard = 0
        self._stats: List[WorkerStats] = []
        #: per-shard acknowledged-message logs, the replay source for
        #: respawn recovery and for the local rebuild after degradation
        self.logs: List[list] = [[] for _ in range(self.num_shards)]
        #: per-shard key ownership in first-seen order (error naming)
        self.keys: List[list] = [[] for _ in range(self.num_shards)]
        self._key_sets = [set() for _ in range(self.num_shards)]
        self._restarts = 0
        #: the most recent exchange's OverheadStats (adaptive wave
        #: batching reads its dispatch/compute ratio)
        self.last_overhead: Optional[OverheadStats] = None

    def shard_for_new_key(self) -> int:
        shard = self._next_shard
        self._next_shard = (shard + 1) % self.num_shards
        return shard

    def pack_feed(self, shard: int, key: Tuple, events: List[Event]):
        """One fed entry for a shard message: registers key ownership
        and applies the columnar packing rule (ship one packed
        struct-of-arrays buffer instead of pickling each Event; tiny
        feeds stay as rows — below ~10 events the packed form's
        array/layout framing outweighs the savings)."""
        if key not in self._key_sets[shard]:
            self._key_sets[shard].add(key)
            self.keys[shard].append(key)
        if self.columnar and len(events) >= _PACK_MIN_EVENTS:
            return (key, EventBatch.from_events(events))
        return (key, events)

    def queue_feed(self, shard: int, key: Tuple, events: List[Event]) -> None:
        self.outbox[shard].append(self.pack_feed(shard, key, events))

    def roundtrip(self, tag: str, watermark: int) -> List[list]:
        """Send one wave/flush to every shard; return per-shard results."""
        msgs = []
        for shard in range(self.num_shards):
            fed = self.outbox[shard]
            self.outbox[shard] = []
            msgs.append((tag, fed, watermark))
        return self.exchange(msgs)

    def exchange(self, msgs: List[tuple]) -> List[list]:
        """One message per shard out, one reply per shard back.

        Messages are logged only after the whole exchange succeeds, so
        a recovery triggered partway through never replays the in-flight
        message twice.
        """
        num = self.num_shards
        tracer = self.flow.tracer
        overhead = OverheadStats()
        call_t0 = _time.perf_counter()
        self._inject_kills()
        timeout = resolve_worker_timeout(self.executor.supervision.worker_timeout)
        send_failed = [False] * num
        d0 = _time.perf_counter()
        for shard in range(num):
            try:
                self.handles[shard].send(msgs[shard])
            except WorkerLostError:
                send_failed[shard] = True
        overhead.dispatch_seconds = _time.perf_counter() - d0
        results = []
        self._stats = []
        for shard in range(num):
            reply = None
            recovered = False
            if not send_failed[shard]:
                try:
                    reply = self.handles[shard].recv(timeout)
                except WorkerLostError:
                    reply = None
            if reply is None:
                s0 = _time.perf_counter()
                reply = self._recover(shard, msgs)
                overhead.supervision_seconds += _time.perf_counter() - s0
                recovered = True
            # older 4-tuple replies (and test fakes) carry no extras
            status, payload, advanced, busy = reply[:4]
            extras = reply[4] if len(reply) > 4 else None
            if status == "err":
                raise RuntimeError(
                    f"GroupApply shard worker {shard} failed:\n{payload}"
                )
            m0 = _time.perf_counter()
            if self.columnar:
                payload = _decode_window_reply(msgs[shard][0], payload)
            results.append(payload)
            send_s = 0.0
            if extras is not None:
                send_s = extras.get("send_seconds", 0.0)
                if tracer.enabled:
                    # shard order is deterministic, so absorbed span
                    # insertion order reproduces across runs
                    absorb_worker_state(
                        tracer,
                        extras.get("state"),
                        lane=f"shard-{shard}",
                        worker=shard,
                        **({"recovered": True} if recovered else {}),
                    )
            self._stats.append(
                WorkerStats(
                    worker=shard,
                    tasks=advanced,
                    chunks=1 if advanced else 0,
                    busy_seconds=busy,
                    serialize_seconds=send_s,
                )
            )
            overhead.merge_seconds += _time.perf_counter() - m0
        for shard in range(num):
            self.logs[shard].append(msgs[shard])
        overhead.compute_seconds = sum(ws.busy_seconds for ws in self._stats)
        overhead.serialize_seconds = sum(
            ws.serialize_seconds for ws in self._stats
        )
        overhead.finish(_time.perf_counter() - call_t0, num)
        self.last_overhead = overhead
        self.flow.parallel_stats.overhead.merge(overhead)
        return results

    def _inject_kills(self) -> None:
        """Draw seeded worker-kill chaos and apply it: SIGKILL the chosen
        children before the wave ships (no goodbye message, like a real
        crash). Draws happen in the driver, in shard order, so the kill
        schedule is a pure function of the seed."""
        policy = self.executor.supervision.fault_policy
        if policy is None:
            return
        from ..mapreduce.faults import WORKER_KILL, InjectedFault

        tracer = self.flow.tracer
        for shard in range(self.num_shards):
            try:
                policy.maybe_fail(WORKER_KILL, "executor.shard", shard, 1)
            except InjectedFault:
                if tracer.enabled:
                    tracer.event(
                        "supervision.worker_kill", category="supervision",
                        lane=f"shard-{shard}", worker=shard,
                    )
                process = self.handles[shard].process
                if process.is_alive():
                    process.kill()
                    process.join(5)

    def _recover(self, shard: int, msgs: List[tuple]):
        """Respawn shard ``shard``, replay its acknowledged log, re-send
        the in-flight message, and return the reply.

        Each respawn counts against the run's retry budget and charges
        exponential backoff to simulated time. Past the budget the
        failure escapes as :class:`_ShardDegradation`.
        """
        rec = self.flow.parallel_stats.recovery
        sup = self.executor.supervision
        tracer = self.flow.tracer
        budget = resolve_retry_budget(sup.retry_budget)
        timeout = resolve_worker_timeout(sup.worker_timeout)
        keys = self.keys[shard]
        last_error: Optional[WorkerLostError] = None
        while True:
            self._restarts += 1
            if self._restarts > budget:
                raise _ShardDegradation(
                    logs=self.logs,
                    current=msgs,
                    shard=shard,
                    keys=keys,
                    cause=last_error,
                ) from last_error
            rec.worker_restarts += 1
            rec.backoff_seconds += sup.backoff_base * (
                1 << min(self._restarts - 1, 20)
            )
            old = self.handles[shard]
            if old.process.is_alive():
                old.process.kill()
            old.process.join(5)
            try:
                old.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            (handle,) = self.executor.spawn_workers(
                self._shard_main, 1, first_id=shard
            )
            self.handles[shard] = handle
            if tracer.enabled:
                tracer.event(
                    "supervision.respawn", category="supervision",
                    lane=f"shard-{shard}", worker=shard,
                    replayed=len(self.logs[shard]),
                )
            try:
                # deterministic replay of everything this shard had
                # acknowledged rebuilds its chain state byte-identically.
                # Replay replies' trace buffers are dropped: the original
                # roundtrips already absorbed those spans once.
                for past in self.logs[shard]:
                    handle.send(past)
                    status, payload, _adv, _busy = handle.recv(timeout)[:4]
                    if status == "err":
                        raise RuntimeError(
                            f"GroupApply shard worker {shard} failed "
                            f"during recovery replay:\n{payload}"
                        )
                rec.chunks_reexecuted += len(self.logs[shard])
                handle.send(msgs[shard])
                return handle.recv(timeout)
            except WorkerLostError as exc:
                exc.worker_id = shard
                exc.keys = tuple(keys)
                last_error = exc

    def take_stats(self) -> List[WorkerStats]:
        stats, self._stats = self._stats, []
        return stats

    def close(self) -> None:
        for handle in self.handles:
            handle.close()
        self.handles = []


def _chain_advance(chain, watermark: int):
    """A zero-arg task advancing one chain (bound per chain, not by loop
    variable capture)."""

    def task():
        return chain.advance(watermark)

    return task


def _window_advance(chain, waves):
    """A zero-arg task replaying one chain across a deferred window.

    ``waves`` is ``[(watermark, events_or_None), ...]``: each wave
    buffers its feeds (when any) and advances, recording exactly the
    per-wave triple the serial merge reads. Waves where the chain is
    idle early-return inside ``advance`` (watermark arithmetic only),
    so one coarse task per chain reproduces the fine-grained schedule's
    values verbatim.
    """

    def task():
        recs = []
        for w, events in waves:
            if events:
                chain.buffer(events)
            outs = chain.advance(w)
            recs.append((outs, chain.watermark, chain.idle_delta))
        return recs

    return task


class Dataflow:
    """One CQ plan instantiated as a graph of live incremental operators.

    Args:
        root: the plan to execute (already a :class:`PlanNode`).
        allow_unstreamable: run unbounded-rewrite operators in deferred
            (buffer-until-flush) mode instead of rejecting the plan.
        group_input: inside a GroupApply chain, the group-input leaf to
            register under :data:`GROUP_SOURCE`.
        timed: accumulate per-node busy seconds (the batch driver turns
            this on when tracing so operator spans carry real durations).
        group_wave_events: amortize GroupApply watermark waves — defer
            advancing the per-key chains until this many events have been
            fed to the node since its last wave (0, the streaming
            default, waves on every advance). Buffered group input stays
            bounded by the threshold; outputs are merely released later,
            never changed.
        executor: a :class:`~repro.runtime.parallel.Executor` fanning
            independent GroupApply chain advances over workers (``None``
            or a serial executor: run inline). Output is byte-identical
            across executors — the serial wave schedule and merge order
            are replayed exactly; only chain computation moves. Parallel
            flows with process shards hold OS resources: call
            :meth:`close` (the batch driver does so in a ``finally``).
        batch_format: the physical format events move in between
            operators: ``"row"`` (each output-log entry is one
            :class:`Event`) or ``"columnar"`` (entries are chunks — a
            struct-of-arrays :class:`EventBatch` or a plain list — and
            operators with ``supports_columnar`` consume them whole,
            with a row bridge everywhere else). Outputs are
            byte-identical across formats — see docs/BATCH_FORMAT.md.
        waves_per_dispatch: scheduling granularity for parallel
            GroupApply: how many watermark waves are batched into one
            parallel dispatch. ``1`` (the default) is the fine-grained
            schedule; larger values amortize dispatch overhead over
            multiple waves; ``"auto"`` adapts from the overhead
            attribution's dispatch/compute ratio; ``float("inf")``
            dispatches once per drain. Wave *boundaries* (and therefore
            outputs and deterministic stats) are identical for every
            value — only the dispatch is deferred. See
            docs/PARALLELISM.md, "Scheduling granularity".
    """

    def __init__(
        self,
        root: PlanNode,
        *,
        allow_unstreamable: bool = False,
        group_input: Optional[GroupInputNode] = None,
        timed: bool = False,
        group_wave_events: int = 0,
        executor=None,
        race_checker=None,
        tracer=None,
        batch_format: str = "row",
        waves_per_dispatch=1,
    ):
        self.allow_unstreamable = allow_unstreamable
        self.timed = timed
        self.group_wave_events = group_wave_events
        self.race_checker = race_checker
        if waves_per_dispatch == "auto":
            #: adaptive controller: every GroupApply node reads the
            #: current batch size at its wave boundaries and feeds the
            #: dispatch overhead back after each coarse dispatch
            self.wave_batcher = WaveBatcher()
            self.waves_per_dispatch = "auto"
        else:
            self.wave_batcher = None
            if not (
                waves_per_dispatch == float("inf")
                or (
                    isinstance(waves_per_dispatch, int)
                    and waves_per_dispatch >= 1
                )
            ):
                raise ValueError(
                    "waves_per_dispatch must be an int >= 1, 'auto', or "
                    f"float('inf'); got {waves_per_dispatch!r}"
                )
            self.waves_per_dispatch = waves_per_dispatch
        if batch_format not in ("row", "columnar"):
            raise ValueError(
                f"unknown batch format {batch_format!r}; "
                "expected one of ['row', 'columnar']"
            )
        #: nodes read this during construction to pick their physical path
        self.columnar = batch_format == "columnar"
        #: the run's tracer: shard workers ship span/metric buffers back
        #: with wave replies when it is enabled (NULL_TRACER otherwise)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if executor is not None and executor.parallel:
            self.executor = executor
            self.parallel_stats = ParallelStats(
                kind=executor.kind, max_workers=executor.max_workers
            )
        else:
            self.executor = None
            self.parallel_stats = None
        meta = _PlanMeta.of(root)
        self._order = meta.order
        self._nodes: Dict[int, _OpNode] = {}
        # several SourceNode objects may share one name (a multicast
        # written as two Query.source("x") calls); all of them are fed
        self._sources: Dict[str, List[_OpNode]] = {}
        futures = meta.futures
        for plan_node in self._order:
            node = _OpNode(plan_node, self, futures[plan_node.node_id])
            self._nodes[plan_node.node_id] = node
            if isinstance(plan_node, SourceNode):
                if group_input is not None:
                    raise RuntimeError(
                        "GroupApply sub-plans cannot reference external sources"
                    )
                self._sources.setdefault(plan_node.name, []).append(node)
            elif isinstance(plan_node, GroupInputNode):
                if group_input is None or plan_node is not group_input:
                    raise RuntimeError(
                        "GroupInputNode reached outside a GroupApply sub-plan"
                    )
                self._sources.setdefault(GROUP_SOURCE, []).append(node)
        # wire consumer edges: each input buffer reads one upstream log
        self._op_nodes = [self._nodes[p.node_id] for p in self._order]
        for node in self._op_nodes:
            node.edges = [
                (node.inputs[i], self._nodes[child.node_id])
                for i, child in enumerate(node.plan_node.inputs)
            ]
        # (child node, buffers consuming its log) for output-log trimming
        self._trim_list: List[Tuple[_OpNode, List[_InputBuffer]]] = [
            (
                self._nodes[child_id],
                [self._nodes[nid].inputs[i] for nid, i in refs],
            )
            for child_id, refs in meta.consumers.items()
        ]
        self._root = self._nodes[root.node_id]
        self._released = 0
        self._flushed = False

    # -- introspection -------------------------------------------------------

    @property
    def output_watermark(self) -> int:
        return self._root.watermark

    def source_names(self) -> List[str]:
        return list(self._sources)

    def has_source(self, name: str) -> bool:
        return name in self._sources

    def source_watermark(self, name: str) -> int:
        """The current watermark of a named source (KeyError if unknown)."""
        return max(n.watermark for n in self._require(name))

    def max_source_watermark(self) -> int:
        """The freshest promise any source has made (MIN_TIME when idle)."""
        return max(
            (n.watermark for nodes in self._sources.values() for n in nodes),
            default=MIN_TIME,
        )

    def node_stats(self):
        """Yield ``(plan_node, events_in, events_out, busy_seconds)``."""
        for plan_node in self._order:
            n = self._nodes[plan_node.node_id]
            yield plan_node, n.events_in, n.events_out, n.busy_seconds

    def next_wakeup(self) -> int:
        """The smallest source watermark at which advancing could emit
        or change operator state, given no further input (see
        :meth:`UnaryOperator.next_wakeup`). Only meaningful right after
        an ``advance`` pass, like :meth:`is_quiescent`."""
        wake = MAX_TIME
        for node in self._op_nodes:
            op = node._operator
            if op is None:
                # sources and exchanges hold nothing; a nested GroupApply
                # always counts as due
                if isinstance(node.plan_node, GroupApplyNode):
                    return MIN_TIME
            elif node.deferred:
                return MIN_TIME
            elif len(node.inputs) == 1:
                # every advance pass drains a unary node's input
                t = op.next_wakeup()
                if t < wake:
                    wake = t
            else:
                for buf in node.inputs:
                    if buf.cursor < len(buf.events):
                        # undelivered binary input: a rising watermark
                        # on the other side can release it
                        return MIN_TIME
                # otherwise a binary operator emits only on delivery
        return wake

    def is_quiescent(self) -> bool:
        """True iff no future (non-flush) watermark can emit anything.

        Valid right after an ``advance`` pass. A quiescent flow's output
        watermark is a fixed (plan-constant) offset behind its sources'.
        """
        nodes = self._nodes
        return all(nodes[p.node_id].is_idle() for p in self._order)

    # -- driving -------------------------------------------------------------

    def feed(
        self,
        name: str,
        events: Iterable[Event],
        watermark: Optional[int] = None,
    ) -> None:
        """Append LE-ordered ``events`` to source ``name``.

        ``watermark`` (usually the last event's LE) promises no earlier
        event will arrive on this source; ``None`` leaves the watermark
        untouched (the slack reorder buffer uses that to backfill).

        Columnar flows pack the whole feed into one
        :class:`EventBatch` chunk (a prebuilt batch is adopted as-is);
        downstream operators never see a difference in output bytes.
        """
        nodes = self._require(name)
        if self.columnar:
            if not isinstance(events, EventBatch):
                events = EventBatch.from_events(list(events))
            for node in nodes:
                if len(events):
                    node.outputs.append_chunk(events)
                if watermark is not None:
                    node.watermark = max(node.watermark, watermark)
            return
        for node in nodes:
            node.outputs.extend(events)
            if watermark is not None:
                node.watermark = max(node.watermark, watermark)

    def set_watermarks(self, watermark: int) -> None:
        """Advance every source's watermark (an aligned CTI)."""
        for nodes in self._sources.values():
            for node in nodes:
                node.watermark = max(node.watermark, watermark)

    def advance(self) -> List[Event]:
        """Propagate buffered input; return newly-final root outputs."""
        timed = self.timed
        for node in self._op_nodes:
            changed = False
            for buf, child in node.edges:
                log = child.outputs
                if log.total > buf.src_cursor:
                    fresh = log.read_from(buf.src_cursor)
                    if node._flatten:
                        # row bridge: this node needs Event objects
                        # (binary / deferred / GroupApply input)
                        for chunk in fresh:
                            if type(chunk) is list:
                                buf.events.extend(chunk)
                            else:
                                buf.events.extend(chunk.to_events())
                    else:
                        buf.events.extend(fresh)
                    buf.src_cursor = log.total
                    changed = True
                cw = child.watermark
                if cw > buf.watermark:
                    buf.watermark = cw
                    changed = True
            if not changed and node.edges:
                continue  # nothing new: advancing would be a no-op
            if timed:
                t0 = _time.perf_counter()
                node.advance()
                node.busy_seconds += _time.perf_counter() - t0
            else:
                node.advance()
        released = self._root.outputs.read_from(self._released)
        self._released += len(released)
        if self.columnar:
            # callers receive rows regardless of the physical format
            out: List[Event] = []
            for chunk in released:
                if type(chunk) is list:
                    out.extend(chunk)
                else:
                    out.extend(chunk.to_events())
        else:
            out = released
        self._trim()
        return out

    def flush(self) -> List[Event]:
        """End of input everywhere: drain all remaining operator state."""
        if self._flushed:
            return []
        self._flushed = True
        self.set_watermarks(MAX_TIME)
        return self.advance()

    def run_chain_tasks(self, chains, watermark: int) -> List[List[Event]]:
        """Advance independent chains on the executor, results in chain
        order (the caller's merge loop then replays the serial schedule).

        Safe to fan out because chains share no mutable state: stateless
        operator instances shared across chains are pure, and the only
        cross-chain writes — plan-meta memoization on first touch of a
        nested sub-plan — are idempotent publishes of equivalent
        immutable values.
        """
        tasks = [_chain_advance(chain, watermark) for chain in chains]
        if self.race_checker is not None:
            # shadow mode: replay the wave serially under instrumentation
            # (and, in perturb mode, in reversed order) instead of fanning
            # out — mutation attribution needs one task running at a time
            owners = [
                getattr(chain, "key", i) for i, chain in enumerate(chains)
            ]
            return self.race_checker.run_wave(tasks, owners)
        results = self.executor.run_tasks(tasks)
        self.parallel_stats.add(self.executor.last_stats)
        self.parallel_stats.recovery.merge(self.executor.last_recovery)
        self.parallel_stats.overhead.merge(self.executor.last_overhead)
        return results

    def run_window_tasks(self, tasks) -> List[list]:
        """Run deferred-window tasks (multi-wave chain replays) on the
        executor, results in task order. Never reached in race-check
        mode — the shadow checker pins waves_per_dispatch to 1."""
        if not tasks:
            return []
        if len(tasks) == 1:
            return [tasks[0]()]
        results = self.executor.run_tasks(tasks)
        self.parallel_stats.add(self.executor.last_stats)
        self.parallel_stats.recovery.merge(self.executor.last_recovery)
        self.parallel_stats.overhead.merge(self.executor.last_overhead)
        return results

    def close(self) -> None:
        """Release executor-owned resources (persistent shard workers).

        Idempotent and a no-op for serial/thread flows; safe to call
        mid-stream (shard state is lost, so only call when done).
        """
        for node in self._op_nodes:
            shards = getattr(node, "_shards", None)
            if shards is not None:
                shards.close()
                node._shards = None

    # -- internals -----------------------------------------------------------

    def _require(self, name: str) -> List[_OpNode]:
        try:
            return self._sources[name]
        except KeyError:
            raise KeyError(
                f"unknown source {name!r}; have {sorted(self._sources)}"
            ) from None

    def _trim(self) -> None:
        """Drop every output-log prefix all consumers have read past."""
        for child, bufs in self._trim_list:
            if len(bufs) == 1:
                child.outputs.trim_to(bufs[0].src_cursor)
            else:
                child.outputs.trim_to(min(b.src_cursor for b in bufs))
        self._root.outputs.trim_to(self._released)
