"""Where the traced pass hooks into the package, and what it reports.

Every wrapper goes around a public function or method, patched where
callers look it up: ``repro.timr.compile`` imports ``rows_to_events``,
``events_to_rows``, ``make_reducer`` and ``stateless_row_transform`` into
its own namespace, so those four are patched on that module; methods are
patched on their class. All ``*_s`` metrics derived from spans are self
times, so together with the unattributed share they add up to the wall.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict

from spans import Recorder, SpanTable, layer_totals

#: span-derived self-time metrics: metric name -> span name
SELF_TIME_METRICS = {
    "mapreduce.stage_self_s": "mapreduce.run_stage",
    "mapreduce.route_s": "mapreduce.route",
    "mapreduce.map_fn_s": "mapreduce.map_fn",
    "mapreduce.reduce_self_s": "mapreduce.reduce",
    "timr.plan_s": "timr.run",
    "temporal.engine_s": "temporal.engine",
    "temporal.rows_to_events_s": "temporal.rows_to_events",
    "temporal.events_to_rows_s": "temporal.events_to_rows",
    "streaming.push_self_s": "streaming.push",
    "runtime.dataflow.feed_s": "runtime.dataflow.feed",
    "runtime.dataflow.advance_s": "runtime.dataflow.advance",
    "bt.assemble_s": "bt.assemble",
    "bt.select_s": "bt.select",
    "bt.model_fit_s": "bt.train",
    "bt.score_s": "bt.score",
}

#: span-derived call counts: metric name -> span name
CALL_COUNT_METRICS = {
    "mapreduce.route_calls": "mapreduce.route",
    "runtime.dataflow.advance_calls": "runtime.dataflow.advance",
}


class Counters:
    """Counts the wrappers' after-hooks read off results and live objects."""

    def __init__(self):
        self.bridge_rows = 0
        self.engine_events_in = 0
        self.engine_operator_events = 0
        self.engine_wall_s = 0.0
        #: dataflows advanced since the last fold, nested GroupApply
        #: chains included, kept until their final ``node_stats()`` can
        #: be read: when the engine run that owns them returns, or when
        #: the pass ends (a live feed has no engine run)
        self.flows: Dict[int, object] = {}
        self.flow_events_in = 0

    def on_bridge(self, args, result) -> None:
        self.bridge_rows += len(args[0])

    def on_engine_run(self, args, result) -> None:
        stats = args[0].last_stats
        self.engine_events_in += stats.input_events
        self.engine_operator_events += sum(stats.operator_events.values())
        self.engine_wall_s += stats.wall_seconds
        self.fold_flows()

    def on_advance(self, args, result) -> None:
        self.flows[id(args[0])] = args[0]

    def fold_flows(self) -> int:
        """Add the kept dataflows' events_in to the total and drop them."""
        self.flow_events_in += sum(
            n[1] for flow in self.flows.values() for n in flow.node_stats()
        )
        self.flows.clear()
        return self.flow_events_in


class Trace:
    """One traced pass: a recorder, its counters, and when they listen."""

    def __init__(self):
        self.recorder = Recorder()
        self.counters = Counters()

    @contextmanager
    def active(self):
        """Wrappers installed for the body only, removed even on error."""
        install(self.recorder, self.counters)
        try:
            yield self
        finally:
            self.recorder.unpatch()


def install(recorder: Recorder, counters: Counters) -> None:
    """Patch every layer boundary the per-layer metrics read."""
    import repro.timr.compile as compile_mod
    from repro.bt.feature_selection import KEZSelector
    from repro.bt.pipeline import BTPipeline
    from repro.mapreduce.cluster import Cluster
    from repro.mapreduce.job import MapReduceStage
    from repro.runtime.dataflow import Dataflow
    from repro.temporal.engine import Engine
    from repro.temporal.streaming import StreamingEngine
    from repro.timr.runner import TiMR

    recorder.patch(TiMR, "run", "timr.run")
    recorder.patch(Cluster, "run_stage", "mapreduce.run_stage")
    recorder.patch(MapReduceStage, "route", "mapreduce.route")
    recorder.patch_factory(compile_mod, "stateless_row_transform", "mapreduce.map_fn")
    recorder.patch_factory(compile_mod, "make_reducer", "mapreduce.reduce")
    recorder.patch(compile_mod, "rows_to_events", "temporal.rows_to_events",
                   after=counters.on_bridge)
    recorder.patch(compile_mod, "events_to_rows", "temporal.events_to_rows",
                   after=counters.on_bridge)
    recorder.patch(Engine, "run", "temporal.engine", after=counters.on_engine_run)
    recorder.patch(StreamingEngine, "push", "streaming.push")
    recorder.patch(StreamingEngine, "flush", "streaming.flush")
    recorder.patch(Dataflow, "feed", "runtime.dataflow.feed")
    recorder.patch(Dataflow, "advance", "runtime.dataflow.advance",
                   after=counters.on_advance)
    recorder.patch(BTPipeline, "train", "bt.train")
    recorder.patch(KEZSelector, "fit", "bt.select")
    recorder.patch(BTPipeline, "evaluate", "bt.score")


def span_metrics(spans: SpanTable, counters: Counters, inputs: int) -> Dict[str, float]:
    """The per-layer metrics one traced pass yields.

    ``inputs`` is the pass's input rows (pushes, for a live feed), the
    base of the wasted-work ratio.
    """
    totals = layer_totals(spans)
    out: Dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        out[metric] = totals.get(name, {}).get("self_s", 0.0)
    for metric, name in CALL_COUNT_METRICS.items():
        out[metric] = totals.get(name, {}).get("calls", 0)
    out["temporal.bridge_rows"] = counters.bridge_rows
    out["temporal.engine_events_in"] = counters.engine_events_in
    out["temporal.operator_events"] = counters.engine_operator_events
    out["temporal.engine_events_per_s"] = (
        counters.engine_events_in / counters.engine_wall_s if counters.engine_wall_s else 0.0
    )
    out["runtime.dataflow.operator_events_per_input"] = counters.fold_flows() / inputs
    return out
