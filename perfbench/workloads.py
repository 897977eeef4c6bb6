"""The three workloads of the benchmark of record and their checks.

``bt-timr-process`` and ``bt-timr-serial`` run the offline BT pipeline
(bot elimination, training data, KE-z selection, models, scoring)
through TiMR on ``Cluster``; the executor is the only difference between
them. ``live-feed`` pushes a whole log through the BotElim CQ one row at
a time. NOTES.md says why each exists and what each metric should move.

A run sets up its inputs several times (``setup_s`` is their median),
then repeats the workload until ``--seconds`` have passed and reports
medians. Untraced passes time a fixed loop that uses nothing of the
program between their segments (see ``Gauge``); ``pipeline_ref``
expresses a pass's wall in those loops, which cancels the host's speed.
Each pass is checked against an independent reference outside
its timed region; a failed check or path guard makes the run incorrect
and counts the pass's inputs as failed.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
import warnings
from collections import Counter
from contextlib import nullcontext
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import layers
from spans import span_tree, unattributed_frac

clock = time.perf_counter

#: set-ups per run; setup_s is their median
SETUPS = 5

#: pushes per segment of a live-feed pass (one gauge slice between two)
FEED_BLOCK = 256

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_ref": "ref",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "wall.pipeline_s": "s",
    "wall.rows_per_s": "rows/s",
    "gauge.slice_s": "s",
    "data.generate_s": "s",
    "mapreduce.fs_write_s": "s",
    "mapreduce.stage_self_s": "s",
    "mapreduce.route_s": "s",
    "mapreduce.route_calls": "count",
    "mapreduce.map_fn_s": "s",
    "mapreduce.reduce_self_s": "s",
    "mapreduce.rows_routed": "count",
    "mapreduce.shuffle_amplification": "ratio",
    "mapreduce.partition_skew": "ratio",
    "mapreduce.restarts": "count",
    "mapreduce.quarantined_rows": "count",
    "timr.plan_s": "s",
    "timr.stages": "count",
    "timr.overhead_x": "ratio",
    "temporal.engine_s": "s",
    "temporal.engine_events_in": "count",
    "temporal.operator_events": "count",
    "temporal.engine_events_per_s": "events/s",
    "temporal.rows_to_events_s": "s",
    "temporal.events_to_rows_s": "s",
    "temporal.bridge_rows": "count",
    "streaming.push_self_s": "s",
    "streaming.push_p50_us": "us",
    "streaming.push_p99_us": "us",
    "streaming.result_p50_ms": "ms",
    "streaming.result_p99_ms": "ms",
    "streaming.holdback_p50_events": "count",
    "streaming.flush_released": "count",
    "runtime.dataflow.feed_s": "s",
    "runtime.dataflow.advance_s": "s",
    "runtime.dataflow.advance_calls": "count",
    "runtime.dataflow.operator_events_per_input": "ratio",
    "parallel.compute_s": "s",
    "parallel.serialize_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.idle_s": "s",
    "parallel.merge_s": "s",
    "parallel.supervision_s": "s",
    "parallel.tasks": "count",
    "parallel.stolen_chunks": "count",
    "parallel.utilization": "fraction",
    "parallel.degradations": "count",
    "parallel.worker_restarts": "count",
    "bt.assemble_s": "s",
    "bt.select_s": "s",
    "bt.model_fit_s": "s",
    "bt.score_s": "s",
    "bt.examples": "count",
    "bt.models": "count",
    "bt.mean_dimensions": "count",
    "trace.overhead_x": "ratio",
    "unattributed_frac": "fraction",
    "mem.peak_rss_driver_mb": "MiB",
    "mem.peak_rss_worker_mb": "MiB",
    "failed_frac": "fraction",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def peak_rss_mb() -> Tuple[float, float]:
    """(driver, largest waited-for child) peak resident set, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def timed(fn):
    """(seconds, result) of one call."""
    start = clock()
    result = fn()
    return clock() - start, result


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def gauge_kernel(n: int = 200_000) -> int:
    """A fixed loop of dict updates on small ints; nothing of the program."""
    counts: Dict[int, int] = {}
    get = counts.get
    for i in range(n):
        key = i % 1009
        counts[key] = get(key, 0) + i
    return len(counts)


class Gauge:
    """Reads the host's speed between the segments of a pass.

    On a shared host, other tenants' load can make the same code run up
    to 1.9x slower for stretches of seconds to minutes (measured on a
    2-vCPU VM), and the process's CPU time slows with it. ``mark()`` ends
    one segment of a pass and times one slice of ``gauge_kernel`` before
    the next begins. ``in_slices()`` divides each segment by the mean of
    the slices on either side of it, so the host's speed cancels and a
    change to the program still shows. ``now()`` is a clock that stands
    still while a slice runs, so the pass's own times exclude the gauge.
    A disabled gauge (traced passes) only tells the time.

    With ``cpus`` given, a slice is the mean of one kernel call pinned to
    each of them in turn: the vCPUs change speed independently, and a
    pass whose workers run on all of them goes at their mean speed.
    """

    def __init__(self, enabled: bool = True, cpus: Optional[List[int]] = None):
        self.enabled = enabled
        self.cpus = cpus
        self.paused = 0.0
        self.marks: List[float] = []
        self.slices: List[float] = []

    def now(self) -> float:
        return clock() - self.paused

    def mark(self) -> float:
        """End a segment and start the next; the boundary on ``now()``."""
        at = self.now()
        if not self.enabled:
            return at
        start = clock()
        if self.cpus is None:
            taken = timed(gauge_kernel)[0]
        else:
            home = os.sched_getaffinity(0)
            try:
                taken = 0.0
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    taken += timed(gauge_kernel)[0] / len(self.cpus)
            finally:
                os.sched_setaffinity(0, home)
        self.paused += clock() - start
        self.marks.append(at)
        self.slices.append(taken)
        return at

    def in_slices(self) -> float:
        """The marked segments' total, each in slices of the kernel."""
        return sum(
            (end - begin) / ((before + after) / 2)
            for begin, end, before, after in zip(
                self.marks, self.marks[1:], self.slices, self.slices[1:])
        )

    def readings(self) -> dict:
        if not self.enabled:
            return {"pipeline_ref": None, "gauge_slice_s": None}
        return {"pipeline_ref": self.in_slices(), "gauge_slice_s": median(self.slices)}


def multiset(rows) -> Counter:
    """Rows as a bag of column tuples, TiMR's ``_re`` column dropped."""
    return Counter(
        tuple(sorted((k, v) for k, v in row.items() if k != "_re")) for row in rows
    )


# -- bt-timr-* -----------------------------------------------------------------


class BtTimr:
    """The offline BT pipeline through TiMR on ``Cluster``."""

    def __init__(self, executor: str, num_users: int = 300, days: float = 4,
                 partitions: int = 8):
        self.executor = executor
        self.num_users = num_users
        self.days = days
        self.partitions = partitions

    def tiny(self) -> "BtTimr":
        return BtTimr(self.executor, num_users=40, days=1, partitions=self.partitions)

    def setup(self, seed: int):
        from repro.data import GeneratorConfig, generate
        from repro.mapreduce import Cluster, DistributedFileSystem
        from repro.runtime import RunContext

        t0 = clock()
        rows = generate(
            GeneratorConfig(num_users=self.num_users, duration_days=self.days, seed=seed)
        ).rows
        t1 = clock()
        fs = DistributedFileSystem()
        fs.write("logs", rows, num_partitions=self.partitions)
        t2 = clock()
        cluster = Cluster(
            fs=fs, context=RunContext(executor=self.executor, max_workers=nproc())
        )
        t3 = clock()
        state = {"rows": rows, "cluster": cluster}
        return state, {"data.generate_s": t1 - t0, "mapreduce.fs_write_s": t2 - t1,
                       "setup_s": t3 - t0}

    def run_pass(self, state, trace: Optional[layers.Trace]) -> dict:
        from repro.bt import BTConfig, BTPipeline
        from repro.bt.baselines import custom_bot_elimination, custom_training_rows
        from repro.bt.examples import assemble_examples
        from repro.bt.queries import (
            bot_elimination_query,
            labeled_activity_query,
            training_data_query,
        )
        from repro.runtime.parallel import ExecutorDegradedWarning, ParallelSafetyWarning
        from repro.temporal import Query
        from repro.timr import TiMR

        rows, cluster = state["rows"], state["cluster"]
        # every pass starts from the heap set-up left: the previous pass's
        # outputs would otherwise stay live through this one and make
        # each collection, and each fork, more expensive
        state.pop("jobs", None)
        for name in cluster.fs.list_files():
            if name != "logs":
                cluster.fs.delete(name)
        cfg = BTConfig()
        parts = self.partitions

        def handwritten():
            clean = custom_bot_elimination(rows, cfg)
            return clean, custom_training_rows(clean, cfg)

        span = trace.recorder.span if trace is not None else (lambda name: nullcontext())
        timr = TiMR(cluster)
        # the process executor's workers run on every vCPU
        cpus = (sorted(os.sched_getaffinity(0))
                if self.executor == "process" and hasattr(os, "sched_setaffinity") else None)
        gauge = Gauge(enabled=trace is None, cpus=cpus)
        gc.collect()
        with tracing(trace), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = gauge.mark()
            botelim = timr.run(bot_elimination_query(Query.source("logs"), cfg),
                               job_name="botelim", num_partitions=parts)
            t1 = gauge.mark()
            cluster.fs.write_partitioned("clean", botelim.output.partitions)
            activity = timr.run(labeled_activity_query(Query.source("clean"), cfg),
                                job_name="activity", num_partitions=parts)
            t2 = gauge.mark()
            gtd = timr.run(training_data_query(Query.source("clean"), cfg),
                           job_name="gtd", num_partitions=parts)
            t3 = gauge.mark()
            with span("bt.assemble"):
                examples = assemble_examples(activity.output_rows(), gtd.output_rows())
                times = [ex.time for ex in examples]
                split_time = (min(times) + max(times)) // 2
                train = [ex for ex in examples if ex.time < split_time]
                test = [ex for ex in examples if ex.time >= split_time]
            gauge.mark()
            pipeline = BTPipeline(config=cfg)
            models = pipeline.train(train)
            evaluations = pipeline.evaluate(models, test)
            t4 = gauge.mark()
        rss = peak_rss_mb()
        # the hand-written reducers: the check's reference and Fig 14's
        # comparator
        custom_s, (ref_clean, ref_gtd) = timed(handwritten)

        jobs = (botelim, activity, gtd)
        out = {
            "pipeline_s": t4 - t0,
            **gauge.readings(),
            "timr_botelim_s": t1 - t0,
            "timr_activity_s": t2 - t1,
            "timr_gtd_s": t3 - t2,
            "bt_s": t4 - t3,
            "timr_s": (t1 - t0) + (t3 - t2),
            "custom_s": custom_s,
            "inputs": len(rows),
            "quarantined": sum(j.quarantined_rows for j in jobs),
            "restarts": sum(s.restarted_partitions for j in jobs for s in j.report.stages),
            "stages": sum(len(j.stages) for j in jobs),
            "clean_rows": botelim.output.num_rows,
            "gtd_rows": gtd.output.num_rows,
            "examples": len(examples),
            "models": len(models),
            "mean_dimensions": statistics.fmean(
                [e.dimensions for e in evaluations.values()] or [0]),
            "parallel": parallel_summary([j.parallel for j in jobs]),
            "warnings": sorted({type(w.message).__name__ for w in caught
                                if issubclass(w.category, (ParallelSafetyWarning,
                                                           ExecutorDegradedWarning))}),
            "wall": (t0, t4),
            "rss": rss,
        }
        out["guard"] = self.guard(cluster, jobs, out)
        if multiset(botelim.output_rows()) != multiset(ref_clean):
            out["check"] = "TiMR bot elimination differs from custom_bot_elimination"
        elif multiset(gtd.output_rows()) != multiset(ref_gtd):
            out["check"] = "TiMR GenTrainData differs from custom_training_rows"
        else:
            out["check"] = None
        state["jobs"] = jobs
        return out

    def guard(self, cluster, jobs, out) -> Optional[str]:
        """Why this pass did not measure the program it names, if it did not.

        An enabled program tracer turns parallel reduce off and the
        engine's dataflow into timed mode, so it is refused outright.
        """
        if cluster.tracer.enabled:
            return "the program's tracer was enabled"
        if self.executor == "serial":
            if any(j.parallel is not None for j in jobs):
                return "serial run reported parallel fan-out"
            return None
        if any(j.parallel is None for j in jobs):
            return "a TiMR job ran without parallel stats"
        par = out["parallel"]
        if par["tasks"] == 0:
            return "no parallel tasks ran"
        if par["degradations"] > 0:
            return "executor degraded"
        if out["warnings"]:
            return "warning(s) fired: " + ", ".join(out["warnings"])
        return None

    def layer_metrics(self, state, passes: List[dict]) -> Dict[str, float]:
        """Per-layer metrics from untraced passes and the latest pass's jobs."""
        m = {
            "mapreduce.restarts": median(p["restarts"] for p in passes),
            "mapreduce.quarantined_rows": median(p["quarantined"] for p in passes),
            "timr.stages": median(p["stages"] for p in passes),
            "timr.overhead_x": (median(p["timr_s"] for p in passes)
                                / median(p["custom_s"] for p in passes)),
            "bt.examples": median(p["examples"] for p in passes),
            "bt.models": median(p["models"] for p in passes),
            "bt.mean_dimensions": median(p["mean_dimensions"] for p in passes),
        }
        par = {k: median(p["parallel"][k] for p in passes) for k in passes[0]["parallel"]}
        for k in ("compute", "serialize", "dispatch", "idle", "merge", "supervision"):
            m[f"parallel.{k}_s"] = par[k]
        for k in ("tasks", "stolen_chunks", "degradations", "worker_restarts"):
            m[f"parallel.{k}"] = par[k]
        m["parallel.utilization"] = par["compute"] / par["budget"] if par["budget"] else 0.0
        m.update(self.route_replay(state))
        return m

    def route_replay(self, state) -> Dict[str, float]:
        """Rows routed per reduce partition, replayed from the latest jobs.

        Routing is a pure function of the rows and the compiled stage, so
        replaying it after the pass counts the same rows under either
        executor (forked map tasks report nothing back to the driver).
        """
        fs = state["cluster"].fs
        routed = 0
        critical = balanced = 0.0
        for job in state["jobs"]:
            for compiled in job.stages:
                stage = compiled.stage
                counts = [0] * stage.num_partitions
                for part in fs.read(compiled.input_name).partitions:
                    for row in part:
                        mapped = stage.map_fn(row) if stage.map_fn is not None else (row,)
                        for m in mapped:
                            for idx in stage.route(m):
                                counts[idx] += 1
                total = sum(counts)
                routed += total
                critical += max(counts)
                balanced += total / len(counts)
        return {
            "mapreduce.rows_routed": routed,
            "mapreduce.shuffle_amplification": routed / len(state["rows"]),
            "mapreduce.partition_skew": critical / balanced if balanced else 0.0,
        }


def parallel_summary(stats: List[Optional[dict]]) -> dict:
    """Sum ``TiMRResult.parallel`` over jobs (zeros when all serial)."""
    keys = ("compute", "serialize", "dispatch", "idle", "merge", "supervision", "budget")
    out = {k: 0.0 for k in keys}
    out.update(tasks=0, stolen_chunks=0, degradations=0, worker_restarts=0)
    for par in stats:
        if par is None:
            continue
        for k in keys:
            out[k] += par["overhead"][k + "_seconds"]
        out["tasks"] += par["tasks"]
        out["stolen_chunks"] += par["stolen_chunks"]
        out["degradations"] += par["recovery"]["degradations"]
        out["worker_restarts"] += par["recovery"]["worker_restarts"]
    return out


# -- live-feed -----------------------------------------------------------------


class LiveFeed:
    """The BotElim CQ fed one row at a time through ``StreamingEngine``.

    A closed loop: one feeder, no think time, so pushes/s is the highest
    rate the single sequential engine sustains.
    """

    def __init__(self, num_users: int = 100, days: float = 1):
        self.num_users = num_users
        self.days = days

    def tiny(self) -> "LiveFeed":
        return LiveFeed(num_users=20, days=1)

    def setup(self, seed: int):
        from repro.bt import BTConfig
        from repro.bt.queries import bot_elimination_query
        from repro.data import GeneratorConfig, generate
        from repro.temporal import Query, StreamingEngine

        t0 = clock()
        rows = generate(
            GeneratorConfig(num_users=self.num_users, duration_days=self.days, seed=seed)
        ).rows
        rows.sort(key=lambda r: r["Time"])
        t1 = clock()
        query = bot_elimination_query(Query.source("logs"), BTConfig())
        # engine construction is set-up work; each pass builds its own
        StreamingEngine(query, event_policy="quarantine")
        t2 = clock()
        state = {"rows": rows, "query": query, "reference": None}
        return state, {"data.generate_s": t1 - t0, "mapreduce.fs_write_s": 0.0,
                       "setup_s": t2 - t0}

    def run_pass(self, state, trace: Optional[layers.Trace]) -> dict:
        from repro.temporal import StreamingEngine

        rows, query = state["rows"], state["query"]
        n = len(rows)
        starts = [0.0] * n
        ends = [0.0] * n
        emitted: List[Tuple[int, list]] = []
        engine = StreamingEngine(query, event_policy="quarantine")
        gauge = Gauge(enabled=trace is None)
        now = gauge.now
        gc.collect()
        with tracing(trace):
            push = engine.push
            t0 = gauge.mark()
            for i, row in enumerate(rows):
                a = now()
                out = push("logs", row)
                ends[i] = now()
                starts[i] = a
                if out:
                    emitted.append((i, out))
                if i % FEED_BLOCK == FEED_BLOCK - 1:
                    gauge.mark()
            tail = engine.flush()
            t1 = gauge.mark()
        rss = peak_rss_mb()

        lat = self.latencies(rows, starts, ends, emitted)
        everything = [e for _, out in emitted for e in out] + list(tail)
        out = {
            "pipeline_s": t1 - t0,
            **gauge.readings(),
            "inputs": n,
            "quarantined": len(engine.quarantined) + engine.dropped,
            "push_us": [(e - s) * 1e6 for s, e in zip(starts, ends)],
            "flush_released": len(tail),
            "outputs": len(everything),
            "guard": "the program's tracer was enabled" if engine.tracer.enabled else None,
            "wall": (t0, t1),
            "rss": rss,
            **lat,
        }
        out["check"] = None if self.matches_batch(state, everything) else (
            "live output differs from batch Engine.run")
        return out

    def layer_metrics(self, state, passes: List[dict]) -> Dict[str, float]:
        """Latency percentiles over every push and result of the passes."""
        pushes = [us for p in passes for us in p["push_us"]]
        results = [ms for p in passes for ms in p["result_ms"]]
        return {
            "streaming.push_p50_us": percentile(pushes, 50),
            "streaming.push_p99_us": percentile(pushes, 99),
            "streaming.result_p50_ms": percentile(results, 50),
            "streaming.result_p99_ms": percentile(results, 99),
            "streaming.holdback_p50_events": percentile(
                [h for p in passes for h in p["holdback"]], 50),
            "streaming.flush_released": median(p["flush_released"] for p in passes),
        }

    @staticmethod
    def latencies(rows, starts, ends, emitted) -> dict:
        """Per output: push-return of its emission minus push-start of its input.

        A BotElim output is its input event unchanged, so outputs map
        back to inputs by (LE, payload), first unmatched input first.
        """
        pending: Dict[tuple, List[int]] = {}
        for i, row in enumerate(rows):
            key = (row["Time"], tuple(sorted((k, v) for k, v in row.items() if k != "Time")))
            pending.setdefault(key, []).append(i)
        result_ms, holdback, unmatched = [], [], 0
        for j, out in emitted:
            for e in out:
                queue = pending.get((e.le, tuple(sorted(e.payload.items()))))
                if not queue:
                    unmatched += 1
                    continue
                i = queue.pop(0)
                result_ms.append((ends[j] - starts[i]) * 1e3)
                holdback.append(j - i)
        return {"result_ms": result_ms, "holdback": holdback, "unmatched": unmatched}

    @staticmethod
    def matches_batch(state, events) -> bool:
        from repro.temporal import Engine
        from repro.temporal.relation import normalize

        if state["reference"] is None:
            batch = Engine().run(state["query"], {"logs": state["rows"]})
            state["reference"] = normalize(batch)
        return normalize(events) == state["reference"]


WORKLOADS: Dict[str, Callable[[], object]] = {
    "bt-timr-process": lambda: BtTimr("process"),
    "bt-timr-serial": lambda: BtTimr("serial"),
    "live-feed": LiveFeed,
}


# -- the run loop --------------------------------------------------------------


def tracing(trace: Optional[layers.Trace]):
    return trace.active() if trace is not None else nullcontext()


def repeat(budget: float, fn: Callable[[], dict]) -> List[dict]:
    """Call ``fn`` until ``budget`` seconds have passed (at least once)."""
    passes = []
    start = clock()
    while True:
        passes.append(fn())
        if clock() - start >= budget:
            return passes


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result line's fields plus the artifact."""
    # one untimed pass over a tiny input first, so lazy imports and
    # first-call set-up land in no measured pass
    tiny = workload.tiny()
    tiny.run_pass(tiny.setup(seed)[0], None)
    setups = []
    state = None
    for _ in range(SETUPS):
        state = None
        gc.collect()
        state, timings = workload.setup(seed)
        setups.append(timings)

    traced_passes: List[dict] = []
    if not trace:
        passes = repeat(seconds, lambda: workload.run_pass(state, None))
    else:
        passes = repeat(seconds / 2, lambda: workload.run_pass(state, None))
        # read before a traced pass replaces the latest pass's jobs
        untraced_layers = workload.layer_metrics(state, passes)
        traced_passes = repeat(seconds / 2, lambda: traced_pass(workload, state))

    every = passes + traced_passes
    attempted = sum(p["inputs"] for p in every)
    failed = sum(p["inputs"] if (p["check"] or p["guard"]) else p["quarantined"]
                 for p in every)
    problems = sorted({p[k] for p in every for k in ("check", "guard") if p[k]})

    if trace:
        metrics = per_layer_metrics(setups, passes, traced_passes, failed / attempted)
        metrics.update(untraced_layers)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(setups, passes)
        units = END_TO_END_UNITS
    artifact = {
        "input_rows": len(state["rows"]),
        "setups": setups,
        "passes": [summarize(p) for p in passes],
        "traced_passes": [summarize(p) for p in traced_passes],
        "span_tree": traced_passes[-1]["span_tree"] if traced_passes else None,
        "problems": problems,
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "artifact": artifact,
    }


def traced_pass(workload, state) -> dict:
    trace = layers.Trace()
    result = workload.run_pass(state, trace)
    spans = trace.recorder.table
    result["span_metrics"] = layers.span_metrics(spans, trace.counters, result["inputs"])
    result["unattributed_frac"] = unattributed_frac(spans, *result["wall"])
    result["span_tree"] = span_tree(spans)
    return result


def end_to_end_metrics(setups, passes) -> Dict[str, float]:
    # peak RSS of the set-ups plus one pass, read before that pass's
    # reference computations and checks add their own
    driver_mb, worker_mb = passes[0]["rss"]
    return {
        "setup_s": median(s["setup_s"] for s in setups),
        "pipeline_ref": median(p["pipeline_ref"] for p in passes),
        "peak_rss_mb": driver_mb + worker_mb,
    }


def per_layer_metrics(setups, passes, traced, failed_frac) -> Dict[str, float]:
    """Layer metrics every workload reports; a layer it never runs reads 0."""
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    m["data.generate_s"] = median(s["data.generate_s"] for s in setups)
    m["mapreduce.fs_write_s"] = median(s["mapreduce.fs_write_s"] for s in setups)
    for name in traced[0]["span_metrics"]:
        m[name] = median(p["span_metrics"][name] for p in traced)
    m["trace.overhead_x"] = (median(p["pipeline_s"] for p in traced)
                             / median(p["pipeline_s"] for p in passes))
    m["unattributed_frac"] = median(p["unattributed_frac"] for p in traced)
    m["wall.pipeline_s"] = median(p["pipeline_s"] for p in passes)
    m["wall.rows_per_s"] = median(p["inputs"] / p["pipeline_s"] for p in passes)
    m["gauge.slice_s"] = median(p["gauge_slice_s"] for p in passes)
    m["mem.peak_rss_driver_mb"], m["mem.peak_rss_worker_mb"] = passes[0]["rss"]
    m["failed_frac"] = failed_frac
    return m


def summarize(p: dict) -> dict:
    """A pass as the artifact keeps it: scalars, no bulky sample lists."""
    skip = {"push_us", "result_ms", "holdback", "span_tree", "wall"}
    return {k: v for k, v in p.items() if k not in skip}
