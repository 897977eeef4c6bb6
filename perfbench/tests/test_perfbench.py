"""Self-tests of the benchmark: span arithmetic, metric names, checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The workloads run here on tiny inputs; only the benchmark's own logic is
under test.
"""

import json
from pathlib import Path

import pytest

import workloads
from spans import Recorder, covered, layer_totals, self_times, span_tree, unattributed_frac

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class ScriptedClock:
    """Returns the given instants in order, one per reading."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def record(clock, calls):
    """Drive a Recorder through nested ``(name, [children])`` calls."""
    rec = Recorder(clock=clock)

    def visit(name, children):
        with rec.span(name):
            for child in children:
                visit(*child)

    for call in calls:
        visit(*call)
    return rec.table


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert covered([], 0, 1) == 0


def test_self_time_subtracts_children_on_a_fake_clock():
    # job: 0..10 with children a: 1..4 (grandchild 2..3) and b: 6..9
    spans = record(
        ScriptedClock(0, 1, 2, 3, 4, 6, 9, 10),
        [("job", [("a", [("leaf", [])]), ("b", [])])],
    )
    assert spans.names == ["job", "a", "leaf", "b"]
    assert list(self_times(spans)) == [4, 2, 1, 3]
    assert set(spans.jobs) == {0}
    totals = layer_totals(spans)
    assert totals["job"] == {"calls": 1, "total_s": 10, "self_s": 4}
    assert span_tree(spans)["job/a/leaf"] == {"calls": 1, "total_s": 1, "self_s": 1}
    # self times plus nothing unattributed add up to the wall
    assert sum(self_times(spans)) == 10


def test_unattributed_frac_counts_gaps_between_top_level_spans():
    # wall 0..20; top-level spans 2..5 and 10..18 (child 11..12 is inside)
    spans = record(
        ScriptedClock(2, 5, 10, 11, 12, 18),
        [("x", []), ("y", [("z", [])])],
    )
    assert list(spans.parents) == [-1, -1, 1]
    assert list(spans.jobs) == [0, 1, 1]
    assert unattributed_frac(spans, 0, 20) == pytest.approx(9 / 20)


def test_patched_wrappers_record_and_restore():
    class Thing:
        def work(self, n):
            return n + 1

    ticks = iter(range(100))
    rec = Recorder(clock=lambda: next(ticks))
    seen = []
    rec.patch(Thing, "work", "thing.work", after=lambda args, result: seen.append(result))
    assert Thing().work(1) == 2
    rec.unpatch()
    assert Thing().work(1) == 2
    assert rec.table.names == ["thing.work"]
    assert seen == [2]


def test_gauge_divides_each_segment_by_the_slices_around_it():
    gauge = workloads.Gauge()
    # segments 0..2 and 2..5; slices of 1 s, 1 s, then 2 s around them
    gauge.marks, gauge.slices = [0.0, 2.0, 5.0], [1.0, 1.0, 2.0]
    assert gauge.in_slices() == pytest.approx(2 / 1 + 3 / 1.5)
    assert gauge.readings() == {"pipeline_ref": pytest.approx(4.0), "gauge_slice_s": 1.0}


def test_disabled_gauge_only_tells_the_time():
    gauge = workloads.Gauge(enabled=False)
    gauge.mark()
    assert (gauge.marks, gauge.slices, gauge.paused) == ([], [], 0.0)
    assert gauge.readings() == {"pipeline_ref": None, "gauge_slice_s": None}


def small_workloads():
    return {
        "bt-timr-serial": workloads.BtTimr("serial", num_users=40, days=1, partitions=2),
        "live-feed": workloads.LiveFeed(num_users=20, days=1),
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["bt-timr-serial", "live-feed"])
def test_emitted_metrics_match_benchmark_json(name, trace):
    result = workloads.run_workload(small_workloads()[name], seed=3, seconds=0, trace=trace)
    assert result["correct"], result["artifact"]["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_corrupted_live_output_fails_the_run(monkeypatch):
    from repro.temporal.streaming import StreamingEngine

    flush = StreamingEngine.flush
    monkeypatch.setattr(StreamingEngine, "flush", lambda self: flush(self)[1:])
    result = workloads.run_workload(small_workloads()["live-feed"], seed=3, seconds=0,
                                    trace=False)
    assert not result["correct"]
    assert result["artifact"]["problems"] == ["live output differs from batch Engine.run"]
    assert result["failed"] == result["attempted"] > 0


def test_corrupted_timr_output_fails_the_run(monkeypatch):
    from repro.timr import TiMR

    run = TiMR.run

    def lossy(self, query, job_name="timr", **kwargs):
        result = run(self, query, job_name=job_name, **kwargs)
        if job_name == "gtd":
            next(p for p in result.output.partitions if p).pop()
        return result

    monkeypatch.setattr(TiMR, "run", lossy)
    result = workloads.run_workload(small_workloads()["bt-timr-serial"], seed=3, seconds=0,
                                    trace=True)
    assert not result["correct"]
    assert result["artifact"]["problems"] == [
        "TiMR GenTrainData differs from custom_training_rows"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["failed_frac"]["value"] == 1.0
