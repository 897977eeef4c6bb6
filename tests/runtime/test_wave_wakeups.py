"""GroupApply waves advance only the chains that can change.

A watermark wave advances a chain only when it was fed since its last
advance or one of its operators has a wakeup at or below the wave's
watermark; every other active chain's watermark is provably frozen
(docs/EXECUTION.md, "Wakeups"). These tests pin the two halves of that
claim on the paper's BotElim CQ over a live feed:

* identity — every push emits the same events, and leaves the same
  ``output_watermark``, as an exhaustive reference in which every active
  chain is due at every wave (obtained by patching the chains' due
  check, not through any product knob);
* cost — the number of real chain advances (ones that reach operator
  calls) stays at a small constant per push instead of growing with the
  number of live users.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bt import BTConfig
from repro.bt.queries import bot_elimination_query
from repro.data import GeneratorConfig, generate
from repro.obs import Tracer
from repro.runtime import RunContext
from repro.runtime import dataflow
from repro.temporal import Query
from repro.temporal.streaming import StreamingEngine
from repro.temporal.time import MAX_TIME, MIN_TIME

from ..temporal.test_differential_runtime import _group_portfolio, ordered_bytes
from ..temporal.test_streaming import _plan_portfolio, histories

CHAIN_KINDS = (dataflow._LinearChain, dataflow._GroupChain)


def _always_due(monkeypatch):
    """The exhaustive reference: every active chain is due every wave."""
    for kind in CHAIN_KINDS:
        monkeypatch.setattr(kind, "next_wakeup", lambda self, w: MIN_TIME)


def _per_push(query, rows):
    """``(emitted bytes, output_watermark)`` after every push and the
    flush of one streaming run.

    Also checks the watermark contract itself, which the reference run
    shares with the run under test: nothing emitted after a push may
    precede the output watermark announced before it.
    """
    engine = StreamingEngine(query)
    trace = []
    promised = engine.output_watermark
    for row in rows + [None]:
        out = engine.flush() if row is None else engine.push("logs", row)
        assert all(e.le >= promised for e in out)
        promised = engine.output_watermark
        trace.append((ordered_bytes(out), promised))
    return trace


def _botelim():
    return bot_elimination_query(Query.source("logs"), BTConfig())


@pytest.fixture(scope="module")
def feed_rows():
    rows = generate(GeneratorConfig(num_users=300, duration_days=1, seed=42)).rows
    rows.sort(key=lambda r: r["Time"])
    return rows


def test_botelim_per_push_identity(feed_rows, monkeypatch):
    rows = feed_rows[:1500]
    woken = _per_push(_botelim(), rows)
    with monkeypatch.context() as m:
        _always_due(m)
        exhaustive = _per_push(_botelim(), rows)
    assert woken == exhaustive
    # the prefix reaches the bots: some pushed events are eliminated
    emitted = sum(len(json.loads(out)) for out, _ in woken)
    assert emitted < len(rows)


@settings(max_examples=60, deadline=None)
@given(histories(), st.data())
def test_portfolio_per_push_identity(rows, data):
    plans = _plan_portfolio() + _group_portfolio()
    idx = data.draw(st.integers(min_value=0, max_value=len(plans) - 1))
    woken = _per_push(plans[idx], rows)
    with pytest.MonkeyPatch.context() as m:
        _always_due(m)
        exhaustive = _per_push(plans[idx], rows)
    assert woken == exhaustive


def test_held_binary_input_keeps_chain_due(monkeypatch):
    """A union holding left input back until the right side's watermark
    rises emits while its chain's watermark stays frozen by the count:
    such a chain must stay due (a shrunk counterexample to skipping it)."""
    query = Query.source("logs").group_apply(
        "UserId",
        lambda g: g.where(lambda p: p["StreamId"] == 1)
        .window(10)
        .count(into="n")
        .shift(5)
        .union(g.where(lambda p: p["StreamId"] == 0)),
    )
    rows = [
        {"Time": t, "StreamId": s, "UserId": u}
        for t, s, u in [
            (5, 1, "b"), (13, 1, "b"), (16, 1, "b"),
            (19, 1, "c"), (20, 0, "c"), (21, 1, "c"),
        ]
    ]
    woken = _per_push(query, rows)
    with monkeypatch.context() as m:
        _always_due(m)
        exhaustive = _per_push(query, rows)
    assert woken == exhaustive


def _count_real_advances(monkeypatch):
    """Patch both chain kinds to count advances that reach operators:
    flushes and quiescent early returns are not counted."""
    counter = {"n": 0}
    for kind in CHAIN_KINDS:
        original = kind.advance

        def advance(self, watermark, _original=original):
            if watermark < MAX_TIME and self.idle_delta is None:
                counter["n"] += 1
            return _original(self, watermark)

        monkeypatch.setattr(kind, "advance", advance)
    return counter


def test_botelim_feed_advances_at_most_three_chains_per_push(
    feed_rows, monkeypatch
):
    counter = _count_real_advances(monkeypatch)
    engine = StreamingEngine(_botelim())
    for row in feed_rows:
        engine.push("logs", row)
    assert counter["n"] <= 3 * len(feed_rows)


def test_chains_advanced_histogram_counts_due_chains(feed_rows):
    tracer = Tracer()
    engine = StreamingEngine(_botelim(), context=RunContext(tracer=tracer))
    rows = feed_rows[:1500]
    for row in rows:
        engine.push("logs", row)
    hists = {
        m["name"]: m["value"]
        for m in tracer.metrics.snapshot(deterministic_only=True)
        if m["kind"] == "histogram"
    }
    width = hists["dataflow.wave_width"]
    advanced = hists["dataflow.chains_advanced"]
    assert width["count"] == advanced["count"] == len(rows)
    assert advanced["sum"] <= 3 * len(rows) < width["sum"]
