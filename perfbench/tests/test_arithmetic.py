"""The benchmark's own arithmetic: percentiles, spans, forgotten
detection, arrival lateness and the independent checks."""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import live_workloads
from spans import Tracer
from stats import (
    MIN_BEYOND,
    TooFewSamples,
    beyond,
    layer_percentile,
    percentile,
    rank,
    spread,
)

ROOT = Path(__file__).resolve().parents[2]


# -- nearest-rank percentiles ---------------------------------------------------


def test_rank_is_nearest_rank():
    assert rank(0.5, 10) == 5
    assert rank(0.5, 11) == 6
    assert rank(0.95, 200) == 190
    assert rank(0.9, 100) == 90
    assert rank(1.0, 7) == 7


def test_percentile_returns_a_measured_sample():
    samples = [float(value) for value in range(1, 201)]
    assert percentile(samples, 0.5) == 100.0
    assert percentile(samples, 0.95) == 190.0
    assert percentile(list(reversed(samples)), 0.95) == 190.0


def test_median_of_few_samples_is_reported():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_tail_needs_ten_samples_beyond_it():
    # p95 of 200 samples has exactly ten beyond it: reported.
    assert beyond(0.95, 200) == MIN_BEYOND
    percentile([1.0] * 200, 0.95)
    # One sample fewer and the p95 is no longer a tail.
    assert beyond(0.95, 199) < MIN_BEYOND
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 199, 0.95)
    with pytest.raises(TooFewSamples):
        percentile([], 0.5)


def test_layer_percentile_reads_zero_without_a_tail():
    assert layer_percentile([], 0.5) == 0.0
    assert layer_percentile([1.0] * 20, 0.95) == 0.0
    assert layer_percentile([2.0] * 20, 0.5) == 2.0


def test_spread_matches_statistics_quantiles():
    q1, median, q3, share = spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert (q1, median, q3) == (10.5, 12.0, 13.5)
    assert share == pytest.approx(3.0 / 12.0)


# -- spans ------------------------------------------------------------------------


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert outer.child == pytest.approx(inner.duration)
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert inner.within("outer") and not outer.within("inner")


def test_wrap_records_and_unwrap_restores():
    class Box:
        def double(self, value):
            return 2 * value

        @classmethod
        def make(cls):
            return cls()

    original = Box.__dict__["double"]
    tracer = Tracer()
    tracer.wrap(Box, "double", "box.double", lambda result, *_: result)
    tracer.wrap(Box, "make", "box.make")
    assert Box.make().double(4) == 8
    assert [span.name for span in tracer.spans] == ["box.make", "box.double"]
    assert tracer.spans[1].value == 8
    tracer.unwrap_all()
    assert Box.__dict__["double"] is original
    assert isinstance(Box.__dict__["make"], classmethod)


def test_discarded_drops_only_the_spans_recorded_inside():
    tracer = Tracer()
    tracer.close(tracer.open("kept"))
    with tracer.discarded():
        tracer.close(tracer.open("set-up"))
    tracer.close(tracer.open("also kept"))
    assert [span.name for span in tracer.spans] == ["kept", "also kept"]


def test_spans_are_dumped_with_parent_index(tmp_path):
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.close(tracer.open("inner"))
    tracer.close(outer)
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["inner", "outer"]
    assert rows[0]["parent"] == 1 and rows[1]["parent"] is None


# -- arrival lateness -------------------------------------------------------------


def test_arrival_lateness_is_start_minus_scheduled_arrival():
    sim = SimpleNamespace(now=105.0, time_scale=0.01)
    txn = SimpleNamespace(submit_at=100.0)
    # Five virtual units at 10 ms a unit: 50 ms late.
    assert layers._lateness_ms(None, sim, {}, txn) == pytest.approx(50.0)


def test_stretch_pins_the_offered_rate():
    txns = [make_txn(f"t{i}", ["a"]) for i in range(3)]
    for txn, at in zip(txns, (3.0, 7.0, 12.0)):
        txn.submit_at = at
    stretched = live_workloads.stretch(txns, start=50.0, span=1000.0)
    assert [txn.submit_at for txn in stretched] == pytest.approx(
        [50.0 + 250.0, 50.0 + 7000.0 / 12.0, 1050.0]
    )


# -- forgotten detection ------------------------------------------------------------


class FakeSite:
    def __init__(self) -> None:
        self.is_up = True
        self.retained: set[str] = set()
        self.logged: set[str] = set()
        self.log = SimpleNamespace(stable_record_count=0)

    def flush_and_gc(self) -> int:
        return 0

    def retained_transactions(self) -> set[str]:
        return set(self.retained)

    def uncollected_log_transactions(self) -> set[str]:
        return set(self.logged)


class FakeTrace:
    def __init__(self) -> None:
        self.subscribers = []

    def subscribe(self, callback) -> None:
        self.subscribers.append(callback)

    def decide(self, txn: str, decision: str) -> None:
        event = SimpleNamespace(
            category="protocol", name="decide", details={"txn": txn, "decision": decision}
        )
        for callback in self.subscribers:
            callback(event)


def fake_cluster(*sites: FakeSite):
    trace = FakeTrace()
    sim = SimpleNamespace(now=0.0, trace=trace)
    return SimpleNamespace(
        sim=sim, sites={f"s{i}": site for i, site in enumerate(sites)}
    ), trace


def test_forgotten_needs_decision_and_no_site_holding_it():
    a, b = FakeSite(), FakeSite()
    cluster, trace = fake_cluster(a, b)
    sweeper = live_workloads.Sweeper(cluster, every_s=0.1, traced=False)
    a.retained.add("t1")
    b.logged.add("t2")
    cluster.sim.now = 1.0
    sweeper.sweep()
    # Undecided transactions are never forgotten, held or not.
    assert sweeper.forgotten_at == {}
    trace.decide("t1", "commit")
    trace.decide("t2", "abort")
    trace.decide("t3", "commit")
    cluster.sim.now = 2.0
    sweeper.sweep()
    assert sweeper.forgotten_at == {"t3": 2.0}
    a.retained.clear()
    cluster.sim.now = 3.0
    sweeper.sweep()
    assert sweeper.forgotten_at == {"t3": 2.0, "t1": 3.0}
    b.logged.clear()
    cluster.sim.now = 4.0
    sweeper.sweep()
    assert sweeper.forgotten_at["t2"] == 4.0
    assert sweeper.sweeps == 4


def test_down_sites_do_not_hold_transactions():
    up, down = FakeSite(), FakeSite()
    down.is_up = False
    down.retained.add("t1")
    cluster, trace = fake_cluster(up, down)
    sweeper = live_workloads.Sweeper(cluster, every_s=0.1, traced=False)
    trace.decide("t1", "commit")
    sweeper.sweep()
    assert "t1" in sweeper.forgotten_at


def test_until_forgotten_times_out():
    cluster, _ = fake_cluster(FakeSite())
    sweeper = live_workloads.Sweeper(cluster, every_s=0.01, traced=False)
    assert asyncio.run(sweeper.until_forgotten(["never"], limit_s=0.05)) is False
    sweeper.forgotten_at["done"] = 1.0
    assert asyncio.run(sweeper.until_forgotten(["done"], limit_s=0.05)) is True


# -- the independent checks -----------------------------------------------------------


def make_txn(txn_id: str, sites: list[str], abort: bool = False):
    from repro.mdbs.transaction import GlobalTransaction, WriteOp

    return GlobalTransaction(
        txn_id=txn_id,
        coordinator="tm",
        writes={site: [WriteOp(key=f"{txn_id}@{site}", value=txn_id)] for site in sites},
        force_no_vote_at=frozenset({sites[0]}) if abort else frozenset(),
    )


def test_check_accepts_a_clean_run():
    txns = [make_txn("t1", ["a", "b"]), make_txn("t2", ["a"], abort=True)]
    outcomes = {"t1": "commit", "t2": "abort"}
    stores = {"a": {"t1@a": "t1"}, "b": {"t1@b": "t1"}}
    failed, problems = live_workloads.check(
        txns, outcomes, {"t1", "t2"}, stores, {"a": [], "b": []}
    )
    assert failed == set() and problems == []


def test_check_attributes_each_fault_to_its_transaction():
    txns = [
        make_txn("t1", ["a"]),
        make_txn("t2", ["a"], abort=True),
        make_txn("t3", ["b"]),
        make_txn("t4", ["b"]),
        make_txn("t5", ["a"]),
    ]
    outcomes = {"t1": "commit", "t2": "commit", "t3": "commit", "t5": "commit"}
    stores = {
        # t2 committed against its forced no; t5's write is missing.
        "a": {"t1@a": "t1", "t2@a": "t2"},
        # t4 never decided; a key no transaction wrote.
        "b": {"t3@b": "t3", "stray": "nobody"},
    }
    forgotten = {"t1", "t2", "t5"}  # t3 was never forgotten
    wal = {"a": ["t1"], "b": []}  # t1 left a record behind
    failed, problems = live_workloads.check(txns, outcomes, forgotten, stores, wal)
    assert failed == {"t1", "t2", "t3", "t4", "t5"}
    assert problems == ["b: unexpected store key 'stray'"]


def test_read_disk_parses_store_and_wal(tmp_path):
    site = tmp_path / "a"
    site.mkdir()
    (site / "store.json").write_text(json.dumps({"t1@a": "t1"}))
    (site / "wal.jsonl").write_text(
        json.dumps({"type": "update", "txn": "t9", "payload": {}, "lsn": 1}) + "\n"
    )
    stores, wal = live_workloads.read_disk(tmp_path, ["a", "b"])
    assert stores == {"a": {"t1@a": "t1"}, "b": {}}
    assert wal == {"a": ["t9"], "b": []}


# -- configuration ----------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    import run

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in config["end_to_end"]}
    assert declared == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]}
    assert per_layer == layers.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
