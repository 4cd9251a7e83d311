"""Spill-to-disk log collection (scale kernel, DESIGN.md "Scale kernel").

The contract under test: a collector constructed with ``spill_threshold``
is observationally identical to the in-memory collector — same records in
the same order, same oracle-helper results — while holding at most a bounded window of records in memory.
"""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.mtlog.collector import LogCollector
from repro.mtlog.records import LogRecord
from repro.mtlog.spill import SpillingRecordStream
from repro.systems.base import run_workload
from tests.conftest import prepared


def _record(i, node="node1", level="info"):
    return LogRecord(
        time=float(i), node=node, component="comp.mod", level=level,
        template="event {} on {}", args=(str(i), node),
        location=("comp.mod", 10 + (i % 3)),
        exc="Boom: bad" if level == "error" else None,
    )


# ---------------------------------------------------------------------------
# record identity round-trips through JSONL
# ---------------------------------------------------------------------------
def test_record_round_trips_through_dict_including_lazy_message():
    original = _record(3, level="error")
    reloaded = LogRecord.from_dict(json.loads(json.dumps(original.to_dict())))
    assert reloaded == original
    assert hash(reloaded) == hash(original)
    # the rendered message is not serialized, but re-renders identically
    assert reloaded.message == original.message == "event 3 on node1"
    assert reloaded.signature() == original.signature()


# ---------------------------------------------------------------------------
# the stream itself
# ---------------------------------------------------------------------------
def test_stream_spills_and_replays_in_order(tmp_path):
    stream = SpillingRecordStream(10, str(tmp_path))
    records = [_record(i) for i in range(35)]
    for r in records:
        stream.append(r)
    # window bounded: every time it hits 10, the oldest 5 spill
    assert len(stream._window) < 10
    assert stream.spilled == 30
    assert len(stream) == 35
    assert list(stream) == records
    # random access spans both regions
    assert stream[0] == records[0]
    assert stream[17] == records[17]
    assert stream[-1] == records[-1]
    assert stream[5:25] == records[5:25]
    with pytest.raises(IndexError):
        stream[35]
    stats = stream.stats()
    assert stats["total"] == 35 and stats["spilled"] == 30
    assert stats["chunks"] == 6


def test_stream_rejects_degenerate_threshold():
    with pytest.raises(ValueError):
        SpillingRecordStream(1)


# ---------------------------------------------------------------------------
# collector in spill mode == collector in memory mode
# ---------------------------------------------------------------------------
def test_spilling_collector_matches_in_memory_collector(tmp_path):
    plain = LogCollector()
    spilling = LogCollector(spill_threshold=8, spill_dir=str(tmp_path))
    records = [_record(i, node=f"node{i % 3}",
                       level="error" if i % 7 == 0 else "info")
               for i in range(50)]
    for r in records:
        plain.collect(r)
        spilling.collect(r)
    assert spilling.records.spilled > 0, "the spill must actually engage"
    assert list(spilling.records) == list(plain.records) == records
    assert len(spilling) == len(plain) == 50
    # oracle helpers read through the spill transparently
    assert spilling.errors() == plain.errors()
    assert spilling.messages() == plain.messages()
    assert spilling.grep("event 13") == plain.grep("event 13")
    # per-node view: same nodes, same records on materialization
    assert sorted(spilling.by_node) == sorted(plain.by_node)
    for node in plain.by_node:
        assert spilling.by_node[node] == plain.by_node[node]
    with pytest.raises(KeyError):
        spilling.by_node["absent"]


def test_subscriber_isolation_unchanged_in_spill_mode(tmp_path):
    collector = LogCollector(spill_threshold=4, spill_dir=str(tmp_path))

    def bad(record):
        raise RuntimeError("tail fell over")

    good = []
    collector.subscribe(bad)
    collector.subscribe(good.append)
    for i in range(10):
        collector.collect(_record(i))
    assert len(good) == 10
    assert len(collector.subscriber_errors) == 10
    sub, rec, exc = collector.subscriber_errors[0]
    assert sub is bad and isinstance(exc, RuntimeError)


def test_default_collector_layout_is_unchanged():
    collector = LogCollector()
    assert type(collector.records) is list
    collector.collect(_record(0))
    assert collector.by_node["node1"] == [_record(0)]


# ---------------------------------------------------------------------------
# cluster wiring + a real workload behind the spill
# ---------------------------------------------------------------------------
def test_cluster_config_wires_the_spill(tmp_path):
    cluster = Cluster("c", seed=0, config={
        "log_spill_threshold": 32, "log_spill_dir": str(tmp_path),
    })
    assert isinstance(cluster.log_collector.records, SpillingRecordStream)
    assert type(Cluster("c2").log_collector.records) is list


def test_yarn_run_identical_with_and_without_spill(tmp_path):
    system, _analysis, _profile, _ = prepared("yarn")
    baseline = run_workload(system, seed=11)
    spilled = run_workload(system, seed=11, config={
        "log_spill_threshold": 16, "log_spill_dir": str(tmp_path),
    })
    assert spilled.log.records.spilled > 0, "the spill must actually engage"
    assert spilled.completed == baseline.completed
    assert spilled.succeeded == baseline.succeeded
    assert spilled.duration == baseline.duration
    assert list(spilled.log.records) == list(baseline.log.records)
    assert spilled.log.messages() == baseline.log.messages()
