"""Scale-store contracts: memoized host filter, sharded value map.

Three guarantees from the scale kernel (DESIGN.md "Scale kernel"):

* the per-store memoized host filter is invisible — a real workload run
  feeds a memoized store and an uncached reference store byte-identical
  contents (the satellite regression pin);
* :class:`HostMatcher` implements exactly the `host_in_value` decision
  procedure, prefilter and compiled patterns notwithstanding (property
  test against a naive reimplementation);
* the sharded ``value_node`` map resolves every query identically to the
  flat dict store under arbitrary process/query interleavings (property
  test), and the auto-shard migration never changes observable contents.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.meta_graph import HostMatcher, host_in_value
from repro.core.injection.online_log import OnlineLogAgent, OnlineMetaStore
from repro.core.injection.sharded_map import ShardedValueMap
from repro.systems.base import run_workload
from tests.conftest import prepared


def _naive_host_in_value(value, hosts):
    # the pre-scale-kernel reference implementation, verbatim semantics
    bare_match = None
    for host in hosts:
        escaped = re.escape(host)
        if re.search(rf"(?<![A-Za-z0-9]){escaped}:\d+", value):
            return host
        if bare_match is None and re.search(
            rf"(?<![A-Za-z0-9]){escaped}(?![A-Za-z0-9])", value
        ):
            bare_match = host
    return bare_match


class _UncachedStore(OnlineMetaStore):
    """Reference store: no memo, no compiled matcher, no sharding."""

    SHARD_THRESHOLD = 10**9

    def _host_for(self, value):
        return _naive_host_in_value(value, self.hosts)


def _contents_bytes(store):
    return json.dumps(
        {"node_set": sorted(store.node_set),
         "value_node": dict(sorted(dict(store.value_node).items()))},
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# satellite regression: memoized == uncached on a real run, byte for byte
# ---------------------------------------------------------------------------
def test_memoized_store_byte_identical_to_uncached_on_real_yarn_run():
    system, analysis, profile, _ = prepared("yarn")
    memoized = OnlineMetaStore(analysis.hosts)
    reference = _UncachedStore(analysis.hosts)
    agents = [
        OnlineLogAgent(analysis.index, analysis.log_result.meta_slots, memoized),
        OnlineLogAgent(analysis.index, analysis.log_result.meta_slots, reference),
    ]

    def before_run(cluster, workload):
        for agent in agents:
            agent.attach(cluster.log_collector)

    run_workload(system, seed=7, before_run=before_run)
    assert memoized.size() > 0, "the run must actually exercise the store"
    assert _contents_bytes(memoized) == _contents_bytes(reference)
    # the memo actually engaged, and resolves every seen value identically
    assert memoized._host_cache
    for value in list(memoized.value_node) + sorted(memoized.node_set):
        assert memoized.query(value) == reference.query(value)


# ---------------------------------------------------------------------------
# HostMatcher == naive host_in_value, any hosts, any value
# ---------------------------------------------------------------------------
_hosts_st = st.lists(
    st.sampled_from(
        ["node1", "node2", "node10", "rm", "nn", "zk1", "node-a",
         "10.0.0.1", "host_x", "n"]
    ),
    min_size=1, max_size=6, unique=True,
)
_value_st = st.lists(
    st.sampled_from(
        ["node1", "node2", "node10", "rm", "n", ":8031", ":", " ", "[", "]",
         "-", "_", ".", "10.0.0.1", "x", "1", "host_x", "node-a"]
    ),
    min_size=0, max_size=8,
).map("".join)


@given(_hosts_st, _value_st)
@settings(max_examples=300, deadline=None)
def test_host_matcher_equals_naive_reference(hosts, value):
    assert HostMatcher(hosts)(value) == _naive_host_in_value(value, hosts)
    assert host_in_value(value, hosts) == _naive_host_in_value(value, hosts)


def test_host_matcher_port_form_beats_bare_and_respects_order():
    hosts = ["node2", "node1"]
    # node1 has the port form, node2 only the bare form: port wins even
    # though node2 comes first in configuration order
    assert HostMatcher(hosts)("node2 spoke to node1:8031") == "node1"
    # two bare forms: configuration order wins
    assert HostMatcher(hosts)("node1 and node2") == "node2"
    # word boundaries: node1 must not match inside node10
    assert HostMatcher(["node1"])("node10:42349") is None


# ---------------------------------------------------------------------------
# sharded == flat under arbitrary process/query interleavings
# ---------------------------------------------------------------------------
_HOSTS = ["node1", "node2", "node3", "rm"]
_values_st = st.lists(
    st.one_of(
        st.sampled_from(
            ["node1:8031", "node2:8031", "node3", "rm", "app_01", "app_02",
             "container_7", "  node1:8031  ", "", "attempt_9", "zz"]
        ),
        st.text(min_size=0, max_size=6),
    ),
    min_size=0, max_size=4,
)
_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("process"), _values_st),
        st.tuples(st.just("query"), st.sampled_from(
            ["node1:8031", "app_01", "container_7", "missing", "rm"]
        )),
    ),
    min_size=0, max_size=30,
)


@given(_ops_st)
@settings(max_examples=200, deadline=None)
def test_sharded_store_resolves_identically_to_flat(monkeypatch_ops):
    flat = OnlineMetaStore(_HOSTS)
    sharded = OnlineMetaStore(_HOSTS)
    sharded.value_node = ShardedValueMap(n_shards=8)
    for op, payload in monkeypatch_ops:
        if op == "process":
            flat.process(payload)
            sharded.process(payload)
        else:
            assert flat.query(payload) == sharded.query(payload)
    assert dict(flat.value_node) == dict(sharded.value_node)
    assert flat.node_set == sharded.node_set
    assert flat.size() == sharded.size()
    for value in dict(flat.value_node):
        assert flat.query(value) == sharded.query(value)


# ---------------------------------------------------------------------------
# the sharded map itself, and the auto-shard migration
# ---------------------------------------------------------------------------
def test_sharded_map_is_a_faithful_mutable_mapping():
    m = ShardedValueMap(n_shards=4)
    m["a"] = "node1"
    m["b"] = "node2"
    assert m["a"] == "node1" and "b" in m and "c" not in m
    assert m.get("c") is None and m.get("c", "x") == "x"
    assert m.setdefault("a", "zz") == "node1"  # existing key sticks
    assert m.setdefault("c", "node3") == "node3"
    assert len(m) == 3
    assert sorted(m) == ["a", "b", "c"]
    assert dict(m) == {"a": "node1", "b": "node2", "c": "node3"}
    assert m == {"a": "node1", "b": "node2", "c": "node3"}  # content eq
    del m["b"]
    assert len(m) == 2 and "b" not in m
    assert sum(m.shard_sizes().values()) == 2
    with pytest.raises(ValueError):
        ShardedValueMap(n_shards=3)
    round_trip = ShardedValueMap.from_flat(dict(m), n_shards=2)
    assert round_trip == m


def test_store_migrates_to_sharded_past_threshold(monkeypatch):
    monkeypatch.setattr(OnlineMetaStore, "SHARD_THRESHOLD", 8)
    store = OnlineMetaStore(_HOSTS)
    for i in range(20):
        store.process([f"value_{i}", "node1:8031"])
    assert isinstance(store.value_node, ShardedValueMap)
    assert store.query("value_3") == "node1"
    assert store.size() == 21  # 20 values + the node value itself
    # the contents read out as a flat dict whatever the live representation
    flat = dict(store.value_node)
    assert type(flat) is dict and len(flat) == 21
    assert flat["value_3"] == "node1"
