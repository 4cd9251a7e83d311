"""Unit tests for tracked heap state and the access bus."""

from typing import Dict, List, Optional, Set

import pytest

from repro.cluster import (
    BUS,
    Cluster,
    FieldKey,
    Node,
    TrackedDict,
    tracked_dict,
    tracked_list,
    tracked_ref,
    tracked_set,
)
from repro.cluster.ids import NodeId
from repro.cluster.state import Interest


class Holder:
    name: Optional[str] = tracked_ref()
    peers: Dict[str, str] = tracked_dict()
    tags: Set[str] = tracked_set()
    items: List[str] = tracked_list()

    def __init__(self):
        self.name = None


@pytest.fixture(autouse=True)
def reset_bus():
    BUS.reset()
    yield
    BUS.reset()


def capture():
    events = []
    BUS.add_hook(events.append)
    return events


# ---------------------------------------------------------------------------
# scalar refs
# ---------------------------------------------------------------------------
def test_ref_roundtrip():
    h = Holder()
    h.name = "x"
    assert h.name == "x"


def test_ref_default_none():
    assert Holder().name is None


def test_ref_instances_independent():
    a, b = Holder(), Holder()
    a.name = "a"
    assert b.name is None


def test_ref_write_emits_after_store():
    h = Holder()
    seen = []

    def hook(event):
        # the raw storage is consulted, not the descriptor, to avoid
        # re-entrant read events; the value is already stored at emit time
        seen.append((event.op, getattr(h, "_tracked_name", None)))

    BUS.add_hook(hook)
    h.name = "fresh"
    assert ("write", "fresh") in seen


def test_ref_read_emits_before_load_and_reloads_after_hooks():
    h = Holder()
    h2 = Holder()
    BUS.reset()
    h.name = "stale"

    def hook(event):
        if event.op == "read":
            # a hook-triggered recovery rewrites the field...
            object.__setattr__(h, "_tracked_name", "recovered")

    BUS.add_hook(hook)
    # ...and the reader observes the post-hook value (pre-read semantics)
    assert h.name == "recovered"
    del h2


def test_events_carry_field_identity():
    h = Holder()
    events = capture()
    h.name = "v"
    assert events[-1].field.name == "name"
    assert events[-1].field.cls.endswith("Holder")


def test_events_carry_location_of_access_site():
    h = Holder()
    events = capture()
    h.name = "v"  # the access site is THIS line
    module, lineno = events[-1].location
    assert module == __name__
    assert lineno > 0


# ---------------------------------------------------------------------------
# tracked dict
# ---------------------------------------------------------------------------
def test_dict_put_get_remove():
    h = Holder()
    h.peers.put("a", "1")
    assert h.peers.get("a") == "1"
    assert h.peers.get("missing") is None
    assert h.peers.get("missing", "dflt") == "dflt"
    h.peers.remove("a")
    assert h.peers.get("a") is None


def test_dict_contains_values_is_empty_size():
    h = Holder()
    assert h.peers.is_empty()
    h.peers.put("a", "1")
    h.peers.put("b", "2")
    assert h.peers.contains("a")
    assert sorted(h.peers.values()) == ["1", "2"]
    assert h.peers.size() == 2
    assert len(h.peers) == 2
    h.peers.clear()
    assert h.peers.is_empty()


def test_dict_put_returns_old_value():
    h = Holder()
    assert h.peers.put("k", "1") is None
    assert h.peers.put("k", "2") == "1"


def test_dict_snapshot_is_untracked_copy():
    h = Holder()
    h.peers.put("a", "1")
    events = capture()
    snap = h.peers.snapshot()
    assert snap == {"a": "1"}
    assert events == []  # snapshot is not an access point
    snap["b"] = "2"
    assert not h.peers.contains("b")


def test_dict_ops_emit_table3_method_names():
    h = Holder()
    events = capture()
    h.peers.put("k", "v")
    h.peers.get("k")
    h.peers.contains("k")
    h.peers.values()
    h.peers.is_empty()
    h.peers.remove("k")
    h.peers.clear()
    assert [(e.op, e.method) for e in events] == [
        ("write", "put"), ("read", "get"), ("read", "contains"),
        ("read", "values"), ("read", "is_empty"),
        ("write", "remove"), ("write", "clear"),
    ]


def test_dict_size_is_not_an_access_point():
    h = Holder()
    events = capture()
    h.peers.size()
    assert events == []


def test_dict_get_emits_key_and_current_mapping():
    h = Holder()
    h.peers.put("k", "v")
    events = capture()
    h.peers.get("k")
    assert events[-1].values == ("k", "v")


def test_dict_read_reloads_after_hooks():
    h = Holder()
    h.peers.put("k", "old")

    def hook(event):
        if event.method == "get":
            h.peers._data.pop("k", None)  # recovery removes the entry

    BUS.add_hook(hook)
    assert h.peers.get("k") is None  # the read observes the removal


def test_collection_field_cannot_be_reassigned():
    h = Holder()
    with pytest.raises(TypeError):
        h.peers = {}


def test_collection_instances_independent():
    a, b = Holder(), Holder()
    a.peers.put("x", "1")
    assert b.peers.is_empty()


# ---------------------------------------------------------------------------
# tracked set / list
# ---------------------------------------------------------------------------
def test_set_ops():
    h = Holder()
    h.tags.add("a")
    assert h.tags.contains("a")
    assert not h.tags.is_empty()
    assert h.tags.values() == ["a"]
    assert h.tags.remove("a")
    assert not h.tags.remove("a")  # already gone
    h.tags.add("b")
    h.tags.clear()
    assert h.tags.size() == 0


def test_list_ops():
    h = Holder()
    h.items.add("a")
    h.items.add("b")
    assert h.items.get(0) == "a"
    assert h.items.contains("b")
    assert h.items.values() == ["a", "b"]
    assert h.items.remove("a")
    assert not h.items.remove("zz")
    assert not h.items.is_empty()
    h.items.clear()
    assert h.items.size() == 0


def test_values_stringified_and_none_filtered():
    h = Holder()
    events = capture()
    h.peers.put(NodeId("node1", 42349), None)
    assert events[-1].values == ("node1:42349",)


# ---------------------------------------------------------------------------
# the bus
# ---------------------------------------------------------------------------
def test_bus_disabled_when_no_hooks():
    assert not BUS.enabled
    h = Holder()
    h.name = "quiet"  # must not raise or record anything


def test_bus_hook_removal_disables():
    events = capture()
    BUS.remove_hook(events.append)
    assert not BUS.enabled


def test_stack_capture_off_by_default():
    h = Holder()
    events = capture()
    h.name = "v"
    assert events[-1].stack == ()


def test_stack_capture_bounded_and_innermost_first():
    h = Holder()
    events = capture()
    BUS.capture_stacks = True

    def inner():
        h.name = "deep"

    def outer():
        inner()

    outer()
    stack = events[-1].stack
    assert 0 < len(stack) <= BUS.STACK_DEPTH
    assert "inner" in stack[0]
    assert "outer" in stack[1]
    assert all(":" in frame for frame in stack)  # every frame carries a line


def test_node_attribution_inside_cluster():
    class StatefulNode(Node):
        role = "w"
        exception_policy = "log"
        data: Dict[str, str] = tracked_dict()

        def on_store(self, src, k, v):
            self.data.put(k, v)

    c = Cluster("t")
    with c:
        a = StatefulNode(c, "a")
        b = StatefulNode(c, "b")
        c.start_all()
        events = capture()
        a.send("b", "store", k="k", v="v")
        c.run()
    writers = [e.node for e in events if e.method == "put"]
    assert writers == ["b"]


# ---------------------------------------------------------------------------
# taps: hooks subscribe to what they can match
# ---------------------------------------------------------------------------
HOLDER = f"{Holder.__module__}.{Holder.__qualname__}"


def _tap_state(name, owner=HOLDER):
    tap = BUS.tap(FieldKey(owner, name))
    return tap.read, tap.write


def test_hook_with_interest_sees_only_its_fields_and_sites():
    h = Holder()
    h.peers.put("k", "v")

    def write_name(value):
        h.name = value

    site = (__name__, write_name.__code__.co_firstlineno + 1)
    seen = []
    BUS.add_hook(seen.append, Interest()
                 .add(HOLDER, "name", "write", site)
                 .add(HOLDER, "peers", "read"))
    assert _tap_state("name") == (False, True)
    assert _tap_state("peers") == (True, False)
    assert _tap_state("tags") == (False, False)
    write_name("subscribed site")
    h.name = "same field and op, another site"
    assert h.name == "same field and op, another site"  # read: not subscribed
    h.peers.put("k", "w")  # write: not subscribed
    h.peers.get("k")  # reads match at any site
    h.tags.add("t")
    assert [(e.field.name, e.op, e.method) for e in seen] == [
        ("name", "write", "putfield"), ("peers", "read", "get")]
    assert seen[0].location == site
    # a wildcard hook opens everything, but each hook still gets only
    # what its own interest admits
    everything = capture()
    h.name = "other site"
    write_name("subscribed site")
    assert len(seen) == 3 and seen[-1].location == site
    assert [e.field.name for e in everything] == ["name", "name"]


def test_two_hooks_get_the_union_and_removing_one_restores_the_other():
    first, second = [], []
    BUS.add_hook(first.append, Interest().add(HOLDER, "name", "write", ("m", 1)))
    BUS.add_hook(second.append, Interest()
                 .add(HOLDER, "name", "write", ("m", 2))
                 .add(HOLDER, "peers", "read"))
    name = BUS.tap(FieldKey(HOLDER, "name"))
    assert name.sites == {"write": {("m", 1), ("m", 2)}}
    assert _tap_state("peers") == (True, False)
    BUS.remove_hook(second.append)
    assert name.sites == {"write": {("m", 1)}}
    assert _tap_state("peers") == (False, False)
    # an any-site subscription absorbs the other hook's site set
    BUS.add_hook(second.append, Interest().add(HOLDER, "name", "write"))
    assert name.sites == {"write": None}
    BUS.remove_hook(second.append)
    assert name.sites == {"write": {("m", 1)}}
    BUS.remove_hook(first.append)
    assert _tap_state("name") == (False, False) and name.sites == {}
    assert not BUS.enabled


def test_wildcard_hook_opens_every_tap_and_reset_closes_them():
    Holder().peers.put("k", "v")
    BUS.add_hook(lambda event: None)
    taps = list(BUS._taps.values())
    assert len(taps) >= 4
    assert all(tap.read and tap.write for tap in taps)
    assert all(tap.sites == {"read": None, "write": None} for tap in taps)
    BUS.reset()
    assert not any(tap.read or tap.write or tap.sites for tap in taps)
    assert not BUS.enabled


def test_class_declared_while_armed_gets_its_tap_state():
    owner = f"{__name__}.test_class_declared_while_armed_gets_its_tap_state.<locals>.Late"
    seen = []
    BUS.add_hook(seen.append, Interest().add(owner, "ref", "read"))

    class Late:
        ref = tracked_ref("initial")
        other = tracked_dict()

    assert _tap_state("ref", owner) == (True, False)
    assert _tap_state("other", owner) == (False, False)
    late = Late()
    assert late.ref == "initial"
    late.ref = "written"
    late.other.put("k", "v")
    assert [(e.field.name, e.op, e.values) for e in seen] == [("ref", "read", ("initial",))]


def test_container_built_while_armed_gets_its_tap_state():
    key = FieldKey(f"{__name__}.Unseen", "data")
    seen = []
    BUS.add_hook(seen.append, Interest().add(key.cls, key.name, "write"))
    fresh = TrackedDict(key)
    fresh.put("k", "v")
    assert fresh.get("k") == "v"
    assert [(e.op, e.method) for e in seen] == [("write", "put")]
    BUS.reset()
    fresh.put("k", "w")
    assert len(seen) == 1


class _CountingDict(dict):
    gets = 0

    def get(self, *args):
        _CountingDict.gets += 1
        return super().get(*args)


def test_no_hook_means_no_emit_and_no_emit_arguments(monkeypatch):
    h = Holder()
    calls = []
    monkeypatch.setattr(BUS, "emit", lambda *args: calls.append(args))
    h.peers._data = _CountingDict()
    _CountingDict.gets = 0
    h.peers.put("k", "v")
    assert h.peers.get("k") == "v"
    h.name = "x"
    assert h.name == "x"
    assert calls == []
    # put reads the old value once; get reads once for its caller and
    # never for an emit that is not going to happen
    assert _CountingDict.gets == 2
    # positive control: an armed hook does reach emit, with the mapping
    BUS.add_hook(lambda event: None)
    h.peers.get("k")
    assert _CountingDict.gets == 4
    assert [args[1:3] for args in calls] == [("read", "get")]
    assert calls[0][3] == ("k", "v")
