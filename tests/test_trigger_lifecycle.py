"""The trigger's access-bus lifecycle: one point, one fire, then off the bus.

A :class:`~repro.core.injection.trigger.Trigger` arms one dynamic crash
point, and each point fires at most once per run.  While armed, its hook
subscribes to that point alone, so only the point's field tap is open.
Right after it fires, the trigger takes its hook off the global bus, every
tap closes, and the rest of the run pays nothing per tracked access.
``uninstall()`` stays the public teardown, called once per run by the
campaign driver, and is a no-op when the hook is already off.

The unfiltered behaviour (every access reaches the hooks for the whole
run) lives on only as a reference here: with the trigger's subscription
dropped and a no-op wildcard hook installed alongside it, every tap stays
open and the bus keeps capturing after the fire, and outcomes must not
change.
"""

import pytest

from repro.bugs import matcher_for_system
from repro.cluster.state import BUS, AccessBus
from repro.core.injection import CampaignConfig, run_one_injection
from repro.core.injection.trigger import Trigger
from tests.conftest import find_dpoints, prepared


def _run(system_name, dpoint):
    system, analysis, _, baseline = prepared(system_name)
    return run_one_injection(
        system, analysis, dpoint, baseline, campaign=CampaignConfig(),
        matcher=matcher_for_system(system_name),
    )


def _fingerprint(outcome):
    data = outcome.to_dict()
    data.pop("wall_seconds")
    return data


def _commit_attempts_post_write():
    """The yarn point whose hang-reclassification rerun is the longest run."""
    _, _, profile, _ = prepared("yarn")
    dpoints = find_dpoints(profile, "on_commit_pending",
                           field="commit_attempts", op="write")
    assert dpoints, "yarn must profile the commit_attempts post-write"
    return dpoints[0]


def _open_taps():
    return {(tap.key.cls, tap.key.name, op)
            for tap in BUS._taps.values() for op in ("read", "write")
            if getattr(tap, op)}


def test_fired_trigger_is_off_the_bus_for_the_rest_of_the_run(monkeypatch):
    seen = {}
    fire = Trigger.fire
    uninstall = Trigger.uninstall

    def observed_fire(trigger, event):
        # while armed, the trigger's one point is the only open tap
        seen["armed_taps"] = _open_taps()
        fire(trigger, event)
        loop = trigger.center.cluster.loop

        def after_fire():
            # the first event the outer loop dispatches after the firing
            # access returned: the hook must already be gone, every tap shut
            seen.setdefault("after_fire", (
                any(hook == trigger._hook for hook, _ in BUS._hooks),
                BUS.enabled, BUS.capture_stacks, _open_taps()))

        loop.schedule(0.0, after_fire)

    def observed_uninstall(trigger):
        hooks = list(BUS._hooks)
        seen["uninstall_calls"] = seen.get("uninstall_calls", 0) + 1
        uninstall(trigger)
        # idempotent: the hook already came off at fire
        assert BUS._hooks == hooks
        uninstall(trigger)
        assert BUS._hooks == hooks

    monkeypatch.setattr(Trigger, "fire", observed_fire)
    monkeypatch.setattr(Trigger, "uninstall", observed_uninstall)
    outcome = _run("yarn", _commit_attempts_post_write())
    assert outcome.fired
    point = _commit_attempts_post_write().point
    assert seen["armed_taps"] == {(point.field_cls, point.field_name, point.op)}
    assert seen["after_fire"] == (False, False, False, set())
    # the campaign driver still calls the public teardown once per drive:
    # the first drive plus its hang-reclassification rerun
    assert "hang" in outcome.verdict.kinds() or outcome.verdict.timeout_issue
    assert seen["uninstall_calls"] == 2
    assert not BUS.enabled and not BUS.capture_stacks


def _with_reference_hook(monkeypatch):
    """Every access reaches every hook, armed or fired, as before taps.

    A no-op wildcard hook keeps every tap open and the bus capturing after
    the fire, and the trigger's own subscription is dropped, so its hook
    sees every access until it fires.
    """
    install, uninstall = Trigger.install, Trigger.uninstall
    add_hook = AccessBus.add_hook
    monkeypatch.setattr(AccessBus, "add_hook",
                        lambda bus, hook, interest=None: add_hook(bus, hook))
    hooks = {}
    emits = {"after_fire": 0}

    def armed_install(trigger):
        install(trigger)

        def keep_capturing(_event):
            emits["after_fire"] += trigger.fired

        hooks[id(trigger)] = keep_capturing
        BUS.add_hook(keep_capturing)

    def armed_uninstall(trigger):
        BUS.remove_hook(hooks.pop(id(trigger)))
        uninstall(trigger)

    monkeypatch.setattr(Trigger, "install", armed_install)
    monkeypatch.setattr(Trigger, "uninstall", armed_uninstall)
    return emits


def _hbase_point():
    _, _, profile, _ = prepared("hbase")
    return profile.dynamic_points[0]


@pytest.mark.parametrize("system_name, point", [
    ("yarn", _commit_attempts_post_write),
    ("hbase", _hbase_point),
])
def test_outcome_identical_with_bus_kept_capturing(monkeypatch, system_name, point):
    dpoint = point()
    lean = _run(system_name, dpoint)
    with monkeypatch.context() as patch:
        emits = _with_reference_hook(patch)
        reference = _run(system_name, dpoint)
    assert lean.fired and reference.fired
    # the reference really kept the bus capturing past the fire
    assert emits["after_fire"] > 0
    assert _fingerprint(reference) == _fingerprint(lean)
