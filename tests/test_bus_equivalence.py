"""The profiler's bus subscription changes nothing it records.

``profile_system`` subscribes its hook to the analysis's static crash
points, so only their field taps open and only accesses at their sites
(any site, for promoted points) walk the stack.  The reference run
installs a no-op wildcard hook, which opens every tap and makes every
access build a full event, and drops the profiler's own subscription, so
its hook sees every access as it did before subscriptions existed.  The
profile must be identical, including the ``compare=False`` fire
prediction of every point.
"""

import pytest

from repro.api import get_system
from repro.cluster.state import BUS, AccessBus
from repro.core.analysis import analyze_system
from repro.core.profiler import profile_system
from tests.conftest import prepared

SYSTEMS = ["yarn", "hdfs", "hbase", "zookeeper", "cassandra", "kube"]


def _profile_rows(profile):
    return (
        [(d.key(), d.scale, d.fire_target, d.fire_kind, d.fire_time, d.fire_self)
         for d in profile.dynamic_points],
        list(profile.unexecuted),
        profile.iterations,
        profile.final_scale,
    )


def _profiled_unfiltered(monkeypatch, system, analysis):
    add_hook = AccessBus.add_hook

    def everything(_event):
        pass

    with monkeypatch.context() as patch:
        patch.setattr(AccessBus, "add_hook",
                      lambda bus, hook, interest=None: add_hook(bus, hook))
        BUS.add_hook(everything)
        try:
            return profile_system(system, analysis)
        finally:
            BUS.remove_hook(everything)


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_profile_identical_with_a_wildcard_hook(monkeypatch, system_name):
    system, analysis, lean, _ = prepared(system_name)
    assert lean.dynamic_points
    reference = _profiled_unfiltered(monkeypatch, system, analysis)
    assert _profile_rows(reference) == _profile_rows(lean)


def test_profile_identical_with_a_wildcard_hook_at_world_scale_10(monkeypatch):
    system = get_system("yarn", world_scale=10)
    analysis = analyze_system(system)
    lean = profile_system(system, analysis)
    reference = _profiled_unfiltered(monkeypatch, system, analysis)
    assert _profile_rows(reference) == _profile_rows(lean)
