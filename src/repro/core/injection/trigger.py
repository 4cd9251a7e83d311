"""The Trigger: per-run instrumentation of one dynamic crash point.

In the paper, Javassist instruments exactly one crash point per test run
with a shutdown-RPC-and-wait (pre-read) or a crash RPC (post-write).  Here
the trigger is an access-bus hook armed for one
:class:`~repro.core.profiler.DynamicCrashPoint`: when a runtime access
event matches the point's location, operation, field, *and* bounded call
stack, the control center is invoked with the accessed meta-info values.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.state import BUS, AccessEvent
from repro.core.injection.control_center import ControlCenter
from repro.core.profiler import DynamicCrashPoint, PointIndex


def point_matches(dpoint: DynamicCrashPoint, event: AccessEvent) -> bool:
    """Does a runtime access event match a dynamic crash point?

    Location, operation, field, and the bounded call stack must all agree;
    promoted points match their call site (second stack frame) instead of
    the physical access location.
    """
    point = dpoint.point
    if event.op != point.op:
        return False
    if (event.field.cls, event.field.name) != (point.field_cls, point.field_name):
        return False
    if point.promoted:
        if len(event.stack) < 2:
            return False
        if event.stack[1] != f"{point.module}.{point.enclosing}:{point.lineno}":
            return False
    else:
        if event.location != (point.module, point.lineno):
            return False
    return event.stack == dpoint.stack


class Trigger:
    """Arms one dynamic crash point on the global access bus."""

    def __init__(self, dpoint: DynamicCrashPoint, center: ControlCenter):
        self.dpoint = dpoint
        self.center = center
        self.fired = False
        self.hits = 0
        #: the runtime meta-info values observed when the point fired
        self.values: List[str] = []
        self._installed = False

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Subscribe to the one point: only its field, op and site open taps."""
        BUS.capture_stacks = True
        BUS.add_hook(self._hook, PointIndex([self.dpoint.point]).interest)
        self._installed = True

    def uninstall(self) -> None:
        """Take the hook off the bus; a no-op once it is off."""
        self._unhook()

    def _unhook(self) -> None:
        if self._installed:
            BUS.remove_hook(self._hook)
            self._installed = False
            if not BUS.enabled:
                BUS.capture_stacks = False

    # ------------------------------------------------------------------
    def _matches(self, event: AccessEvent) -> bool:
        return point_matches(self.dpoint, event)

    def _hook(self, event: AccessEvent) -> None:
        if self.fired or not self._matches(event):
            return
        try:
            self.fire(event)
        finally:
            # each point fires once (a crash of the executing node unwinds
            # through here): with the hook gone, the rest of the run pays no
            # frame walk or stack capture per tracked access
            self._unhook()

    def fire(self, event: AccessEvent) -> None:
        """Perform the injection for a matching access event."""
        self.hits += 1
        self.fired = True  # each dynamic crash point is exercised once
        values = list(event.values)
        self.values = values
        obs = self.center.cluster.obs
        if obs.enabled:
            obs.metrics.counter("inject.crash_points_visited").inc()
        with obs.tracer.span("injection", point=self.dpoint.point.describe(),
                             op=self.dpoint.point.op, node=event.node):
            if self.dpoint.point.op == "read":
                self.center.shutdown_rpc(values, event.node)
            else:
                self.center.crash_rpc(values, event.node)
