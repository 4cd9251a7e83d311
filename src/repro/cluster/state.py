"""Tracked heap state: the substrate's equivalent of bytecode instrumentation.

In the paper, Javassist rewrites the Java systems so that every getField /
putField of a meta-info field, and every collection read/write (Table 3),
can be observed and a crash injected exactly *before a read* or *after a
write*.  In this Python substrate the systems store high-level state in
*tracked* fields and containers declared at class level::

    class YarnScheduler(Node):
        nodes: Dict[NodeId, SchedulerNode] = tracked_dict()
        current_attempt: Optional[ApplicationAttemptId] = tracked_ref()

which gives exactly the same two observation channels:

* the **static** channel — the declarations carry ordinary type
  annotations, so the AST analysis (``repro.core.analysis``) can read field
  types and find access sites, just as WALA reads JVM types and getField /
  putField instructions;
* the **dynamic** channel — an access some bus hook can match emits an
  :class:`AccessEvent` on the global :class:`AccessBus`, carrying the
  access site's source location, a bounded call stack, the executing node,
  and the stringified runtime values involved.  Pre-read hooks run
  *before* the value is (re-)read; post-write hooks run *after* the store.

Each tracked field has one :class:`Tap`, shared by its descriptor and its
containers, with one switch per operation.  A hook subscribes with an
:class:`Interest` — the (field, op) pairs and access sites it can match —
and the bus opens exactly the taps some hook needs.  Every access tests
its own tap and builds nothing while it is closed; an open tap's access
locates its site and returns before the stack walk when no hook can match
it there.  With no hook (a plain workload run, or an injection run after
its trigger fired) every tap is closed.  The profiler and the injection
trigger subscribe to their crash points; a hook without an interest sees
every access.

Important honesty note: tracking a field does **not** make it meta-info.
The systems also track plenty of non-meta-info state (metrics, queues of
plain strings); whether an access site is a crash point is decided purely
by the log-based + type-based analysis.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro import runtime

_THIS_MODULE = __name__

#: module prefixes whose frames are substrate machinery, not system code
_SUBSTRATE_PREFIXES = (
    "repro.sim",
    "repro.net",
    "repro.cluster",
    "repro.mtlog",
    "repro.runtime",
    "repro.core",
    "repro.systems.base",
)


_SUBSTRATE_MODULE_CACHE: Dict[str, bool] = {}


def _is_substrate_module(module: str) -> bool:
    cached = _SUBSTRATE_MODULE_CACHE.get(module)
    if cached is None:
        cached = _SUBSTRATE_MODULE_CACHE[module] = any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in _SUBSTRATE_PREFIXES
        )
    return cached


# Per-callsite memoization for the frame walk below, which runs for every
# access through an open tap (the profiler's hottest path).  A frame's
# module is constant per code object, and its line is constant per
# (code object, instruction offset) — so neither f_globals lookups nor
# f_lineno computations (CPython derives the line from the line table on
# every read) need to happen more than once per call site.
_FRAME_MODULE_CACHE: Dict[Any, str] = {}
_SITE_CACHE: Dict[Tuple[Any, int], Tuple[str, int]] = {}
_STACK_ENTRY_CACHE: Dict[Tuple[Any, int], str] = {}


def _frame_module(frame: Any) -> str:
    code = frame.f_code
    module = _FRAME_MODULE_CACHE.get(code)
    if module is None:
        module = _FRAME_MODULE_CACHE[code] = frame.f_globals.get("__name__", "?")
    return module


def _access_site(frame: Any, emitting_module: str) -> Tuple[Any, Tuple[str, int]]:
    """The first frame outside ``emitting_module``, and its ``(module, lineno)``."""
    while frame is not None and _frame_module(frame) == emitting_module:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return None, ("?", 0)
    site = (frame.f_code, frame.f_lasti)
    location = _SITE_CACHE.get(site)
    if location is None:
        location = _SITE_CACHE[site] = (_frame_module(frame), frame.f_lineno)
    return frame, location


def _call_string(frame: Any, depth: int) -> Tuple[str, ...]:
    """The bounded call string from the access-site frame outwards."""
    stack: List[str] = []
    f: Any = frame
    while f is not None and len(stack) < depth:
        module = _frame_module(f)
        if _is_substrate_module(module):
            # The dispatch frame (node._enter, the event loop) is the end
            # of the logical thread: frames above it belong to the harness
            # that drives the simulation, not to the system under test.
            break
        site = (f.f_code, f.f_lasti)
        entry = _STACK_ENTRY_CACHE.get(site)
        if entry is None:
            code = f.f_code
            qualname = getattr(code, "co_qualname", code.co_name)
            entry = _STACK_ENTRY_CACHE[site] = f"{module}.{qualname}:{f.f_lineno}"
        stack.append(entry)
        f = f.f_back
    return tuple(stack)


def capture_caller(
    emitting_module: str,
    capture_stack: bool,
    depth: int,
    skip: int = 1,
) -> Tuple[Tuple[str, int], Tuple[str, ...]]:
    """Locate the access site and (optionally) its bounded call string.

    The call string contains system-under-test frames only — substrate
    dispatch frames (node._enter, the event loop) are as meaningless to a
    tester as JVM-internal frames were to the paper's tool.  Each entry is
    ``module.qualname:line``; for caller frames the line is the call site,
    which is what lets promoted crash points match their call sites.
    """
    frame, location = _access_site(sys._getframe(skip + 1), emitting_module)
    return location, _call_string(frame, depth) if capture_stack else ()


# ---------------------------------------------------------------------------
# access events and the bus
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FieldKey:
    """Identity of a tracked field: owning class qualname + field name."""

    cls: str
    name: str

    def __str__(self) -> str:
        return f"{self.cls}.{self.name}"


@dataclass(frozen=True)
class AccessEvent:
    """One runtime access to a tracked field or container.

    Attributes:
        field: which field was accessed.
        op: ``"read"`` or ``"write"``.
        method: the concrete operation: ``getfield``/``putfield`` for
            scalar refs, or the collection method name (``get``, ``put``,
            ``remove``, ...) for containers.
        values: stringified runtime values involved (keys and values), used
            by the online analysis to find the target node.
        location: ``(module, lineno)`` of the *access site* (the caller).
        node: name of the node executing the access ("" outside a handler).
        time: simulated time.
        stack: bounded call-string (outermost last), captured only when the
            bus has ``capture_stacks`` set.
    """

    field: FieldKey
    op: str
    method: str
    values: Tuple[str, ...]
    location: Tuple[str, int]
    node: str
    time: float
    stack: Tuple[str, ...] = ()


Hook = Callable[[AccessEvent], None]

#: ``(field_cls, field_name, op)``: one operation on one tracked field
FieldOp = Tuple[str, str, str]


class Interest:
    """The tracked accesses one bus hook can match.

    Maps each ``(field_cls, field_name, op)`` the hook cares about to the
    ``(module, lineno)`` access sites it can match there, or to ``None``
    when the access may sit anywhere (a promoted crash point matches by its
    caller's call site, which only the call string shows).
    """

    def __init__(self) -> None:
        self.sites: Dict[FieldOp, Optional[Set[Tuple[str, int]]]] = {}

    def add(
        self,
        field_cls: str,
        field_name: str,
        op: str,
        site: Optional[Tuple[str, int]] = None,
    ) -> "Interest":
        """Subscribe to ``op`` on a field, at ``site`` or (``None``) anywhere."""
        field_op = (field_cls, field_name, op)
        if site is None:
            self.sites[field_op] = None
        else:
            sites = self.sites.setdefault(field_op, set())
            if sites is not None:
                sites.add(site)
        return self

    def admits(self, key: FieldKey, op: str, location: Tuple[str, int]) -> bool:
        sites = self.sites.get((key.cls, key.name, op), ())
        return sites is None or location in sites


class Tap:
    """One tracked field's switch on the bus.

    The field's ``tracked_ref`` descriptor and every container built for
    it share this object and test ``read``/``write`` at each access; only
    the bus flips them, whenever its hooks change.  ``sites`` maps each
    open op to the access sites some hook can match (``None``: any site).
    """

    __slots__ = ("key", "read", "write", "sites")

    def __init__(self, key: FieldKey) -> None:
        self.key = key
        self.read = False
        self.write = False
        self.sites: Dict[str, Optional[Set[Tuple[str, int]]]] = {}


class AccessBus:
    """Global dispatch point for tracked-state access events."""

    #: paper Section 3.1.3: call strings are bounded to depth 5
    STACK_DEPTH = 5

    def __init__(self) -> None:
        #: any hook installed (bookkeeping; accesses test their own tap)
        self.enabled = False
        self.capture_stacks = False
        self._hooks: List[Tuple[Hook, Optional[Interest]]] = []
        self._taps: Dict[FieldKey, Tap] = {}

    def tap(self, key: FieldKey) -> Tap:
        """The field's one tap, switched for the hooks installed now."""
        tap = self._taps.get(key)
        if tap is None:
            tap = self._taps[key] = Tap(key)
            self._switch(tap)
        return tap

    def add_hook(self, hook: Hook, interest: Optional[Interest] = None) -> None:
        """Run ``hook`` on the accesses ``interest`` admits (``None``: all)."""
        self._hooks.append((hook, interest))
        self._retap()

    def remove_hook(self, hook: Hook) -> None:
        for i, (installed, _) in enumerate(self._hooks):
            if installed == hook:
                del self._hooks[i]
                self._retap()
                return
        raise ValueError("hook is not installed on the bus")

    def reset(self) -> None:
        self._hooks.clear()
        self.capture_stacks = False
        self._retap()

    def _retap(self) -> None:
        self.enabled = bool(self._hooks)
        for tap in self._taps.values():
            self._switch(tap)

    def _switch(self, tap: Tap) -> None:
        """Open each of the tap's ops for the union of the hooks' interests."""
        sites: Dict[str, Optional[Set[Tuple[str, int]]]] = {}
        for op in ("read", "write"):
            field_op = (tap.key.cls, tap.key.name, op)
            for _, interest in self._hooks:
                admitted = None if interest is None else interest.sites.get(field_op, ())
                if admitted is None:  # any site
                    sites[op] = None
                    break
                if admitted:
                    sites.setdefault(op, set()).update(admitted)
        tap.sites = sites
        tap.read = "read" in sites
        tap.write = "write" in sites

    # ------------------------------------------------------------------
    def emit(self, tap: Tap, op: str, method: str, values: Iterable[Any]) -> None:
        """Build an event from the caller's frame and run the hooks that admit it.

        Called only through an open tap.  Returns right after locating the
        access site when no hook can match an access there, before the
        stack walk, the value stringification and the event.
        """
        frame, location = _access_site(sys._getframe(1), _THIS_MODULE)
        sites = tap.sites.get(op, ())
        if sites is not None and location not in sites:
            return
        key = tap.key
        event = AccessEvent(
            field=key,
            op=op,
            method=method,
            values=tuple(str(v) for v in values if v is not None),
            location=location,
            node=runtime.current_node() or "",
            time=runtime.current_time(),
            stack=_call_string(frame, self.STACK_DEPTH) if self.capture_stacks else (),
        )
        for hook, interest in list(self._hooks):
            if interest is None or interest.admits(key, op, location):
                hook(event)


#: The process-global bus, mirroring the single instrumentation agent.
BUS = AccessBus()


# ---------------------------------------------------------------------------
# scalar tracked fields (getField / putField)
# ---------------------------------------------------------------------------
class tracked_ref:
    """Data descriptor for a scalar tracked field.

    Reads emit a ``getfield`` event *before* the value is loaded (the load
    is re-done after hooks run, so a hook that changes system state — e.g.
    by crashing a node whose recovery rewrites the field — is observed by
    the reader, exactly as in the paper's pre-read scenario).  Writes store
    first, then emit ``putfield``.
    """

    def __init__(self, default: Any = None):
        self._default = default
        self._tap: Optional[Tap] = None
        self._attr = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self._tap = BUS.tap(FieldKey(f"{owner.__module__}.{owner.__qualname__}", name))
        self._attr = f"_tracked_{name}"

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        tap = self._tap
        if tap.read:
            BUS.emit(tap, "read", "getfield", (getattr(obj, self._attr, self._default),))
        return getattr(obj, self._attr, self._default)

    def __set__(self, obj: Any, value: Any) -> None:
        setattr(obj, self._attr, value)
        tap = self._tap
        if tap.write:
            BUS.emit(tap, "write", "putfield", (value,))


# ---------------------------------------------------------------------------
# tracked collections (Table 3 operations)
# ---------------------------------------------------------------------------
class _TrackedCollection:
    """Shared machinery: every container holds its field's tap.

    Each operation tests the tap itself and builds its emit arguments only
    while the tap is open.
    """

    def __init__(self, key: FieldKey):
        self._tap = BUS.tap(key)


class TrackedDict(_TrackedCollection):
    """A map with Java-collection-flavoured accessors.

    Method names are chosen from the paper's Table 3 keyword lists so the
    static analysis's keyword matching and the runtime emission agree.
    ``size`` is deliberately *not* an access point (it matches no keyword).
    """

    def __init__(self, key: FieldKey):
        super().__init__(key)
        self._data: Dict[Any, Any] = {}

    # reads ---------------------------------------------------------------
    def get(self, k: Any, default: Any = None) -> Any:
        # Emit first with the *current* mapping; re-read after hooks so a
        # hook-triggered recovery (removal/reset) is visible to the caller.
        if self._tap.read:
            BUS.emit(self._tap, "read", "get", (k, self._data.get(k)))
        return self._data.get(k, default)

    def contains(self, k: Any) -> bool:
        if self._tap.read:
            BUS.emit(self._tap, "read", "contains", (k,))
        return k in self._data

    def values(self) -> List[Any]:
        if self._tap.read:
            BUS.emit(self._tap, "read", "values", ())
        return list(self._data.values())

    def is_empty(self) -> bool:
        if self._tap.read:
            BUS.emit(self._tap, "read", "is_empty", ())
        return not self._data

    # writes --------------------------------------------------------------
    def put(self, k: Any, v: Any) -> Any:
        old = self._data.get(k)
        self._data[k] = v
        if self._tap.write:
            BUS.emit(self._tap, "write", "put", (k, v))
        return old

    def remove(self, k: Any) -> Any:
        old = self._data.pop(k, None)
        if self._tap.write:
            BUS.emit(self._tap, "write", "remove", (k,))
        return old

    def clear(self) -> None:
        self._data.clear()
        if self._tap.write:
            BUS.emit(self._tap, "write", "clear", ())

    # untracked helpers (no Table 3 keyword → no access point) -------------
    def size(self) -> int:
        return len(self._data)

    def snapshot(self) -> Dict[Any, Any]:
        """Untracked copy for assertions in tests and oracles only."""
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)


class TrackedSet(_TrackedCollection):
    """A set with Table 3 accessors."""

    def __init__(self, key: FieldKey):
        super().__init__(key)
        self._data: set = set()

    def add(self, v: Any) -> None:
        self._data.add(v)
        if self._tap.write:
            BUS.emit(self._tap, "write", "add", (v,))

    def remove(self, v: Any) -> bool:
        present = v in self._data
        self._data.discard(v)
        if self._tap.write:
            BUS.emit(self._tap, "write", "remove", (v,))
        return present

    def contains(self, v: Any) -> bool:
        if self._tap.read:
            BUS.emit(self._tap, "read", "contains", (v,))
        return v in self._data

    def values(self) -> List[Any]:
        if self._tap.read:
            BUS.emit(self._tap, "read", "values", ())
        return list(self._data)

    def is_empty(self) -> bool:
        if self._tap.read:
            BUS.emit(self._tap, "read", "is_empty", ())
        return not self._data

    def clear(self) -> None:
        self._data.clear()
        if self._tap.write:
            BUS.emit(self._tap, "write", "clear", ())

    def size(self) -> int:
        return len(self._data)

    def snapshot(self) -> set:
        return set(self._data)

    def __len__(self) -> int:
        return len(self._data)


class TrackedList(_TrackedCollection):
    """A list with Table 3 accessors."""

    def __init__(self, key: FieldKey):
        super().__init__(key)
        self._data: List[Any] = []

    def add(self, v: Any) -> None:
        self._data.append(v)
        if self._tap.write:
            BUS.emit(self._tap, "write", "add", (v,))

    def remove(self, v: Any) -> bool:
        try:
            self._data.remove(v)
            removed = True
        except ValueError:
            removed = False
        if self._tap.write:
            BUS.emit(self._tap, "write", "remove", (v,))
        return removed

    def get(self, index: int) -> Any:
        if self._tap.read:
            value = self._data[index] if 0 <= index < len(self._data) else None
            BUS.emit(self._tap, "read", "get", (value,))
        return self._data[index]

    def contains(self, v: Any) -> bool:
        if self._tap.read:
            BUS.emit(self._tap, "read", "contains", (v,))
        return v in self._data

    def values(self) -> List[Any]:
        if self._tap.read:
            BUS.emit(self._tap, "read", "values", ())
        return list(self._data)

    def is_empty(self) -> bool:
        if self._tap.read:
            BUS.emit(self._tap, "read", "is_empty", ())
        return not self._data

    def clear(self) -> None:
        self._data.clear()
        if self._tap.write:
            BUS.emit(self._tap, "write", "clear", ())

    def size(self) -> int:
        return len(self._data)

    def snapshot(self) -> List[Any]:
        return list(self._data)

    def __len__(self) -> int:
        return len(self._data)


class _tracked_collection_descriptor:
    """Class-level declaration of a per-instance tracked container.

    Reading the attribute returns the instance's container (created on
    first use) without emitting an event — the access points are the
    container *operations*, per Table 3.  Assignment is forbidden: systems
    mutate their collections, they don't swap them.
    """

    container_cls: type = TrackedDict

    def __init__(self) -> None:
        self._key: Optional[FieldKey] = None
        self._attr = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self._key = FieldKey(f"{owner.__module__}.{owner.__qualname__}", name)
        self._attr = f"_tracked_{name}"

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        container = obj.__dict__.get(self._attr)
        if container is None:
            assert self._key is not None
            container = self.container_cls(self._key)
            obj.__dict__[self._attr] = container
        return container

    def __set__(self, obj: Any, value: Any) -> None:
        raise TypeError(f"tracked collection {self._key} cannot be reassigned")


class tracked_dict(_tracked_collection_descriptor):
    container_cls = TrackedDict


class tracked_set(_tracked_collection_descriptor):
    container_cls = TrackedSet


class tracked_list(_tracked_collection_descriptor):
    container_cls = TrackedList


__all__ = [
    "AccessBus",
    "AccessEvent",
    "BUS",
    "FieldKey",
    "Interest",
    "Tap",
    "TrackedDict",
    "TrackedList",
    "TrackedSet",
    "tracked_dict",
    "tracked_list",
    "tracked_ref",
    "tracked_set",
]
