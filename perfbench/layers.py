"""The traced run: spans and counters at each layer boundary.

Every boundary is a public call into a layer, wrapped from the benchmark's
own code; nothing under ``src/`` changes.  A wrapper must never sit
between a tracked access and ``AccessBus.emit``/``capture_caller``, or
between a log call and the logger's frame lookup: both resolve the
*caller's frame*, and an extra frame there changes the recorded crash-point
locations.  So the access bus is counted with a hook installed right after
each ``Trigger.install`` and removed before its ``uninstall``, and the log
collector is wrapped at ``collect``, after the logger resolved its frame.

Names bound with ``from ... import`` are patched in the calling module
(``run_workload`` in the analysis, profiler, oracles and campaign modules;
``evaluate_run``/``build_baseline`` in campaign; ``run_one_injection`` and
``build_classes`` in the executor; the pipeline's phase entry points).

Coarse boundaries record a span (id, name, start, end, parent, run id) in
memory; per-record boundaries (log collection, online-store calls) only
accumulate counts and time, so the trace stays small.  Self time of a
layer is the time inside its boundaries minus the time of boundaries
nested in them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter

#: every per-layer metric the traced run reports, with unit and direction
PER_LAYER: List[Tuple[str, str, str]] = [
    ("core.analysis.s", "s", "lower"),
    ("core.analysis.self_s", "s", "lower"),
    ("core.analysis.modules_reextracted", "count", "lower"),
    ("core.analysis.static_points", "count", "higher"),
    ("core.profiler.s", "s", "lower"),
    ("core.profiler.self_s", "s", "lower"),
    ("core.profiler.runs", "count", "lower"),
    ("core.profiler.dynamic_points", "count", "higher"),
    ("core.injection.oracles.baseline_s", "s", "lower"),
    ("core.injection.oracles.baseline_runs", "count", "lower"),
    ("core.injection.oracles.evaluate_s", "s", "lower"),
    ("core.injection.oracles.flag_share", "ratio", "higher"),
    ("core.injection.oracles.self_s", "s", "lower"),
    ("core.injection.campaign.first_drives", "count", "lower"),
    ("core.injection.campaign.first_drive_s", "s", "lower"),
    ("core.injection.campaign.rerun_drives", "count", "lower"),
    ("core.injection.campaign.rerun_s", "s", "lower"),
    ("core.injection.campaign.rerun_events", "count", "lower"),
    ("core.injection.campaign.rerun_completed_share", "ratio", "higher"),
    ("core.injection.campaign.self_s", "s", "lower"),
    ("systems.runs", "count", "lower"),
    ("systems.build_s", "s", "lower"),
    ("systems.sim_s", "s", "lower"),
    ("systems.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.self_s", "s", "lower"),
    ("cluster.state.emits_armed", "count", "lower"),
    ("cluster.state.emits_after_fire", "count", "lower"),
    ("cluster.state.after_fire_share", "ratio", "lower"),
    ("mtlog.records", "count", "lower"),
    ("mtlog.collect_s", "s", "lower"),
    ("mtlog.self_s", "s", "lower"),
    ("core.injection.online_log.process_calls", "count", "lower"),
    ("core.injection.online_log.process_s", "s", "lower"),
    ("core.injection.online_log.queries", "count", "lower"),
    ("core.injection.online_log.query_hit_share", "ratio", "higher"),
    ("core.injection.online_log.self_s", "s", "lower"),
    ("core.injection.trigger.fires", "count", "higher"),
    ("core.injection.trigger.fired_share", "ratio", "higher"),
    ("core.injection.control_center.injections", "count", "higher"),
    ("core.injection.control_center.unresolved", "count", "lower"),
    ("core.injection.control_center.fallbacks", "count", "lower"),
    ("bugs.matcher_calls", "count", "lower"),
    ("bugs.matcher_s", "s", "lower"),
    ("bugs.self_s", "s", "lower"),
    ("core.injection.classes.classes", "count", "lower"),
    ("core.injection.classes.executed_share", "ratio", "lower"),
    ("core.injection.classes.audited", "count", "lower"),
    ("core.injection.classes.promoted", "count", "lower"),
    ("core.injection.classes.plan_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

#: layers whose self time is reported as ``<layer>.self_s``
LAYERS = (
    "pipeline", "core.analysis", "core.profiler", "core.injection.oracles",
    "core.injection.campaign", "systems", "sim", "mtlog",
    "core.injection.online_log", "bugs", "core.injection.classes",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Frame:
    __slots__ = ("span_id", "parent", "start", "child")

    def __init__(self, span_id: int, parent: int, start: float):
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.child = 0.0


class LayerTrace:
    """Wraps the layer boundaries of one process; ``uninstall`` undoes it."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent span id, run id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: run id -> system name; one run per pipeline call
        self.runs: Dict[int, str] = {}
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._run_id = 0
        self._undo: List[Tuple[Any, str, Any]] = []
        self._bus_hooks: Dict[int, Callable[[Any], None]] = {}
        #: start of the current cluster run, until its simulation starts
        self._world_start: Optional[float] = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _push(self, spanned: bool) -> _Frame:
        stack = self._stack
        parent = 0
        if stack:
            top = stack[-1]
            parent = top.span_id or top.parent
        span_id = 0
        if spanned:
            self._next_id += 1
            span_id = self._next_id
        frame = _Frame(span_id, parent, _clock())
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, name: str, layer: str) -> None:
        end = _clock()
        self._stack.pop()
        elapsed = end - frame.start
        self.total[name] += elapsed
        self.self_time[layer] += elapsed - frame.child
        if self._stack:
            self._stack[-1].child += elapsed
        if frame.span_id:
            self.spans.append(
                (frame.span_id, name, frame.start, end, frame.parent, self._run_id)
            )

    @contextmanager
    def run(self, run_id: int, system: str) -> Iterator[None]:
        """One pipeline call: the root span every boundary below shares."""
        self._run_id = run_id
        self.runs[run_id] = system
        frame = self._push(True)
        try:
            yield
        finally:
            self._pop(frame, "pipeline.crashtuner", "pipeline")
            self._run_id = 0

    def _wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        trace = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = trace._push(True)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._pop(frame, name, layer)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        mod = importlib.import_module
        pipeline = mod("repro.core.pipeline")
        analysis = mod("repro.core.analysis")
        profiler = mod("repro.core.profiler.profiler")
        oracles = mod("repro.core.injection.oracles")
        campaign = mod("repro.core.injection.campaign")
        executor = mod("repro.core.injection.executor")
        base = mod("repro.systems.base")
        from repro.cluster import Cluster
        from repro.cluster.state import BUS
        from repro.core.injection.online_log import OnlineMetaStore
        from repro.core.injection.trigger import Trigger
        from repro.mtlog import LogCollector

        count = self.count
        wrap = self._wrap

        # --- pipeline phases ------------------------------------------
        def analyzed(report: Any) -> None:
            count["analysis.static_points"] += len(report.crash.crash_points)
            if report.engine is not None:
                count["analysis.modules_reextracted"] += (
                    report.engine.stats.get("modules_reextracted", 0)
                )

        def profiled(result: Any) -> None:
            count["profiler.runs"] += result.iterations
            count["profiler.dynamic_points"] += len(result.dynamic_points)

        self._patch(pipeline, "analyze_system", wrap(
            pipeline.analyze_system, "core.analysis.analyze_system",
            "core.analysis", after=analyzed))
        self._patch(pipeline, "profile_system", wrap(
            pipeline.profile_system, "core.profiler.profile_system",
            "core.profiler", after=profiled))

        matcher_for_system = pipeline.matcher_for_system

        def matched(_bugs: Any) -> None:
            count["bugs.matcher_calls"] += 1

        self._patch(pipeline, "matcher_for_system", lambda name: wrap(
            matcher_for_system(name), "bugs.match", "bugs", after=matched))

        # --- one cluster run, from every caller -------------------------
        trace = self
        base_run_workload = base.run_workload

        def run_workload(*args: Any, **kwargs: Any) -> Any:
            frame = trace._push(True)
            trace._world_start = frame.start
            try:
                report = base_run_workload(*args, **kwargs)
            finally:
                trace._world_start = None
                trace._pop(frame, "systems.run_workload", "systems")
            count["systems.runs"] += 1
            return report

        for module in (analysis, profiler, oracles):
            self._patch(module, "run_workload", run_workload)

        def drive(*args: Any, **kwargs: Any) -> Any:
            rerun = kwargs.get("deadline") is not None
            frame = trace._push(True)
            try:
                report = run_workload(*args, **kwargs)
            finally:
                trace._pop(frame, "core.injection.campaign.rerun" if rerun
                           else "core.injection.campaign.first_drive",
                           "core.injection.campaign")
            if rerun:
                count["campaign.rerun_drives"] += 1
                count["campaign.rerun_completed"] += report.completed
                if report.cluster is not None:
                    count["campaign.rerun_events"] += (
                        report.cluster.loop.events_processed
                    )
            else:
                count["campaign.first_drives"] += 1
            return report

        self._patch(campaign, "run_workload", drive)

        # --- oracles ----------------------------------------------------
        def baselined(baseline: Any) -> None:
            count["oracles.baseline_runs"] += baseline.runs

        def evaluated(verdict: Any) -> None:
            count["oracles.evaluations"] += 1
            count["oracles.flagged"] += verdict.flagged

        self._patch(campaign, "build_baseline", wrap(
            campaign.build_baseline, "core.injection.oracles.baseline",
            "core.injection.oracles", after=baselined))
        self._patch(campaign, "evaluate_run", wrap(
            campaign.evaluate_run, "core.injection.oracles.evaluate",
            "core.injection.oracles", after=evaluated))

        # --- executor ---------------------------------------------------
        self._patch(executor, "run_one_injection", wrap(
            executor.run_one_injection, "core.injection.campaign.injection",
            "core.injection.campaign"))
        self._patch(executor, "build_classes", wrap(
            executor.build_classes, "core.injection.classes.plan",
            "core.injection.classes"))

        # --- the event kernel; world build is the time before it -------
        cluster_run = Cluster.run

        def timed_cluster_run(cluster: Any, *args: Any, **kwargs: Any) -> None:
            before = cluster.loop.events_processed
            frame = trace._push(True)
            if trace._world_start is not None:
                # build, workload install, before_run hooks, node starts
                trace.total["systems.world_build"] += frame.start - trace._world_start
                trace._world_start = None
            try:
                cluster_run(cluster, *args, **kwargs)
            finally:
                trace._pop(frame, "sim.run", "sim")
                count["sim.events"] += cluster.loop.events_processed - before

        self._patch(Cluster, "run", timed_cluster_run)

        # --- per-record boundaries: counts and time, no spans -----------
        collect = LogCollector.collect

        def timed_collect(collector: Any, record: Any) -> None:
            frame = trace._push(False)
            try:
                collect(collector, record)
            finally:
                trace._pop(frame, "mtlog.collect", "mtlog")
            count["mtlog.records"] += 1

        self._patch(LogCollector, "collect", timed_collect)

        process = OnlineMetaStore.process
        query = OnlineMetaStore.query

        def timed_process(store: Any, values: Any) -> None:
            frame = trace._push(False)
            try:
                process(store, values)
            finally:
                trace._pop(frame, "online_log.process", "core.injection.online_log")
            count["online_log.process_calls"] += 1

        def timed_query(store: Any, value: str) -> Optional[str]:
            frame = trace._push(False)
            try:
                host = query(store, value)
            finally:
                trace._pop(frame, "online_log.query", "core.injection.online_log")
            count["online_log.queries"] += 1
            count["online_log.query_hits"] += host is not None
            return host

        self._patch(OnlineMetaStore, "process", timed_process)
        self._patch(OnlineMetaStore, "query", timed_query)

        # --- the access bus, counted while a trigger is armed -----------
        install, uninstall = Trigger.install, Trigger.uninstall
        hooks = self._bus_hooks

        def armed_install(trigger: Any) -> None:
            install(trigger)

            def on_emit(_event: Any) -> None:
                count["bus.emits_armed"] += 1
                if trigger.fired:
                    count["bus.emits_after_fire"] += 1

            hooks[id(trigger)] = on_emit
            BUS.add_hook(on_emit)

        def armed_uninstall(trigger: Any) -> None:
            on_emit = hooks.pop(id(trigger), None)
            if on_emit is not None:
                BUS.remove_hook(on_emit)
                center = trigger.center
                injection = center.injection
                count["trigger.armed"] += 1
                count["trigger.fires"] += trigger.fired
                count["center.injections"] += injection is not None
                count["center.unresolved"] += len(center.unresolved_values)
                count["center.fallbacks"] += bool(
                    injection is not None and injection.via_fallback)
            uninstall(trigger)

        self._patch(Trigger, "install", armed_install)
        self._patch(Trigger, "uninstall", armed_uninstall)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            setattr(owner, attr, previous)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def raw(self) -> Dict[str, Any]:
        """Counts and times, summable across the processes of one pass."""
        return {"count": dict(self.count), "total": dict(self.total),
                "self": dict(self.self_time), "spans": len(self.spans)}

    def write(self, path: str) -> None:
        """Append this process's spans as JSON lines, after a header line
        naming its runs; ``(run, id)`` identifies a span."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"runs": self.runs}) + "\n")
            for span_id, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run_id,
                }) + "\n")


def merge_raw(raws: List[Dict[str, Any]], factors: List[float]) -> Dict[str, Any]:
    """Sum the raw data of one pass's processes, each process's times
    scaled to the reference speed by its factor."""
    merged: Dict[str, Any] = {"count": Counter(), "total": defaultdict(float),
                              "self": defaultdict(float), "spans": 0}
    for raw, factor in zip(raws, factors):
        merged["count"].update(raw["count"])
        for key in ("total", "self"):
            for name, value in raw[key].items():
                merged[key][name] += value * factor
        merged["spans"] += raw["spans"]
    return merged


def layer_metrics(raw: Dict[str, Any], classes: Dict[str, int],
                  points: int) -> Dict[str, float]:
    """Every per-layer metric but the overhead, which needs the untraced
    pass.  ``raw`` is :func:`merge_raw` output, ``classes`` the summed
    representative statistics of the campaigns (empty when none selected
    representatives), ``points`` the dynamic points they were given."""
    c = Counter(raw["count"])
    t = defaultdict(float, raw["total"])
    s = defaultdict(float, raw["self"])
    sim_s = t["sim.run"]
    out = {
        "core.analysis.s": t["core.analysis.analyze_system"],
        "core.analysis.modules_reextracted": c["analysis.modules_reextracted"],
        "core.analysis.static_points": c["analysis.static_points"],
        "core.profiler.s": t["core.profiler.profile_system"],
        "core.profiler.runs": c["profiler.runs"],
        "core.profiler.dynamic_points": c["profiler.dynamic_points"],
        "core.injection.oracles.baseline_s": t["core.injection.oracles.baseline"],
        "core.injection.oracles.baseline_runs": c["oracles.baseline_runs"],
        "core.injection.oracles.evaluate_s": t["core.injection.oracles.evaluate"],
        "core.injection.oracles.flag_share": _share(
            c["oracles.flagged"], c["oracles.evaluations"]),
        "core.injection.campaign.first_drives": c["campaign.first_drives"],
        "core.injection.campaign.first_drive_s": t["core.injection.campaign.first_drive"],
        "core.injection.campaign.rerun_drives": c["campaign.rerun_drives"],
        "core.injection.campaign.rerun_s": t["core.injection.campaign.rerun"],
        "core.injection.campaign.rerun_events": c["campaign.rerun_events"],
        "core.injection.campaign.rerun_completed_share": _share(
            c["campaign.rerun_completed"], c["campaign.rerun_drives"]),
        "systems.runs": c["systems.runs"],
        "systems.build_s": t["systems.world_build"],
        "systems.sim_s": sim_s,
        "sim.events": c["sim.events"],
        "sim.us_per_event": _share(sim_s * 1e6, c["sim.events"]),
        "cluster.state.emits_armed": c["bus.emits_armed"],
        "cluster.state.emits_after_fire": c["bus.emits_after_fire"],
        "cluster.state.after_fire_share": _share(
            c["bus.emits_after_fire"], c["bus.emits_armed"]),
        "mtlog.records": c["mtlog.records"],
        "mtlog.collect_s": t["mtlog.collect"],
        "core.injection.online_log.process_calls": c["online_log.process_calls"],
        "core.injection.online_log.process_s": t["online_log.process"],
        "core.injection.online_log.queries": c["online_log.queries"],
        "core.injection.online_log.query_hit_share": _share(
            c["online_log.query_hits"], c["online_log.queries"]),
        "core.injection.trigger.fires": c["trigger.fires"],
        "core.injection.trigger.fired_share": _share(
            c["trigger.fires"], c["trigger.armed"]),
        "core.injection.control_center.injections": c["center.injections"],
        "core.injection.control_center.unresolved": c["center.unresolved"],
        "core.injection.control_center.fallbacks": c["center.fallbacks"],
        "bugs.matcher_calls": c["bugs.matcher_calls"],
        "bugs.matcher_s": t["bugs.match"],
        "core.injection.classes.classes": classes.get("classes", 0),
        "core.injection.classes.executed_share": _share(
            classes.get("executed", 0), points) if classes else 0.0,
        "core.injection.classes.audited": classes.get("audited", 0),
        "core.injection.classes.promoted": classes.get("promoted", 0),
        "core.injection.classes.plan_s": t["core.injection.classes.plan"],
        "trace.spans": raw["spans"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s[layer]
    return out
