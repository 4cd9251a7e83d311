"""Parallel execution of injection campaigns, with checkpoint/resume.

Every injection run is an isolated, seed-deterministic simulation — one
fresh cluster per dynamic crash point — which makes the campaign's hot
loop embarrassingly parallel.  :func:`execute_points` fans pending points
out over a ``fork``-based process pool and merges everything back **in
deterministic point order**, so a parallel campaign is outcome- and
report-identical to a sequential one (only wall-clock differs):

* **outcomes** are collected as futures complete but emitted in point
  order;
* **diagnoses** land on the ambient ``Observability`` in point order;
* **metrics** from each worker's private registry are folded in point
  order (counters summed, histograms merged, gauges last-write-wins —
  see :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`);
* **spans** from each worker's private tracer are re-stitched under the
  campaign span with ids remapped to exactly the ids a sequential run
  would have allocated (see :meth:`~repro.obs.tracer.Tracer.adopt`).

The worker model relies on the ``fork`` start method: the parent primes
module-level state (system, analysis, baseline, matcher — some of which
are deliberately not picklable) right before the pool forks, and workers
inherit it; only point indices go in and picklable
:class:`~repro.core.injection.campaign.InjectionOutcome` records plus
span/metric payloads come back.  Where ``fork`` is unavailable the
campaign falls back to sequential execution with a warning.

The journal (``CampaignConfig.journal_path``) is an append-only JSONL
checkpoint: one ``campaign-meta`` line pinning the campaign's identity
(system, seed, knobs, point count, config fingerprint) and one
``outcome`` line per tested point.  A re-run with the same journal
restores recorded outcomes — diagnoses included — and only tests the
points the interrupted run never reached.
"""

from __future__ import annotations

import json
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace as _dc_replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.analysis import AnalysisReport
from repro.core.injection.campaign import (
    BugMatcherFn,
    CampaignConfig,
    InjectionOutcome,
    run_one_injection,
)
from repro.core.injection.classes import SelectionPlan, build_classes
from repro.core.injection.oracles import Baseline
from repro.core.profiler import DynamicCrashPoint
from repro.obs import Observability
from repro.systems.base import SystemUnderTest

from typing import Callable

JOURNAL_VERSION = 1

#: checkpoint hook signature: ``(point_index, outcome)`` per tested point
OutcomeHook = Callable[[int, InjectionOutcome], None]


class JournalMismatch(ValueError):
    """The journal on disk was written by a different campaign."""


def _canonical_config(config: Optional[Dict[str, Any]]) -> str:
    """A stable fingerprint of the cluster config (hash-order independent)."""
    if not config:
        return ""
    items = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        items.append((key, repr(value)))
    return repr(items)


class CampaignJournal:
    """Append-only JSONL checkpoint of per-point campaign outcomes."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None
        #: byte length of the valid line prefix (a kill mid-write leaves a
        #: torn unterminated tail, truncated away before appending)
        self._keep_bytes: Optional[int] = None

    # ------------------------------------------------------------------
    @staticmethod
    def meta_for(
        system: SystemUnderTest,
        points: List[DynamicCrashPoint],
        cfg: CampaignConfig,
        config: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """What identifies a campaign: same meta -> same outcomes."""
        meta = {
            "version": JOURNAL_VERSION,
            "system": system.name,
            "seed": cfg.seed,
            "wait": cfg.wait,
            "random_fallback": cfg.random_fallback,
            "classify_timeouts": cfg.classify_timeouts,
            "n_points": len(points),
            "config": _canonical_config(config),
        }
        if cfg.point_order != "point":
            # journal indices follow the scheduled order, so resuming under
            # a different order must mismatch; the key is omitted for the
            # default order to keep pre-existing journals valid
            meta["point_order"] = cfg.point_order
        if cfg.point_select != "full":
            # the class-assignment digest pins which points execute and
            # which propagate: a journal resumed under a drifted
            # assignment (changed signature, audit fraction, or point
            # list) must mismatch instead of silently mixing plans.  The
            # keys are omitted under "full" to keep old journals valid.
            meta["point_select"] = cfg.point_select
            meta["audit_fraction"] = cfg.audit_fraction
            meta["classes"] = build_classes(points, cfg.audit_fraction).digest()
        return meta

    def load(
        self,
        points: List[DynamicCrashPoint],
        meta: Dict[str, Any],
    ) -> Dict[int, InjectionOutcome]:
        """Outcomes already journaled, keyed by point index.

        Raises :class:`JournalMismatch` when the journal belongs to a
        different campaign (different system, seed, knobs, config, or
        point list) — mixing outcomes across campaigns would silently
        corrupt results.  Entries whose recorded point key no longer
        matches are ignored (treated as untested).
        """
        loaded: Dict[int, InjectionOutcome] = {}
        if not self.path.exists():
            return loaded
        raw = self.path.read_bytes()
        offset = 0
        for chunk in raw.split(b"\n"):
            line = chunk.decode("utf-8", errors="replace").strip()
            if not line:
                offset += len(chunk) + 1
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # a kill mid-write leaves one torn, unterminated tail;
                # remember where it starts so open_append truncates it
                self._keep_bytes = offset
                break
            offset += len(chunk) + 1
            kind = record.pop("type", None)
            if kind == "campaign-meta":
                if record != meta:
                    raise JournalMismatch(
                        f"{self.path}: journal was written by a different "
                        f"campaign (journal {record!r} != current {meta!r}); "
                        f"delete the file to start over"
                    )
            elif kind == "outcome":
                index = record.get("index", -1)
                if not 0 <= index < len(points):
                    continue
                if record.get("key") != repr(points[index].key()):
                    continue
                loaded[index] = InjectionOutcome.from_dict(
                    record["data"], points[index]
                )
        return loaded

    # ------------------------------------------------------------------
    def open_append(self, meta: Dict[str, Any], fresh: bool) -> None:
        if self._keep_bytes is not None:
            with self.path.open("r+b") as fh:
                fh.truncate(self._keep_bytes)
            self._keep_bytes = None
        self._fh = self.path.open("a", encoding="utf-8")
        if fresh:
            self._fh.write(json.dumps({"type": "campaign-meta", **meta}) + "\n")
            self._fh.flush()

    def record(self, index: int, dpoint: DynamicCrashPoint,
               outcome: InjectionOutcome) -> None:
        assert self._fh is not None, "journal not opened for append"
        self._fh.write(json.dumps({
            "type": "outcome",
            "index": index,
            "key": repr(dpoint.key()),
            "data": outcome.to_dict(),
        }) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _HookedJournal:
    """A journal facade that also fires the per-checkpoint hook.

    Wraps the (possibly absent) :class:`CampaignJournal` so every
    execution path — sequential, parallel, representative — reaches the
    ``on_outcome`` hook through the one ``record`` call it already makes,
    with the journal line (when there is one) written *before* the hook
    runs: a hook that observes a checkpoint can rely on it being durable.
    """

    def __init__(self, journal: Optional[CampaignJournal], hook: OutcomeHook):
        self._journal = journal
        self._hook = hook

    def record(self, index: int, dpoint: DynamicCrashPoint,
               outcome: InjectionOutcome) -> None:
        if self._journal is not None:
            self._journal.record(index, dpoint, outcome)
        self._hook(index, outcome)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()


# ---------------------------------------------------------------------------
# the worker side
# ---------------------------------------------------------------------------
#: primed by the parent immediately before the pool forks; inherited by
#: workers through fork (never pickled — analysis and matchers are not)
_WORKER_STATE: Optional[Dict[str, Any]] = None


def _worker_run(index: int) -> Tuple[int, InjectionOutcome, Optional[Dict[str, Any]]]:
    """Test one point in a forked worker; ships back outcome + telemetry."""
    state = _WORKER_STATE
    assert state is not None, "worker forked before state was primed"
    dpoint = state["points"][index]
    if not state["observed"]:
        outcome = run_one_injection(
            state["system"], state["analysis"], dpoint, state["baseline"],
            campaign=state["cfg"], config=state["config"],
            matcher=state["matcher"],
        )
        return index, outcome, None
    # A fresh private context per point: the parent re-stitches the
    # resulting spans/metrics in point order, reproducing exactly what
    # its own registry/tracer would have recorded sequentially.
    obs = Observability()
    with obs:
        outcome = run_one_injection(
            state["system"], state["analysis"], dpoint, state["baseline"],
            campaign=state["cfg"], config=state["config"],
            matcher=state["matcher"],
        )
    payload = {
        "spans": [span.to_dict() for span in obs.tracer.spans],
        "allocated": obs.tracer.ids_allocated(),
        "metrics": obs.metrics.snapshot(),
    }
    return index, outcome, payload


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# the parent side
# ---------------------------------------------------------------------------
@dataclass
class ExecutionReport:
    """What the test phase actually did, alongside its ordered outcomes.

    ``workers`` is the *realized* choice — after the platform fallback
    (no ``fork``) and the small-campaign degrade rule — which
    :func:`~repro.core.injection.campaign.run_campaign` records on the
    :class:`~repro.core.injection.campaign.CampaignResult`.
    """

    outcomes: List[InjectionOutcome]
    resumed: int
    workers: int
    #: representative-execution statistics (classes, executed, audited,
    #: promoted, propagated) when ``point_select="representative"`` ran
    class_stats: Optional[Dict[str, Any]] = None


def execute_points(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    points: List[DynamicCrashPoint],
    baseline: Baseline,
    matcher: Optional[BugMatcherFn],
    cfg: CampaignConfig,
    config: Optional[Dict[str, Any]],
    active: Observability,
    campaign_span: Any = None,
    on_outcome: Optional[OutcomeHook] = None,
) -> ExecutionReport:
    """Run (or restore) every point; returns an :class:`ExecutionReport`.

    The ambient ``active`` context is already installed by
    :func:`~repro.core.injection.campaign.run_campaign`, with the
    campaign span open.  ``on_outcome`` (when given) fires per newly
    tested point, after its journal line is written — see
    :func:`~repro.core.injection.campaign.run_campaign`.
    """
    journal: Optional[Any] = None
    loaded: Dict[int, InjectionOutcome] = {}
    if cfg.journal_path is not None:
        journal = CampaignJournal(cfg.journal_path)
        meta = CampaignJournal.meta_for(system, points, cfg, config)
        fresh = not journal.path.exists()
        loaded = journal.load(points, meta)
        journal.open_append(meta, fresh=fresh)
    if on_outcome is not None:
        journal = _HookedJournal(journal, on_outcome)
    pending = [i for i in range(len(points)) if i not in loaded]

    workers = cfg.workers
    if workers > 1 and not _fork_available():
        warnings.warn(
            "parallel campaigns need the 'fork' start method, which this "
            "platform lacks; running sequentially",
            RuntimeWarning,
        )
        workers = 1
    if (
        workers > 1
        and not cfg.force_workers
        and cfg.point_select == "full"
        and len(pending) < workers * 2
    ):
        # pool startup dominates campaigns this small (Table 11's
        # zookeeper/cassandra rows ran *slower* parallel than sequential);
        # degrade to in-process unless the caller explicitly forced it.
        # Representative campaigns apply the same rule per round instead
        # (their executed subset, not `pending`, is what the pool sees).
        workers = 1
    class_stats: Optional[Dict[str, Any]] = None
    try:
        if cfg.point_select == "representative":
            outcomes, class_stats, workers = _run_representative(
                system, analysis, points, baseline, matcher, cfg, config,
                active, campaign_span, loaded, pending, journal, workers,
            )
        elif workers > 1 and len(pending) > 1:
            outcomes = _run_parallel(
                system, analysis, points, baseline, matcher, cfg, config,
                active, campaign_span, loaded, pending, journal, workers,
            )
        else:
            workers = 1
            outcomes = _run_sequential(
                system, analysis, points, baseline, matcher, cfg, config,
                active, loaded, journal,
            )
    finally:
        if journal is not None:
            journal.close()
    return ExecutionReport(
        outcomes=outcomes,
        resumed=len(loaded),
        workers=workers,
        class_stats=class_stats,
    )


def _restore(outcome: InjectionOutcome, active: Observability) -> InjectionOutcome:
    """Emit a journaled outcome as if it had just been tested.

    Its diagnosis rejoins ``active.diagnoses`` in point order; its spans
    and metrics are gone with the interrupted process (documented in
    DESIGN.md — a resumed campaign's telemetry covers this process only).
    """
    if active.enabled and outcome.diagnosis is not None:
        active.diagnoses.append(outcome.diagnosis)
    return outcome


def _run_sequential(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    points: List[DynamicCrashPoint],
    baseline: Baseline,
    matcher: Optional[BugMatcherFn],
    cfg: CampaignConfig,
    config: Optional[Dict[str, Any]],
    active: Observability,
    loaded: Dict[int, InjectionOutcome],
    journal: Optional[CampaignJournal],
) -> List[InjectionOutcome]:
    outcomes: List[InjectionOutcome] = []
    for index, dpoint in enumerate(points):
        if index in loaded:
            outcomes.append(_restore(loaded[index], active))
            continue
        # run_one_injection appends the diagnosis to the ambient context
        outcome = run_one_injection(
            system, analysis, dpoint, baseline,
            campaign=cfg, config=config, matcher=matcher,
        )
        if journal is not None:
            journal.record(index, dpoint, outcome)
        outcomes.append(outcome)
    return outcomes


def _run_parallel(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    points: List[DynamicCrashPoint],
    baseline: Baseline,
    matcher: Optional[BugMatcherFn],
    cfg: CampaignConfig,
    config: Optional[Dict[str, Any]],
    active: Observability,
    campaign_span: Any,
    loaded: Dict[int, InjectionOutcome],
    pending: List[int],
    journal: Optional[CampaignJournal],
    workers: int,
) -> List[InjectionOutcome]:
    global _WORKER_STATE
    observed = active.enabled
    results: Dict[int, Tuple[InjectionOutcome, Optional[Dict[str, Any]]]] = {}
    _WORKER_STATE = {
        "system": system, "analysis": analysis, "points": points,
        "baseline": baseline, "matcher": matcher, "cfg": cfg,
        "config": config, "observed": observed,
    }
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(workers, len(pending)),
                                 mp_context=context) as pool:
            futures = {pool.submit(_worker_run, index): index for index in pending}
            for future in as_completed(futures):
                index, outcome, payload = future.result()
                results[index] = (outcome, payload)
                if journal is not None:
                    journal.record(index, points[index], outcome)
    finally:
        _WORKER_STATE = None

    # deterministic merge: telemetry and diagnoses re-stitched in point
    # order, exactly as a sequential campaign would have recorded them
    reparent_to = (
        campaign_span.record.span_id
        if observed and hasattr(campaign_span, "record") else None
    )
    outcomes: List[InjectionOutcome] = []
    for index in range(len(points)):
        if index in loaded:
            outcomes.append(_restore(loaded[index], active))
            continue
        outcome, payload = results[index]
        if observed and payload is not None:
            active.tracer.adopt(payload["spans"], allocated=payload["allocated"],
                                reparent_to=reparent_to)
            active.metrics.merge_snapshot(payload["metrics"])
        if active.enabled and outcome.diagnosis is not None:
            active.diagnoses.append(outcome.diagnosis)
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# representative execution (point_select="representative")
# ---------------------------------------------------------------------------
class _SubsetJournal:
    """Journal facade for one round of a representative campaign.

    Rounds run a *subset* of the point list through the ordinary
    execution paths, which journal by subset-local index; this facade
    remaps each ``record`` back to the true campaign index, and stamps
    the outcome (and its diagnosis, in place — the ambient context holds
    the same object) with its equivalence class before the line is
    written.  It is installed even when no journal is configured, because
    the stamping must reach every path's one ``record`` call; the real
    journal's lifetime stays with the campaign parent (``close`` no-op).
    """

    def __init__(self, journal: Optional[Any], indices: List[int],
                 class_of: Dict[int, str]):
        self._journal = journal
        self._indices = indices
        self._class_of = class_of

    def record(self, index: int, dpoint: DynamicCrashPoint,
               outcome: InjectionOutcome) -> None:
        true_index = self._indices[index]
        _stamp_class(outcome, self._class_of.get(true_index, ""))
        if self._journal is not None:
            self._journal.record(true_index, dpoint, outcome)

    def close(self) -> None:
        pass


def _stamp_class(outcome: InjectionOutcome, class_id: str) -> None:
    if not class_id:
        return
    outcome.class_id = class_id
    if outcome.diagnosis is not None:
        outcome.diagnosis.point_class = class_id


def _behavior(outcome: InjectionOutcome) -> Tuple:
    """What the audit lane compares: oracle verdict + bug attribution."""
    return (
        tuple(sorted(outcome.verdict.kinds())),
        tuple(sorted(outcome.matched_bugs)),
    )


def _propagate_outcome(
    primary: InjectionOutcome,
    dpoint: DynamicCrashPoint,
    class_id: str,
) -> InjectionOutcome:
    """Materialize a class member's outcome from its representative's run.

    The clone carries the representative's *evidence* (verdict, matched
    bugs, diagnosis resolution chain) under this member's own identity
    (point, stack, scale), flagged ``propagated`` so analytics can
    exclude it from bug dedup and span attribution.  Wall/sim accounting
    stays with the representative: a propagated point cost nothing.
    """
    clone = InjectionOutcome.from_dict(primary.to_dict(), dpoint)
    clone.class_id = class_id
    clone.propagated = True
    clone.wall_seconds = 0.0
    clone.duration = 0.0
    if clone.diagnosis is not None:
        point = dpoint.point
        clone.diagnosis = _dc_replace(
            clone.diagnosis,
            point=point.describe(),
            op=point.op,
            field_name=point.field_name,
            enclosing=point.enclosing,
            stack=list(dpoint.stack),
            scale=dpoint.scale,
            point_class=class_id,
            propagated=True,
            rerun_duration=0.0,
            rerun_events=0,
        )
    return clone


def _run_representative(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    points: List[DynamicCrashPoint],
    baseline: Baseline,
    matcher: Optional[BugMatcherFn],
    cfg: CampaignConfig,
    config: Optional[Dict[str, Any]],
    active: Observability,
    campaign_span: Any,
    loaded: Dict[int, InjectionOutcome],
    pending: List[int],
    journal: Optional[Any],
    workers: int,
) -> Tuple[List[InjectionOutcome], Dict[str, Any], int]:
    """Execute one representative per equivalence class, audit a sample.

    Round 1 runs every class representative plus the global audit draw;
    any audited member whose behavior (verdict kinds + matched bugs)
    disagrees with its representative promotes its *whole class* to full
    execution in round 2.  Remaining members get propagated clones of
    their representative's outcome.  Promotion is a pure function of
    behaviors, so a journal-resumed campaign promotes exactly the same
    classes a fresh run would.
    """
    plan = build_classes(points, cfg.audit_fraction)
    pending_set = set(pending)
    results: Dict[int, InjectionOutcome] = {}
    n0 = len(active.diagnoses) if active.enabled else 0
    realized = 1

    def outcome_of(index: int) -> InjectionOutcome:
        return results[index] if index in results else loaded[index]

    def run_round(indices: List[int]) -> None:
        nonlocal realized
        indices = [i for i in indices if i in pending_set and i not in results]
        if not indices:
            return
        subset = [points[i] for i in indices]
        facade = _SubsetJournal(journal, indices, plan.class_of)
        round_workers = workers
        if (round_workers > 1 and not cfg.force_workers
                and len(subset) < round_workers * 2):
            # same small-campaign degrade rule as full mode, applied
            # to what this round actually feeds the pool
            round_workers = 1
        if round_workers > 1 and len(subset) > 1:
            outcomes = _run_parallel(
                system, analysis, subset, baseline, matcher, cfg,
                config, active, campaign_span, {},
                list(range(len(subset))), facade, round_workers,
            )
            realized = max(realized, round_workers)
        else:
            outcomes = _run_sequential(
                system, analysis, subset, baseline, matcher, cfg,
                config, active, {}, facade,
            )
        for local, true_index in enumerate(indices):
            results[true_index] = outcomes[local]

    # round 1: every class representative, plus the audit draw
    run_round(sorted(set(plan.representatives) | set(plan.audited)))

    # the verification lane: an audited member disagreeing with its
    # representative promotes the whole class to full execution
    promoted: List[str] = []
    round2: List[int] = []
    for cls in plan.classes:
        rep_behavior = _behavior(outcome_of(cls.representative))
        if any(_behavior(outcome_of(i)) != rep_behavior for i in cls.audited):
            promoted.append(cls.class_id)
            round2.extend(cls.members)
    if round2:
        run_round(sorted(round2))

    # propagate: unexecuted members of unpromoted classes inherit their
    # representative's outcome (journaled under their own index/key, so
    # a resume restores them without re-deriving the plan's history)
    promoted_set = set(promoted)
    n_propagated = 0
    for cls in plan.classes:
        if cls.class_id in promoted_set:
            continue
        rep = outcome_of(cls.representative)
        for index in cls.members:
            if index in results or index in loaded:
                continue
            clone = _propagate_outcome(rep, points[index], cls.class_id)
            results[index] = clone
            n_propagated += 1
            if journal is not None:
                journal.record(index, points[index], clone)

    # deterministic merge: one outcome per point; the ambient diagnosis
    # list is rebuilt in point order (rounds appended theirs in execution
    # order, restored points never appended at all)
    outcomes = [outcome_of(index) for index in range(len(points))]
    if active.enabled:
        del active.diagnoses[n0:]
        active.diagnoses.extend(
            o.diagnosis for o in outcomes if o.diagnosis is not None
        )

    executed = sum(1 for o in outcomes if not o.propagated)
    audited_run = [i for i in plan.audited
                   if not outcome_of(i).propagated]
    class_stats = {
        "classes": len(plan.classes),
        "executed": executed,
        "audited": len(audited_run),
        "promoted": len(promoted),
        "propagated": n_propagated,
    }
    if active.enabled:
        # the purity counters: how often the audit lane caught an impure
        # class (a promotion) versus confirmed the representative
        metrics = active.metrics
        metrics.counter("campaign.classes").inc(len(plan.classes))
        metrics.counter("campaign.classes_promoted").inc(len(promoted))
        metrics.counter("campaign.points_audited").inc(len(audited_run))
        metrics.counter("campaign.points_propagated").inc(n_propagated)
        if plan.classes:
            metrics.gauge("campaign.class_purity").set(
                1.0 - len(promoted) / len(plan.classes)
            )
    return outcomes, class_stats, realized
