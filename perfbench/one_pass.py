"""One system's pipeline call in a fresh process; ``run.py`` spawns it.

A pass of a workload runs each of its systems through this script in turn,
as ``python -m repro campaign <system>`` would.  It prints one JSON object
on its last stdout line: the set-up time, the pipeline wall and Table 11
phases, every executed injection's wall time, the detected bugs, and a
digest of the per-point verdicts (so passes and traced runs can be
compared for identity).  With ``--trace-out`` the layer boundaries are
traced (see ``layers.py``), their raw counts and times join the output,
and the spans are appended to that file at exit.  With ``--phases-only``
the pipeline call skips its injection phase (``run_injection=False``), so
the process reports only set-up, analysis and profile: ``run.py`` takes
extra samples of those short phases this way.

Usage (normally through run.py)::

    PYTHONPATH=src python3 perfbench/one_pass.py --workload yarn-10x \\
        --system yarn --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple


#: the speed probe: a fixed loop run every PROBE_INTERVAL seconds
PROBE_INTERVAL = 0.025
PROBE_LOOPS = 3000
#: the probe's duration on the reference machine speed; every time the
#: benchmark reports is scaled to that speed (see NOTES.md)
REFERENCE_PROBE_S = 250e-6


class SpeedProbe:
    """Samples the machine's speed while the pipeline runs.

    On a shared machine the same work can take 25% longer from one second
    to the next, in phases lasting seconds.  A SIGALRM handler runs a
    fixed loop every ``PROBE_INTERVAL`` seconds in this process, between
    the pipeline's bytecodes, and records when it ran and how long it
    took.  ``factor(lo, hi)`` is the reference probe time over the
    interquartile mean of the probe times around the interval
    ``[lo, hi]``: it scales a time measured in that interval to the
    reference speed.  The handler touches no program state; it costs
    about 1% of the wall time.
    """

    #: probes averaged for an interval too short to hold this many
    NEAREST = 7

    def __init__(self) -> None:
        #: (perf_counter at the end of the probe, probe duration)
        self.samples: List[Tuple[float, float]] = []

    def _sample(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def burst(self, n: int) -> None:
        for _ in range(n):
            self._sample()

    def _on_alarm(self, _signum: int, _frame: Any) -> None:
        self._sample()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, lo: float = float("-inf"), hi: float = float("inf")) -> float:
        inside = [d for t, d in self.samples if lo <= t <= hi]
        if len(inside) < self.NEAREST:
            mid = (lo + hi) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:self.NEAREST]]
        inside.sort()
        cut = len(inside) // 4
        return REFERENCE_PROBE_S / statistics.fmean(inside[cut:len(inside) - cut])


def _scaled(probe: SpeedProbe, t0: float, t1: float, setup_s: float,
            summary: Dict[str, Any], executed: List[float]) -> Dict[str, Any]:
    """The pipeline's times scaled to the reference speed, each by the
    probes around the interval it was measured in.

    The phases ran back to back from ``t0``; the executed injections ran
    back to back at the end of the test phase, in point order, so their
    intervals are laid out backwards from its end.
    """
    a, p, t = summary["analysis_s"], summary["profile_s"], summary["test_s"]
    test_lo, test_hi = t0 + a + p, t0 + a + p + t
    injection_ms = []
    end = test_hi
    for wall in reversed(executed):
        injection_ms.append(wall * 1e3 * probe.factor(end - wall, end))
        end -= wall
    injection_ms.reverse()
    return {
        "setup_s": setup_s * probe.factor(hi=t0),
        "wall_s": (t1 - t0) * probe.factor(t0, t1),
        "analysis_s": a * probe.factor(t0, t0 + a),
        "profile_s": p * probe.factor(t0 + a, test_lo),
        "test_s": t * probe.factor(test_lo, test_hi),
        "injection_ms": injection_ms,
    }


def _system(name: str, world_scale: int) -> Any:
    from repro.api import all_systems, get_system

    if world_scale == 1:
        # the Table 4 instances, as the workload definitions name them
        return {s.name: s for s in all_systems()}[name]
    return get_system(name, world_scale=world_scale)


#: what a pipeline call that raised reports besides its traceback
NO_RESULT: Dict[str, Any] = {
    "analysis_s": 0.0, "profile_s": 0.0, "test_s": 0.0, "dynamic_points": 0,
    "outcomes": 0, "injection_ms": [], "detected": [], "flagged": 0,
    "unattributed": 0, "verdict_digest": "", "classes": None,
}


def _summarize(result: Any) -> Dict[str, Any]:
    row = result.table11_row()
    outcomes = result.campaign.outcomes
    verdicts = [
        [o.dpoint.describe(), sorted(o.verdict.kinds()), sorted(o.matched_bugs),
         o.propagated]
        for o in outcomes
    ]
    flagged = [o for o in outcomes if o.flagged]
    executed = [o for o in outcomes if not o.propagated]
    return {
        "analysis_s": row["analysis_wall_s"],
        "profile_s": row["profile_wall_s"],
        "test_s": row["test_wall_s"],
        "dynamic_points": len(result.profile.dynamic_points),
        "outcomes": len(outcomes),
        "injection_ms": [o.wall_seconds * 1e3 for o in executed],
        "detected": sorted(result.detected_bugs()),
        "flagged": len(flagged),
        "unattributed": sum(1 for o in flagged if not o.matched_bugs),
        "verdict_digest": hashlib.sha256(
            json.dumps(verdicts).encode("utf-8")).hexdigest(),
        "classes": result.campaign.classes,
    }


def _summarize_phases(result: Any) -> Dict[str, Any]:
    """What a pipeline call without its injection phase reports."""
    row = result.table11_row()
    return {
        "analysis_s": row["analysis_wall_s"],
        "profile_s": row["profile_wall_s"],
        "dynamic_points": len(result.profile.dynamic_points),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--system", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent right before spawning")
    parser.add_argument("--campaign-seed", type=int, default=0)
    parser.add_argument("--patch", default="",
                        help="comma-separated bug ids to patch on top of the workload's")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the pipeline call; report set-up time")
    parser.add_argument("--phases-only", action="store_true",
                        help="run the pipeline without its injection phase; "
                             "report set-up, analysis and profile times")
    parser.add_argument("--trace-out", default="",
                        help="trace the layer boundaries; append the spans here")
    parser.add_argument("--run-id", type=int, default=1,
                        help="the run id of this pipeline call's spans")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.patch:
        workload = replace(workload, extra_patched=frozenset(args.patch.split(",")))

    from repro.api import CampaignConfig, crashtuner

    system = _system(args.system, workload.world_scale)
    setup_s = time.monotonic() - args.spawned_at
    probe = SpeedProbe()
    probe.burst(SpeedProbe.NEAREST)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "scaled": {"setup_s": setup_s * probe.factor()}}))
        return 0

    cfg = CampaignConfig(seed=args.campaign_seed, **workload.campaign)
    config = workload.cluster_config()
    trace = None
    if args.trace_out:
        from layers import LayerTrace

        trace = LayerTrace()
        trace.install()

    out: Dict[str, Any] = {"system": args.system, "setup_s": setup_s,
                           "error": None, **NO_RESULT}
    t0 = time.perf_counter()
    try:
        with probe:
            if args.phases_only:
                result = crashtuner(system, campaign=cfg, config=config,
                                    run_injection=False)
            elif trace is None:
                result = crashtuner(system, campaign=cfg, config=config)
            else:
                with trace.run(args.run_id, system.name):
                    result = crashtuner(system, campaign=cfg, config=config)
    except Exception:  # noqa: BLE001 - a raising pipeline is a failed operation
        out["error"] = traceback.format_exc()
    else:
        out.update(_summarize_phases(result) if args.phases_only
                   else _summarize(result))
    t1 = time.perf_counter()
    out["wall_s"] = t1 - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["probe"] = {"t0": t0, "t1": t1, "samples": probe.samples}
    out["speed_factor"] = probe.factor(t0, t1)
    out["scaled"] = _scaled(probe, t0, t1, setup_s, out,
                            [ms / 1e3 for ms in out["injection_ms"]])
    out["definition"] = workload.definition(args.campaign_seed)
    if trace is not None:
        trace.uninstall()
        out["layers"] = trace.raw()
        trace.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
