"""The repository benchmark: CrashTuner campaigns timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload seeded-bugs --seed 0 --seconds 20 --trace 0

A pass runs each system of the workload in its own fresh process
(``one_pass.py``), so analysis is cold as in ``python -m repro campaign``,
and scales its times to a reference machine speed measured by an
in-process probe (the machine is shared; see NOTES.md).  With ``--trace 0``
the command repeats passes for ``--seconds`` (at least one), spawns
set-up-only processes for the set-up time and pipeline calls without
their injection phase for more analysis and profile samples, and reports
the median of every end-to-end metric.  With ``--trace 1`` it runs one untraced and one
traced pass, checks that both reach the same outcomes, and reports the
per-layer metrics and the tracing overhead.  Either way it checks the
detected bugs against the workload's pinned sets, prints every metric
with its unit, writes the full record (environment block included) to
``perfbench/out/``, and prints one JSON object as its last line.

``--seed`` is the benchmark seed: it fixes the order in which a workload
runs its systems.  The campaign seed, which changes the simulated worlds
and so the work done, is ``--campaign-seed`` (default 0, where the
expected bug sets were pinned); see NOTES.md for held-out seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import PER_LAYER, layer_metrics, merge_raw
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: set-up-only processes spawned per run, besides the passes themselves
SETUP_SAMPLES = 5
#: processes per system and run that stop before the injection phase: extra
#: samples of the short analysis and profile phases
PHASE_SAMPLES = 3
#: a run must end within this many seconds of starting
RUN_LIMIT = 170.0
#: the environment of every spawned interpreter: a fixed hash seed, and no
#: byte-code cache, so no pass depends on what an earlier one left behind
CHILD_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "analysis_s": "s",
    "profile_s": "s",
    "test_s": "s",
    "points_per_s": "1/s",
    "injection_p50_ms": "ms",
    "injection_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "bugs_found": "count",
    "bug_precision": "ratio",
}

#: per-layer counters each workload is meant to exercise: each must be > 0
EXERCISED: Dict[str, List[str]] = {
    "seeded-bugs": [
        "core.analysis.s",
        "core.analysis.modules_reextracted",
        "core.analysis.static_points",
        "core.injection.campaign.first_drives",
        "core.injection.campaign.rerun_drives",
        "core.injection.campaign.rerun_events",
        "core.injection.campaign.rerun_completed_share",
        "cluster.state.emits_armed",
        "cluster.state.emits_after_fire",
        "bugs.matcher_calls",
    ],
    "clean-sweep": [
        "core.analysis.s",
        "core.analysis.modules_reextracted",
        "core.analysis.static_points",
        "core.injection.campaign.rerun_drives",
        "core.injection.campaign.rerun_completed_share",
    ],
    "yarn-10x": [
        "core.profiler.runs",
        "core.profiler.dynamic_points",
        "core.injection.oracles.baseline_runs",
        "core.injection.oracles.evaluate_s",
        "core.injection.oracles.flag_share",
        "systems.runs",
        "systems.build_s",
        "sim.events",
        "cluster.state.emits_armed",
        "cluster.state.emits_after_fire",
        "mtlog.records",
        "core.injection.online_log.process_calls",
        "core.injection.online_log.queries",
    ],
    "triage": [
        "core.injection.classes.classes",
        "core.injection.classes.executed_share",
        "core.injection.classes.audited",
        "core.injection.classes.plan_s",
    ],
}
#: ... and on every workload
EXERCISED_EVERYWHERE = [
    "core.injection.trigger.fires",
    "core.injection.control_center.injections",
]


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def _git_sha() -> str:
    """HEAD's sha, read from ``.git`` without running git ("" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def environment() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "child_env": CHILD_ENV,
    }


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _spawn(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run one_pass.py in a fresh interpreter; its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    cmd = [sys.executable, str(BENCH / "one_pass.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f} s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _pass_args(workload: Workload, campaign_seed: int, patch: str) -> List[str]:
    args = ["--workload", workload.name, "--campaign-seed", str(campaign_seed)]
    if patch:
        args += ["--patch", patch]
    return args


def run_pass(args: List[str], order: List[str], deadline: float,
             spans: Optional[Path] = None) -> Dict[str, Any]:
    """One pass: each system's pipeline call in its own fresh process."""
    systems = []
    for run_id, name in enumerate(order, 1):
        extra = ["--system", name]
        if spans is not None:
            extra += ["--trace-out", str(spans), "--run-id", str(run_id)]
        systems.append(_spawn(args + extra, deadline))
    return {
        "systems": systems,
        "wall_s": sum(s["wall_s"] for s in systems),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in systems),
    }


# ----------------------------------------------------------------------
# metrics and checks
# ----------------------------------------------------------------------
def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``.  With ten samples or fewer none has ten
    beyond it; the maximum (percentile 100) stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def pass_metrics(workload: Workload, result: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics (all but set-up) and failure counts of one pass."""
    systems = result["systems"]

    def scaled(key: str) -> float:
        return sum(s["scaled"][key] for s in systems)

    test_s = scaled("test_s")
    injections = [ms for s in systems for ms in s["scaled"]["injection_ms"]]
    expected = {(s, bug) for s in workload.systems for bug in workload.expected[s]}
    detected = {(s["system"], bug) for s in systems for bug in s["detected"]}
    found = expected & detected
    unattributed = sum(s["unattributed"] for s in systems)
    tail_ms, tail_pct = tail(injections) if injections else (0.0, 0.0)
    return {
        "wall_s": scaled("wall_s"),
        "raw_wall_s": result["wall_s"],
        "speed_factor": result["wall_s"] and scaled("wall_s") / result["wall_s"],
        "analysis_s": scaled("analysis_s"),
        "profile_s": scaled("profile_s"),
        "test_s": test_s,
        "points_per_s": sum(s["outcomes"] for s in systems) / test_s if test_s else 0.0,
        "injection_p50_ms": statistics.median(injections) if injections else 0.0,
        "injection_tail_ms": tail_ms,
        "injection_tail_pct": tail_pct,
        "injection_samples": len(injections),
        "peak_rss_mb": result["peak_rss_mb"],
        "bugs_found": len(found),
        "bug_precision": len(found) / len(detected) if detected else 0.0,
        "bugs_missed": len(expected - detected),
        "bugs_unexpected": len(detected - expected),
        "unattributed_flags": unattributed,
        "points_tested": sum(s["outcomes"] for s in systems),
    }


def check_pass(workload: Workload, result: Dict[str, Any]) -> List[str]:
    """Every failed operation of one pass, one line each."""
    failures = []
    for s in result["systems"]:
        name = s["system"]
        if s["error"]:
            last = s["error"].strip().splitlines()[-1]
            failures.append(f"{name}: pipeline raised: {last}")
            continue
        detected = set(s["detected"])
        for bug in sorted(workload.expected[name] - detected):
            failures.append(f"{name}: missed {bug}")
        for bug in sorted(detected - workload.expected[name]):
            failures.append(f"{name}: detected {bug} although not expected")
    return failures


def check_phases(first: Dict[str, Any], phases: List[Dict[str, Any]]) -> List[str]:
    """Every failed phases-only call: it raised, or profiling found another
    number of dynamic points than the first pass did."""
    points = {s["system"]: s["dynamic_points"] for s in first["systems"]}
    failures = []
    for s in phases:
        name = s["system"]
        if s["error"]:
            last = s["error"].strip().splitlines()[-1]
            failures.append(f"{name}: phases-only pipeline raised: {last}")
        elif s["dynamic_points"] != points[name]:
            failures.append(f"{name}: phases-only run profiled "
                            f"{s['dynamic_points']} points, the pass {points[name]}")
    return failures


def phase_median(key: str, order: List[str], phases: List[Dict[str, Any]],
                 passes: List[Dict[str, Any]]) -> float:
    """A short phase's time: per system the median over the phases-only
    samples and the passes, summed over the systems."""
    samples = phases + [s for p in passes for s in p["systems"]]
    return sum(statistics.median(s["scaled"][key] for s in samples
                                 if s["system"] == name)
               for name in order)


def outcome_identity(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Where two passes of one workload disagree on outcomes."""
    mismatches = []
    for sa, sb in zip(a["systems"], b["systems"]):
        for key in ("dynamic_points", "verdict_digest", "detected"):
            if sa[key] != sb[key]:
                mismatches.append(f"{sa['system']}: {key} differs between passes")
    return mismatches


def counter_checks(workload: Workload, layers: Dict[str, float]) -> List[str]:
    """Counters that contradict the workload's reason to exist."""
    exercised = EXERCISED[workload.name] + EXERCISED_EVERYWHERE
    # random_fallback is off everywhere; yarn-10x has no hang reruns
    zero = ["core.injection.control_center.fallbacks"]
    if workload.name == "yarn-10x":
        zero.append("core.injection.campaign.rerun_drives")
    if workload.campaign.get("point_select") != "representative":
        zero.append("core.injection.classes.classes")
    problems = [f"{name} is 0 on {workload.name}, which is meant to exercise it"
                for name in exercised if not layers[name]]
    problems += [f"{name} is {layers[name]} on {workload.name}, predicted 0"
                 for name in zero if layers[name]]
    return problems


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def measure(workload: Workload, order: List[str], campaign_seed: int,
            seconds: float, patch: str, started: float) -> Dict[str, Any]:
    """Untraced passes for ``seconds``; medians of the end-to-end metrics.

    Before the passes come ``SETUP_SAMPLES`` set-up-only processes and
    ``PHASE_SAMPLES`` phases-only processes per system: ``setup_s``,
    ``analysis_s`` and ``profile_s`` are short, so one sample a pass
    would leave them at the mercy of the machine's speed of the moment.
    """
    deadline = started + RUN_LIMIT
    args = _pass_args(workload, campaign_seed, patch)
    setups = [
        _spawn(args + ["--system", order[i % len(order)], "--setup-only"],
               deadline)
        for i in range(SETUP_SAMPLES)
    ]
    phases = [_spawn(args + ["--system", name, "--phases-only"], deadline)
              for _ in range(PHASE_SAMPLES) for name in order]
    passes: List[Dict[str, Any]] = []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(args, order, deadline))
        took = time.monotonic() - t0
        if time.monotonic() - started + took > seconds:
            break
    setups += phases + [s for p in passes for s in p["systems"]]
    per_pass = [pass_metrics(workload, p) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["setup_s"] = statistics.median(s["scaled"]["setup_s"] for s in setups)
    for key in ("analysis_s", "profile_s"):
        metrics[key] = phase_median(key, order, phases, passes)
    failures = [f for p in passes for f in check_pass(workload, p)]
    failures += [f for p in passes[1:] for f in outcome_identity(passes[0], p)]
    failures += check_phases(passes[0], phases)
    attempted = sum(m["points_tested"] for m in per_pass) + len(phases) + (
        len(passes) * workload.expected_total())
    return {"passes": passes, "phases": phases,
            "setup_samples": [s["setup_s"] for s in setups],
            "metrics": metrics,
            "failures": failures, "attempted": attempted}


def traced(workload: Workload, order: List[str], campaign_seed: int,
           seed: int, patch: str, started: float) -> Dict[str, Any]:
    """One untraced and one traced pass; the per-layer metrics."""
    deadline = started + RUN_LIMIT
    args = _pass_args(workload, campaign_seed, patch)
    plain = run_pass(args, order, deadline)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    spans.unlink(missing_ok=True)
    result = run_pass(args, order, deadline, spans=spans)
    stats = [s["classes"] for s in result["systems"] if s["classes"]]
    classes = {key: sum(st[key] for st in stats) for key in stats[0]} if stats else {}
    layers = layer_metrics(
        merge_raw([s["layers"] for s in result["systems"]],
                  [s["speed_factor"] for s in result["systems"]]),
        classes, sum(s["outcomes"] for s in result["systems"]))
    metrics = pass_metrics(workload, result)
    layers["trace.overhead_share"] = (
        metrics["wall_s"] / pass_metrics(workload, plain)["wall_s"] - 1.0)
    failures = check_pass(workload, result)
    failures += outcome_identity(plain, result)
    failures += counter_checks(workload, layers)
    metrics["setup_s"] = statistics.median(
        s["scaled"]["setup_s"] for s in result["systems"])
    return {"passes": [plain, result], "spans": str(spans.relative_to(ROOT)),
            "setup_samples": [s["setup_s"] for s in result["systems"]],
            "layers": layers, "metrics": metrics, "failures": failures,
            "attempted": metrics["points_tested"] + workload.expected_total()}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: Workload, run: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print the human-readable record; return the final JSON object."""
    m = run["metrics"]
    print(f"environment: {json.dumps(run['environment'])}")
    print(f"workload: {json.dumps(run['definition'])}")
    print(f"passes: {len(run['passes'])}")
    rows: List[Tuple[str, Any, str, str]] = []
    for name, unit in END_TO_END.items():
        note = ""
        if name == "injection_tail_ms":
            note = (f"p{m['injection_tail_pct']:.1f} of "
                    f"{m['injection_samples']:.0f} executed points")
        elif name == "injection_p50_ms":
            note = f"of {m['injection_samples']:.0f} executed points"
        elif name == "setup_s":
            note = f"median of {len(run['setup_samples'])} set-ups"
        elif name in ("analysis_s", "profile_s") and "phases" in run:
            calls = len(run["phases"]) + sum(len(p["systems"]) for p in run["passes"])
            note = f"per-system medians of {calls} pipeline calls, summed"
        rows.append((name, m[name], unit, note))
    for name in ("bugs_missed", "bugs_unexpected"):
        rows.append((name, m[name], "count", "failed operations"))
    rows.append(("unattributed_flags", m["unattributed_flags"], "count", ""))
    rows.append(("raw_wall_s", m["raw_wall_s"], "s", "wall clock, not scaled"))
    rows.append(("speed_factor", m["speed_factor"], "ratio",
                 "reference speed / measured speed"))
    if trace:
        rows += [(name, run["layers"][name], unit, "") for name, unit, _ in PER_LAYER]
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {_fmt(value):>14} {unit:<6} {note}".rstrip())
    for failure in run["failures"]:
        print(f"FAILED: {failure}")
    if trace:
        print(f"spans: {run['spans']}")
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": m[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": metrics,
    }


def _terminate(_signum: int, _frame: Any) -> None:
    # SystemExit unwinds through subprocess.run, which kills the pass
    sys.exit(143)


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: the order systems run in")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long untraced passes repeat (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int, default=0,
                        help="CampaignConfig.seed; 0 is where the bug sets were pinned")
    parser.add_argument("--patch", default="",
                        help="comma-separated bug ids to patch on top of the workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    order = workload.order(args.seed)
    try:
        if args.trace:
            run = traced(workload, order, args.campaign_seed, args.seed,
                         args.patch, started)
        else:
            run = measure(workload, order, args.campaign_seed, args.seconds,
                          args.patch, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    run["environment"] = environment()
    run["definition"] = dict(run["passes"][0]["systems"][0]["definition"],
                             benchmark_seed=args.seed, order=order)
    summary = report(workload, run, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    patched = "-patched-" + args.patch.replace(",", "+") if args.patch else ""
    record = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}{patched}.json"
    record.write_text(json.dumps({**run, "result": summary}, indent=1))
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
