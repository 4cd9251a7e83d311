"""Campaign scaling — sequential vs parallel vs representative.

Two executor contracts are checked against the sequential run:

* the **parallel** campaign (``workers=N``) must be outcome-identical
  always, and at least 2x faster on a machine with enough cores.  The
  speed gate needs >= 4 cores and >= 4 workers; below that it is skipped,
  and the artifact and the printed output say so (``parallel_gate``);
* the **representative** campaign (``point_select="representative"``)
  must detect the identical bug set at 1.5x+ less wall on a
  *paper-scale* campaign — the yarn point list repeated for several
  rounds, mimicking the paper's thousands of injection runs over the
  same crash points.  (The miniature single-pass list is dominated by
  two unique hang-classified points no clustering can collapse, so the
  wall bar is set where the optimization is aimed: campaigns whose
  redundancy carries real cost.  Points-executed savings are recorded
  for the single pass too.)

The measured numbers are written to ``benchmarks/out/BENCH_campaign.json``
for the CI artifact.

Set ``CRASHTUNER_BENCH_WORKERS`` to choose the parallel width (default:
``min(4, cpu_count)``, floored at 2 so the parallel path always runs).
"""

import json
import os

from benchmarks.conftest import OUT_DIR, bench_scale, full_result
from repro.api import CampaignConfig, get_system, run_campaign
from repro.bugs import matcher_for_system
from repro.core.report import format_table, hours, speedup


def bench_workers() -> int:
    env = os.environ.get("CRASHTUNER_BENCH_WORKERS")
    if env:
        return max(2, int(env))
    return max(2, min(4, os.cpu_count() or 1))


def _outcome_dicts(result):
    dicts = [o.to_dict() for o in result.outcomes]
    for d in dicts:
        d.pop("wall_seconds")
    return dicts


def scale():
    result = full_result("yarn")
    analysis, points = result.analysis, result.profile.dynamic_points
    baseline = result.campaign.baseline
    matcher = matcher_for_system("yarn")
    workers = bench_workers()

    def campaign(n):
        return run_campaign(get_system("yarn"), analysis, points,
                            campaign=CampaignConfig(workers=n),
                            baseline=baseline, matcher=matcher)

    replay = campaign(1)
    parallel = campaign(workers)

    # the representative axis runs at paper scale: the same point list
    # repeated for `rounds` rounds of injections (CRASHTUNER_BENCH_SCALE
    # grows it toward the paper's 3000-run campaigns)
    rounds = 3 * bench_scale()
    many = points * rounds

    def many_campaign(select):
        return run_campaign(get_system("yarn"), analysis, many,
                            campaign=CampaignConfig(point_select=select),
                            baseline=baseline, matcher=matcher)

    full_many = many_campaign("full")
    rep_many = many_campaign("representative")
    return replay, parallel, workers, (rounds, full_many, rep_many)


def test_campaign_scaling(benchmark, table_out):
    replay, parallel, workers, representative = benchmark(scale)
    rounds, full_many, rep_many = representative
    full_many_wall = full_many.wall_seconds
    rep_many_wall = rep_many.wall_seconds
    cpu_count = os.cpu_count() or 1

    # correctness first: the pool is outcome-identical to in-process
    assert _outcome_dicts(parallel) == _outcome_dicts(replay)
    assert sorted(parallel.detected_bugs()) == sorted(replay.detected_bugs())
    assert parallel.sim_seconds == replay.sim_seconds
    assert parallel.workers == workers

    # representative correctness: identical bug set, strictly fewer
    # points executed, every skipped point's outcome propagated
    assert sorted(rep_many.detected_bugs()) == sorted(full_many.detected_bugs())
    classes = dict(rep_many.classes)
    assert classes["executed"] < len(full_many.outcomes)
    assert classes["executed"] + classes["propagated"] == len(full_many.outcomes)
    representative_speedup = full_many_wall / max(rep_many_wall, 1e-9)

    parallel_speedup = replay.wall_seconds / max(parallel.wall_seconds, 1e-9)
    # parallel's bar only on a machine that can actually go 2x wide
    gate_parallel = cpu_count >= 4 and workers >= 4
    parallel_gate = (
        "enforced: >= 2.0x" if gate_parallel
        else f"skipped: {cpu_count} cpus < 4" if cpu_count < 4
        else f"skipped: {workers} workers < 4"
    )
    record = {
        "system": "yarn",
        "points": len(replay.outcomes),
        "workers": workers,
        "cpu_count": cpu_count,
        "replay_wall_s": round(replay.wall_seconds, 3),
        "parallel_wall_s": round(parallel.wall_seconds, 3),
        "parallel_speedup": round(parallel_speedup, 3),
        "parallel_gate": parallel_gate,
        "realized_parallelism": round(parallel.speedup, 3),
        "test_sim_hours": hours(replay.sim_seconds),
        "representative": {
            "rounds": rounds,
            "points": len(full_many.outcomes),
            "executed": classes["executed"],
            "classes": classes["classes"],
            "audit_hits": classes["audited"],
            "promoted": classes["promoted"],
            "full_wall_s": round(full_many_wall, 3),
            "representative_wall_s": round(rep_many_wall, 3),
            "wall_ratio": round(representative_speedup, 3),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_campaign.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"parallel_gate: {parallel_gate} (measured {parallel_speedup:.2f}x)")
    if gate_parallel:
        assert parallel_speedup >= 2.0, (
            f"parallel campaign only {parallel_speedup:.2f}x faster "
            f"({workers} workers on {cpu_count} cores)")
    # representative's bar holds everywhere: one process, the win is
    # points never executed at all
    assert representative_speedup >= 1.5, (
        f"representative campaign only {representative_speedup:.2f}x faster "
        f"than full execution over {rounds} rounds "
        f"({record['representative']['full_wall_s']}s vs "
        f"{record['representative']['representative_wall_s']}s)")

    table_out(format_table(
        ["Mode", "Workers", "Wall (s)", "Speedup", "Test (sim)"],
        [
            ["sequential", 1, f"{replay.wall_seconds:.2f}",
             speedup(1.0), hours(replay.sim_seconds)],
            ["parallel", workers, f"{parallel.wall_seconds:.2f}",
             speedup(parallel_speedup), hours(parallel.sim_seconds)],
            [f"full x{rounds}", 1, f"{full_many_wall:.2f}",
             speedup(1.0), hours(full_many.sim_seconds)],
            [f"representative x{rounds}", 1, f"{rep_many_wall:.2f}",
             speedup(representative_speedup), hours(rep_many.sim_seconds)],
        ],
        title=f"Campaign scaling on yarn ({cpu_count} cores)",
    ))
