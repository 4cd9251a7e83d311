"""Heavy-traffic scale — events/s and campaign wall vs. cluster size.

The scale kernel's acceptance gate (DESIGN.md "Scale kernel"): the
simulated world grows 100x (nodes multiply, offered load squares, log
volume reaches the 10^5-10^6 records/run band) while per-event dispatch
cost stays within **2x** of the seed world.  This benchmark measures one
plain run per scale level (seed is the median of 5 repetitions — a seed
run lasts milliseconds, so single-shot timings are noise) and one 2-point
injection campaign per level, using the same seed-profiled crash points
at every scale so the campaign legs are comparable.

Campaigns replay each injection from t=0, one run per point, as every
campaign does; hang reclassification is off (``classify_timeouts=False``)
so each leg costs exactly one run per point on top of its baseline.
Replaying the 100x prefix per point beat forking a recorded prefix at
every scale measured (DESIGN.md "One replay engine").

The measured numbers go to ``benchmarks/out/BENCH_scale.json`` for the CI
artifact; the per-event gate is asserted here, so the scale-smoke CI job
fails if 100x regresses past 2x seed cost.
"""

import json
import statistics
import time

from benchmarks.conftest import OUT_DIR
from repro.bugs import matcher_for_system
from repro.core.analysis import analyze_system
from repro.core.injection import CampaignConfig, build_baseline, run_campaign
from repro.core.profiler import profile_system
from repro.core.report import format_table
from repro.systems import run_workload
from repro.systems.hbase.system import HBaseSystem
from repro.systems.yarn.system import YarnSystem

#: per-event cost at 100x must stay within this factor of seed cost
GATE_RATIO = 2.0

#: spill config for the 100x run: 621k records would otherwise sit in RAM
X100_CONFIG = {"log_spill_threshold": 50_000}

#: injection points per campaign leg (seed-profiled, reused at each scale)
N_POINTS = 2


def _measure_run(system, reps=1, config=None):
    """Median plain-run timing over ``reps`` repetitions."""
    walls, last = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        report = run_workload(system, seed=0, config=config, keep_cluster=True)
        walls.append(time.perf_counter() - t0)
        last = report
    assert last.completed and last.succeeded, last.failures
    wall = statistics.median(walls)
    events = last.cluster.loop.events_processed
    return {
        "world_scale": system.world_scale,
        "nodes": len(last.cluster.nodes),
        "events": events,
        "records": len(last.cluster.log_collector.records),
        "sim_seconds": round(last.duration, 3),
        "wall_s": round(wall, 3),
        "events_per_s": round(events / wall, 1),
        "us_per_event": round(wall / events * 1e6, 3),
    }


def _measure_campaign(system, analysis, points, config=None):
    """Wall clock of a small campaign (baseline included) on one scaled world."""
    t0 = time.perf_counter()
    baseline = build_baseline(system, seeds=[0], config=config)
    result = run_campaign(
        system, analysis, points,
        campaign=CampaignConfig(classify_timeouts=False),
        baseline=baseline, matcher=matcher_for_system(system.name),
        config=config,
    )
    wall = time.perf_counter() - t0
    assert all(o.fired for o in result.outcomes), "a crash point never fired"
    return round(wall, 3)


def _seed_points(system):
    analysis = analyze_system(system)
    profile = profile_system(system, analysis, max_iterations=1)
    return analysis, profile.dynamic_points[:N_POINTS]


def test_scale_table11_stays_flat(table_out):
    yarn_analysis, yarn_points = _seed_points(YarnSystem())
    hbase_analysis, hbase_points = _seed_points(HBaseSystem())

    rows = {"yarn": [], "hbase": []}
    for ws, reps, config in ((1, 5, None), (10, 2, None), (100, 1, X100_CONFIG)):
        entry = _measure_run(YarnSystem(world_scale=ws), reps=reps, config=config)
        entry["campaign_wall_s"] = _measure_campaign(
            YarnSystem(world_scale=ws), yarn_analysis, yarn_points, config=config)
        rows["yarn"].append(entry)
    for ws, reps in ((1, 5), (10, 2)):
        entry = _measure_run(HBaseSystem(world_scale=ws), reps=reps)
        entry["campaign_wall_s"] = _measure_campaign(
            HBaseSystem(world_scale=ws), hbase_analysis, hbase_points)
        rows["hbase"].append(entry)

    seed_us = rows["yarn"][0]["us_per_event"]
    x100_us = rows["yarn"][2]["us_per_event"]
    ratio = x100_us / seed_us
    record = {
        "gate": {
            "seed_us_per_event": seed_us,
            "x100_us_per_event": x100_us,
            "ratio": round(ratio, 3),
            "limit": GATE_RATIO,
        },
        "yarn": rows["yarn"],
        "hbase": rows["hbase"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_scale.json").write_text(json.dumps(record, indent=2) + "\n")

    table_rows = []
    for name in ("yarn", "hbase"):
        for e in rows[name]:
            table_rows.append([
                name, f"{e['world_scale']}x", e["nodes"], e["events"],
                e["records"], f"{e['events_per_s']:,.0f}",
                f"{e['us_per_event']:.1f}", f"{e['campaign_wall_s']:.1f}",
            ])
    table_out(format_table(
        ["System", "World", "Nodes", "Events", "Records", "Events/s",
         "us/event", "Campaign (s)"],
        table_rows,
        title=f"Heavy-traffic scale (100x per-event ratio {ratio:.2f}x, "
              f"gate {GATE_RATIO:.1f}x)",
    ))

    # the heavy worlds actually reach the promised magnitudes
    assert rows["yarn"][2]["records"] >= 100_000, rows["yarn"][2]
    assert rows["yarn"][2]["events"] >= 1_000_000, rows["yarn"][2]
    assert rows["yarn"][2]["nodes"] >= 300, rows["yarn"][2]
    # the gate: per-event cost at 100x within 2x of seed
    assert ratio <= GATE_RATIO, (
        f"100x per-event cost {x100_us:.2f}us is {ratio:.2f}x seed "
        f"({seed_us:.2f}us); gate is {GATE_RATIO:.1f}x")
