"""The benchmark's workloads: what each one runs and which bugs it must find.

A workload is a batch job: one fresh process runs ``crashtuner`` over each
of its systems in turn, with ``workers=1`` and the default ``replay``
execution.  The expected bug sets are pinned at campaign seed 0 on the
unmodified 1.6.0 program; every other campaign seed is checked against
the same sets, so a seed that loses a bug reports it as missed.

``clean-sweep`` is defined here but not listed in ``BENCHMARK.json``: the
program re-detects the patched HDFS-14372 on it, so it reports a failed
operation on every run until that defect is fixed (see NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

#: Table 4 order, as ``repro.api.all_systems()`` returns them
ALL_SYSTEMS = ("yarn", "hdfs", "hbase", "zookeeper", "cassandra")

SEEDED_EXPECTED: Dict[str, FrozenSet[str]] = {
    "yarn": frozenset({
        "MR-3858", "MR-7178", "TO-YARN-1", "TO-YARN-2", "YARN-5918",
        "YARN-8649", "YARN-8650", "YARN-9164", "YARN-9165", "YARN-9193",
        "YARN-9194", "YARN-9201", "YARN-9238", "YARN-9248",
    }),
    "hdfs": frozenset({"HDFS-14216", "HDFS-14372", "HDFS-6231"}),
    "hbase": frozenset({
        "HBASE-21740", "HBASE-22017", "HBASE-22023", "HBASE-22041",
        "HBASE-22050", "HBASE-3617", "TO-HBASE-1",
    }),
    "cassandra": frozenset({"CA-15131"}),
    # ZK-569's symptom is handled by the recovery code, as in the paper
    "zookeeper": frozenset(),
}

#: with every seeded bug patched only the timeout issues remain (they are
#: slow recoveries, not patchable defects)
CLEAN_EXPECTED: Dict[str, FrozenSet[str]] = {
    "yarn": frozenset({"TO-YARN-1", "TO-YARN-2"}),
    "hdfs": frozenset(),
    "hbase": frozenset({"TO-HBASE-1"}),
    "zookeeper": frozenset(),
    "cassandra": frozenset(),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    systems: Tuple[str, ...]
    #: CampaignConfig fields beyond ``seed`` (which comes from the run)
    campaign: Dict[str, object]
    #: "none" (every seeded bug live) or "all" (``all_patched_config()``)
    patched: str
    expected: Dict[str, FrozenSet[str]]
    world_scale: int = 1
    #: extra bug ids patched on top of ``patched`` (the self-test's knob)
    extra_patched: FrozenSet[str] = field(default_factory=frozenset)

    def order(self, seed: int) -> List[str]:
        """The benchmark seed's system order; outcomes do not depend on it."""
        systems = list(self.systems)
        random.Random(seed).shuffle(systems)
        return systems

    def expected_total(self) -> int:
        return sum(len(self.expected[s]) for s in self.systems)

    def definition(self, campaign_seed: int) -> Dict[str, object]:
        """Everything that fixes the workload's inputs, as JSON-able data."""
        from repro.api import CampaignConfig

        cfg = CampaignConfig(seed=campaign_seed, **self.campaign)
        return {
            "name": self.name,
            "systems": list(self.systems),
            "world_scale": self.world_scale,
            "campaign": cfg.to_dict(),
            "patched": self.patched,
            "extra_patched": sorted(self.extra_patched),
            "campaign_seed": campaign_seed,
            "expected": {s: sorted(self.expected[s]) for s in self.systems},
        }

    def cluster_config(self) -> Optional[Dict[str, object]]:
        from repro.bugs import all_patched_config, get_bug

        flags = {get_bug(bug).flag for bug in self.extra_patched}
        if self.patched == "all":
            base = set(all_patched_config()["patched_bugs"])
        else:
            base = set()
        if not base and not flags:
            return None
        return {"patched_bugs": frozenset(base | flags)}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="seeded-bugs",
        why="the paper's headline run: five systems, every seeded bug live; "
            "true hangs and their 400x reruns dominate",
        systems=ALL_SYSTEMS,
        campaign={},
        patched="none",
        expected=SEEDED_EXPECTED,
    ),
    Workload(
        name="clean-sweep",
        why="same five systems with every seeded bug patched: reruns complete "
            "as timeout issues, the matcher idles, cold analysis is the "
            "largest share",
        systems=ALL_SYSTEMS,
        campaign={},
        patched="all",
        expected=CLEAN_EXPECTED,
    ),
    Workload(
        name="yarn-10x",
        why="yarn at world_scale 10, 8 points: event kernel, log collector, "
            "online store, world build and baseline do the work; no hang "
            "reruns",
        systems=("yarn",),
        campaign={"max_points": 8},
        patched="none",
        # pinned from the 1.6.0 program at campaign seed 0: the first 8
        # points expose one bug
        expected={"yarn": frozenset({"MR-7178"})},
        world_scale=10,
    ),
    Workload(
        name="triage",
        why="representative point selection over yarn and hbase: "
            "equivalence classes and the executor's skip-runs path",
        systems=("yarn", "hbase"),
        campaign={"point_select": "representative"},
        patched="none",
        expected={s: SEEDED_EXPECTED[s] for s in ("yarn", "hbase")},
    ),
)}
