"""Self-test of the benchmark: its correctness check can fail, and it refuses
to run without the program.

1. One seeded-bugs pass with CA-15131 patched on top (a bug the workload
   expects to find) must report exactly that bug missed: ``bugs_missed``
   1, ``failed`` 1, ``correct`` false.
2. run.py copied with BENCHMARK.json into a directory without ``src/``
   must exit non-zero without printing a result.
3. BENCHMARK.json must list exactly the metrics run.py reports, and only
   workloads run.py knows.

Run from the repository root (about 35 s)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

from layers import PER_LAYER
from run import END_TO_END, OUT
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PATCHED_BUG = "CA-15131"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_patched_bug_is_missed() -> List[str]:
    proc = _run(ROOT, "--workload", "seeded-bugs", "--seconds", "1",
                "--patch", PATCHED_BUG)
    if proc.returncode != 0:
        return [f"patched run exited {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT / f"seeded-bugs-seed0-trace0-patched-{PATCHED_BUG}.json").read_text())
    problems = []
    if result["correct"] or result["failed"] != 1:
        problems.append(f"expected correct=false, failed=1; got {result}")
    if record["metrics"]["bugs_missed"] != 1:
        problems.append(f"bugs_missed is {record['metrics']['bugs_missed']}, expected 1")
    if record["failures"] != [f"cassandra: missed {PATCHED_BUG}"]:
        problems.append(f"unexpected failure list {record['failures']}")
    return problems


def check_refuses_without_program() -> List[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in BENCH.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    try:
        proc = _run(bare, "--workload", "triage", "--seed", "1")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"ran without src/: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def check_manifest() -> List[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if e2e != END_TO_END:
        problems.append(f"end_to_end {e2e} != run.py {END_TO_END}")
    layers = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if layers != PER_LAYER:
        problems.append("per_layer differs from layers.PER_LAYER")
    unknown = [w["name"] for w in manifest["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        problems.append(f"workloads {unknown} are not in workloads.WORKLOADS")
    return problems


def main() -> int:
    problems = (check_manifest() + check_refuses_without_program()
                + check_patched_bug_is_missed())
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print("selftest: ok (manifest matches; no result without src/; "
          f"patching {PATCHED_BUG} reports bugs_missed = 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
