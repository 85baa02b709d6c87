"""Smoke test of the benchmark itself, at a small size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the first 30 queries of a batch
and checks that
* an untraced run prints every end-to-end metric with its unit, and no other;
* a traced run does the same for the per-layer metrics, and two traced runs
  with one seed give exactly the same counts;
* every answer checked out (`correct` is true).
It also checks that run.py refuses, with a non-zero exit and no result line,
in a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUERIES = "30"
SEED = "7"
# Timings change from run to run; everything else the traced run prints is a count or a ratio of counts.
TIMED = ("_ms", "trace.overhead_ratio")


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", SEED,
         "--seconds", "1", "--trace", str(trace), "--queries", QUERIES],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys are {sorted(doc)}")
    if doc["correct"] is not True or doc["attempted"] < 1:
        raise AssertionError(f"run was not correct: {doc}")
    return doc


def check_metrics(doc: dict, declared: list) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    for name, m in doc["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{name} is not a number: {m['value']!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(result(run(workload, 0)), spec["end_to_end"])
        first, second = result(run(workload, 1)), result(run(workload, 1))
        check_metrics(first, spec["per_layer"])
        for name, m in first["metrics"].items():
            if not name.endswith(TIMED) and m["value"] != second["metrics"][name]["value"]:
                raise AssertionError(f"{workload}: {name} differs between traced runs with one seed")
        print(f"{workload}: ok")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("run.py printed a result without a source tree")
    print("bare directory: refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
