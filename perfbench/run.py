"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sm2-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source tree of smbraid.  The program is imported from
the tree's `src` (it need not be installed).  Steps:

1. compile `src` to bytecode, as an installed CLI would have it;
2. set-up: start a fresh interpreter several times, each answering the
   workload's first query through `python -m smbraid.cli`, each between two
   starts of a bare interpreter (`python -c pass`);
3. start a fresh interpreter running worker.py, which drives the query batch
   in-process and checks every answer.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run.  The line before the result
records the environment and the ungated raw numbers.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 9
# setup_s is reported in seconds on a host where a bare interpreter starts in
# this time.  On a shared host, speed drifts by tens of percent between runs;
# the ratio of a CLI call to the bare starts around it hardly does.
BARE_START_S = 0.040
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """The pinned environment of every child interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in ("SMBRAID_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str | None:
    """HEAD's commit from .git, if the tree is a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def timed_child(args: list, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def setup(workload: str, env: dict) -> dict:
    """Fresh CLI calls answering the workload's first query, each timed
    against the bare interpreter starts on either side of it."""
    probe = workloads.PROBES[workload]
    ratios, walls, failed, wrong = [], [], 0, 0
    for _ in range(SETUP_RUNS):
        before, _ = timed_child(["-c", "pass"], env)
        wall, proc = timed_child(["-m", "smbraid.cli", *probe.argv], env)
        after, _ = timed_child(["-c", "pass"], env)
        ratios.append(wall / ((before + after) / 2))
        walls.append(wall)
        verdict = workloads.outcome(probe, proc.returncode, proc.stdout, proc.stderr, None)
        failed += verdict != workloads.OK
        wrong += verdict == workloads.WRONG
    return {
        "setup_s": statistics.median(ratios) * BARE_START_S,
        "setup_wall_s": statistics.median(walls),
        "attempted": len(walls),
        "failed": failed,
        "wrong": wrong,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="smbraid benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--queries", type=int, default=None,
                    help="use only the first N queries of the batch (self-test only; not comparable)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "smbraid", "cli.py")):
        print(f"error: no smbraid source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    env = child_env()

    attempted = failed = wrong = 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    metrics, raw = {}, {}
    if not args.trace:
        s = setup(args.workload, env)
        attempted, failed, wrong = s["attempted"], s["failed"], s["wrong"]
        metrics["setup_s"] = s["setup_s"]
        raw["setup_wall_s"] = s["setup_wall_s"]

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.queries:
        cmd += ["--queries", str(args.queries)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted += result["attempted"]
    failed += result["failed"]
    wrong += result["wrong"]
    metrics.update(result["metrics"])
    if args.trace:
        metrics["failed_ratio"] = result["failed_ratio"]
        metrics["cli.malformed_handled"] = result["malformed_handled"]
    units = UNITS_TRACE if args.trace else UNITS
    info["raw"] = {**raw, **result["raw"], "failed_ratio": result["failed_ratio"], "wrong": wrong}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


UNITS = {
    "query_p50_ref": "ref",
    "query_p90_ref": "ref",
    "batch_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

UNITS_TRACE = {
    name: ("ms/query" if name.endswith("_ms") else "ratio" if name.endswith(("ratio", "handled")) else "count/query")
    for name in (
        "scalars.self_ms", "scalars.calls", "scalars.fraction_new", "scalars.laurent_new",
        "algebra.self_ms", "algebra.mul_calls", "algebra.key_calls", "algebra.scale_calls",
        "phi.self_ms", "phi.eval_calls", "phi.tau_image_calls",
        "words.self_ms", "words.enumerated", "words.parse_calls",
        "reps.self_ms", "reps.construct_ms", "reps.rep_eval_calls",
        "analysis.self_ms", "analysis.grid_cells", "analysis.identity_tests", "analysis.distinct_ratio",
        "cli.self_ms", "cli.malformed_handled",
        "trace.overhead_ratio", "failed_ratio",
    )
}

if __name__ == "__main__":
    sys.exit(main())
