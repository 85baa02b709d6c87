"""Run one workload in this interpreter and print its measurements as JSON.

Started by run.py in a fresh interpreter with `src` on the path.  The loop
is closed with a single client: each query goes to `smbraid.cli.main(argv)`
when the previous one has returned.  The reference kernel runs after every
query, and each query time is divided by the median kernel time of its nine
nearest neighbours.

--trace 0  timed passes over the batch until --seconds have elapsed.
--trace 1  three passes over the batch: untraced, with spans, and under
           cProfile; it prints per-layer numbers per query.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refkernel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from smbraid import cli  # noqa: E402

WORKDIR = ".perfbench_work"
REF_HALF_WINDOW = 4
REP_CONSTRUCTORS = [
    "reps." + name
    for name in ("BraidRep.__init__", "rep_from_selector", "burau_unreduced", "burau_reduced", "permutation_rep",
                 "scalar_char", "matrix_rep_from_images", "cyclic_rep", "as_formal")
]


class Runner:
    """Runs queries and remembers each query's checked outcome.

    Outcomes are tallied per query of the batch, not per repetition: a query
    counts once, and as failed if any of its repetitions failed.  So
    `attempted` and `failed` depend on the batch only, not on how many timed
    passes the host's speed allowed."""

    def __init__(self, batch: list):
        self.batch = batch
        self._checked: dict = {}  # index -> (raw output, outcome) of its last check
        self.outcomes: dict = {}  # index -> outcome, a failure sticks
        self.crashes: Counter = Counter()  # "command: exception type" -> repetitions

    def query(self, i: int) -> float:
        q = self.batch[i]
        out, err = io.StringIO(), io.StringIO()
        code = raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(q.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is one failed query, not the end of the run
                raised = exc
            elapsed = time.perf_counter() - start
        if raised is not None:
            self.crashes[f"{q.argv[0]}: {type(raised).__name__}"] += 1
        # A pass repeats the same queries; check again only if the output changed.
        seen = (code, out.getvalue(), err.getvalue(), type(raised))
        cached = self._checked.get(i)
        if cached is None or cached[0] != seen:
            cached = self._checked[i] = (seen, workloads.outcome(q, code, seen[1], seen[2], raised))
        if self.outcomes.get(i, workloads.OK) == workloads.OK:
            self.outcomes[i] = cached[1]
        return elapsed

    def one_pass(self, on_query=None) -> tuple[list, list]:
        """Query times and reference-kernel times, in seconds."""
        gc.collect()
        times, refs = [], []
        for i in range(len(self.batch)):
            if on_query is not None:
                on_query(i)
            times.append(self.query(i))
            refs.append(refkernel.timed())
        return times, refs

    def warm_up(self) -> None:
        """One query of each kind, so lazy set-up inside smbraid is done
        before timing; its outcomes are not counted."""
        kinds = {}
        for i, q in enumerate(self.batch):
            kinds.setdefault(q.kind, i)
        for i in kinds.values():
            self.query(i)
        self.outcomes.clear()
        self.crashes.clear()


def normalized(times: list, refs: list) -> list:
    out = []
    for i, t in enumerate(times):
        window = refs[max(0, i - REF_HALF_WINDOW) : i + REF_HALF_WINDOW + 1]
        out.append(t / statistics.median(window))
    return out


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end numbers from whole passes over the batch."""
    well_formed = [i for i, q in enumerate(runner.batch) if not q.malformed]
    ratios, raw, ref_times, batch_ratios, query_time = [], [], [], [], 0.0
    start = time.perf_counter()
    while not batch_ratios or time.perf_counter() - start < seconds:
        times, refs = runner.one_pass()
        norm = normalized(times, refs)
        batch_ratios.append(sum(norm))
        ratios += [norm[i] for i in well_formed]
        raw += [times[i] for i in well_formed]
        ref_times += refs
        query_time += sum(times)
    return {
        "metrics": {
            "query_p50_ref": statistics.median(ratios),
            "query_p90_ref": p90(ratios),
            "batch_ref": statistics.median(batch_ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw": {
            "passes": len(batch_ratios),
            "well_formed_queries": len(ratios),
            "query_p50_ms": statistics.median(raw) * 1e3,
            "query_p90_ms": p90(raw) * 1e3,
            "throughput_qps": len(batch_ratios) * len(runner.batch) / query_time,
            "ref_kernel_ms": statistics.median(ref_times) * 1e3,
        },
    }


def trace(runner: Runner, span_path: str) -> dict:
    """Per-layer numbers, per query of the batch."""
    n = len(runner.batch)
    untraced = sum(normalized(*runner.one_pass()))

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = sum(normalized(*runner.one_pass(on_query=lambda i: setattr(tracer, "query", i))))
    finally:
        tracer.uninstall()
    tracer.write(span_path)
    prof = spans.profile_scalars(runner.one_pass)

    self_ns = tracer.self_ns()
    evaluated = tracer.counts["search_evaluated"]

    def per_query(total):
        return total / n

    return {
        "scalars.self_ms": per_query(prof["self_s"] * 1e3),
        "scalars.calls": per_query(prof["calls"]),
        "scalars.fraction_new": per_query(prof["fraction_new"]),
        "scalars.laurent_new": per_query(prof["laurent_new"]),
        "algebra.self_ms": per_query(self_ns["algebra"] / 1e6),
        "algebra.mul_calls": per_query(tracer.method_calls("algebra", "__mul__")),
        "algebra.key_calls": per_query(
            tracer.counts["algebra.element_key"] + tracer.method_calls("algebra", "canonical_key")
        ),
        "algebra.scale_calls": per_query(tracer.method_calls("algebra", "scale")),
        "phi.self_ms": per_query(self_ns["phi"] / 1e6),
        "phi.eval_calls": per_query(tracer.counts["phi.phi_eval"]),
        "phi.tau_image_calls": per_query(tracer.counts["phi.tau_image"]),
        "words.self_ms": per_query(self_ns["words"] / 1e6),
        "words.enumerated": per_query(tracer.counts["words.enumerate_braid_words:items"]),
        "words.parse_calls": per_query(tracer.counts["words.parse_word"]),
        "reps.self_ms": per_query(self_ns["reps"] / 1e6),
        "reps.construct_ms": per_query(sum(map(tracer.inclusive_ns, REP_CONSTRUCTORS)) / 1e6),
        "reps.rep_eval_calls": per_query(tracer.counts["reps.rep_eval"]),
        "analysis.self_ms": per_query(self_ns["analysis"] / 1e6),
        "analysis.grid_cells": per_query(tracer.counts["grid_cells"]),
        "analysis.identity_tests": per_query(tracer.method_calls("algebra", "is_identity")),
        "analysis.distinct_ratio": tracer.counts["search_distinct"] / evaluated if evaluated else 0.0,
        "cli.self_ms": per_query(self_ns["cli"] / 1e6),
        "trace.overhead_ratio": traced / untraced,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--queries", type=int, default=None)
    args = ap.parse_args()

    os.makedirs(WORKDIR, exist_ok=True)
    batch = workloads.build(args.workload, args.seed, WORKDIR)[: args.queries]
    runner = Runner(batch)
    runner.warm_up()
    if args.trace:
        span_path = os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.tsv.gz")
        result = {"metrics": trace(runner, span_path), "raw": {"spans_file": span_path}}
    else:
        result = measure(runner, args.seconds)
    oc = runner.outcomes
    attempted = len(oc)
    malformed = [verdict for i, verdict in oc.items() if batch[i].malformed]
    failed = sum(verdict != workloads.OK for verdict in oc.values())
    result.update(
        attempted=attempted,
        failed=failed,
        wrong=sum(verdict == workloads.WRONG for verdict in oc.values()),
        failed_ratio=failed / attempted,
        malformed_handled=malformed.count(workloads.OK) / len(malformed) if malformed else 1.0,
    )
    result["raw"]["crashes"] = dict(runner.crashes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
