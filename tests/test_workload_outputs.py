"""Golden outputs: every query of seeds 1-3 of each benchmark workload.

The batches come from `perfbench/workloads.py`.  Each workload's batches are
built once per run, and every query runs through `smbraid.cli.main` in
process, once as `main` parses argv in its one pass and once through the full
parser.  Every query must end as that file's independent oracle expects
(`outcome` is "ok"), and its bytes must not move: the SHA-256 of each query's
exit code, stdout and stderr is compared with that query's own digest in
`workload_outputs.json`, listed by workload and seed in batch order.  argv is
left out of the digest, because the `prop8` queries name matrix files in a
temporary directory.  A failure names the seed, position and argv of every
query that moved, and shows its new output.

A set of usage errors also ends alike on both parse routes.

A deliberate output change regenerates the digests with

    PYTHONPATH=src python tests/test_workload_outputs.py > tests/workload_outputs.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from smbraid import cli  # noqa: E402

SEEDS = (1, 2, 3)
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workload_outputs.json")


def run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def outputs(workload: str, workdir: str) -> dict:
    """Each seed's batch of the workload, as (query, (exit code, stdout,
    stderr)) pairs from the one-pass parse.  Set COLUMNS first: argparse
    wraps the usage text of exit-2 queries to the terminal width."""
    return {seed: [(q, run(q.argv)) for q in workloads.build(workload, seed, workdir)] for seed in SEEDS}


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def batches(request, tmp_path_factory) -> tuple[str, dict]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        return request.param, outputs(request.param, str(tmp_path_factory.mktemp(request.param)))


def test_workload_outputs_are_pinned(batches):
    workload, results = batches
    with open(DIGESTS) as fh:
        expected = json.load(fh)[workload]
    assert [len(results[seed]) for seed in SEEDS] == [len(expected[str(seed)]) for seed in SEEDS]
    moved = []
    for seed, batch in results.items():
        for i, ((q, result), pin) in enumerate(zip(batch, expected[str(seed)])):
            verdict, kept = workloads.outcome(q, *result, None), digest(result) == pin
            if verdict != workloads.OK or not kept:
                code, out, err = result
                moved.append(
                    f"seed {seed}, query {i}, argv {q.argv}: outcome {verdict}, bytes {'kept' if kept else 'moved'}\n"
                    f"  exit {code!r}\n  stdout {out!r}\n  stderr {err!r}"
                )
    if moved:
        pytest.fail(f"{len(moved)} {workload} queries moved:\n" + "\n".join(moved), pytrace=False)


# No command, an unknown one, help at both levels, an extra positional
# argument, --json before the command, an option abbreviated (uniquely and
# ambiguously), a missing required option and a "--" separator.
USAGE_ERRORS = [
    [],
    ["not-a-command", "--json"],
    ["-h"],
    ["wordeq3", "-h"],
    ["wordeq3", "--w1", "s1", "--w2", "s1", "extra", "--json"],
    ["--json", "wordeq3", "--w1", "s1", "--w2", "s1"],
    ["kernel2", "--re", "scalar:2", "--a", "1", "--b", "0", "--c", "0", "--js"],
    ["wordeq3", "--w", "s1", "--w2", "s1"],
    ["eval", "--n", "2", "--json"],
    ["wordeq3", "--w1", "s1", "--", "--w2", "s1"],
]


def full_parse(argvs: list, monkeypatch) -> list:
    """Each argv's (exit code, stdout, stderr) from `main` as it parses when a
    fresh full parser takes every argv."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_parse", cli.build_parser.__wrapped__().parse_args)
    return [run(argv) for argv in argvs]


def both_routes(argvs: list, monkeypatch) -> tuple[list, list]:
    """Each argv's (exit code, stdout, stderr) from `main` as it parses, in one
    pass, and through the full parser."""
    monkeypatch.setenv("COLUMNS", "80")
    one_pass = [run(argv) for argv in argvs]
    return one_pass, full_parse(argvs, monkeypatch)


def test_one_pass_parse_matches_the_full_parser(batches, monkeypatch):
    _, results = batches
    batch = [pair for seed in SEEDS for pair in results[seed]]
    assert full_parse([q.argv for q, _ in batch], monkeypatch) == [result for _, result in batch]


def test_one_pass_parse_keeps_every_usage_error(monkeypatch):
    one_pass, full = both_routes(USAGE_ERRORS, monkeypatch)
    assert one_pass == full
    assert [code for code, _, _ in one_pass] == [2, 2, 0, 0, 2, 2, 0, 2, 2, 2]
    for argv, (code, out, err) in zip(USAGE_ERRORS, one_pass):
        if code or "-h" in argv:
            assert "usage: smbraid" in (err if code else out), argv


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as workdir:
        pins = {
            w: {str(seed): [digest(result) for _, result in batch] for seed, batch in outputs(w, workdir).items()}
            for w in workloads.WORKLOADS
        }
    print(json.dumps(pins, indent=2, sort_keys=True))
