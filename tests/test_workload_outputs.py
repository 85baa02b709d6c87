"""Golden outputs: every query of seed 1 of each benchmark workload.

The batches come from `perfbench/workloads.py` and run through
`smbraid.cli.main` in process.  Every query must end as that file's
independent oracle expects (`outcome` is "ok"), and the bytes must not move:
one SHA-256 per workload over each query's exit code, stdout and stderr is
compared with `workload_outputs.json`.  argv is left out of the digest,
because the `prop8` queries name matrix files in a temporary directory.

The queries of seeds 1-3, and a set of usage errors, also end alike whether
`main` parses argv in its one pass or through the full parser.

A deliberate output change regenerates the digests with

    PYTHONPATH=src python tests/test_workload_outputs.py > tests/workload_outputs.json

and `bench/outputs.py` shows which query differs.
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

SEED = 1
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workload_outputs.json")


def run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(workload: str, workdir: str) -> tuple[str, list]:
    """The workload's digest, and the queries whose outcome is not "ok"."""
    h = hashlib.sha256()
    bad = []
    for q in workloads.build(workload, SEED, workdir):
        code, out, err = run(q.argv)
        if workloads.outcome(q, code, out, err, None) != workloads.OK:
            bad.append(q.argv)
        h.update(json.dumps([code, out, err]).encode() + b"\n")
    return h.hexdigest(), bad


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_outputs_are_pinned(workload, tmp_path, monkeypatch):
    # argparse wraps the usage text of exit-2 queries to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with open(DIGESTS) as fh:
        expected = json.load(fh)[workload]
    got, bad = digest(workload, str(tmp_path))
    assert bad == []
    assert got == expected


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


def both_routes(argvs: list, monkeypatch) -> tuple[list, list]:
    """Each argv's (exit code, stdout, stderr) from `main` as it parses, in one
    pass, and as it parses when a fresh full parser takes every argv."""
    monkeypatch.setenv("COLUMNS", "80")
    one_pass = [run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", cli.build_parser.__wrapped__().parse_args)
    return one_pass, [run(argv) for argv in argvs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_parse_matches_the_full_parser(workload, tmp_path, monkeypatch):
    queries = [q.argv for seed in (1, 2, 3) for q in workloads.build(workload, seed, str(tmp_path))]
    one_pass, full = both_routes(queries, monkeypatch)
    assert one_pass == full


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
        print(json.dumps({w: digest(w, workdir)[0] for w in workloads.WORKLOADS}, indent=2, sort_keys=True))
