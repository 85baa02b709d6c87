"""Every workload query's CLI output, one JSON line per query.

    python3 bench/outputs.py --workdir DIR > FILE

Builds the query batches of `perfbench/workloads.py` for the three
workloads and seeds 1-3, runs each query through `smbraid.cli.main` in this
interpreter, and writes one JSON line per query: workload, seed, argv, exit
code, stdout and stderr.  If an exception escapes `main`, the line holds its
type name under "raised" and no exit code.  smbraid is imported from the
`src` directory next to this script's parent.

The matrix files that `prop8` queries read are written to DIR, and their
paths are part of argv, so give the same DIR when comparing two source
trees: the files are then byte-identical exactly when every query printed
the same thing and ended the same way in both.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from smbraid import cli  # noqa: E402

SEEDS = (1, 2, 3)


def run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result: dict = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result["exit"] = cli.main(list(argv))
        except SystemExit as exc:
            result["exit"] = exc.code
        except Exception as exc:
            result["raised"] = type(exc).__name__
    return {**result, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", required=True, help="directory for the prop8 matrix files")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for q in workloads.build(workload, seed, args.workdir):
                doc = {"workload": workload, "seed": seed, "argv": q.argv, **run(q.argv)}
                print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
