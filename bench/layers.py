"""Per-layer micro-timings of smbraid, written to BENCH_<label>.json.

    python3 bench/layers.py --label NAME [--out DIR]

Times a few fixed operations of two layers with `timeit`, importing smbraid
from the `src` directory next to this script's parent:

* scalars: a product and a sum of two 6-term Laurent polynomials with
  rational coefficients, and a product of two Fractions;
* algebra: a 4x4 unreduced Burau product (the image of a 6-letter word times
  a generator image, as in a word fold), one tau image
  a*rho(sigma_2) + b*rho(sigma_2)^-1 + c of the same representation, and a
  product of two formal elements over the reduced Burau group in GL_2, the
  images of two SM_3 words with two tau letters each (the `wordeq3` oracle
  path: Phi_{1,-1,0} into the group algebra).

Each operation is timed in 7 repeats of a loop long enough to last about
0.2 s; the file records the median and the minimum time per operation in
microseconds, the loop length, and the Python version, platform and CPU
count.  Compare two files only when they were taken on the same machine.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import timeit
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from smbraid.phi import PhiParams, phi_eval, tau_image  # noqa: E402
from smbraid.reps import as_formal, burau_reduced, burau_unreduced, rep_eval  # noqa: E402
from smbraid.scalars import T, LaurentPoly  # noqa: E402
from smbraid.words import parse_word  # noqa: E402

REPEATS = 7


def operations() -> dict:
    x = LaurentPoly({e: Fraction(3 * e + 1, 4) for e in range(-2, 4)})
    y = LaurentPoly({e: Fraction(2 * e - 5, 3) for e in range(-3, 3)})
    p, q = Fraction(-7, 12), Fraction(5, 18)
    rep = burau_unreduced(4)
    word = rep_eval(rep, parse_word("s1 s2 S3 s1 s2 s3", 4))
    step = rep.image(2)
    params = PhiParams.of(T, Fraction(-1, 2), 3)
    formal3, oracle_params = as_formal(burau_reduced(3)), PhiParams.of(1, -1, 0)
    u = phi_eval(formal3, oracle_params, parse_word("t1 s2 t2 S1", 3))
    v = phi_eval(formal3, oracle_params, parse_word("s1 t2 S2 t1", 3))
    return {
        "scalars.laurent_mul_6": lambda: x * y,
        "scalars.laurent_add_6": lambda: x + y,
        "scalars.fraction_mul": lambda: p * q,
        "algebra.burau4_mul": lambda: word * step,
        "algebra.tau_image_burau4": lambda: tau_image(rep, params, 2),
        "algebra.formal_mul_burau3": lambda: u * v,
    }


def time_op(fn) -> dict:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    number = max(1, number)
    runs = [t / number * 1e6 for t in timer.repeat(REPEATS, number)]
    return {"us_median": round(statistics.median(runs), 3), "us_min": round(min(runs), 3), "loop": number}


def main() -> None:
    ap = argparse.ArgumentParser(description="per-layer micro-timings of smbraid")
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--out", default=os.path.dirname(os.path.abspath(__file__)), help="output directory")
    args = ap.parse_args()
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "ops": {name: time_op(fn) for name, fn in operations().items()},
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for name, row in doc["ops"].items():
        print(f"{name:28s} {row['us_median']:10.2f} us/op (min {row['us_min']:.2f}, loop {row['loop']})")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
