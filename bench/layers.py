"""Per-layer micro-timings of smbraid, written to BENCH_<label>.json.

    python3 bench/layers.py --label NAME [--out DIR]

Times a few fixed operations of seven layers with `timeit`, importing smbraid
from the `src` directory next to this script's parent:

* scalars: a product and a sum of two 6-term Laurent polynomials with
  rational coefficients, and a product and a sum of two rational constants
  (3/2 and -4/3, as the scalar values `as_scalar` makes of them);
* algebra: a 4x4 unreduced Burau product (the image of a 6-letter word times
  a generator image, as in a word fold), the algebra of one tau image
  a*rho(sigma_2) + b*rho(sigma_2)^-1 + c of the same representation (one
  `linear_combination`, a single pass over the stored numerators, as
  `phi.Extension` builds it), two products of formal elements, the images of
  two SM_3 words with two tau letters each under Phi_{1,-1,0} into a group
  algebra: over the reduced Burau group in GL_2 (the tests' independent
  route to SM_3 equality), and over B_3 kept in SL(2, Z) x Z through
  `analysis._sm3_oracle()` (the `wordeq3` oracle path); and the inverse of
  [[0, -2], [1, 0]], which every `prop8` query takes when it builds its
  representation from a matrix file;
* words: `shape_form` of the fixed SM_3 word "t1 t1 s2 t2 S1 s1" (three tau
  letters) against v = tau_1^2 sigma_1, with `assemble` and `strip` of the
  result, and `list(defining_relations(4))`, which builds the 13 relation
  instances of SM_4;
* reps: building a fresh `burau_unreduced(4)`, which takes the cofactor
  inverses of its three generator images and checks its braid relations;
* phi: `rep_eval` of an 8-letter SM_4 word with three tau letters over
  `Extension(burau_unreduced(4), params)`, the extension's table built once,
  and `tau_power_expand` at p = 8 for rational a, b, c and d, the multinomial
  sum of acceptance criterion 7;
* analysis: `check_relations(burau_unreduced(4), params)`, the `relcheck`
  path, which builds its own extension; the `SM_2` kernel grid (p <= 6,
  |q| <= 12) of sigma_1 -> [[0, -2], [1, 0]] at (1, 2, 1), the matrix half of
  `prop8`; `scalar_kernel_hits` for the character d = 2 (p <= 4,
  |q| <= 8), the route of acceptance criterion 7; and the witness walk of
  `find_scalar_witness` on `burau_unreduced(3)` (value 2, s <= 4,
  words of length <= 6) and on `burau_reduced(3)` (value 3/2, s <= 4,
  words of length <= 5, the shape of the `word-search` workload's
  `unfaith` queries), which multiply and key matrix images;
* cli: three whole in-process CLI calls, `cli.main([..., "--json"])` with
  stdout sent to a `StringIO`: a `wordeq3` query and a `relcheck` query on
  the same n = 4 Burau representation and parameters as above, and a
  `kernel2` query on the scalar character 3/2.  They cover
  argument parsing and representation selection as well as the algebra.
  And `cli.startup_sm2_grid`: a fresh interpreter answering the `sm2-grid`
  workload's probe query through `python -m smbraid.cli`, start-up included.

Each in-process operation is timed in 7 repeats of a loop long enough to
last about 0.2 s.  After each repeat the reference kernel of
`perfbench/refkernel.py` (stdlib `Fraction` arithmetic that no change to
smbraid can move) is timed as well, and the repeat's time per operation is
divided by the kernel's time per call.  The start-up operation is one fresh
process per repeat, and its reference is instead the mean of the two bare
interpreter starts (`python -c pass`) on either side of it, as
`perfbench/run.py` computes `setup_s` (which is this ratio times 0.040 s).
A run records, per operation, the median of those ratios and their
quartiles, the median and minimum time in microseconds, the loop length and
the reference's median time; and the kernel's loop length.  The file holds a
list of runs, with the Python version, platform and CPU count, and each run
is added to the file of its label; delete the file to start a label
afresh.
Host speed drifts by tens of percent between runs, and even the ratios move
by about 15% from one run to the next, so compare two trees by several runs
each, taken alternately on the same machine, and by their spread as well as
their medians.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from refkernel import kernel  # noqa: E402
from smbraid import cli  # noqa: E402
from smbraid.algebra import Matrix, linear_combination  # noqa: E402
from smbraid.analysis import _sm3_oracle, find_scalar_witness, kernel_search_sm2, scalar_kernel_hits  # noqa: E402
from smbraid.phi import Extension, PhiParams, check_relations, tau_power_expand  # noqa: E402
from smbraid.reps import as_formal, burau_reduced, burau_unreduced, matrix_rep_from_images, rep_eval  # noqa: E402
from smbraid.scalars import T, LaurentPoly, as_scalar  # noqa: E402
from smbraid.words import defining_relations, parse_word, shape_form  # noqa: E402

REPEATS = 7


def cli_call(argv: list[str]):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return run


def operations() -> dict:
    x = LaurentPoly({e: Fraction(3 * e + 1, 4) for e in range(-2, 4)})
    y = LaurentPoly({e: Fraction(2 * e - 5, 3) for e in range(-3, 3)})
    p, q = as_scalar(Fraction(3, 2)), as_scalar(Fraction(-4, 3))
    rep = burau_unreduced(4)
    word = rep_eval(rep, parse_word("s1 s2 S3 s1 s2 s3", 4))
    step = rep.image(2)
    params = PhiParams.of(T, Fraction(-1, 2), 3)
    sm4 = Extension(rep, params)
    sm4_word = parse_word("t1 s2 S3 t3 s1 t2 S2 s3", 4)
    burau3 = Extension(as_formal(burau_reduced(3)), PhiParams.of(1, -1, 0))
    w1, w2 = parse_word("t1 s2 t2 S1", 3), parse_word("s1 t2 S2 t1", 3)
    u, v = rep_eval(burau3, w1), rep_eval(burau3, w2)
    u3, v3 = rep_eval(_sm3_oracle(), w1), rep_eval(_sm3_oracle(), w2)
    rational2_image = Matrix([[0, -2], [1, 0]])
    rational2 = matrix_rep_from_images(2, [rational2_image])
    grid_params = PhiParams.of(1, 2, 1)
    rational = PhiParams.of(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))
    walk_rep = burau_unreduced(3)
    reduced3 = burau_reduced(3)
    shape_word = parse_word("t1 t1 s2 t2 S1 s1", 3)

    def shape_sm3():
        form = shape_form(shape_word, 2, 1)
        return form.assemble(), form.strip()

    return {
        "scalars.laurent_mul_6": lambda: x * y,
        "scalars.laurent_add_6": lambda: x + y,
        "scalars.const_mul": lambda: p * q,
        "scalars.const_add": lambda: p + q,
        "algebra.burau4_mul": lambda: word * step,
        "algebra.tau_image_burau4": lambda: linear_combination(
            [(params.a, rep.image(2)), (params.b, rep.image_inv(2)), (params.c, rep.one())]
        ),
        "algebra.formal_mul_burau3": lambda: u * v,
        "algebra.formal_mul_sm3_oracle": lambda: u3 * v3,
        "algebra.inverse_rational2": lambda: rational2_image.inverse(),
        "words.shape_sm3": shape_sm3,
        "words.relations_sm4": lambda: list(defining_relations(4)),
        "reps.burau_unreduced4": lambda: burau_unreduced(4),
        "phi.rep_eval_sm4_8": lambda: rep_eval(sm4, sm4_word),
        "phi.tau_power_expand_p8": lambda: tau_power_expand(rational, Fraction(-3, 2), 8, 1),
        "analysis.relcheck_burau4": lambda: check_relations(rep, params),
        "analysis.kernel2_rational2": lambda: kernel_search_sm2(rational2, grid_params, 6, 12),
        "analysis.scalar_kernel_hits": lambda: scalar_kernel_hits(grid_params, Fraction(2), 4, 8),
        "analysis.witness_walk_burau3": lambda: find_scalar_witness(walk_rep, 2, 4, 6),
        "analysis.witness_walk_burau_reduced3": lambda: find_scalar_witness(reduced3, Fraction(3, 2), 4, 5),
        "cli.main_wordeq3": cli_call(["wordeq3", "--w1", "t1 s2 t2 S1", "--w2", "s1 t2 S2 t1", "--json"]),
        "cli.main_relcheck4": cli_call(
            ["relcheck", "--n", "4", "--rep", "burau-unreduced", "--a", "t", "--b=-1/2", "--c", "3", "--json"]
        ),
        "cli.main_kernel2_scalar": cli_call(
            ["kernel2", "--rep", "scalar:3/2", "--a=1/2", "--b=-1", "--c=2", "--json"]
        ),
    }


def time_op(fn, ref: timeit.Timer, ref_loop: int) -> dict:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    number = max(1, number)
    runs, refs = [], []
    for _ in range(REPEATS):
        runs.append(timer.timeit(number) / number * 1e6)
        refs.append(ref.timeit(ref_loop) / ref_loop * 1e6)
    return summary(runs, refs, number)


def time_startup(argv: list[str]) -> dict:
    """`python -m smbraid.cli *argv` in a fresh interpreter, against the bare
    starts on either side of it."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")

    def start_us(args: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)
        return (time.perf_counter() - start) * 1e6

    runs, refs = [], []
    for _ in range(REPEATS):
        before = start_us(["-c", "pass"])
        runs.append(start_us(["-m", "smbraid.cli", *argv]))
        refs.append((before + start_us(["-c", "pass"])) / 2)
    return summary(runs, refs, 1)


def summary(runs: list[float], refs: list[float], loop: int) -> dict:
    """Per-repeat times and reference times, in microseconds, as one row."""
    ratios = [us / ref_us for us, ref_us in zip(runs, refs)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "ref_ratio": float(f"{median:.4g}"),
        "ref_ratio_q1": float(f"{q1:.4g}"),
        "ref_ratio_q3": float(f"{q3:.4g}"),
        "us_median": round(statistics.median(runs), 3),
        "us_min": round(min(runs), 3),
        "loop": loop,
        "ref_us_median": round(statistics.median(refs), 3),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description="per-layer micro-timings of smbraid")
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--out", default=os.path.dirname(os.path.abspath(__file__)), help="output directory")
    args = ap.parse_args()
    ref = timeit.Timer(kernel)
    ref_loop, _ = ref.autorange()
    ops = {name: time_op(fn, ref, ref_loop) for name, fn in operations().items()}
    ops["cli.startup_sm2_grid"] = time_startup(workloads.PROBES["sm2-grid"].argv)
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    runs = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    runs.append({"ref_loop": ref_loop, "ops": ops})
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "runs": runs,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for name, row in ops.items():
        print(
            f"{name:28s} {row['ref_ratio']:10.4g} ref ({row['ref_ratio_q1']:.4g}-{row['ref_ratio_q3']:.4g})"
            f" {row['us_median']:10.2f} us/op "
            f"(min {row['us_min']:.2f}, loop {row['loop']})"
        )
    print(f"wrote {path} (run {len(runs)})")


if __name__ == "__main__":
    main()
