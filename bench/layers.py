"""Per-layer micro-timings of smbraid, written to BENCH_<label>.json.

    python3 bench/layers.py --label NAME [--out DIR]

Times a few fixed operations of seven layers with `timeit`, importing smbraid
from the `src` directory next to this script's parent:

* scalars: a product and a sum of two 6-term Laurent polynomials with
  rational coefficients, and a product and a sum of two rational constants
  (3/2 and -4/3, as `parse_scalar` reads them);
* algebra: a 4x4 unreduced Burau product (the image of a 6-letter word times
  a generator image, as in a word fold), the algebra of one tau image
  a*rho(sigma_2) + b*rho(sigma_2)^-1 + c of the same representation (one
  `linear_combination`, a single pass over the stored numerators, as
  `phi.Extension` builds it), a product of the images of two SM_3 words
  with two tau letters each under Phi_{1,-1,0} into the group algebra of
  the reduced Burau group in GL_2 (the tests' independent route to SM_3
  equality); the inverse of [[0, -2], [1, 0]], which every `prop8`
  query takes when it builds its representation from a matrix file; and
  the inverse of a dense 8x8 integer matrix of determinant 1, the product
  of 64 elementary matrices drawn from a fixed seed, the size of a
  `kernel2 --rep matrix:<file>` query on a large matrix;
* words: `decompose_tau_blocks(w).shape(2, 1)` of the fixed SM_3 word
  w = "t1 t1 s2 t2 S1 s1" (three tau letters), the split against
  v = tau_1^2 sigma_1, with `assemble` and `strip` of the result, and
  `list(defining_relations(4))`, which builds the 13 relation instances of
  SM_4;
* reps: building a fresh `burau_unreduced(4)`, which inverts its three
  generator images and checks its braid relations, and a fresh
  `burau_unreduced(24)`, where the 23 inversions of 24x24 images and the
  relation checks dominate;
* phi: `rep_eval` of an 8-letter SM_4 word with three tau letters over
  `Extension(burau_unreduced(4), params)`, the extension's table built once;
  `rep_eval` of the 7-letter SM_4 word "t1 s2 t3 S1 s3 t2 s1" (three tau
  letters) over `Extension(permutation_rep(4), (2, -1, 3))`, a fold of
  formal elements in which each tau image, 2 s_i - s_i^-1 + 3 = s_i + 3 as
  s_i is an involution, has two terms, so each product after the first tau
  letter is a convolution of several terms; and
  `tau_power_expand` at p = 8 for rational a, b, c and d, the multinomial
  sum of acceptance criterion 7;
* analysis: `sm3_word_equality` on the same two SM_3 words, the `wordeq3`
  oracle, which folds both words on integer 5-tuples of SL(2, Z) x Z;
  `check_relations(burau_unreduced(4), params)`, the `relcheck`
  path, which builds its own extension; the `SM_2` kernel grids, each at
  p <= 6, |q| <= 12 unless stated.  A matrix grid op is named by what it
  times, as the witness ops below are: `kernel2_walk_*` builds keys and
  makes products, and `kernel2_obstructed_*` returns before building keys,
  because no det tau_1^p * det sigma_1^q is 1 in bounds but at (0, 0), so
  the box of `kernel_search_sm2` is empty.  They are: the grid of
  sigma_1 -> [[0, -2], [1, 0]] at (1, 2, 1), the matrix half of `prop8`
  (where tau_1 -> 1, as 2 * rho(sigma_1)^-1 = -rho(sigma_1)), whose box
  (6, 0, 0) leaves it the row heads only, no power of sigma_1; the grid of
  the same matrix at p <= 40, |q| <= 80 and (1, 0, 0), where tau_1 ->
  sigma_1 and the box is (40, -40, 0), so its tau_1 powers grow, and at
  (1/2, -2/3, 3/5), obstructed (det tau_1 = 787/450 and det sigma_1 = 2),
  all held as Kronecker-packed keys since every image sits at one
  exponent; the grid of the scalar character 3/2, as 1x1 matrices, the
  grid of `kernel2 --rep scalar:<d>`, at (1, 2, -13/6), planted so that
  tau_1 -> 2/3 and the hits are (p, p), and at (1, 2, 1), obstructed
  (tau_1 -> 23/6); the grid (p <= 4, |q| <= 8) of `burau_unreduced(2)` at
  (1, 0, 0), where tau_1 -> sigma_1 and the box is (4, -4, 0), packed
  under the rule of `algebra._kronecker_keys` (the depth max(p_top, q_hi,
  -q_lo) of the box times the widest exponent range of an image is at most
  `algebra.PACKED_SPAN` = 128), and at (t, -1/2, 3), the shape of the
  `laurent-eval` workload's `kernel2` queries, obstructed (det tau_1 is no
  unit); and the grid (p <= 300, q = 0) of `burau_reduced(2)` at
  (1, -1, 0), obstructed (tau_1 -> -t + t^-1 is no unit).  The cyclic
  grids, which the filter leaves whole: the grid of sigma_1 -> X in the
  twisted cyclic algebra
  X^4 = 3/2 at (1, 0, 0), where tau_1 -> X, so its heads and powers are
  keyed by their integer coordinates and its six hits (p, -p) compared;
  the grid of X^3 = -8 at (1/2, -4/3, 2/3), whose
  tau_1 image has all three coordinates nonzero, the shape of the cyclic
  half of `prop8` and of `kernel2 --backend cyclic:<s>:<ds>`; the grid
  (p <= 20, |q| <= 40) of X^500 = 2 at the same parameters, where a head
  fills up to 41 of the 500 coordinates and a power of X one.  The grid
  of `as_formal(burau_reduced(2))` at (1, 0, 0), the path of
  `kernel2 --backend formal`, which the filter leaves whole too (every
  image has coefficient sum 1), and whose heads and powers are keyed
  by the formal elements themselves, so each product is a convolution;
  `scalar_kernel_hits` for the character d = 2 (p <= 4,
  |q| <= 8), the route of acceptance criterion 7; and the witness search
  `find_scalar_witness` on `burau_unreduced(3)` (value 2, s <= 4,
  words of length <= 6) and on `burau_reduced(3)` (value 3/2, s <= 4,
  words of length <= 5, the shape of the `word-search` workload's
  reduced Burau `unfaith` queries), which return without a walk: det
  rho(sigma_1) = -t, so no word's determinant (-t)^e is that of a target
  value^-s * 1, a rational constant other than 1; on `burau_unreduced(3)`
  at value -t (s <= 4, length <= 6), whose targets at s = +-1 and +-2
  have the determinants (-t)^(-3s) of words of exponent sum -3s, so it
  walks the ball, keying the letter images, which each span two
  exponents, as packed integers (6 * 1 <= 128); on `burau_unreduced(4)`
  at value 2 (s <= 4, length <= 10), the deep search that no word's
  determinant can satisfy, so it too returns without a walk;
  and on `permutation_rep(4)` (value 3/2, s <= 4, words of length <= 4, the
  shape of its `unfaith --rep perm --n 4` queries), which returns before
  building keys: every image has coefficient sum 1, and so has every word's
  image, so no target (3/2)**-s * 1 is kept; and on `permutation_rep(4)` at
  value -1 (s <= 4, length <= 4), whose kept targets, at s = +-2 and +-4,
  are the identity, which the empty word reaches, so it builds element keys
  and returns before any product; and two searches whose
  answer is settled long before their bound, each returning at the product
  that reaches it: `burau_reduced(3)` at value t^-3 (s <= 4, length
  <= 12), whose answer at s = 1, the first s tried, is the full twist
  rho(s1 s1 s2 s1 s1 s2) = t^3 * 1, reached in the walk keyed for depth 8,
  and `scalar_char(2, 2)` at value 2 (s <= 4, length <= 4096), whose answer
  S1 is its second product.  A witness op is named by what it times:
  `witness_walk_*` makes step products, `witness_obstructed_*` returns
  before building keys, as no target is kept, and `witness_settled_*`
  returns once its answer is settled;
* cli: five whole in-process CLI calls, `cli.main([..., "--json"])` with
  stdout sent to a `StringIO`: a `wordeq3` query and a `relcheck` query on
  the same n = 4 Burau representation and parameters as above, a `kernel2`
  query on the scalar character 3/2, a `shape` query on the SM_3 word
  and v of the words op, and an `unfaith` query on the permutation
  representation of the permutation walk above.  They cover argument parsing and representation
  selection as well as the algebra.
  And `cli.startup_sm2_grid`: a fresh interpreter answering the `sm2-grid`
  workload's probe query through `python -m smbraid.cli`, start-up included.

Every operand is built before the timing starts, so an operation times only
the call it names.  Before any timing, the script compiles `src` with
`compileall` (quiet), as `perfbench/run.py` does, so that the start-up
operation reads bytecode from the cache however the tree was checked out or
whatever `PYTHONDONTWRITEBYTECODE` says.

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
import compileall
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from refkernel import kernel  # noqa: E402
from smbraid import cli  # noqa: E402
from smbraid.algebra import Matrix, linear_combination  # noqa: E402
from smbraid.analysis import find_scalar_witness, kernel_search_sm2, scalar_kernel_hits, sm3_word_equality  # noqa: E402
from smbraid.phi import Extension, PhiParams, check_relations, tau_power_expand  # noqa: E402
from smbraid.reps import (  # noqa: E402
    as_formal, burau_reduced, burau_unreduced, cyclic_rep, matrix_rep_from_images, permutation_rep, rep_eval,
    scalar_char
)
from smbraid.scalars import T, as_scalar, parse_scalar  # noqa: E402
from smbraid.words import decompose_tau_blocks, defining_relations, parse_word  # noqa: E402

REPEATS = 7


def cli_call(argv: list[str]):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return run


def operations() -> dict:
    x = sum([(3 * e + 1) * T**e for e in range(-2, 4)]) * as_scalar(4) ** -1
    y = sum([(2 * e - 5) * T**e for e in range(-3, 3)]) * as_scalar(3) ** -1
    p, q = parse_scalar("3/2"), parse_scalar("-4/3")
    rep = burau_unreduced(4)
    word = rep_eval(rep, parse_word("s1 s2 S3 s1 s2 s3", 4))
    step = rep.image(2)
    params = PhiParams.of(T, parse_scalar("-1/2"), 3)
    sm4 = Extension(rep, params)
    sm4_word = parse_word("t1 s2 S3 t3 s1 t2 S2 s3", 4)
    perm4_ext = Extension(permutation_rep(4), PhiParams.of(2, -1, 3))
    perm4_word = parse_word("t1 s2 t3 S1 s3 t2 s1", 4)
    burau3 = Extension(as_formal(burau_reduced(3)), PhiParams.of(1, -1, 0))
    w1, w2 = parse_word("t1 s2 t2 S1", 3), parse_word("s1 t2 S2 t1", 3)
    u, v = rep_eval(burau3, w1), rep_eval(burau3, w2)
    rational2_image = Matrix([[0, -2], [1, 0]])
    rational2 = matrix_rep_from_images(2, [rational2_image])
    scalar3_2, reduced2, birman = scalar_char(p, 2), burau_reduced(2), PhiParams.of(1, -1, 0)
    unreduced2 = burau_unreduced(2)
    cyclic4, cyclic_params = cyclic_rep(4, p), PhiParams.of(1, 0, 0)
    sigma_params, planted = cyclic_params, PhiParams.of(1, 2, parse_scalar("-13/6"))
    cyclic3, cyclic500 = cyclic_rep(3, -8), cyclic_rep(500, 2)
    dense = PhiParams.of(parse_scalar("1/2"), q, parse_scalar("2/3"))
    formal_reduced2 = as_formal(reduced2)
    grid_params = PhiParams.of(1, 2, 1)
    rational = PhiParams.of(parse_scalar("1/2"), parse_scalar("-2/3"), parse_scalar("3/5"))
    rational_d, two = parse_scalar("-3/2"), as_scalar(2)
    walk_rep = burau_unreduced(3)
    reduced3 = burau_reduced(3)
    perm4 = permutation_rep(4)
    scalar2 = scalar_char(2, 2)
    shape_word = parse_word("t1 t1 s2 t2 S1 s1", 3)
    dense8, rng = Matrix.identity(8), random.Random(8)
    for _ in range(64):  # elementary factors: the identity with x at (i, j)
        i, j = rng.sample(range(8), 2)
        x = rng.choice([-2, -1, 1, 2])
        dense8 = dense8 * Matrix([[x if (r, c) == (i, j) else int(r == c) for c in range(8)] for r in range(8)])

    def shape_sm3():
        form = decompose_tau_blocks(shape_word).shape(2, 1)
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
        "algebra.inverse_rational2": lambda: rational2_image.inverse(),
        "algebra.inverse_dense8": lambda: dense8.inverse(),
        "words.shape_sm3": shape_sm3,
        "words.relations_sm4": lambda: list(defining_relations(4)),
        "reps.burau_unreduced4": lambda: burau_unreduced(4),
        "reps.burau_unreduced24": lambda: burau_unreduced(24),
        "phi.rep_eval_sm4_8": lambda: rep_eval(sm4, sm4_word),
        "phi.rep_eval_perm4": lambda: rep_eval(perm4_ext, perm4_word),
        "phi.tau_power_expand_p8": lambda: tau_power_expand(rational, rational_d, 8, 1),
        "analysis.sm3_equality": lambda: sm3_word_equality(w1, w2),
        "analysis.relcheck_burau4": lambda: check_relations(rep, params),
        "analysis.kernel2_rational2": lambda: kernel_search_sm2(rational2, grid_params, 6, 12),
        "analysis.kernel2_walk_rational2_deep": lambda: kernel_search_sm2(rational2, sigma_params, 40, 80),
        "analysis.kernel2_walk_scalar": lambda: kernel_search_sm2(scalar3_2, planted, 6, 12),
        "analysis.kernel2_walk_burau_unreduced2": lambda: kernel_search_sm2(unreduced2, sigma_params, 4, 8),
        "analysis.kernel2_obstructed_rational2_deep": lambda: kernel_search_sm2(rational2, rational, 40, 80),
        "analysis.kernel2_obstructed_scalar": lambda: kernel_search_sm2(scalar3_2, grid_params, 6, 12),
        "analysis.kernel2_obstructed_burau_unreduced2": lambda: kernel_search_sm2(unreduced2, params, 4, 8),
        "analysis.kernel2_obstructed_burau_reduced2_p300": lambda: kernel_search_sm2(reduced2, birman, 300, 0),
        "analysis.kernel2_cyclic4": lambda: kernel_search_sm2(cyclic4, cyclic_params, 6, 12),
        "analysis.kernel2_cyclic3_dense": lambda: kernel_search_sm2(cyclic3, dense, 6, 12),
        "analysis.kernel2_cyclic500": lambda: kernel_search_sm2(cyclic500, dense, 20, 40),
        "analysis.kernel2_formal_burau2": lambda: kernel_search_sm2(formal_reduced2, cyclic_params, 6, 12),
        "analysis.scalar_kernel_hits": lambda: scalar_kernel_hits(grid_params, two, 4, 8),
        "analysis.witness_obstructed_burau3": lambda: find_scalar_witness(walk_rep, two, 4, 6),
        "analysis.witness_walk_burau3_admissible": lambda: find_scalar_witness(walk_rep, -T, 4, 6),
        "analysis.witness_obstructed_burau_unreduced4_l10": lambda: find_scalar_witness(rep, two, 4, 10),
        "analysis.witness_obstructed_burau_reduced3": lambda: find_scalar_witness(reduced3, p, 4, 5),
        "analysis.witness_obstructed_perm4": lambda: find_scalar_witness(perm4, p, 4, 4),
        "analysis.witness_settled_perm4_unit": lambda: find_scalar_witness(perm4, -1, 4, 4),
        "analysis.witness_settled_burau_reduced3_l12": lambda: find_scalar_witness(reduced3, T**-3, 4, 12),
        "analysis.witness_settled_scalar2_l4096": lambda: find_scalar_witness(scalar2, two, 4, 4096),
        "cli.main_wordeq3": cli_call(["wordeq3", "--w1", "t1 s2 t2 S1", "--w2", "s1 t2 S2 t1", "--json"]),
        "cli.main_relcheck4": cli_call(
            ["relcheck", "--n", "4", "--rep", "burau-unreduced", "--a", "t", "--b=-1/2", "--c", "3", "--json"]
        ),
        "cli.main_kernel2_scalar": cli_call(
            ["kernel2", "--rep", "scalar:3/2", "--a=1/2", "--b=-1", "--c=2", "--json"]
        ),
        "cli.main_shape3": cli_call(
            ["shape", "--n", "3", "--word", "t1 t1 s2 t2 S1 s1", "--p", "2", "--q", "1", "--json"]
        ),
        "cli.main_unfaith_perm4": cli_call(
            ["unfaith", "--mode", "a00", "--val=3/2", "--rep", "perm", "--n", "4", "--lmax", "4", "--json"]
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
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
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
