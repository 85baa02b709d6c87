"""Seeded query batches for the three workloads, and their expected outcomes.

A batch is a fixed mix: the same number of queries of each kind for every
seed, and the parameters that set a query's cost (bounds, word lengths, tau
counts, powers) cycle through fixed values instead of being drawn.  So
batches from different seeds cost about the same, and each percentile falls
in the middle of one kind of query rather than on the edge between two.
The seed picks everything else: scalars, letters, relations and order.  The
first query of every batch is a fixed probe, which the set-up measurement
also answers.

Every well-formed query carries what an independent route says it must
print (see oracle.py); every malformed query carries the exit code it must
end with.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shlex
from dataclasses import dataclass, field
from fractions import Fraction as F

import oracle

WORKLOADS = ("sm2-grid", "laurent-eval", "word-search")


@dataclass
class Query:
    kind: str
    argv: list
    exit_code: int = 0  # 0 for well-formed queries; 1 or 2 for malformed ones
    expect: dict = field(default_factory=dict)  # verdict fields a well-formed query must print

    @property
    def malformed(self) -> bool:
        return self.exit_code != 0


def _q(kind: str, text: str, expect: dict | None = None, exit_code: int = 0) -> Query:
    return Query(kind, shlex.split(text), exit_code, expect or {})


def _scalar_args(params: tuple) -> list:
    return [f"--{name}={oracle.fmt(v)}" for name, v in zip("abc", params)]


# The two inputs that end in a ZeroDivisionError traceback at commit 3c755a2
# instead of a clean domain error.  They stay in every batch so the defect
# shows in `failed` until it is fixed.
KNOWN_CRASHES = (
    _q("malformed", "multinomial --a 1/0*t --b 0 --c 0 --d 2 --p 1 --q 0", exit_code=1),
    _q("malformed", "kernel2 --rep scalar:2 --a 1 --b 0 --c 0 --backend cyclic:0:1", exit_code=1),
)


# --- scalar pools --------------------------------------------------------------

RATIONALS = [F(n, d) for n in range(-4, 5) for d in (1, 2, 3) if F(n, d).denominator == d]
UNITS = [F(2), F(3), F(-2), F(1, 2), F(-3, 2), F(2, 3), F(5, 2), F(-1, 3), F(3, 4), F(-4, 3)]


def _rat(rng: random.Random) -> dict:
    return oracle.lp(rng.choice(RATIONALS))


def _laurent(rng: random.Random) -> dict:
    """A monomial c t^e, e in [-2, 2], with a small nonzero rational c."""
    return oracle.mono(rng.choice([x for x in RATIONALS if x]), rng.randint(-2, 2))


def _planted_c(rng: random.Random, a: dict, b: dict, d: dict) -> tuple[dict, int]:
    """c with a d + b d^-1 + c = d^-k, so tau^p sigma^(k p) maps to 1."""
    k = rng.choice([-2, -1, 1, 2])
    c = oracle.add(oracle.power(d, -k), oracle.mul(oracle.NEG, oracle.add(oracle.mul(a, d), oracle.mul(b, oracle.inv_unit(d)))))
    return c, k


def _params(rng: random.Random, d: dict, make, planted: bool) -> tuple:
    a, b = make(rng), make(rng)
    c = _planted_c(rng, a, b, d)[0] if planted else make(rng)
    return a, b, c


# --- sm2-grid ----------------------------------------------------------------------


def _kernel2_scalar(rng: random.Random, planted: bool) -> Query:
    d = oracle.lp(rng.choice(UNITS))
    params = _params(rng, d, _rat, planted)
    expect = oracle.matrix_kernel([[d]], params, 6, 12)
    argv = ["kernel2", f"--rep=scalar:{oracle.fmt(d)}", *_scalar_args(params), "--json"]
    return Query("kernel2-scalar", argv, expect=expect)


def _kernel2_cyclic(rng: random.Random, s: int, planted: bool) -> Query:
    d = oracle.lp(rng.choice(UNITS))
    ds = oracle.lp(rng.choice(UNITS + [F(1), F(-1)]))
    if planted:
        params = (oracle.ONE, {}, {})  # tau -> X
    else:
        params = (_rat(rng), _rat(rng), _rat(rng))
    expect = oracle.cyclic_kernel(s, ds, params, 6, 12)
    argv = ["kernel2", f"--rep=scalar:{oracle.fmt(d)}", *_scalar_args(params),
            f"--backend=cyclic:{s}:{oracle.fmt(ds)}", "--json"]
    return Query("kernel2-cyclic", argv, expect=expect)


def _prop8(rng: random.Random, workdir: str, s: int) -> Query:
    """A 2x2 rational matrix with minimal scalar power s (2 or 3), conjugated
    by a random unimodular matrix: [[0, ds], [1, 0]] squares to ds; the
    companion matrix of x^2 -+ c x + c^2 cubes to -+c^3."""
    if s == 2:
        ds = rng.choice(UNITS + [F(-1)])
        m = [[F(0), ds], [F(1), F(0)]]
    else:
        c = rng.choice([F(1), F(-1), F(2), F(1, 2)])
        sign = rng.choice([1, -1])
        m = [[F(0), -c * c], [F(1), sign * c]]
        ds = -sign * c**3
    u, v = rng.randint(-2, 2), rng.randint(-2, 2)
    p = [[1 + u * v, u], [v, 1]]  # det 1
    p_inv = [[1, -u], [-v, 1 + u * v]]
    pm = [[sum(p[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    conj = [[sum(pm[i][k] * p_inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    text = "".join(",".join(str(x) for x in row) + "\n" for row in conj)
    path = os.path.join(workdir, "m-" + hashlib.sha1(text.encode()).hexdigest()[:12] + ".txt")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write(text)
    params = (oracle.ONE, {}, {}) if rng.random() < 0.25 else (_rat(rng), _rat(rng), _rat(rng))
    mat = [[oracle.lp(x) for x in row] for row in conj]
    matrix_report = oracle.matrix_kernel(mat, params, 6, 12)
    cyclic_report = oracle.cyclic_kernel(s, oracle.lp(ds), params, 6, 12)
    expect = {
        "matrix_report": matrix_report,
        "cyclic_report": cyclic_report,
        "equal": matrix_report["hits"] == cyclic_report["hits"],
        "s": s,
    }
    argv = ["prop8", "--matrix", path, "--s", str(s), f"--ds={ds}", *_scalar_args(params), "--json"]
    return Query("prop8", argv, expect=expect)


def _multinomial(rng: random.Random, d: dict, make, planted: bool, p: int, q_span: int) -> Query:
    a, b = make(rng), make(rng)
    if planted:
        c, k = _planted_c(rng, a, b, d)
        q = k * p
    else:
        c, q = make(rng), rng.randint(-q_span, q_span)
    value = oracle.character_value((a, b, c), d, p, q)
    expect = {"value": value, "is_one": value == oracle.ONE}
    argv = ["multinomial", *_scalar_args((a, b, c)), f"--d={oracle.fmt(d)}", "--p", str(p), f"--q={q}", "--json"]
    return Query("multinomial", argv, expect=expect)


def _sm2_grid(rng: random.Random, workdir: str) -> list:
    # prop8 holds the 90th percentile and kernel2-scalar the median.
    queries = [_prop8(rng, workdir, 2 + i % 2) for i in range(20)]
    queries += [_kernel2_scalar(rng, i % 2 == 0) for i in range(40)]
    queries += [_kernel2_cyclic(rng, 1 + i % 4, i % 3 == 0) for i in range(12)]
    queries += [_multinomial(rng, oracle.lp(rng.choice(UNITS)), _rat, i % 3 == 0, i % 7, 6) for i in range(28)]
    queries += [
        _q("malformed", "kernel2 --rep scalar:0 --a 1 --b 0 --c 0", exit_code=1),
        _q("malformed", "kernel2 --rep scalar:2 --a 1 --b 0 --c 0 --pmax -1", exit_code=1),
        _q("malformed", "multinomial --a 1 --b 0 --c 0 --d 2 --p x --q 0", exit_code=2),
        _q("malformed", "kernel2 --rep scalar:2 --a 1 --b 0", exit_code=2),
    ]
    return queries


# --- laurent-eval ---------------------------------------------------------------------


def _relcheck(rng: random.Random, n: int) -> Query:
    params = (_laurent(rng), _laurent(rng), _laurent(rng))
    # Phi_{a,b,c} is a monoid map for every a, b, c, so all seven families
    # pass: 5 instances at n = 3 and 13 at n = 4.
    expect = {"all_pass": True, "families_passed": 7, "instances": {3: 5, 4: 13}[n]}
    argv = ["relcheck", "--n", str(n), "--rep", "burau-unreduced", *_scalar_args(params), "--json"]
    return Query(f"relcheck-{n}", argv, expect=expect)


def _word(rng: random.Random, n: int, pattern: str) -> list:
    """Tau letters where `pattern` has `t`, sigma letters of random sign
    elsewhere, all with random indices."""
    return [f"{'t' if k == 't' else rng.choice('sS')}{rng.randint(1, n - 1)}" for k in pattern]


def _tau_heavy_word(rng: random.Random, n: int, length: int, taus: int) -> list:
    pattern = ["t"] * taus + ["s"] * (length - taus)
    rng.shuffle(pattern)
    return _word(rng, n, "".join(pattern))


# Where the four tau letters of an eval word sit; the first tau sets how soon
# the product turns dense, so the positions cycle rather than being drawn.
_EVAL_PATTERNS = ("tststst", "sttstts", "ttsstts", "ststtst")


def _eval(rng: random.Random, pattern: str) -> Query:
    params = (_laurent(rng), _laurent(rng), _laurent(rng))
    tokens = _word(rng, 3, pattern)
    image = oracle.burau_eval(3, params, tokens)
    expect = {"image": image, "is_identity": image == oracle.mat_identity(3)}
    argv = ["eval", "--n", "3", "--rep", "burau-unreduced", *_scalar_args(params), "--word", " ".join(tokens), "--json"]
    return Query("eval", argv, expect=expect)


def _kernel2_burau(rng: random.Random, reduced: bool, planted: bool) -> Query:
    if reduced:
        m = [[oracle.mono(-1, 1)]]
        p_max, q_max = 6, 12
    else:
        m = [[oracle.add(oracle.ONE, oracle.mono(-1, 1)), oracle.T], [oracle.ONE, {}]]
        p_max, q_max = 4, 8
    params = _params(rng, oracle.mono(-1, 1), _laurent, planted)
    expect = oracle.matrix_kernel(m, params, p_max, q_max)
    rep = "burau-reduced" if reduced else "burau-unreduced"
    argv = ["kernel2", "--rep", rep, *_scalar_args(params), "--pmax", str(p_max), "--qmax", str(q_max), "--json"]
    return Query(f"kernel2-{rep}", argv, expect=expect)


def _laurent_eval(rng: random.Random, workdir: str) -> list:
    # relcheck at n = 4 holds the 90th percentile and eval the median.
    queries = [_relcheck(rng, 4) for _ in range(15)]
    queries += [_kernel2_burau(rng, False, i % 2 == 0) for i in range(4)]
    queries += [_relcheck(rng, 3) for _ in range(8)]
    queries += [_eval(rng, _EVAL_PATTERNS[i % 4]) for i in range(64)]
    queries += [_kernel2_burau(rng, True, i % 2 == 0) for i in range(8)]
    queries += [
        _multinomial(rng, oracle.mono(rng.choice([1, -1]), rng.choice([-3, -2, -1, 1, 2, 3])), _laurent, i % 3 == 0, i % 5, 4)
        for i in range(20)
    ]
    queries += [
        _q("malformed", "eval --n 3 --rep burau-unreduced --a 1 --b 0 --c 0 --word s3", exit_code=1),
        _q("malformed", "eval --n 3 --rep burau-unreduced --a=t --b 0 --c 0 --word q1", exit_code=1),
        _q("malformed", "relcheck --n 3 --rep burau-bogus --a 1 --b 0 --c 0", exit_code=1),
        _q("malformed", "relcheck --n x --rep burau-unreduced --a 1 --b 0 --c 0", exit_code=2),
    ]
    return queries


# --- word-search -----------------------------------------------------------------------

# Rational, non-root-of-unity values.  For them no braid word v has
# rho(v) = value^-s * identity: a permutation image has coefficient 1, and a
# reduced Burau image has determinant (-t)^e, which is a rational constant
# only when e = 0, and then value^-2s = 1 forces value = +-1.  So every search
# runs its full bound and finds nothing.
_N3_TAU_RELATIONS = [
    (["t1", "s1"], ["s1", "t1"]),
    (["t2", "s2"], ["s2", "t2"]),
    (["s1", "s2", "t1"], ["t2", "s1", "s2"]),
    (["s2", "s1", "t2"], ["t1", "s2", "s1"]),
    (["t1", "s1", "S1"], ["t1"]),
    (["s1", "s2", "s1", "t1"], ["s2", "s1", "s2", "t1"]),
]


def _unfaith(rng: random.Random, rep: str, n: int, lmax: int) -> Query:
    value = rng.choice(UNITS)
    mode = rng.choice(["a00", "0b0", "00c"])
    expect = {"found": False, "kind": None, "witnesses": [], "bounded": True,
              "bounds": {"s_max": 4, "len_max": lmax, "r_max": 8}, "value": str(value)}
    argv = ["unfaith", "--mode", mode, f"--val={value}", "--rep", rep, "--n", str(n), "--lmax", str(lmax), "--json"]
    return Query(f"unfaith-{rep}-{n}-{lmax}", argv, expect=expect)


def _wordeq3(rng: random.Random, equal: bool) -> Query:
    """Both words carry three tau letters, which sets the size of their
    formal images."""
    if equal:
        # u l1 v l2 x  against  u r1 v r2 x  for two relations l = r that
        # each hold one tau letter
        w1 = _tau_heavy_word(rng, 3, 3, 1)
        cut = sorted(rng.randint(0, len(w1)) for _ in range(2))
        u, v, x = w1[: cut[0]], w1[cut[0] : cut[1]], w1[cut[1] :]
        (l1, r1), (l2, r2) = rng.choice(_N3_TAU_RELATIONS), rng.choice(_N3_TAU_RELATIONS)
        w1, w2 = u + l1 + v + l2 + x, u + r1 + v + r2 + x
        cert = oracle.certificate(3, w1, w2)
        if cert is not None:
            raise AssertionError("relation rewrite changed an invariant")
    else:
        cert = None
        while cert is None:
            w1, w2 = _tau_heavy_word(rng, 3, 6, 3), _tau_heavy_word(rng, 3, 6, 3)
            cert = oracle.certificate(3, w1, w2)
    expect = {"equal": equal, "certificate": cert, "w1": " ".join(w1), "w2": " ".join(w2)}
    argv = ["wordeq3", "--w1", " ".join(w1), "--w2", " ".join(w2), "--json"]
    return Query("wordeq3", argv, expect=expect)


def _shape(rng: random.Random, n: int, p: int) -> Query:
    tokens = _tau_heavy_word(rng, n, 6, 3)
    q = rng.randint(-2, 2)
    expect = oracle.shape(tokens, p, q)
    argv = ["shape", "--n", str(n), "--word", " ".join(tokens), "--p", str(p), f"--q={q}", "--json"]
    return Query("shape", argv, expect=expect)


def _word_search(rng: random.Random, workdir: str) -> list:
    # The perm n = 4 searches of length 4 hold the 90th percentile, wordeq3
    # the median; the six longer searches are the tail above them.
    queries = [_unfaith(rng, "burau-reduced", 3, 5) for _ in range(3)]
    queries += [_unfaith(rng, "perm", 4, 5) for _ in range(2)]
    queries += [_unfaith(rng, "perm", 3, 6)]
    queries += [_unfaith(rng, "perm", 4, 4) for _ in range(14)]
    queries += [_unfaith(rng, "burau-reduced", 2, 6) for _ in range(6)]
    queries += [_wordeq3(rng, i % 2 == 0) for i in range(76)]
    queries += [_shape(rng, 3 + i % 2, 1 + i % 3) for i in range(25)]
    queries += [
        _q("malformed", "unfaith --mode a00 --val 0 --rep perm --n 3", exit_code=1),
        _q("malformed", "wordeq3 --w1 's1 s9' --w2 s1", exit_code=1),
        _q("malformed", "shape --n 3 --word t1 --p 0 --q 1", exit_code=1),
        _q("malformed", "unfaith --mode zzz --val 2 --rep perm", exit_code=2),
    ]
    return queries


_BUILDERS = {"sm2-grid": _sm2_grid, "laurent-eval": _laurent_eval, "word-search": _word_search}

# The fixed first query of each workload.  It is also what the set-up
# measurement asks a fresh interpreter, so it does not depend on the seed.
PROBES = {
    "sm2-grid": _q("kernel2-scalar", "kernel2 --rep scalar:2 --a 2 --b 0 --c 0 --json",
                   oracle.matrix_kernel([[oracle.lp(2)]], (oracle.lp(2), {}, {}), 6, 12)),
    "laurent-eval": _q("relcheck-4", "relcheck --n 4 --rep burau-unreduced --a=t --b=-1 --c 0 --json",
                       {"all_pass": True, "families_passed": 7, "instances": 13}),
    "word-search": _q("wordeq3", "wordeq3 --w1 's1 s2 t1' --w2 't2 s1 s2' --json",
                      {"equal": True, "certificate": None}),
}


def build(workload: str, seed: int, workdir: str) -> list:
    """The batch for `workload` and `seed`: the probe, then the seeded mix
    (with the known crash inputs) in seeded order.  Matrix files that prop8
    queries read are written to `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    queries = _BUILDERS[workload](rng, workdir) + list(KNOWN_CRASHES)
    rng.shuffle(queries)
    return [PROBES[workload]] + queries


# --- outcome checks -----------------------------------------------------------------

OK, WRONG, FAILED = "ok", "wrong", "failed"


def _subset(expect, got) -> bool:
    """Every expected field is present with the expected value; fields the
    program adds beyond these are ignored."""
    if isinstance(expect, dict):
        return isinstance(got, dict) and all(k in got and _subset(v, got[k]) for k, v in expect.items())
    return expect == got


def _verdict_ok(q: Query, doc: dict) -> bool:
    e = q.expect
    if q.kind == "multinomial":
        return (
            oracle.parse(doc["expand"]) == e["value"]
            and oracle.parse(doc["direct"]) == e["value"]
            and doc["agree"] is True
            and doc["is_one"] is e["is_one"]
        )
    if q.kind.startswith("relcheck"):
        return (
            doc["all_pass"] is e["all_pass"]
            and doc["families_passed"] == e["families_passed"]
            and len(doc["checks"]) == e["instances"]
            and all(c["passed"] is True for c in doc["checks"])
        )
    if q.kind == "eval":
        return oracle.parse_matrix_text(doc["image"]) == e["image"] and doc["is_identity"] is e["is_identity"]
    return _subset(e, doc)


def outcome(q: Query, code, out: str, err: str, raised: BaseException | None) -> str:
    """OK when the query ended as expected.  FAILED when it crashed (an
    exception escaped the CLI, which a user sees as a traceback) or ended
    with the wrong exit status.  WRONG when it exited cleanly with a wrong
    answer, or accepted a malformed query."""
    if raised is not None or "Traceback" in err:
        return FAILED
    if q.malformed:
        if code == 0:
            return WRONG
        return OK if code == q.exit_code and "error:" in err else FAILED
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return FAILED
    try:
        right = _verdict_ok(q, doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        right = False
    return OK if right and code == 0 else WRONG
