"""CLI: exit codes, report content, JSON determinism and round-tripping."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smbraid import cli, reps, words
from smbraid.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1, "JSON mode must emit exactly one document"
    return json.loads(lines[0]), lines[0]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # A fresh process pays for every module the CLI imports; dataclasses and
    # inspect alone cost about a fifth of a CLI call's start-up, and fractions
    # pulls in decimal and numbers.  Scalars are LaurentPoly values only.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    absent = {"dataclasses", "inspect", "fractions", "decimal", "_decimal", "numbers"}
    code = f"import sys, smbraid.cli; print(sorted({absent!r} & set(sys.modules)))"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    proc = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_kernel2_json(capsys):
    doc, raw = run_json(
        capsys, "kernel2", "--rep", "scalar:2", "--a", "2", "--b", "0", "--c", "0",
        "--pmax", "6", "--qmax", "12",
    )
    assert doc["hits"] == [[m, -2 * m] for m in range(1, 7)]
    assert doc["minimal_generator"] == [1, -2]
    assert doc["cyclic_ok"] is True
    assert doc["bounded"] is True
    # canonical emission round-trips byte-identically
    assert json.dumps(json.loads(raw), sort_keys=True) == raw


def test_kernel2_deterministic(capsys):
    args = ("kernel2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "-3")
    _, raw1 = run_json(capsys, *args)
    _, raw2 = run_json(capsys, *args)
    assert raw1 == raw2


def test_kernel2_cyclic_backend(capsys):
    doc, _ = run_json(
        capsys, "kernel2", "--rep", "scalar:2", "--a", "1", "--b", "2", "--c", "1",
        "--backend", "cyclic:2:-2", "--pmax", "5", "--qmax", "6",
    )
    assert doc["minimal_generator"] == [1, 0]


def test_kernel2_matrix_backend_keeps_a_matrix_rep(capsys):
    args = ("kernel2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "0")
    _, raw = run_json(capsys, *args, "--backend", "matrix")
    _, plain = run_json(capsys, *args)
    assert raw == plain


def test_relcheck_text(capsys):
    code, out, _ = run_cli(capsys, "relcheck", "--n", "3", "--rep", "burau-unreduced",
                           "--a", "1", "--b", "-1", "--c", "0")
    assert code == 0
    assert out.startswith("7/7 relation families pass")


def test_eval_zero_image(capsys):
    doc, _ = run_json(capsys, "eval", "--n", "2", "--rep", "scalar:2",
                      "--a", "0", "--b", "0", "--c", "0", "--word", "t1 s1")
    assert doc["is_identity"] is False
    assert doc["image"] == "[[0]]"


def test_unfaith_root_of_unity(capsys):
    doc, _ = run_json(capsys, "unfaith", "--mode", "a00", "--val", "-1",
                      "--rep", "burau-reduced", "--n", "3")
    assert doc["found"] and doc["kind"] == "root-of-unity"
    assert doc["witnesses"][0]["w1"] == "t1 t1"
    assert doc["witnesses"][0]["w2"] == "s1 s1"


@pytest.mark.parametrize("rmax, kind", [("0", "scalar-power"), ("1", "scalar-power"), ("2", "root-of-unity")])
def test_unfaith_rmax_caps_the_root_of_unity_order(capsys, rmax, kind):
    # -1 has order 2: below that bound the scalar-power search finds tau_1^2 = 1 instead
    doc, _ = run_json(capsys, "unfaith", "--mode", "a00", "--val", "-1",
                      "--rep", "perm", "--n", "3", "--rmax", rmax)
    assert doc["found"] and doc["kind"] == kind
    assert doc["witnesses"][0]["w1"] == "t1 t1"


def test_unfaith_scalar_power(capsys):
    doc, _ = run_json(capsys, "unfaith", "--mode", "a00", "--val", "2",
                      "--rep", "scalar:2", "--n", "2", "--smax", "4", "--lmax", "4")
    assert doc["found"] and doc["kind"] == "scalar-power"
    assert doc["v"] == "S1" and doc["s"] == 1
    assert doc["witnesses"][0]["w1"] == "t1 S1"


def test_unfaith_stops_once_its_answer_is_settled():
    # S1 settles the search at its second product, so a bound of 10**6 costs
    # nothing; a walk on to the bound would double its depth until the
    # address cap ends it.  Run in a child process under a 1 GB cap.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    argv = ["unfaith", "--mode", "a00", "--val", "2", "--rep", "scalar:2", "--n", "2", "--lmax", "1000000", "--json"]
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "smbraid.cli", *argv],
        env={**env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=5,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["v"] == "S1"


def test_kernel2_skips_a_grid_its_character_empties():
    # tau_1 -> 41/30 under the character 2: no 41/30^p * 2^q is 1, so the
    # box is empty and bounds of 10**5 cost one short float pass, where the
    # whole grid would grow its powers until the address cap ends it.  Run
    # in a child process under a 1 GB cap.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    argv = ["kernel2", "--rep", "scalar:2", "--a=1/2", "--b=1/3", "--c=1/5", "--pmax", "100000", "--qmax", "100000",
            "--json"]
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "smbraid.cli", *argv],
        env={**env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=2,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["hits"] == []


def test_unfaith_absent(capsys):
    doc, _ = run_json(capsys, "unfaith", "--mode", "a00", "--val", "2",
                      "--rep", "burau-unreduced", "--n", "2", "--smax", "3", "--lmax", "4")
    assert doc["found"] is False and doc["witnesses"] == []


def test_prop8_command(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0,-2\n1,0\n")
    doc, _ = run_json(capsys, "prop8", "--matrix", str(path), "--s", "2", "--ds", "-2",
                      "--a", "1", "--b", "2", "--c", "1", "--pmax", "5", "--qmax", "6")
    assert doc["equal"] is True
    assert doc["matrix_report"]["minimal_generator"] == [1, 0]
    assert doc["cyclic_report"]["minimal_generator"] == [1, 0]


def test_prop8_rejects_s_below_1(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0,-2\n1,0\n")
    code, out, err = run_cli(capsys, "prop8", "--matrix", str(path), "--s", "0", "--ds", "-2",
                             "--a", "1", "--b", "2", "--c", "1")
    assert (code, out, err) == (1, "", "error: need s >= 1\n")


def test_multinomial_command(capsys):
    doc, _ = run_json(capsys, "multinomial", "--a", "1", "--b", "0", "--c", "-3",
                      "--d", "2", "--p", "2", "--q", "0")
    assert doc["expand"] == "1" and doc["direct"] == "1"
    assert doc["agree"] is True and doc["is_one"] is True


def test_wordeq3_command(capsys):
    doc, _ = run_json(capsys, "wordeq3", "--w1", "s1 s2 t1", "--w2", "t2 s1 s2")
    assert doc["equal"] is True
    doc, _ = run_json(capsys, "wordeq3", "--w1", "t1", "--w2", "s1")
    assert doc["equal"] is False
    assert "tau-count" in doc["certificate"]


def test_shape_command(capsys):
    doc, _ = run_json(capsys, "shape", "--n", "2", "--word", "t1 t1 t1",
                      "--p", "2", "--q", "0")
    assert doc["blocks"] == [{"tau_run": 1, "v_power": 1, "braid": ""}]
    assert doc["assembled"] == "t1 t1 t1"
    assert doc["stripped"] == "t1"


def test_shape_expands_the_word_once(capsys, monkeypatch):
    expand, calls = words._expand_taus, []

    def counted(w):
        calls.append(w)
        return expand(w)

    monkeypatch.setattr(words, "_expand_taus", counted)
    doc, _ = run_json(capsys, "shape", "--n", "3", "--word", "t1 t1 s2 t2 S1 s1",
                      "--p", "2", "--q", "1")
    assert doc["stripped"] == "S1 s2 s1 s2 t1 S2 S1"
    assert len(calls) == 1


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "--n", "3", "--rep", "perm",
                           "--a", "1", "--b", "0", "--c", "0", "--word", "s9")
    assert code == 1
    assert "error:" in err


def test_matrix_backend_rejects_formal_rep(capsys):
    code, out, err = run_cli(capsys, "kernel2", "--rep", "perm", "--a", "1", "--b", "1", "--c", "-1",
                             "--backend", "matrix")
    assert (code, out) == (1, "")
    assert err == "error: selected representation has backend 'formal', not matrix\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["multinomial", "--a", "1/0*t", "--b", "0", "--c", "0", "--d", "2", "--p", "1", "--q", "0"],
        ["kernel2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "0", "--backend", "cyclic:0:1"],
        ["kernel2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "0", "--backend", "cyclic:-3:1"],
    ],
    ids=["zero-denominator-coefficient", "cyclic-order-zero", "cyclic-order-negative"],
)
def test_former_crashes_are_domain_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,name",
    [
        (["shape", "--n", "2", "--word", "t1", "--p", "1", "--q", "100000000000000000000"], "--q"),
        (["shape", "--n", "2", "--word", "t1", "--p", "1", "--q", "4611686018427387904"], None),
        (["kernel2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "0",
          "--backend", "cyclic:100000000000000000000:1"], "cyclic order <s>"),
        (["eval", "--n", "100000000000000000000", "--rep", "perm", "--a", "1", "--b", "0", "--c", "0",
          "--word", "t1"], "--n"),
        (["kernel2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "0",
          "--pmax", "100000000000000000000", "--qmax", "0"], "--pmax"),
        (["shape", "--n", "2", "--word", "t1", "--p", "1", "--q", "-100000000000000000000"], "--q"),
    ],
    ids=["shape-overflow", "shape-out-of-memory", "cyclic-order-overflow", "eval-n-overflow", "pmax-overflow",
         "shape-negative-overflow"],
)
def test_huge_integers_are_domain_errors(capsys, argv, name):
    # a value past sys.maxsize is named before it reaches CPython's size
    # checks; 2^62 passes the range check and fails to allocate
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    if name is None:
        assert err == "error: out of memory\n"
    else:
        assert err == f"error: {name} must lie between -{sys.maxsize} and {sys.maxsize}\n"


@pytest.mark.parametrize("selector,name", [
    ("burau-unreduced", "burau-unreduced"),
    ("perm", "perm"),
    ("scalar:2", "scalar"),
], ids=["burau-unreduced", "perm", "scalar"])
def test_selector_n_ceiling(capsys, selector, name):
    ceiling = reps.MAX_SELECTOR_N
    argv = ["eval", "--rep", selector, "--a", "1", "--b", "0", "--c", "0", "--word", "s1"]
    code, out, err = run_cli(capsys, *argv, "--n", str(ceiling + 1))
    assert (code, out) == (1, "")
    assert err == f"error: {name} selectors support n <= {ceiling}, got {ceiling + 1}\n"
    # the ceiling itself builds
    report, _ = run_json(capsys, *argv, "--n", str(ceiling))
    assert (report["n"], report["rep"]) == (ceiling, selector)


@pytest.mark.parametrize("flag", ["--smax", "--lmax", "--rmax"])
def test_unfaith_rejects_negative_bounds(capsys, flag):
    # value -1 is a root of unity: the bound check must not depend on which search runs
    for value in ("2", "-1"):
        code, out, err = run_cli(capsys, "unfaith", "--mode", "a00", f"--val={value}",
                                 "--rep", "perm", "--n", "3", f"{flag}=-1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nonnegative" in err


EVAL = ["eval", "--rep", "perm", "--a", "1", "--b", "0", "--c", "0", "--word", "s1"]
KERNEL2 = ["kernel2", "--rep", "scalar:2", "--a", "1", "--b", "2", "--c", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        [*EVAL, "--n", "\u0662"],
        [*EVAL, "--n", "1_0"],
        [*EVAL, "--n", " 2"],
        [*EVAL, "--n", "2.0"],
        [*EVAL, "--n", ""],
        [*KERNEL2, "--pmax", "\u0663"],
        [*KERNEL2, "--qmax", "1_0"],
        ["unfaith", "--mode", "a00", "--val", "2", "--rep", "perm", "--lmax", "1_0"],
        ["unfaith", "--mode", "a00", "--val", "2", "--rep", "perm", "--smax", "\uff12"],
        ["unfaith", "--mode", "a00", "--val", "2", "--rep", "perm", "--rmax=+-1"],
        ["multinomial", "--a", "1", "--b", "0", "--c", "0", "--d", "2", "--p", "\u0661", "--q", "0"],
        ["shape", "--n", "2", "--word", "t1", "--p", "1", "--q=0x1"],
        ["prop8", "--matrix", "m.txt", "--s", "2 ", "--ds", "-2", "--a", "1", "--b", "2", "--c", "1"],
    ],
)
def test_integer_options_are_ascii_decimal(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["\u0662", "1_0", " 2", "2.0", "+", ""])
def test_cyclic_order_is_ascii_decimal(capsys, order):
    code, out, err = run_cli(capsys, *KERNEL2, "--backend", f"cyclic:{order}:-2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "bad integer" in err


@pytest.mark.parametrize(
    "backend,message",
    [
        ("cyclic:2", "cyclic backend selector is cyclic:<s>:<ds>"),
        ("bogus", "unknown backend selector 'bogus'"),
    ],
)
def test_bad_backend_selector(capsys, backend, message):
    code, out, err = run_cli(capsys, *KERNEL2, "--backend", backend)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "k,word,span",
    [
        # the tau image's entry t^(k+1) + t^-k spans 2k + 2 exponents
        (1048575, "t1", 2097152),
        # rejected while the tau image is built, before any product could
        # convolve entries of more than a million numerators each
        (700000, "t1 t1", 1400002),
    ],
)
def test_eval_rejects_a_tau_image_past_max_span(capsys, k, word, span):
    argv = ["eval", "--n", "3", "--rep", "burau-unreduced", f"--a=t^{k}", f"--b=t^-{k}", "--c", "0", "--word", word]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: Laurent polynomial spans {span} exponents, more than 1048576\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["multinomial", "--a", "1", "--b", "0", "--c", "-3", "--d", "2", "--p", "+2", "--q=-3"],
        ["multinomial", "--a", "1", "--b", "0", "--c", "-3", "--d", "2", "--p", "002", "--q=+3"],
        [*KERNEL2, "--backend", "cyclic:+2:-2", "--pmax", "02", "--qmax=+2"],
        [*EVAL, "--n=+3"],
    ],
)
def test_integer_ascii_forms_accepted(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["kernel2", "--rep", "scalar:2"])  # missing required params
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


SEQUENCE = [
    ["wordeq3", "--w1", "s1 s2 t1", "--w2", "t2 s1 s2", "--json"],
    ["relcheck", "--n", "3", "--rep", "burau-unreduced", "--a", "1", "--b", "-1", "--c", "0"],
    ["kernel2", "--rep", "scalar:2"],  # usage error: missing --a/--b/--c
    ["eval", "--n", "2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "0", "--word", "t1 s1", "--json"],
    ["eval", "--n", "4", "--rep", "burau-reduced", "--a", "1", "--b", "0", "--c", "0", "--word", "s1"],  # domain error
    ["shape", "--n", "3", "--word", "t2 t1 t1 s2", "--p", "2", "--q", "1", "--json"],
    ["wordeq3", "--w1", "s1 s2 t1", "--w2", "t2 s1 s2", "--json"],
]


def _outcomes(capsys) -> list:
    outcomes = []
    for argv in SEQUENCE:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        outcomes.append((code, out.out, out.err))
    return outcomes


def test_main_reuses_one_parser_across_calls(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    shared = _outcomes(capsys)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 1, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _outcomes(capsys) == shared


# --- no tracebacks over drawn argv ------------------------------------------------------
#
# Each option draws from a small pool of well-formed values (domain-degenerate ones
# included: zero scalars, negative bounds, cyclic:0:1, cyclic:2:0) and at most one
# option per argv from a pool of malformed ones (non-ASCII digits, `_` separators,
# zero denominators, garbage).  Bounds stay at most 3 and n at most 4, so every
# draw runs quickly.

SCALAR = (["2", "-1", "1/2", "0", "t", "-t", "1 - t", "t^-2"], ["1/0*t", "1/0", "\u0662", "1_0", "q", ""])
BOUND = (["0", "1", "3", "-1"], ["\u0663", "1_0", " 1", "1.0"])
SIGNED = (["0", "1", "2", "-2", "+3"], ["\u0662", "1_0", " 1", "1.0"])
N = (["2", "3", "4", "1", "0", "-1"], ["\u0662", "1_0", " 2"])
WORD = (["", "s1", "t1 s1", "S1 t1 t1", "s1 s2 t2", "x X t1"], ["s9", "t0", "s\u0661", "s01", "t1 q"])
REP = (
    ["perm", "burau-unreduced", "burau-reduced", "scalar:2", "scalar:-1", "scalar:t", "scalar:0", "scalar:1+t"],
    ["scalar:1_0", "scalar:1/0", "matrix:missing.txt", "bogus"],
)
BACKEND = (
    ["formal", "matrix", "cyclic:2:-2", "cyclic:1:1", "cyclic:3:t", "cyclic:0:1", "cyclic:-3:1", "cyclic:2:0"],
    ["cyclic:\u0662:-2", "cyclic:1_0:1", "cyclic:2", "cyclic:x:1", "cyclic:2:1/0", "bogus"],
)
MODE = (["a00", "0b0", "00c"], ["abc"])
ABC = [("--a", SCALAR), ("--b", SCALAR), ("--c", SCALAR)]
COMMANDS = {
    "eval": [("--n", N), ("--rep", REP), *ABC, ("--word", WORD)],
    "relcheck": [("--n", N), ("--rep", REP), *ABC],
    "kernel2": [("--rep", REP), *ABC, ("--pmax", BOUND), ("--qmax", BOUND), ("--backend", BACKEND)],
    "unfaith": [("--mode", MODE), ("--val", SCALAR), ("--rep", REP), ("--n", N),
                ("--smax", BOUND), ("--lmax", BOUND), ("--rmax", BOUND)],
    "prop8": [("--s", SIGNED), ("--ds", SCALAR), *ABC, ("--pmax", BOUND), ("--qmax", BOUND)],
    "multinomial": [*ABC, ("--d", SCALAR), ("--p", BOUND), ("--q", SIGNED)],
    "wordeq3": [("--w1", WORD), ("--w2", WORD)],
    "shape": [("--n", N), ("--word", WORD), ("--p", BOUND), ("--q", SIGNED)],
}
MATRICES = ["0,-2\n1,0\n", "1,1\n0,1\n", "0,1\n1,0\n", "t,0\n0,t\n", "1,2\n3\n", "q\n", ""]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    malformed = draw(st.one_of(st.none(), st.integers(0, len(options) - 1)))
    argv = [command]
    for k, (flag, (good, bad)) in enumerate(options):
        argv.append(f"{flag}={draw(st.sampled_from(bad if k == malformed else good))}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs(), matrix=st.sampled_from(MATRICES))
def test_cli_never_raises(tmp_path_factory, argv, matrix):
    if argv[0] == "prop8":
        path = tmp_path_factory.mktemp("argv") / "m.txt"
        path.write_text(matrix)
        argv = [*argv, f"--matrix={path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    assert code in (0, 1, ("exit", 2)), argv
    if code == 1:
        assert err.getvalue().startswith("error:"), argv


# --- golden output ---------------------------------------------------------------------
#
# Exact --json lines, one query per subcommand plus a multi-term formal image,
# a formal-backend kernel report and two witness searches whose reported word is
# one of many with the same image.  Any change to these bytes is a change of output.

GOLDEN = [
    (
        ["eval", "--n", "2", "--rep", "scalar:2", "--a", "1", "--b", "2", "--c", "1", "--word", "t1 s1"],
        '{"command": "eval", "image": "[[8]]", "is_identity": false, "n": 2, "params": ["1", "2", "1"], '
        '"rep": "scalar:2", "word": "t1 s1"}',
    ),
    (
        ["eval", "--n", "3", "--rep", "perm", "--a", "2", "--b", "-1", "--c", "1/2", "--word", "t1 s2 t2 t1"],
        '{"command": "eval", "image": "5/4 * [1,2,3] + 1/8 * [1,3,2] + 1 * [2,1,3] + 1/4 * [2,3,1] + '
        '1/4 * [3,1,2] + 1/2 * [3,2,1]", "is_identity": false, "n": 3, "params": ["2", "-1", "1/2"], '
        '"rep": "perm", "word": "t1 s2 t2 t1"}',
    ),
    (
        ["relcheck", "--n", "2", "--rep", "burau-unreduced", "--a", "1", "--b", "-1", "--c", "0"],
        '{"all_pass": true, "checks": [{"family": 5, "indices": [1], "lhs": "t1 s1", '
        '"name": "tau-sigma same-index commutation", "passed": true, "rhs": "s1 t1"}], '
        '"command": "relcheck", "families_passed": 7, "n": 2, "params": "(1, -1, 0)", "rep": "burau-unreduced"}',
    ),
    (
        ["kernel2", "--rep", "scalar:2", "--a", "2", "--b", "0", "--c", "0", "--pmax", "3", "--qmax", "6"],
        '{"bounded": true, "bounds": {"p_max": 3, "q_max": 6}, "command": "kernel2", "cyclic_ok": true, '
        '"hits": [[1, -2], [2, -4], [3, -6]], "minimal_generator": [1, -2], "params": "(2, 0, 0)", "rep": "scalar:2"}',
    ),
    (
        ["kernel2", "--rep", "scalar:2", "--a", "1", "--b", "2", "--c", "1", "--backend", "formal",
         "--pmax", "3", "--qmax", "4"],
        '{"bounded": true, "bounds": {"p_max": 3, "q_max": 4}, "command": "kernel2", "cyclic_ok": null, '
        '"hits": [], "minimal_generator": null, "params": "(1, 2, 1)", "rep": "scalar:2+formal"}',
    ),
    (
        ["kernel2", "--rep", "perm", "--a", "1", "--b", "1", "--c", "-1", "--backend", "formal",
         "--pmax", "3", "--qmax", "3"],
        '{"bounded": true, "bounds": {"p_max": 3, "q_max": 3}, "command": "kernel2", "cyclic_ok": null, '
        '"hits": [[0, 2], [0, -2]], "minimal_generator": null, "params": "(1, 1, -1)", "rep": "perm"}',
    ),
    (
        ["unfaith", "--mode", "a00", "--val", "2", "--rep", "scalar:2", "--n", "2", "--smax", "4", "--lmax", "4"],
        '{"bounded": true, "bounds": {"len_max": 4, "r_max": 8, "s_max": 4}, "command": "unfaith", '
        '"found": true, "kind": "scalar-power", "mode": "a00", "rep": "scalar:2", "s": 1, "v": "S1", '
        '"value": "2", "witnesses": [{"certificate": "tau-count: 1 != 0", "image": "[[2]]", '
        '"w1": "t1 S1", "w2": "s1"}]}',
    ),
    (
        ["prop8", "--matrix", "{matrix}", "--s", "2", "--ds", "-2", "--a", "1", "--b", "2", "--c", "1",
         "--pmax", "3", "--qmax", "4"],
        '{"command": "prop8", "cyclic_report": {"bounded": true, "bounds": {"p_max": 3, "q_max": 4}, '
        '"cyclic_ok": true, "hits": [[1, 0], [2, 0], [3, 0]], "minimal_generator": [1, 0]}, "ds": "-2", '
        '"equal": true, "matrix": "[[0,-2],[1,0]]", "matrix_report": {"bounded": true, '
        '"bounds": {"p_max": 3, "q_max": 4}, "cyclic_ok": true, "hits": [[1, 0], [2, 0], [3, 0]], '
        '"minimal_generator": [1, 0]}, "params": "(1, 2, 1)", "s": 2}',
    ),
    (
        ["multinomial", "--a", "1", "--b", "0", "--c", "-3", "--d", "2", "--p", "2", "--q", "0"],
        '{"agree": true, "command": "multinomial", "d": "2", "direct": "1", "expand": "1", "is_one": true, '
        '"p": 2, "params": "(1, 0, -3)", "q": 0}',
    ),
    (
        ["wordeq3", "--w1", "s1 s2 t1", "--w2", "t2 s1 s2"],
        '{"certificate": null, "command": "wordeq3", "equal": true, "w1": "s1 s2 t1", "w2": "t2 s1 s2"}',
    ),
    (
        ["shape", "--n", "3", "--word", "t2 t1 t1 s2", "--p", "2", "--q", "1"],
        '{"assembled": "s1 s2 t1 S2 S1 t1 t1 s1 S1 s2", "blocks": [{"braid": "s1 s2", "tau_run": 0, '
        '"v_power": 0}, {"braid": "S2 S1", "tau_run": 1, "v_power": 0}, {"braid": "S1 s2", "tau_run": 0, '
        '"v_power": 1}], "command": "shape", "n": 3, "p": 2, "q": 1, "stripped": "s1 s2 t1 S2 S1 S1 s2", '
        '"word": "t2 t1 t1 s2"}',
    ),
    # Many words share each image here (under scalar:2, S1 S1, S1 S2, S2 S1 and S2 S2
    # all map to 1/4), so these two lines pin which representative the search reports.
    (
        ["unfaith", "--mode", "a00", "--val", "4", "--rep", "scalar:2", "--n", "3", "--smax", "2", "--lmax", "3"],
        '{"bounded": true, "bounds": {"len_max": 3, "r_max": 8, "s_max": 2}, "command": "unfaith", '
        '"found": true, "kind": "scalar-power", "mode": "a00", "rep": "scalar:2", "s": 1, "v": "S1 S1", '
        '"value": "4", "witnesses": [{"certificate": "tau-count: 1 != 0", "image": "[[2]]", '
        '"w1": "t1 S1 S1", "w2": "s1"}]}',
    ),
    (
        ["unfaith", "--mode", "0b0", "--val", "4", "--rep", "scalar:1/2", "--n", "3", "--smax", "2", "--lmax", "3"],
        '{"bounded": true, "bounds": {"len_max": 3, "r_max": 8, "s_max": 2}, "command": "unfaith", '
        '"found": true, "kind": "scalar-power", "mode": "0b0", "rep": "scalar:1/2", "s": 1, "v": "s1 s1", '
        '"value": "4", "witnesses": [{"certificate": "tau-count: 1 != 0", "image": "[[2]]", '
        '"w1": "t1 s1 s1", "w2": "S1"}]}',
    ),
    (
        ["kernel2", "--rep", "scalar:2", "--a", "1", "--b", "0", "--c", "0", "--backend", "cyclic:1:t"],
        '{"bounded": true, "bounds": {"p_max": 6, "q_max": 12}, "command": "kernel2", "cyclic_ok": true, '
        '"hits": [[1, -1], [2, -2], [3, -3], [4, -4], [5, -5], [6, -6]], "minimal_generator": [1, -1], '
        '"params": "(1, 0, 0)", "rep": "cyclic:1:1*t^1"}',
    ),
    (
        ["eval", "--n", "3", "--rep", "scalar:-t", "--a", "1", "--b", "2", "--c", "3", "--word", "t1 s2 t2 S1"],
        '{"command": "eval", "image": "[[1*t^2 + -6*t^1 + 13*t^0 + -12*t^-1 + 4*t^-2]]", "is_identity": false, '
        '"n": 3, "params": ["1", "2", "3"], "rep": "scalar:-1*t^1", "word": "t1 s2 t2 S1"}',
    ),
    # The walk keys [[0, -2t], [1, 0]], whose inverse has denominator 2, as packed integers.
    (
        ["unfaith", "--mode", "a00", "--val=-1/2*t^-1", "--rep", "matrix:{laurent}", "--n", "2",
         "--smax", "4", "--lmax", "4"],
        '{"bounded": true, "bounds": {"len_max": 4, "r_max": 8, "s_max": 4}, "command": "unfaith", '
        '"found": true, "kind": "scalar-power", "mode": "a00", "rep": "matrix:laurent.txt", "s": 1, '
        '"v": "s1 s1", "value": "-1/2*t^-1", "witnesses": [{"certificate": "tau-count: 1 != 0", '
        '"image": "[[0,-2*t^1],[1,0]]", "w1": "t1 s1 s1", "w2": "s1"}]}',
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[f"{i:02d}-{a[0]}" for i, (a, _) in enumerate(GOLDEN)])
def test_golden_json_output(capsys, tmp_path, argv, expected):
    path, laurent = tmp_path / "m.txt", tmp_path / "laurent.txt"
    path.write_text("0,-2\n1,0\n")
    laurent.write_text("0,-2*t\n1,0\n")
    argv = [str(path) if arg == "{matrix}" else arg.replace("{laurent}", str(laurent)) for arg in argv]
    _, raw = run_json(capsys, *argv)
    assert raw == expected


# Exact text-mode output of the reports whose text lines no JSON query prints:
# a scalar-power witness (one with a nonempty v and one with the empty word), a
# root-of-unity witness and a prop8 comparison.
GOLDEN_TEXT = [
    (
        ["unfaith", "--mode", "a00", "--val", "2", "--rep", "scalar:2", "--n", "2", "--smax", "4", "--lmax", "4"],
        "scalar power: rho(S1) = value^-(1) * identity\n"
        "witness: 't1 S1' vs 's1'\n"
        "certificate: tau-count: 1 != 0\n",
    ),
    (
        ["unfaith", "--mode", "a00", "--val", "-1", "--rep", "perm", "--n", "3", "--rmax", "0"],
        "scalar power: rho(empty word) = value^-(2) * identity\n"
        "witness: 't1 t1' vs 's1 s1'\n"
        "certificate: tau-count: 2 != 0\n",
    ),
    (
        ["unfaith", "--mode", "a00", "--val", "-1", "--rep", "burau-reduced", "--n", "3"],
        "root of unity: order 2\n"
        "witness: 't1 t1' vs 's1 s1'\n"
        "certificate: tau-count: 2 != 0\n",
    ),
    (
        ["prop8", "--matrix", "{matrix}", "--s", "2", "--ds", "-2", "--a", "1", "--b", "2", "--c", "1",
         "--pmax", "3", "--qmax", "4"],
        "matrix backend hits: [(1, 0), (2, 0), (3, 0)]\n"
        "cyclic backend hits: [(1, 0), (2, 0), (3, 0)]\n"
        "kernels agree within bounds: True\n",
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_TEXT, ids=[f"{i:02d}-{a[0]}" for i, (a, _) in enumerate(GOLDEN_TEXT)])
def test_golden_text_output(capsys, tmp_path, argv, expected):
    path = tmp_path / "m.txt"
    path.write_text("0,-2\n1,0\n")
    code, out, err = run_cli(capsys, *[str(path) if arg == "{matrix}" else arg for arg in argv])
    assert (code, out, err) == (0, expected, "")
