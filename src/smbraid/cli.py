"""Command-line front end.

Subcommands map one-to-one onto the library's analysis entry points:

* ``eval``        -- image of a word under a chosen representation/parameters
* ``relcheck``    -- verify the seven defining relation families
* ``kernel2``     -- bounded SM_2 kernel grid search
* ``unfaith``     -- unfaithfulness witness search for one-parameter families
* ``prop8``       -- compare matrix vs twisted-cyclic kernel searches
* ``multinomial`` -- scalar character value of tau_1^p sigma_1^q, both routes
* ``wordeq3``     -- SM_3 equality oracle
* ``shape``       -- block decomposition and kernel-power shape rewriting

Every command accepts ``--json`` and then emits exactly one JSON document
with sorted keys, so identical inputs produce byte-identical output.  Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import Callable

from . import analysis, phi, words
from .algebra import parse_matrix
from .reps import BraidRep, as_formal, cyclic_rep, rep_eval, rep_from_selector
from .scalars import format_scalar, parse_scalar

DEFAULT_PMAX = 6
DEFAULT_QMAX = 12
DEFAULT_SMAX = 4
DEFAULT_LMAX = 6
DEFAULT_RMAX = 8

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """An integer written in ASCII decimal, `[+-]?[0-9]+`.

    Python's `int()` also takes non-ASCII digits, `_` separators and
    surrounding spaces; the CLI grammar does not.
    """
    if _INTEGER_RE.fullmatch(text) is None:
        raise ValueError(f"bad integer {text!r}: expected ASCII [+-]?[0-9]+")
    return int(text)


def _index_sized(name: str, value: int) -> int:
    """`value`, if CPython can use it as a size or index; a domain error
    that names the option otherwise."""
    if abs(value) > sys.maxsize:
        raise ValueError(f"{name} must lie between -{sys.maxsize} and {sys.maxsize}")
    return value


def _emit(doc: dict, as_json: bool, lines: Callable[[], list[str]]) -> None:
    """Print `doc` as one JSON line, or else the text lines, which `lines()`
    builds only then."""
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines():
            print(line)


def _params(args: argparse.Namespace) -> phi.PhiParams:
    return phi.PhiParams(parse_scalar(args.a), parse_scalar(args.b), parse_scalar(args.c))


def _apply_backend(rep: BraidRep, backend: str | None) -> BraidRep:
    if backend is None:
        return rep
    if backend == "formal":
        return as_formal(rep)
    if backend == "matrix":
        if rep.backend != "matrix":
            raise ValueError(f"selected representation has backend {rep.backend!r}, not matrix")
        return rep
    if backend.startswith("cyclic:"):
        parts = backend.split(":")
        if len(parts) != 3:
            raise ValueError("cyclic backend selector is cyclic:<s>:<ds>")
        return cyclic_rep(_index_sized("cyclic order <s>", integer(parts[1])), parse_scalar(parts[2]), n=rep.n)
    raise ValueError(f"unknown backend selector {backend!r}")


def _witness_doc(w: analysis.UnfaithfulnessWitness) -> dict:
    return {
        "w1": w.w1.text(),
        "w2": w.w2.text(),
        "certificate": w.certificate.text(),
        "image": w.image.text(),
    }


def cmd_eval(args: argparse.Namespace) -> int:
    rep = rep_from_selector(args.rep, args.n)
    params = _params(args)
    w = words.parse_word(args.word, args.n)
    image = rep_eval(phi.Extension(rep, params), w)
    doc = {
        "command": "eval",
        "n": args.n,
        "rep": rep.name,
        "params": [format_scalar(params.a), format_scalar(params.b), format_scalar(params.c)],
        "word": w.text(),
        "image": image.text(),
        "is_identity": image.is_identity(),
    }
    _emit(doc, args.json, lambda: [f"image: {doc['image']}", f"is_identity: {doc['is_identity']}"])
    return 0


def cmd_relcheck(args: argparse.Namespace) -> int:
    rep = rep_from_selector(args.rep, args.n)
    report = phi.check_relations(rep, _params(args))
    doc = {
        "command": "relcheck",
        "n": args.n,
        "rep": rep.name,
        "params": report.params.text(),
        "families_passed": report.families_passed(),
        "all_pass": report.all_pass,
        "checks": [
            {
                "family": c.family,
                "name": c.name,
                "indices": list(c.indices),
                "lhs": c.lhs.text(),
                "rhs": c.rhs.text(),
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }
    _emit(doc, args.json, lambda: [report.format_text()])
    return 0 if report.all_pass else 1


def cmd_kernel2(args: argparse.Namespace) -> int:
    rep = _apply_backend(rep_from_selector(args.rep, 2), args.backend)
    params = _params(args)
    report = analysis.kernel_search_sm2(rep, params, args.pmax, args.qmax)
    doc = {
        "command": "kernel2",
        "rep": rep.name,
        "params": params.text(),
        **report.to_dict(),
    }
    _emit(doc, args.json, lambda: [
        f"bounds: p <= {report.p_max}, |q| <= {report.q_max} (bounded search)",
        f"hits: {[tuple(h) for h in report.hits]}",
        f"minimal_generator: {report.minimal_generator}",
        f"cyclic_ok: {report.cyclic_structure_verified}",
    ])
    return 0


def cmd_unfaith(args: argparse.Namespace) -> int:
    if min(args.smax, args.lmax, args.rmax) < 0:
        raise ValueError("bounds must be nonnegative")
    rep = rep_from_selector(args.rep, args.n)
    value = parse_scalar(args.val)
    doc: dict = {
        "command": "unfaith",
        "mode": args.mode,
        "value": format_scalar(value),
        "rep": rep.name,
        "bounds": {"s_max": args.smax, "len_max": args.lmax, "r_max": args.rmax},
        "bounded": True,
        "found": False,
        "kind": None,
        "witnesses": [],
    }
    r = analysis.root_of_unity_order(value, args.rmax)
    if r is not None:
        witness = analysis.unit_power_witness(rep, args.mode, value, r)
        doc.update(kind="root-of-unity", order=r)
        head = f"root of unity: order {r}"
    else:
        hit = analysis.find_scalar_witness(rep, value, args.smax, args.lmax)
        if hit is None:
            _emit(doc, args.json, lambda: ["no witness found within bounds (bounded search, not a proof)"])
            return 0
        v, s = hit
        witness = analysis.scalar_power_witness(rep, args.mode, value, v, s)
        doc.update(kind="scalar-power", v=v.text(), s=s)
        head = f"scalar power: rho({v.text() or 'empty word'}) = value^-({s}) * identity"
    doc.update(found=True, witnesses=[_witness_doc(witness)])
    _emit(doc, args.json, lambda: [
        head,
        f"witness: {witness.w1.text()!r} vs {witness.w2.text()!r}",
        f"certificate: {witness.certificate.text()}",
    ])
    return 0


def cmd_prop8(args: argparse.Namespace) -> int:
    m = parse_matrix(Path(args.matrix).read_text())
    params = _params(args)
    matrix_report, cyclic_report, equal = analysis.compare_matrix_cyclic_kernels(
        m, args.s, parse_scalar(args.ds), params, args.pmax, args.qmax
    )
    doc = {
        "command": "prop8",
        "matrix": m.text(),
        "s": args.s,
        "ds": args.ds,
        "params": params.text(),
        "matrix_report": matrix_report.to_dict(),
        "cyclic_report": cyclic_report.to_dict(),
        "equal": equal,
    }
    _emit(doc, args.json, lambda: [
        f"matrix backend hits: {[tuple(h) for h in matrix_report.hits]}",
        f"cyclic backend hits: {[tuple(h) for h in cyclic_report.hits]}",
        f"kernels agree within bounds: {equal}",
    ])
    return 0


def cmd_multinomial(args: argparse.Namespace) -> int:
    params = _params(args)
    d = parse_scalar(args.d)
    expand = phi.tau_power_expand(params, d, args.p, args.q)
    direct = phi.tau_power_direct(params, d, args.p, args.q)
    doc = {
        "command": "multinomial",
        "params": params.text(),
        "d": format_scalar(d),
        "p": args.p,
        "q": args.q,
        "expand": format_scalar(expand),
        "direct": format_scalar(direct),
        "agree": expand == direct,
        "is_one": expand == 1,
    }
    _emit(doc, args.json, lambda: [
        f"expanded sum: {doc['expand']}",
        f"direct power: {doc['direct']}",
        f"routes agree: {doc['agree']}; equals 1: {doc['is_one']}",
    ])
    return 0


def cmd_wordeq3(args: argparse.Namespace) -> int:
    w1 = words.parse_word(args.w1, 3)
    w2 = words.parse_word(args.w2, 3)
    equal = analysis.sm3_word_equality(w1, w2)
    cert = analysis.distinctness_certificate(w1, w2)
    doc = {
        "command": "wordeq3",
        "w1": w1.text(),
        "w2": w2.text(),
        "equal": equal,
        "certificate": cert.text() if cert else None,
    }
    _emit(doc, args.json, lambda: [
        "equal (under the faithful oracle instance)" if equal else f"distinct{f' ({cert.text()})' if cert else ''}"
    ])
    return 0


def cmd_shape(args: argparse.Namespace) -> int:
    w = words.parse_word(args.word, args.n)
    blocks = words.decompose_tau_blocks(w)
    sf = blocks.shape(args.p, args.q)
    doc = {
        "command": "shape",
        "n": args.n,
        "word": w.text(),
        "p": args.p,
        "q": args.q,
        "blocks": [
            {"tau_run": r, "v_power": m, "braid": u.text()} for r, m, u in sf.blocks
        ],
        "assembled": sf.assemble().text(),
        "stripped": sf.strip().text(),
    }
    _emit(doc, args.json, lambda: [
        f"tau blocks: prefix={blocks.prefix.text()!r}, "
        + ", ".join(f"(tau^{r}, {u.text()!r})" for r, u in blocks.blocks),
        f"shape blocks (v = t1^{args.p} s1^{args.q}): "
        + ", ".join(f"(tau^{r}, v^{m}, {u.text()!r})" for r, m, u in sf.blocks),
        f"assembled: {doc['assembled']!r}",
        f"stripped:  {doc['stripped']!r}",
    ])
    return 0


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", required=True, help="scalar a (rational or Laurent in t)")
    p.add_argument("--b", required=True, help="scalar b")
    p.add_argument("--c", required=True, help="scalar c")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    `parse_args` leaves the parser unchanged, so `main` reuses it across
    calls; `build_parser.__wrapped__()` builds a fresh one.  Its `commands`
    maps each command name to that command's own parser: the `choices` of
    its subparsers action.
    """
    parser = argparse.ArgumentParser(
        prog="smbraid",
        description="Exact computation with extensions of braid representations to the singular braid monoid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the image of a word")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--rep", required=True)
    _add_params(p)
    p.add_argument("--word", required=True, help="token word, e.g. 't1 s1 S2'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("relcheck", help="verify the defining relations")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--rep", required=True)
    _add_params(p)
    p.set_defaults(func=cmd_relcheck)

    p = sub.add_parser("kernel2", help="bounded SM_2 kernel grid search")
    p.add_argument("--rep", required=True)
    _add_params(p)
    p.add_argument("--pmax", type=integer, default=DEFAULT_PMAX)
    p.add_argument("--qmax", type=integer, default=DEFAULT_QMAX)
    p.add_argument("--backend", default=None, help="formal | matrix | cyclic:<s>:<ds>")
    p.set_defaults(func=cmd_kernel2)

    p = sub.add_parser("unfaith", help="unfaithfulness witness for a one-parameter family")
    p.add_argument("--mode", choices=list(analysis.MODES), required=True)
    p.add_argument("--val", required=True, help="the nonzero parameter value")
    p.add_argument("--rep", required=True)
    p.add_argument("--n", type=integer, default=2)
    p.add_argument("--smax", type=integer, default=DEFAULT_SMAX)
    p.add_argument("--lmax", type=integer, default=DEFAULT_LMAX)
    p.add_argument("--rmax", type=integer, default=DEFAULT_RMAX)
    p.set_defaults(func=cmd_unfaith)

    p = sub.add_parser("prop8", help="compare matrix and twisted-cyclic kernel searches")
    p.add_argument("--matrix", required=True, help="matrix file: one row per line, comma-separated scalars")
    p.add_argument("--s", type=integer, required=True, help="minimal power with scalar image")
    p.add_argument("--ds", required=True, help="the scalar with matrix^s = ds * identity")
    _add_params(p)
    p.add_argument("--pmax", type=integer, default=DEFAULT_PMAX)
    p.add_argument("--qmax", type=integer, default=DEFAULT_QMAX)
    p.set_defaults(func=cmd_prop8)

    p = sub.add_parser("multinomial", help="scalar character value of tau_1^p sigma_1^q")
    _add_params(p)
    p.add_argument("--d", required=True, help="the unit scalar character value")
    p.add_argument("--p", type=integer, required=True)
    p.add_argument("--q", type=integer, required=True)
    p.set_defaults(func=cmd_multinomial)

    p = sub.add_parser("wordeq3", help="SM_3 word equality oracle")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(func=cmd_wordeq3)

    p = sub.add_parser("shape", help="block decomposition and kernel-power shape")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--p", type=integer, required=True)
    p.add_argument("--q", type=integer, required=True)
    p.set_defaults(func=cmd_shape)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """argv (by default `sys.argv[1:]`) parsed in one argparse pass by the
    parser of the command it names.  Where it names no command, or leaves
    arguments that parser does not know, the full parser parses it instead.
    That parser hands the same arguments to the same command parser, so
    every usage text and exit code comes from the parser that gives it on
    the full route."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        for name, value in vars(args).items():
            if type(value) is int:
                _index_sized(f"--{name}", value)
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # carries no message
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
