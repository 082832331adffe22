"""Batch command-line front end.

Subcommands:

* ``nf``      normal form of an expression (small or divided alphabet),
* ``gb``      basis listing with completeness and reducedness certificates,
* ``verify``  relation suite, dimension count and coefficient checks,
* ``anick``   chain sets, differentials and exactness certificates,
* ``minimal`` the surgered complex: smallness, exactness at the corrected
              step, and extension-group dimensions.

All configuration comes from flags (no environment variables); listings are
sorted so output is reproducible byte for byte.  Exit status is 0 exactly
when every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from .free_algebra import (
    FreeAlgebraError,
    QQ,
    Word,
    _Y_RANK,
    format_poly,
    is_prime,
    parse_poly,
)
from .kostant import (
    Window,
    big_rewrite_system,
    dimension_check,
    relation_suite,
    small_groebner_basis,
)
from .anick import AnickComplex, GradedMatrix
from .minimal import MinimalResolution, coefficient_lemma_checks


class UsageError(Exception):
    pass


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _window(args) -> Window:
    if not is_prime(args.p):
        raise UsageError(f"--p must be prime, got {args.p}")
    if args.j >= args.m:
        raise UsageError(f"--j must be below --m, got j={args.j} m={args.m}")
    return Window(args.p, args.j, args.m)


def _bound(args, win: Window) -> int:
    return args.bound if args.bound is not None else win.p**win.m - 1


def _big_system(field, args, win: Window, truncated: bool):
    bound = _bound(args, win)
    try:
        return big_rewrite_system(field, bound, truncated=truncated)
    except ValueError as exc:
        raise UsageError(f"--bound: {exc}") from exc


def _emit(payload: dict, text: str, args) -> None:
    """Stream the report to its destination, then print the text summary."""
    if args.json:
        try:
            if args.json == "-":
                _dump(payload, sys.stdout)
            else:
                with open(args.json, "w", encoding="utf-8") as fh:
                    _dump(payload, fh)
        except OSError as exc:
            raise UsageError(f"cannot write report {args.json}: "
                             f"{exc.strerror or exc}") from exc
        if args.json != "-":
            print(f"wrote {args.json}")
    if text and args.json != "-":
        print(text)


# A matrix of a report sits at depth 2 (a dict in a top-level list): its keys
# are indented by 6 spaces, its cells and labels by 8, their items by 10.
# Each cell or label carries the separator before it; the first drops its
# comma.  A cell is a row head, a column and a coefficient tail; a label is
# a word head and a chain tail.
_P1, _P2, _P3 = " " * 6, " " * 8, " " * 10
_ROW = f",\n{_P2}[\n{_P3}%d,\n{_P3}"
_COEFF = f",\n{_P3}%s\n{_P2}]"
_WORD = f",\n{_P2}[\n{_P3}%s,\n{_P3}"
_CHAIN = f"%s\n{_P2}]"


class _Texts(dict):
    """Text pieces by key, each made by ``make(key)`` on first use."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _indented(value, pad: str) -> str:
    """``json.dumps(indent=2)`` text of value nested at the depth of pad.
    ensure_ascii escapes every newline inside strings, so only the
    structural ones are replaced."""
    text = json.dumps(value, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + pad)


def _matrix_text(mat: GradedMatrix, lead: str, texts: tuple) -> str:
    """lead, then the indented text of ``mat.to_json()`` as an item of a
    top-level list, joined from the word, chain and coefficient texts."""
    words, chains, coeffs = texts
    cells = []
    for i, row in enumerate(mat.entries):
        if row:
            head = _ROW % i
            cells += [f"{head}{j}{coeffs[x]}" for j, x in row]
    parts = [lead, "{"]
    sep = "\n"
    for key, items in (
            ("cols", [words[m] + chains[t] for m, t in mat.col_labels]),
            ("degree", None), ("entries", cells),
            ("rows", [words[m] + chains[t] for m, t in mat.row_labels])):
        parts.append(f'{sep}{_P1}"{key}": ')
        sep = ",\n"
        if items is None:
            parts.append(_indented(list(mat.degree), _P1))
        elif items:
            items[0] = items[0][1:]
            parts += ["[", *items, f"\n{_P1}]"]
        else:
            parts.append("[]")
    parts.append("\n    }")
    return "".join(parts)


def _dump(payload: dict, fh) -> None:
    """Write exactly ``json.dumps(payload, indent=2, sort_keys=True)`` plus a
    newline, one top-level value at a time, and one item at a time of a
    top-level list that holds a GradedMatrix.  The payload's keys are
    strings.

    A GradedMatrix item is written as it is reached, from its labels and
    entries in the form of ``to_json``; each word, chain and coefficient is
    quoted once per call.  Every other value or item goes through one
    ``json.dumps``, which raises TypeError for a matrix found anywhere else.
    """
    if not payload:
        fh.write("{}\n")
        return
    quote = encode_basestring_ascii
    texts = (_Texts(lambda chars: _WORD % quote(str(Word(chars)))),
             _Texts(lambda t: _CHAIN % quote(str(Word(t)))),
             _Texts(lambda x: _COEFF % quote(str(x))))
    lead = "{\n  "
    for key in sorted(payload):
        value = payload[key]
        fh.write(f"{lead}{quote(key)}: ")
        lead = ",\n  "
        if isinstance(value, list) and any(
                isinstance(item, GradedMatrix) for item in value):
            sep = "[\n    "
            for item in value:
                fh.write(_matrix_text(item, sep, texts)
                         if isinstance(item, GradedMatrix)
                         else sep + _indented(item, "    "))
                sep = ",\n    "
            fh.write("\n  ]")
        else:
            fh.write(_indented(value, "  "))
    fh.write("\n}\n")


def _check_letters(poly, low: int, high: int, where: str) -> None:
    """Refuse letters whose index lies outside low..high."""
    for w in poly.terms:
        for g in w:
            if not low <= g.index <= high:
                raise UsageError(f"letter {g.token} is outside {where}")


def _check_pbw(poly, result, bound: int) -> None:
    """Refuse a normal form that is not in PBW order: each word must be
    ea(i)*eab(j)*eb(k), each letter optional, ranked by ``_Y_RANK``.

    The untruncated system has only the merges that stay inside the bound,
    so a word it leaves out of PBW order needed a rule past it.  Every
    letter of the normal form of a word of weight (alpha, beta) has index
    at most max(alpha, beta), so that bound is enough.
    """
    for w in result.terms:
        ranks = [_Y_RANK[g.kind] for g in w]
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            need = max(max(w.degree) for w in poly.terms)
            raise UsageError(
                f"--bound {bound} is too small for this expression: its "
                f"terms need --bound {need}")


def cmd_nf(args) -> int:
    win = _window(args)
    field = QQ if args.char0 else win.field
    poly = parse_poly(args.expression, field, prime=win.p)
    kinds = {g.kind for w in poly.terms for g in w}
    small = kinds & {"a", "b"}
    divided = kinds & {"ea", "eab", "eb"}
    if small and divided:
        raise UsageError("expression mixes small and divided generators")
    if small or not divided:
        if args.char0:
            raise UsageError("the window basis needs characteristic p")
        if args.bound is not None:
            raise UsageError("--bound applies only to expressions in the "
                             "divided alphabet")
        system = small_groebner_basis(win)
        _check_letters(poly, win.j, win.m - 1, f"the window of indices "
                       f"{win.j}..{win.m - 1} (--j {win.j}, --m {win.m})")
    else:
        bound = _bound(args, win)
        system = _big_system(field, args, win, truncated=not args.char0)
        if not args.char0:
            _check_letters(poly, 0, bound, "the truncated system on "
                           f"indices <= {bound}")
    result = system.normal_form(poly)
    if args.char0:  # only divided expressions get here
        _check_pbw(poly, result, bound)
    rendered = format_poly(result, system.order)
    _emit({"input": args.expression, "normal_form": rendered}, rendered, args)
    return 0


def cmd_gb(args) -> int:
    win = _window(args)
    if args.big:
        system = _big_system(win.field, args, win, truncated=True)
    elif args.bound is not None:
        raise UsageError("--bound applies only to --big")
    else:
        system = small_groebner_basis(win)
    cert = system.is_complete()
    reduced = system.is_reduced()
    rules = [{"lhs": str(r.lhs), "rhs": format_poly(r.rhs, system.order)}
             for r in system.rules]
    payload = {
        "rule_count": len(system.rules),
        "rules": rules,
        "reduced": reduced,
        **cert.to_json(),
    }
    lines = [f"{r['lhs']} -> {r['rhs']}" for r in rules]
    lines.append(f"rules: {len(rules)}  complete: {cert.complete}  "
                 f"pairs: {cert.pair_count}  reduced: {reduced}")
    _emit(payload, "\n".join(lines), args)
    return 0 if cert.complete and reduced else 1


def cmd_verify(args) -> int:
    win = _window(args)
    relations = relation_suite(win)
    dims = dimension_check(win)
    lemmas = coefficient_lemma_checks(win)
    dim_ok = (dims["expected"] == dims["basis_count"]
              == dims["irreducible_count"])
    ok = all(c.ok for c in relations) and dim_ok and all(c.ok for c in lemmas)
    payload = {
        "relations": [c.to_json() for c in relations],
        "dimension": {**dims, "ok": dim_ok},
        "coefficient_lemmas": [c.to_json() for c in lemmas],
        "ok": ok,
    }
    lines = []
    for c in relations:
        lines.append(f"{'pass' if c.ok else 'FAIL'}  {c.name}")
    lines.append(f"{'pass' if dim_ok else 'FAIL'}  dimension "
                 f"{dims['irreducible_count']} (expected {dims['expected']})")
    for c in lemmas:
        lines.append(f"{'pass' if c.ok else 'FAIL'}  {c.name} = {c.actual}")
    lines.append("all checks pass" if ok else "FAILURES PRESENT")
    _emit(payload, "\n".join(lines), args)
    return 0 if ok else 1


def cmd_anick(args) -> int:
    win = _window(args)
    cx = AnickComplex(small_groebner_basis(win))
    bound = args.max_deg
    exactness = cx.exactness_check(bound)
    complex_report = cx.complex_check(exactness)
    ok = complex_report["ok"] and all(r.ok for r in exactness)
    matches = cx.matches_w()
    payload = {
        "t1": [list(c.word.tokens) for c in cx.t1],
        "t2": [list(c.word.tokens) for c in cx.t2],
        "degree_tables": {
            str(level): {str(c.word): [c.degree.alpha, c.degree.beta]
                         for c in cx.chains(level)}
            for level in (0, 1, 2)
        },
        "matches_W": [[str(u.word), str(w.word)] for u, w in matches],
        "d1": [r.d1 for r in exactness],
        "d2": [r.d2 for r in exactness],
        "complex_check": complex_report,
        "exactness": [r.to_json() for r in exactness],
        "ok": ok,
    }
    lines = [
        f"T1 ({len(cx.t1)}): " + ", ".join(str(c.word) for c in cx.t1),
        f"T2 ({len(cx.t2)}): " + ", ".join(str(c.word) for c in cx.t2),
        f"matches_W: {len(matches)} pairs",
        f"complex identities: {'pass' if complex_report['ok'] else 'FAIL'}",
        f"exactness (Deg <= {bound}): "
        f"{'pass' if all(r.ok for r in exactness) else 'FAIL'} "
        f"in {len(exactness)} degrees",
    ]
    _emit(payload, "\n".join(lines), args)
    return 0 if ok else 1


def cmd_minimal(args) -> int:
    win = _window(args)
    resolution = MinimalResolution(win, args.max_deg)
    report = resolution.report()
    payload = report.to_json()
    payload["t1_prime"] = [list(c.word.tokens) for c in resolution.t1_prime]
    payload["t2_prime"] = [list(c.word.tokens) for c in resolution.t2_prime]
    payload["d2_prime"] = resolution.d2_prime_matrices(
        report.exactness_at_p1_prime)
    lines = [
        f"T1' ({len(resolution.t1_prime)}): "
        + ", ".join(str(c.word) for c in resolution.t1_prime),
        f"T2' ({len(resolution.t2_prime)}): "
        + ", ".join(str(c.word) for c in resolution.t2_prime),
        "smallness: " + ", ".join(
            f"{k}={'pass' if v else 'FAIL'}"
            for k, v in report.smallness.items()),
        f"d1'.d2' = 0: {'pass' if report.d1_after_d2_zero else 'FAIL'}",
        f"exact at P1' (Deg <= {args.max_deg}): "
        f"{'pass' if all(r.ok for r in report.exactness_at_p1_prime) else 'FAIL'}",
        "ext dims: " + json.dumps(report.ext_dims, sort_keys=True),
    ]
    _emit(payload, "\n".join(lines), args)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u3plus",
        description="Exact rewriting, resolution and verification engine "
                    "for the divided-power enveloping algebra of strictly "
                    "upper-triangular 3x3 matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_deg=False):
        p.add_argument("--p", type=int, required=True, help="prime")
        p.add_argument("--m", type=int, required=True,
                       help="window size (indices j..m-1)")
        p.add_argument("--j", type=_int_at_least(0), default=0,
                       help="window start")
        p.add_argument("--json", metavar="PATH",
                       help="write a JSON report (- for stdout)")
        if max_deg:
            p.add_argument("--max-deg", type=_int_at_least(0), default=8,
                           help="total-weight bound for graded checks")

    p_nf = sub.add_parser("nf", help="normal form of an expression")
    common(p_nf)
    p_nf.add_argument("--char0", action="store_true",
                      help="characteristic-zero coefficients "
                           "(divided alphabet only)")
    p_nf.add_argument("--bound", type=_int_at_least(1),
                      help="divided-power bound for the big system "
                           "(default p^m - 1)")
    p_nf.add_argument("expression")
    p_nf.set_defaults(func=cmd_nf)

    p_gb = sub.add_parser("gb", help="basis listing and certificates")
    common(p_gb)
    p_gb.add_argument("--big", action="store_true",
                      help="the truncated divided-power system")
    p_gb.add_argument("--bound", type=_int_at_least(1),
                      help="divided-power bound (default p^m - 1)")
    p_gb.set_defaults(func=cmd_gb)

    p_verify = sub.add_parser("verify", help="relation and dimension suite")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_anick = sub.add_parser("anick", help="resolution chains and exactness")
    common(p_anick, max_deg=True)
    p_anick.set_defaults(func=cmd_anick)

    p_minimal = sub.add_parser("minimal", help="minimal-resolution surgery")
    common(p_minimal, max_deg=True)
    p_minimal.set_defaults(func=cmd_minimal)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.json and args.json != "-":
            parent = os.path.dirname(os.path.abspath(args.json))
            if not os.path.isdir(parent):
                raise UsageError(f"--json: directory {parent} does not exist")
        return args.func(args)
    except (UsageError, FreeAlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # printed outside the handler, so the traceback no longer holds the
    # failed command's frames and their memory is freed first
    print("error: out of memory; try a smaller window", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
