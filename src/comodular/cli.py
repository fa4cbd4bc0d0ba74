"""Command-line front end.

Five verbs: ``eval`` computes one integral value, ``audit`` runs axiom
checks for a named integral over a grid, ``fit`` recovers generating data
from one, ``gen`` writes seeded random capacity files, and ``selftest``
runs the built-in conformance suite.

Exit codes separate mathematics from operations: 0 means success or all
checks passed, 1 means a check failed or a fit was refused (the report
says why), 2 means the invocation itself was unusable.  Output is
deterministic for identical arguments, files, and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__, selftest
from .axioms import GridSpec, audit, witness_json
from .decompose import (
    FitRefusal,
    QuasiChoquetFit,
    factorize_quasi_sugeno,
    fit_quasi_choquet,
    fit_signed_choquet,
    fit_symmetric_choquet,
)
from .errors import ComodularError
from .generate import GEN_MAX_CRITERIA, generate
from .integrals import INTEGRAL_KINDS, black_box
from .scalars import as_fraction, format_fraction
from .setfunc import (
    Interval,
    SetFunction,
    describe,
    load_set_function,
    read_json,
    table_json,
    to_payload,
)
from .transforms import TransformFn, transform_from_payload

FLOAT_EPS = Fraction(1, 10**9)

FIT_KINDS = ("signed-choquet", "symmetric", "quasi-choquet", "quasi-sugeno")


def _parse_tuple(text: str) -> tuple[Fraction, ...]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    items = [piece.strip() for piece in body.split(",") if piece.strip()]
    if not items:
        raise ComodularError("expected a nonempty list, got %r" % (text,))
    return tuple(as_fraction(piece) for piece in items)


def _parse_interval(text: str) -> Interval:
    parts = _parse_tuple(text)
    if len(parts) != 2:
        raise ComodularError("an interval needs exactly two endpoints, got %r" % (text,))
    return Interval(parts[0], parts[1])


def _load_phi(path: Optional[str]) -> Optional[TransformFn]:
    return None if path is None else transform_from_payload(read_json(path))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _header(mode: str, eps: Fraction) -> str:
    if mode == "float":
        return "# mode: float (eps=%s)\n" % format_fraction(eps, "rational")
    return ""


def _witness_line(witness: Optional[dict], mode: str) -> str:
    """The indented text line for a witness; empty when there is none."""
    if witness is None:
        return ""
    rendered = witness_json(witness, mode)
    return "  witness: %s; lhs %s, rhs %s\n" % (
        json.dumps(rendered["operands"]),
        rendered["lhs"],
        rendered["rhs"],
    )


def _black_box_args(args) -> dict:
    capacity = interval = None
    if args.capacity is not None:
        capacity, _, interval = load_set_function(args.capacity)
    if args.interval is not None:
        interval = _parse_interval(args.interval)
    return {
        "capacity": capacity,
        "phi": _load_phi(args.phi),
        "interval": interval,
    }


def _cmd_eval(args, mode: str, eps: Fraction) -> int:
    x = _parse_tuple(args.x)
    parts = _black_box_args(args)
    # Only "mean" takes its arity from the point; a capacity fixes it for the
    # other kinds, and a point of the wrong length fails at evaluation.
    n = len(x) if args.integral == "mean" else None
    fn, _ = black_box(args.integral, n=n, checked=args.checked, **parts)
    value = fn(x)
    if args.format == "json":
        doc = {
            "verb": "eval",
            "integral": args.integral,
            "mode": mode,
            "x": [format_fraction(c, mode) for c in x],
            "value": format_fraction(value, mode),
        }
        _emit(_json_doc(doc), args.out)
    else:
        _emit(_header(mode, eps) + format_fraction(value, mode) + "\n", args.out)
    return 0


def _cmd_audit(args, mode: str, eps: Fraction) -> int:
    parts = _black_box_args(args)
    fn, n = black_box(args.fn, n=args.n, **parts)
    grid = GridSpec(_parse_interval(args.box), points_per_axis=args.k)
    axioms = [piece.strip() for piece in args.axioms.split(",") if piece.strip()]
    if not axioms:
        raise ComodularError("no axioms given")
    result = audit(fn, n, grid, axioms, phi=parts["phi"], eps=eps)
    ok = all(report.passed for report in result.reports)
    if args.format == "json":
        doc = {"verb": "audit", "fn": args.fn, "mode": mode}
        doc.update(result.to_json(mode))
        _emit(_json_doc(doc), args.out)
    else:
        lines = [_header(mode, eps)]
        for report in result.reports:
            lines.append(
                "%s: %s (tested %d, skipped %d)\n"
                % (report.axiom, report.verdict, report.tested, report.skipped)
            )
            lines.append(_witness_line(report.witness, mode))
        for label in result.summary["classifications"]:
            lines.append("%s\n" % label)
        _emit("".join(lines), args.out)
    return 0 if ok else 1


def _cmd_fit(args, mode: str, eps: Fraction) -> int:
    parts = _black_box_args(args)
    fn, n = black_box(args.fn, n=args.n, **parts)
    grid = GridSpec(_parse_interval(args.box), points_per_axis=args.k)
    if args.fit == "signed-choquet":
        outcome = fit_signed_choquet(fn, n, grid, eps=eps)
    elif args.fit == "symmetric":
        outcome = fit_symmetric_choquet(fn, n, grid, eps=eps)
    elif args.fit == "quasi-choquet":
        outcome = fit_quasi_choquet(fn, n, grid, side=args.side, eps=eps)
    else:
        outcome = factorize_quasi_sugeno(fn, n, grid, eps=eps)
    refused = isinstance(outcome, FitRefusal)
    if args.format == "json":
        doc = {"verb": "fit", "fit": args.fit, "mode": mode}
        if isinstance(outcome, SetFunction):
            doc.update(fitted=True, capacity=table_json(outcome.values, mode))
        else:
            doc.update(outcome.to_json(mode))
        _emit(_json_doc(doc), args.out)
    elif refused:
        body = "refused: %s" % outcome.condition
        if outcome.detail:
            body += " (%s)" % outcome.detail
        _emit(_header(mode, eps) + body + "\n" + _witness_line(outcome.witness, mode), args.out)
    else:
        table = outcome.capacity if isinstance(outcome, QuasiChoquetFit) else outcome
        body = describe(table) + "\n" if isinstance(table, SetFunction) else ""
        _emit(_header(mode, eps) + "fitted\n" + body, args.out)
    return 1 if refused else 0


def _cmd_gen(args, mode: str, eps: Fraction) -> int:
    interval = _parse_interval(args.interval) if args.interval else Interval(0, 1)
    table = generate(args.role, args.seed, args.n, interval)
    _emit(_json_doc(to_payload(table, role=args.role, interval=interval)), args.out)
    return 0


def _cmd_selftest(args, mode: str, eps: Fraction) -> int:
    report = selftest.run(mode)
    if args.format == "text":
        _emit(_header(mode, eps) + selftest.render_text(report), args.out)
    else:
        _emit(selftest.render_json(report), args.out)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comodular",
        description="evaluate, audit, fit, and generate discrete nonadditive integrals",
    )
    parser.add_argument("--version", action="version", version="comodular %s" % __version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, default_format="text"):
        p.add_argument("--format", choices=("json", "text"), default=default_format)
        p.add_argument("--mode", choices=("rational", "float"), default="rational")
        p.add_argument("--eps", help="tolerance for float mode (default 1/10^9)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate one integral at one point")
    p_eval.add_argument("--integral", choices=INTEGRAL_KINDS, required=True)
    p_eval.add_argument("--capacity", help="capacity JSON file")
    p_eval.add_argument("--phi", help="transform JSON file")
    p_eval.add_argument("--x", required=True, help='evaluation point, e.g. "[1/5,7/10]"')
    p_eval.add_argument("--interval", help='scale for lattice integrals, e.g. "[0,1]"')
    p_eval.add_argument("--checked", action="store_true", help="cross-check both forms")
    common(p_eval)

    p_audit = sub.add_parser("audit", help="check axioms for a named integral on a grid")
    p_audit.add_argument("--fn", choices=INTEGRAL_KINDS, required=True)
    p_audit.add_argument("--capacity", help="capacity JSON file")
    p_audit.add_argument("--phi", help="transform JSON file")
    p_audit.add_argument("--interval", help="scale for lattice integrals")
    p_audit.add_argument("--box", required=True, help='grid box, e.g. "[-1,1]"')
    p_audit.add_argument("--k", type=int, default=5, help="points per axis (default 5)")
    p_audit.add_argument("--n", type=int, help="arity when no capacity file fixes it")
    p_audit.add_argument("--axioms", required=True, help="comma-separated axiom names")
    common(p_audit)

    p_fit = sub.add_parser("fit", help="recover generating data from a named integral")
    p_fit.add_argument("--fit", choices=FIT_KINDS, required=True)
    p_fit.add_argument("--fn", choices=INTEGRAL_KINDS, required=True)
    p_fit.add_argument("--capacity", help="capacity JSON file")
    p_fit.add_argument("--phi", help="transform JSON file")
    p_fit.add_argument("--interval", help="scale for lattice integrals")
    p_fit.add_argument("--box", required=True, help='grid box, e.g. "[0,1]"')
    p_fit.add_argument("--k", type=int, default=5)
    p_fit.add_argument("--n", type=int, help="arity when no capacity file fixes it")
    p_fit.add_argument("--side", choices=("pos", "neg"), default="pos")
    common(p_fit)

    p_gen = sub.add_parser("gen", help="write a seeded random capacity file")
    p_gen.add_argument("--role", choices=("signed", "capacity", "ivalued"), required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument(
        "--n", type=int, required=True, help="criteria count (1..%d)" % GEN_MAX_CRITERIA
    )
    p_gen.add_argument("--interval", help='scale for ivalued tables (default "[0,1]")')
    common(p_gen, default_format="json")

    p_self = sub.add_parser("selftest", help="run the built-in conformance suite")
    common(p_self, default_format="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.eps is not None and args.mode != "float":
        parser.error("--eps only applies to --mode float")
    try:
        eps = as_fraction(args.eps) if args.eps is not None else (
            FLOAT_EPS if args.mode == "float" else Fraction(0)
        )
        if eps < 0:
            raise ComodularError("--eps must be >= 0, got %s" % eps)
        handler = {
            "eval": _cmd_eval,
            "audit": _cmd_audit,
            "fit": _cmd_fit,
            "gen": _cmd_gen,
            "selftest": _cmd_selftest,
        }[args.verb]
        return handler(args, args.mode, eps)
    except ComodularError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
