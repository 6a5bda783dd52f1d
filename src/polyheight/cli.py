"""Command-line front end.

Every subcommand executes one library operation and emits a Report —
either as an aligned text table or, with --json, as a stable JSON
document (schema 1).  Exact rationals are serialized as strings, never
floats; enclosures are [lo, hi] decimal-string pairs tagged with the
working precision.

Printed enclosure endpoints are rounded outward, so every printed
[lo, hi] contains the value.

Exit codes: 0 success/holds, 1 a checked bound failed, 2 inconclusive
or roots not certified at the precision cap, 3 input error (including
malformed flags), 4 internal error (an unexpected exception).
"""
from __future__ import annotations

import argparse
import decimal
import json
import math
import sys
import traceback
from fractions import Fraction

from . import __version__
from .analytic import check_complexmahler, mahler_measure
from .bounds import (check_alphabound1, check_alphabound2, check_bound1,
                     check_bound2, ck_interval, t2_constant)
from .gauss_lattice import lattice_case_check
from .heights import height, split_record
from .intervals import (DEFAULT_PREC, MAX_PREC, MIN_PREC, CertificationError,
                        RealInterval, check_precision, mpf_to_fraction)
from .polyparse import ParseError, parse_field, parse_poly
from .search import (MK_SEARCH_MAX_CAP, ck_lower_certify, mk_search,
                     pell_counterexample, recognize_split)
from .verdicts import FAILS, HOLDS, INCONCLUSIVE

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_CHECKS = {
    "alphabound1": check_alphabound1,
    "alphabound2": check_alphabound2,
    "bound2": check_bound2,
}


def _frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _decimal_text(d: decimal.Decimal, digits: int) -> str:
    """d, of at most `digits` significant digits, in mpmath.nstr's layout:
    fixed notation when min(-(digits // 3), -5) < exponent < digits,
    trailing zeros stripped, "0.0" for zero."""
    if not d:
        return "0.0"
    fixed = min(-(digits // 3), -5) < d.adjusted() < digits
    mantissa, _, exponent = format(d, "f" if fixed else "e").partition("e")
    whole, _, frac = mantissa.partition(".")
    return f"{whole}.{frac.rstrip('0') or '0'}" + (f"e{exponent}" if exponent else "")


def _interval_json(iv: RealInterval, digits: int = 30) -> list[str]:
    """[lo, hi] rounded outward to `digits` significant digits."""
    out = []
    for x, rounding in ((iv.lo, decimal.ROUND_FLOOR), (iv.hi, decimal.ROUND_CEILING)):
        q = mpf_to_fraction(x)
        d = decimal.Context(prec=digits, rounding=rounding).divide(q.numerator, q.denominator)
        out.append(_decimal_text(d, digits))
    return out


def _interval_text(iv: RealInterval, digits: int = 12) -> str:
    return "[{}, {}]".format(*_interval_json(iv, digits))


def _check_json(c) -> dict:
    return {
        "name": c.name,
        "lhs": _interval_json(c.lhs),
        "rhs": _interval_json(c.rhs),
        "verdict": c.verdict,
        "margin": repr(c.margin),
        "exact": c.exact,
    }


def _report(command: str, field, inputs: dict, results: dict,
            verdicts: list[str], precision: int) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "field": field.descriptor() if field is not None else None,
        "precision_bits": precision,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
    }


def _exit_code(verdicts: list[str]) -> int:
    if any(v == FAILS for v in verdicts):
        return EXIT_VIOLATED
    if any(v == INCONCLUSIVE for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _render_text(report: dict, out) -> None:
    def emit(prefix: str, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}{k}.", v) if isinstance(v, dict) else emit(f"{prefix}{k}", v)
            return
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for i, v in enumerate(value):
                emit(f"{prefix}[{i}].", v)
            return
        print(f"  {prefix:<28} {value}", file=out)

    print(f"polyheight {report['command']}", file=out)
    if report["field"]:
        print(f"  {'field':<28} {report['field']}", file=out)
    print(f"  {'precision_bits':<28} {report['precision_bits']}", file=out)
    for k, v in report["inputs"].items():
        emit(f"input.{k}", v)
    for k, v in report["results"].items():
        emit(k, v)
    if report["verdicts"]:
        print(f"  {'verdicts':<28} {','.join(report['verdicts'])}", file=out)


def _emit(report: dict, args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.json:
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        _render_text(report, out)
    return _exit_code(report["verdicts"])


def _int_coeffs(poly) -> list[int]:
    cs = poly.rational_coeffs()
    if any(c.denominator != 1 for c in cs):
        raise ParseError("base polynomial must have integer coefficients", 0, "")
    return [int(c) for c in cs]


# -- subcommand handlers -----------------------------------------------------

def _cmd_height(args) -> int:
    field = parse_field(args.field)
    poly = parse_poly(args.poly, field)
    rep = height(poly, prec=args.precision)
    results = {
        "degree": rep.degree,
        "nonarch": _frac_str(rep.nonarch),
        "arch": _interval_json(rep.arch) if args.json else _interval_text(rep.arch),
        "height": _interval_json(rep.height) if args.json else _interval_text(rep.height),
        "log_height": _interval_json(rep.log_height) if args.json else _interval_text(rep.log_height),
        "exact": _frac_str(rep.exact) if rep.exact is not None else None,
    }
    return _emit(_report("height", field, {"poly": args.poly}, results, [], args.precision), args)


def _cmd_mahler(args) -> int:
    field = parse_field(args.field)
    poly = parse_poly(args.poly, field)
    m = mahler_measure(poly, prec=args.precision)
    results = {
        "degree": m.degree,
        "mahler": _interval_json(m.enclosure) if args.json else _interval_text(m.enclosure),
    }
    return _emit(_report("mahler", field, {"poly": args.poly}, results, [], args.precision), args)


def _cmd_mk(args) -> int:
    field = parse_field(args.field)
    res = mk_search(field, args.cap, prec=args.precision)
    results = {
        "value": _interval_json(res.value.enclosure) if args.json else _interval_text(res.value.enclosure),
        "witnesses": [{"minpoly": list(w.coeffs), "power": w.power} for w in res.witnesses],
        "cap": repr(res.cap),
        "exhaustive": res.exhaustive,
    }
    return _emit(_report("mk", field, {"cap": repr(args.cap)}, results, [], args.precision), args)


def _cmd_ck_certify(args) -> int:
    field = parse_field(args.field)
    base = _int_coeffs(parse_poly(args.base, field))
    certs = ck_lower_certify(base, field, args.jmax)
    results = {
        "certificates": [
            {"j": c.j, "degree": c.degree, "sum_abs": str(c.sum_abs),
             "cert_value": repr(c.cert_value), "height_trend": repr(c.height_trend)}
            for c in certs
        ],
        "best": repr(max(c.cert_value for c in certs)),
    }
    return _emit(_report("ck-certify", field, {"base": args.base, "jmax": args.jmax},
                         results, [], args.precision), args)


def _cmd_ck_interval(args) -> int:
    field = parse_field(args.field)
    ck = ck_interval(field, args.mk)
    results = {"lower": repr(ck.lower), "upper": repr(ck.upper), "exact": ck.exact}
    return _emit(_report("ck-interval", field, {"mk": repr(args.mk)}, results, [],
                         args.precision), args)


def _cmd_verify(args) -> int:
    field = parse_field(args.field)
    poly = parse_poly(args.poly, field)
    split = recognize_split(poly, field)
    if split is None:
        raise ParseError("polynomial does not split over the field "
                         "(roots must be nonzero field elements)", 0, args.poly)
    names = list(_CHECKS) + ["bound1", "complexmahler"] if args.all else [args.check]
    cap = 3.0 if args.mk is None else max(3.0, min(MK_SEARCH_MAX_CAP, args.mk + 0.5))
    try:
        searched = mk_search(field, cap, prec=args.precision)
    except ValueError:   # nothing in (1, cap]; 2 has measure 2^d <= MK_SEARCH_MAX_CAP
        searched = mk_search(field, MK_SEARCH_MAX_CAP, prec=args.precision)
    if args.mk is None:
        mk = searched.lower_fraction
    else:
        mk = Fraction(args.mk)
        # an overlarge mk would turn a sound theorem check into a false alarm
        if searched.value_exact.compare(mk) < 0:
            raise ParseError(
                f"--mk {args.mk} exceeds the field's minimal measure "
                f"{float(searched.value.lo):.6f}; pass a valid lower bound", 0, "")
    rec = split_record(split, prec=args.precision)
    checks = []
    for name in names:
        if name == "bound1":
            checks.append(check_bound1(rec, mk, prec=args.precision))
        elif name == "complexmahler":
            checks.append(check_complexmahler(split, prec=args.precision))
        else:
            checks.append(_CHECKS[name](rec, prec=args.precision))
    hrep = rec.height
    results = {
        "height": _interval_json(hrep.height) if args.json else _interval_text(hrep.height),
        "height_exact": _frac_str(hrep.exact) if hrep.exact is not None else None,
        "mk_used": _frac_str(mk),
        "checks": [_check_json(c) if args.json else
                   {"name": c.name, "verdict": c.verdict,
                    "lhs": _interval_text(c.lhs), "rhs": _interval_text(c.rhs)}
                   for c in checks],
    }
    verdicts = [c.verdict for c in checks]
    return _emit(_report("verify", field, {"poly": args.poly}, results, verdicts,
                         args.precision), args)


def _cmd_lattice(args) -> int:
    field = parse_field(args.field)
    rep = lattice_case_check(field, args.radius)
    ok = rep.min_norm >= 4 and rep.unit_or_zero_hits == 0
    results = {
        "exponent": rep.exponent,
        "min_norm": rep.min_norm,
        "attaining_pairs": [list(map(list, p)) for p in rep.attaining_pairs],
        "unit_or_zero_hits": rep.unit_or_zero_hits,
    }
    return _emit(_report("lattice", field, {"radius": args.radius}, results,
                         [HOLDS if ok else FAILS], args.precision), args)


def _cmd_pell(args) -> int:
    w = pell_counterexample(args.d)
    results = {
        "b": str(w.b),
        "c": str(w.c),
        "alpha": str(w.alpha),
        "product": _frac_str(w.product),
        "obstruction": w.product == 1,
    }
    return _emit(_report("pell", None, {"d": args.d}, results,
                         [HOLDS if w.product <= 1 else FAILS], args.precision), args)


def _cmd_t2(args) -> int:
    t = t2_constant(args.k, args.cap, prec=args.precision)
    results = {
        "w": t.w,
        "M_floor": repr(t.M_floor),
        "C": repr(t.C),
        "floor_attained": t.floor_attained,
    }
    return _emit(_report("t2", None, {"k": args.k, "cap": repr(args.cap)}, results,
                         [], args.precision), args)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _precision(text: str) -> int:
    try:
        return check_precision(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite(text: str) -> float:
    try:
        if math.isfinite(x := float(text)):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--precision", type=_precision, default=DEFAULT_PREC,
                        help=f"working precision in bits, {MIN_PREC} to {MAX_PREC} "
                             f"(default {DEFAULT_PREC})")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of a table")

    p = _Parser(prog="polyheight",
                description="Heights, Gauss norms and Mahler measures over Q "
                            "and quadratic fields")
    p.add_argument("--version", action="version", version=f"polyheight {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("height", parents=[common], help="height of a polynomial")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=_cmd_height)

    sp = sub.add_parser("mahler", parents=[common], help="Mahler measure")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=_cmd_mahler)

    sp = sub.add_parser("mk", parents=[common], help="minimal local Mahler measure search")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--cap", type=_finite, default=3.0)
    sp.set_defaults(func=_cmd_mk)

    sp = sub.add_parser("ck-certify", parents=[common],
                        help="power-family lower-bound certificates")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--base", required=True)
    sp.add_argument("--jmax", type=int, default=8)
    sp.set_defaults(func=_cmd_ck_certify)

    sp = sub.add_parser("ck-interval", parents=[common],
                        help="certified interval for the growth constant")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--mk", type=_finite, required=True)
    sp.set_defaults(func=_cmd_ck_interval)

    sp = sub.add_parser("verify", parents=[common],
                        help="run the height inequality checks on a split polynomial")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--poly", required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="run every check (default)")
    group.add_argument("--check", choices=list(_CHECKS) + ["bound1", "complexmahler"])
    sp.add_argument("--mk", type=_finite, default=None,
                    help="lower bound for the minimal measure (default: searched)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("lattice", parents=[common],
                        help="lattice scan of beta^w + gamma^w over coprime pairs")
    sp.add_argument("--field", required=True)
    sp.add_argument("--radius", type=int, default=10)
    sp.set_defaults(func=_cmd_lattice)

    sp = sub.add_parser("pell", parents=[common], help="Pell-equation obstruction")
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=_cmd_pell)

    sp = sub.add_parser("t2", parents=[common],
                        help="constant for bounded-degree root sets")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cap", type=_finite, default=1.3)
    sp.set_defaults(func=_cmd_t2)
    return p


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:   # usage errors exit with EXIT_INPUT, --help with 0
        return exc.code
    if args.cmd == "verify" and not args.all and args.check is None:
        args.all = True
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:   # exit 1 means only that a checked bound failed
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
