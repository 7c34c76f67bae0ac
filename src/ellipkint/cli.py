"""Command-line front end.

Subcommands: eval, identity, table, relation, verify.  Exit codes are a
stable contract: 0 success, 2 usage or domain error, 3 numeric failure.
The environment variable ELLIPKINT_TOL overrides the default quadrature
tolerance.  Family indices above MAX_N are usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

import mpmath

from .closedform import In_exact_real
from .precision import DomainError, Precision, ToleranceNotReached, check_z, clipped, shown
from .quadrature import IntegralSpec, integral_In_numeric
from .render import render, render_quadext
from .specialvalues import CATALOG, eval_at_special, relation
from .verify import run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Largest family index any command accepts.  It bounds eval's exact column,
# In_exact_real, which builds every closed form up to n; their coefficients
# grow to thousands of digits, so cost grows about as n³: closed_form(500)
# takes ~0.5 s and ~128 MB, closed_form(1500) ~12 s.  identity, table and
# relation run the recurrence in n and build none.  The library is uncapped.
MAX_N = 500

# z is kept exact and printed in full; Python refuses to print an integer of
# more than 4300 digits, and a larger z adds nothing a user can check.
MAX_Z_DIGITS = 1000


def _parse_z(text: str) -> Fraction:
    """z as an exact rational: 'p/q' or a decimal string."""
    try:
        # Fraction turns a decimal exponent into a power of ten, so a huge
        # one is refused before it is built
        _, e, exponent = text.lower().partition("e")
        huge = bool(e) and abs(int(exponent)) > MAX_Z_DIGITS
        z = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse z value {clipped(repr(text))}") from exc
    if huge or max(z.numerator, z.denominator) >= 10**MAX_Z_DIGITS:
        raise DomainError(f"z must have at most {MAX_Z_DIGITS} digits in numerator and denominator")
    check_z(z)
    return z


def _check_index(flag: str, value: int) -> None:
    if not 0 <= value <= MAX_N:
        raise DomainError(f"{flag} must lie in 0..{MAX_N}, got {shown(value)}")


def _tol(args):
    """The tolerance asked for, by --tol or else ELLIPKINT_TOL; None if neither."""
    if args.tol is not None or "ELLIPKINT_TOL" not in os.environ:
        return args.tol
    text = os.environ["ELLIPKINT_TOL"]
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"ELLIPKINT_TOL must be a number, got {clipped(repr(text))}") from None


def _precision(tol) -> Precision:
    return Precision() if tol is None else Precision(abs_tol=tol)


def _cannot_write(path, exc: OSError) -> DomainError:
    return DomainError(f"cannot write {clipped(path or 'stdout')}: {exc.strerror}")


@contextlib.contextmanager
def _output(path):
    """Where a command prints: stdout, or the file --out names, opened before any work is done."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    with fh:
        yield fh


def _emit(args, text: str):
    try:
        print(text, file=args.stream, flush=True)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc


def cmd_eval(args) -> int:
    prec = _precision(_tol(args))
    z = _parse_z(args.z)
    _check_index("--n", args.n)
    rows = {}
    if args.method in ("numeric", "both"):
        rows["numeric"] = integral_In_numeric(IntegralSpec(args.n, z), prec).value
    if args.method in ("exact", "both"):
        rows["exact"] = In_exact_real(args.n, z, prec)
    if args.method == "both":
        rows["difference"] = abs(rows["numeric"] - rows["exact"])
    # the difference is about the quadrature's error; past its third digit
    # it is rounding noise of the two routes
    shown_rows = {k: mpmath.nstr(v, 3 if k == "difference" else 20) for k, v in rows.items()}
    if args.format == "json":
        _emit(args, json.dumps({"n": args.n, "z": str(z), **shown_rows}))
    else:
        lines = [f"I_{args.n}({z})"]
        lines += [f"  {k:10s} = {v}" for k, v in shown_rows.items()]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _point(label: str):
    point = CATALOG.get(label)
    if point is None:
        raise DomainError(f"unknown special point {clipped(repr(label))}; choose from {sorted(CATALOG)}")
    return point


def _identity_line(n: int, label: str, fmt: str):
    point = _point(label)
    value = eval_at_special(n, point)
    if fmt == "json":
        return {"n": n, "point": label, "value": render(value, "json")}
    body = render(value, fmt)
    z = render_quadext(point.z, fmt)
    if fmt == "latex":
        return f"I_{{{n}}}({z}) = {body}"
    return f"I_{n}({z}) = {body}"


def cmd_identity(args) -> int:
    _check_index("--n", args.n)
    line = _identity_line(args.n, args.point, args.format)
    _emit(args, json.dumps(line) if args.format == "json" else line)
    return EXIT_OK


def cmd_table(args) -> int:
    _check_index("--max-n", args.max_n)
    labels = [p.strip() for p in args.points.split(",") if p.strip()]
    if not labels:
        raise DomainError("no special points given")
    for label in labels:
        _point(label)  # validate before emitting anything
    rows = [
        _identity_line(n, label, args.format)
        for label in labels
        for n in range(args.max_n + 1)
    ]
    _emit(args, json.dumps(rows) if args.format == "json" else "\n".join(rows))
    return EXIT_OK


def cmd_relation(args) -> int:
    _check_index("--n", args.n)
    _check_index("--m", args.m)
    P, Q = relation(args.n, args.m)
    if args.format == "json":
        _emit(args, json.dumps({"n": args.n, "m": args.m, "P": str(P), "Q": str(Q)}))
    else:
        _emit(args, f"P = {P}, Q = {Q}")
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _tol(args)
    # a tolerance asked for sets both the quadratures' and the checks'
    result = run_suite() if tol is None else run_suite(tol, _precision(tol))
    if args.format == "json":
        _emit(args, json.dumps(result.to_json(), indent=2))
    else:
        _emit(args, result.text())
    return result.exit_status


class _Parser(argparse.ArgumentParser):
    # a bad argument is one short line like every usage error, not argparse's
    # usage block with the rejected value echoed whole
    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {clipped(message, 120)}; see {self.prog} --help\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellipkint",
        description="Evaluate and cross-verify the integral family "
        "I_n(z) = ∫₀¹ K(k)·k/(z+k²)^(n+3/2) dk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("eval", help="evaluate I_n(z) numerically and/or exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", required=True, help="positive real; decimals or 'p/q'")
    p.add_argument("--method", choices=("numeric", "exact", "both"), default="both")
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("identity", help="print the exact identity at a special point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point", required=True, help="|".join(sorted(CATALOG)))
    common(p, formats=("text", "latex", "json"))
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("table", help="reproduce and extend the exact value tables")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--points", required=True, help="comma-separated point labels")
    common(p, formats=("text", "latex", "json"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("relation", help="rational (P, Q) linking I_n(1) and I_m(1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("verify", help="run the full cross-verification suite")
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _output(args.out) as stream:
            args.stream = stream
            return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToleranceNotReached as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
