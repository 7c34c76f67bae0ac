"""Seeded inputs and output checks for the three benchmark workloads.

Nothing here imports ellipkint: inputs are plain JSON data handed to the
program, and every check compares the program's outputs with values from
``reference.py`` (mpmath alone) or with a property the method must have.
"""

from __future__ import annotations

import ast
import operator
import random
from fractions import Fraction

import mpmath
from mpmath import mpf

# Special points of the exact route, keyed by the program's catalog labels,
# as ArcCot(sqrt(z))/pi.  The benchmark derives z = cot(theta)**2 itself.
POINT_THETA = {
    "1": Fraction(1, 4),
    "3": Fraction(1, 6),
    "1/3": Fraction(1, 3),
    "cot2-pi-10": Fraction(1, 10),
    "cot2-pi-12": Fraction(1, 12),
}

# Default sizes; the benchmark's own tests pass smaller ones.
SWEEP_SIZE = {"n_max": 16, "z_bins": 4}
TABLES_SIZE = {"max_n": 100}

LOW = {"dps": 40, "abs_tol": 1e-12}  # the program's default precision
HIGH = {"dps": 60, "abs_tol": 1e-30}  # the minority at a second precision
RELATIVE_TOL = mpf("1e-30")  # tables: agreement with the reference


def _z_in_bin(rng: random.Random, b: int, bins: int) -> str:
    """Rational z log-uniform inside bin b of [1/10, 10], as 'p/q'."""
    u = rng.uniform(0.1, 0.9)
    z = Fraction(10 ** (-1 + 2 * (b + u) / bins)).limit_denominator(100)
    return f"{z.numerator}/{z.denominator}"


def sweep_inputs(seed: int, n_max: int, z_bins: int) -> list[dict]:
    """One round of (n, z) specs, stratified so that every seed does the same work.

    Every n in 0..n_max meets every z bin once at the default precision and
    two bins, half the range apart, at 60 digits.  The seed moves z inside
    its bin and the order of the round.

    Latency clusters by tanh-sinh level.  At a third of the round, the
    60-digit share puts the median well inside one cluster (about 13
    operations from its edge) rather than on the edge between levels 4 and 5,
    where it would jump between seeds.
    """
    rng = random.Random(f"sweep-{seed}")
    specs = [
        {"n": n, "z": _z_in_bin(rng, b, z_bins), **LOW}
        for n in range(n_max + 1)
        for b in range(z_bins)
    ]
    specs += [
        {"n": n, "z": _z_in_bin(rng, (n + half) % z_bins, z_bins), **HIGH}
        for n in range(n_max + 1)
        for half in (0, z_bins // 2)
    ]
    rng.shuffle(specs)
    return specs


def tables_inputs(seed: int, max_n: int) -> dict:
    """n = 0..max_n at every point, then relation(n, max_n - n) for every n.

    The values and the pairs are the same for every seed, so each operation
    does the same work whatever the seed; the seed sets the order of the
    relations.  The values come first, n ascending, so each n pays its one
    closed_form step in its first value; the relations find every closed
    form cached.  Seeded partners m would make the work follow the seed: a
    relation with m > n run among the values pays the closed forms up to m
    and spares the values after it.
    """
    pairs = [[n, max_n - n] for n in range(max_n + 1)]
    random.Random(f"tables-{seed}").shuffle(pairs)
    return {
        "max_n": max_n,
        "points": list(POINT_THETA),
        "pairs": pairs,
    }


VERIFY_ARGV = ["verify", "--format", "json"]


# -- checks ------------------------------------------------------------------


def check_sweep(spec: dict, out: dict, ref: mpf) -> str | None:
    """None if the quadrature result holds its stated absolute tolerance."""
    if not out.get("converged"):
        return "not converged"
    with mpmath.workdps(100):  # holds the program's working digits exactly
        err = abs(mpf(tuple(out["value"])) - ref)
    if err > spec["abs_tol"]:
        return f"|value - reference| = {mpmath.nstr(err, 3)} > abs_tol {spec['abs_tol']}"
    return None


def rational(q: str | Fraction) -> mpf:
    """'p/q' or a Fraction as an mpf at the current precision."""
    f = Fraction(q)
    return mpf(f.numerator) / f.denominator


def _quadext(obj: dict) -> mpf:
    return rational(obj["a"]) + rational(obj["b"]) * mpmath.sqrt(int(obj["d"]))


def json_value(obj: dict) -> mpf:
    """pi_coeff*pi/pi_surd + alg_coeff/alg_surd from the program's JSON form."""
    total = mpf(0)
    for key, factor in (("pi", mpmath.pi), ("alg", mpf(1))):
        coeff = _quadext(obj[key]["coeff"])
        if coeff:
            surd = obj[key]["surd"]
            total += coeff * factor / (rational(surd["scale"]) * mpmath.sqrt(_quadext(surd["radicand"])))
    return total


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def text_value(text: str) -> mpf:
    """Evaluate a text rendering with mpmath's sqrt and pi, integers as mpf."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return mpf(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return +mpmath.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt"
            and len(node.args) == 1
            and not node.keywords
        ):
            return mpmath.sqrt(ev(node.args[0]))
        raise ValueError(f"unexpected syntax in rendering: {ast.dump(node)[:80]}")

    return ev(ast.parse(text, mode="eval"))


def _digits(text: str) -> int:
    """Working digits that survive cancellation between the rendering's integers."""
    longest = max((len(t) for t in "".join(c if c.isdigit() else " " for c in text).split()), default=1)
    return 2 * longest + 60


def _relative_error(value: mpf, ref: mpf) -> mpf:
    return abs(value - ref) / abs(ref)


def check_table_value(n: int, label: str, out: dict, ref: mpf) -> str | None:
    """None if the exact value, its text and its JSON all agree with the reference."""
    if not out.get("roundtrip"):
        return "JSON does not round-trip through exact_value_from_json"
    if not isinstance(out.get("latex"), str) or not out["latex"]:
        return "empty LaTeX rendering"
    text = out["text"]
    with mpmath.workdps(_digits(text)):
        for kind, value in (("json", json_value(out["json"])), ("text", text_value(text))):
            err = _relative_error(value, ref)
            if err > RELATIVE_TOL:
                return f"{kind} value off the reference by relative {mpmath.nstr(err, 3)}"
    if (n, label) == (2, "3") and ("sqrt(3)" not in text or "sqrt(2)" in text):
        return f"I_2(3) must carry sqrt(3), not the printed sqrt(2): {text}"
    return None


def check_relation(out: dict, ref_n: mpf, ref_m: mpf) -> str | None:
    """None if sqrt(2)*I_n(1) + P*sqrt(2)*I_m(1) + Q = 0 on the reference values."""
    P, Q = Fraction(out["P"]), Fraction(out["Q"])
    digits = max(len(str(abs(x.numerator))) + len(str(x.denominator)) for x in (P, Q)) + 60
    with mpmath.workdps(digits):
        sqrt2 = mpmath.sqrt(2)
        terms = [sqrt2 * ref_n, rational(P) * sqrt2 * ref_m, rational(Q)]
        residual = abs(mpmath.fsum(terms))
        scale = max(abs(t) for t in terms)
    if residual > RELATIVE_TOL * scale:
        return f"relation residual {mpmath.nstr(residual / scale, 3)} (relative)"
    return None


def check_verdict(out: dict) -> str | None:
    """None if verify exited 0 with every report passed and I_2(3) as the expected mismatch."""
    if out.get("exit_code") != 0:
        return f"exit code {out.get('exit_code')}"
    reports = out.get("reports") or []
    failed = [r["name"] for r in reports if not r.get("passed")]
    if failed:
        return f"failed checks: {failed}"
    mismatch = [r for r in reports if "I_2(3)" in r["name"] and "expected MISMATCH" in r["name"]]
    if len(mismatch) != 1:
        return "I_2(3) is not recorded as the expected mismatch"
    computed = mismatch[0].get("notes", "").partition("computed:")[2].partition("|")[0]
    if "sqrt(3)" not in computed:
        return f"computed I_2(3) does not carry sqrt(3): {computed}"
    return None
