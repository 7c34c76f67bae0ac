"""Cross-verification harness for the two evaluation routes.

Everything here compares independent computations: quadrature of the
integral against the closed-form recurrence, the order-swapped iterated
integral against the direct one, the inner-integral closed form against its
quadrature, the derivative ladder against finite differences, the exact
engine against the hard-coded published value tables, and the exact values
in floating point against the closed form's floating evaluation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf

from .closedform import In_exact_real, closed_form
from .precision import (
    DEFAULT_PRECISION,
    DomainError,
    Precision,
    check_index,
    check_tol,
    check_z,
    to_mpf,
)
from .quadfield import QuadExt, Surd
from .quadrature import (
    I0_via_swap,
    IntegralSpec,
    inner_integral_closed,
    inner_integral_numeric_grid,
    integral_In_numeric_many,
)
from .render import render
from .specialvalues import (
    CATALOG,
    ExactValue,
    _relation,
    eval_at_special,
    in1_pair,
    make_exact_value,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    cases: int
    notes: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"[{status}] {self.name}: max_abs_error={self.max_abs_error:.3e} "
            f"tol={self.tolerance:.1e} cases={self.cases}"
        )
        if self.notes:
            out += f" ({self.notes})"
        return out

    def to_json(self) -> dict:
        return asdict(self)


def _report(name: str, errors: dict, tol: float, notes: str = "") -> CheckReport:
    """The worst of `errors` (readable case -> error) against `tol`.

    A check with no cases proves nothing, so it is a DomainError, not a pass.
    An exact comparison records 0.0 for a match and inf for a miss.
    """
    if not errors:
        raise DomainError(f"{name}: no cases to check")
    case, worst = max(errors.items(), key=lambda item: item[1])
    worst = float(worst)
    if len(errors) > 1 and worst:
        notes = "; ".join(filter(None, [notes, f"worst at {case}"]))
    return CheckReport(name, worst, tol, worst <= tol, len(errors), notes)


DEFAULT_Z_GRID = (Fraction(1, 10), Fraction(1, 3), Fraction(1), Fraction(3), Fraction(10))
DEFAULT_STEP = 1e-4
# the inner integral's (z, t) grid
INNER_Z_GRID = tuple(Fraction(1, 10) + Fraction(11, 10) * i for i in range(10))
INNER_T_GRID = tuple(Fraction(1, 20) + Fraction(1, 10) * i for i in range(10))
# run_suite's derivative ladder: n = 0..LADDER_N_MAX at each z of LADDER_Z_GRID
LADDER_N_MAX = 4
LADDER_Z_GRID = (Fraction(1, 3), Fraction(1), Fraction(3))

# A check that compares I_n(z) quadratures comes in two parts: the specs it
# needs, with every input rule applied, and a comparison that takes their
# values in the same order.  Alone it makes one batch of its own specs;
# run_suite makes one batch of every part's specs and hands each part its
# share, and the batch runs each distinct integral once.


def _alone(part, prec: Precision):
    specs, compare = part
    return compare([result.value for result in integral_In_numeric_many(specs, prec)])


def _identity(n_max, z_grid, tol, prec):
    check_index(n_max, "n_max")
    check_tol(tol)
    specs = [IntegralSpec(n, z) for n in range(n_max + 1) for z in z_grid]

    def compare(values):
        errors = {}
        with prec.workdps():
            for spec, value in zip(specs, values):
                exact = In_exact_real(spec.n, spec.z, prec)
                errors[f"n={spec.n}, z={spec.z}"] = abs(value - exact)
        return _report(f"integral identity, n<={n_max}, {len(z_grid)} z values", errors, tol)

    return specs, compare


def check_identity(
    n_max: int = 8,
    z_grid=DEFAULT_Z_GRID,
    tol: float = 1e-10,
    prec: Precision = DEFAULT_PRECISION,
) -> CheckReport:
    """|quadrature(LHS) - closed form(RHS)| over an (n, z) grid."""
    return _alone(_identity(n_max, z_grid, tol, prec), prec)


def _derivative_step(n, z, h, rel_tol, prec):
    check_tol(rel_tol, "rel_tol")
    with prec.workdps():
        x = check_z(z)
        h = to_mpf(h)
        if not 0 < h < x:  # also rejects nan, for which every comparison is false
            raise DomainError("step h must satisfy 0 < h < z")
        half = h / 2
        specs = [
            IntegralSpec(n, x + h),
            IntegralSpec(n, x - h),
            IntegralSpec(n, x + half),
            IntegralSpec(n, x - half),
            IntegralSpec(n + 1, x),
        ]

    def compare(values):
        with prec.workdps():
            up, down, up_half, down_half, target = values
            d_coarse = (up - down) / (2 * h)
            d_fine = (up_half - down_half) / (2 * half)
            derivative = (4 * d_fine - d_coarse) / 3
            candidate = -2 * derivative / (2 * n + 3)
            rel_err = abs(candidate - target) / abs(target)
            notes = ""
            correction = abs(derivative - d_fine)
            if correction > abs(derivative) * mpf("1e-3"):
                notes = "Richardson correction large; step likely oversized"
        name = f"derivative ladder n={n} -> {n + 1} at z={z}"
        return _report(name, {f"n={n}, z={z}": rel_err}, rel_tol, notes)

    return specs, compare


def check_derivative_step(
    n: int,
    z,
    h: float = DEFAULT_STEP,
    rel_tol: float = 1e-6,
    prec: Precision = DEFAULT_PRECISION,
) -> CheckReport:
    """Induction step of the derivative ladder by finite differences.

    I_{n+1}(z) must equal -2/(2n+3) * dI_n/dz; the derivative is estimated by
    central differences at steps h and h/2 with one Richardson round;
    0 < h < z.
    """
    return _alone(_derivative_step(n, z, h, rel_tol, prec), prec)


def _order_swap(z_grid, tol, prec):
    check_tol(tol)
    specs = [IntegralSpec(0, z) for z in z_grid]

    def compare(values):
        errors = {}
        with prec.workdps():
            for spec, value in zip(specs, values):
                errors[f"z={spec.z}"] = abs(I0_via_swap(spec.z, prec) - value)
        return _report("order-swap identity for I_0", errors, tol)

    return specs, compare


def check_order_swap(
    z_grid=DEFAULT_Z_GRID, tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION
) -> CheckReport:
    """Order-of-integration swap: iterated route vs direct quadrature."""
    return _alone(_order_swap(z_grid, tol, prec), prec)


def check_inner_closed_form(
    z_grid=INNER_Z_GRID,
    t_grid=INNER_T_GRID,
    tol: float = 1e-10,
    prec: Precision = DEFAULT_PRECISION,
) -> CheckReport:
    """Inner-integral closed form vs its quadrature on a (z, t) grid."""
    check_tol(tol)
    errors = {}
    with prec.workdps():
        rows = inner_integral_numeric_grid(z_grid, t_grid, prec)
        for z, row in zip(z_grid, rows):
            for t, numeric in zip(t_grid, row):
                errors[f"z={z}, t={t}"] = abs(numeric - inner_integral_closed(z, t))
    return _report("inner-integral closed form", errors, tol)


EXACT_N_GRID = (0, 1, 5, 20, 40)


def check_exact_to_float() -> CheckReport:
    """ExactValue.to_mpf against In_exact_real, relative, at every CATALOG point.

    Runs for n in EXACT_N_GRID at DEFAULT_PRECISION, with tolerance 1e-35.
    At the irrational points an exact value's a and b·√d grow large with
    opposite signs, so a conversion that lets them cancel fails here.
    """
    errors = {}
    with DEFAULT_PRECISION.workdps():
        for label, point in CATALOG.items():
            z = point.z.to_mpf()
            for n in EXACT_N_GRID:
                exact = eval_at_special(n, point).to_mpf(DEFAULT_PRECISION)
                errors[f"n={n}, z={label}"] = abs(exact / In_exact_real(n, z) - 1)
    return _report("exact values to floating point, relative", errors, 1e-35)


# -- published value tables, stored as exact data ---------------------------

def _published_tables() -> list[tuple[str, int, str, ExactValue, bool]]:
    """(label, n, point label, printed value, expected to match)."""
    f = Fraction
    q = QuadExt
    return [
        ("I_0(1)", 0, "1", make_exact_value(f(1, 4), 2, 0, 1), True),
        ("I_1(1)", 1, "1", make_exact_value(f(1, 8), 2, f(1, 6), 2), True),
        ("I_2(1)", 2, "1", make_exact_value(f(19, 240), 2, f(1, 6), 2), True),
        ("I_3(1)", 3, "1", make_exact_value(f(9, 160), 2, f(121, 840), 2), True),
        ("I_0(3)", 0, "3", make_exact_value(f(1, 12), 3, 0, 1), True),
        ("I_1(3)", 1, "3", make_exact_value(f(7, 432), 3, f(1, 72), 1), True),
        # printed with sqrt(2); the recurrence and the quadrature both give
        # sqrt(3) here, so this entry is expected NOT to match (see audit)
        ("I_2(3)", 2, "3", make_exact_value(f(11, 2880), 2, f(1, 180), 1), False),
        ("I_0(1/3)", 0, "1/3", make_exact_value(f(1, 2), 1, 0, 1), True),
        # 3*sqrt(3)/8 = 9/(8*sqrt(3)), 9*sqrt(3)/10 = 27/(10*sqrt(3))
        ("I_1(1/3)", 1, "1/3", make_exact_value(f(5, 8), 1, f(9, 8), 3), True),
        ("I_2(1/3)", 2, "1/3", make_exact_value(f(177, 160), 1, f(27, 10), 3), True),
        ("I_0(5+2sqrt5)", 0, "cot2-pi-10", make_exact_value(f(1, 10), q(50, 22, 5), 0, 1), True),
        ("I_0(7+4sqrt3)", 0, "cot2-pi-12", make_exact_value(f(1, 24), q(26, 15, 3), 0, 1), True),
    ]


def _audit(tol, prec):
    check_tol(tol)
    entries = _published_tables()
    specs = [IntegralSpec(n, CATALOG[p].z.a) for _, n, p, _, match in entries if not match]

    def compare(values):
        numerics = iter(values)
        reports = []
        for label, n, point_label, printed, expect_match in entries:
            computed = eval_at_special(n, CATALOG[point_label])
            matches = computed == printed
            if expect_match:
                errors = {label: 0.0 if matches else math.inf}
                notes = "exact rational/surd comparison"
                reports.append(_report(f"table audit {label}", errors, 0.0, notes))
                continue
            # expected mismatch: report both forms and let the quadrature decide
            numeric = next(numerics)
            err_computed = abs(numeric - computed.to_mpf(prec))
            err_printed = abs(numeric - printed.to_mpf(prec))
            # the printed-form rejection threshold is deliberately independent of
            # tol: the gap between the printed surd and the true value is a fixed
            # mathematical quantity, not something a loose run should blur away
            ok = (
                (not matches)
                and err_computed <= tol
                and err_printed > max(mpf("1e-6"), 100 * err_computed)
            )
            notes = (
                f"printed: {render(printed)} | computed: {render(computed)} | "
                f"quadrature deviates from printed by {float(err_printed):.3e}"
            )
            name = f"table audit {label} (expected MISMATCH)"
            reports.append(CheckReport(name, float(err_computed), tol, ok, 1, notes))
        return reports

    return specs, compare


def audit_published_tables(
    tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION
) -> list[CheckReport]:
    """Compare the exact engine against every published identity.

    All entries must match exactly except the I_2(3) one, whose printed surd
    disagrees with both independent routes; that entry passes when the
    mismatch is observed and the quadrature sides with the computed value.
    """
    return _alone(_audit(tol, prec), prec)


def _z1_decomposition(k: int):
    """(a_k, b_k) read off eval_at_special(k, 1), or None if it is not a_k + b_k*pi.

    sqrt(2)*I_k(1) splits into a rational and a rational multiple of pi only
    if each surd is sqrt(2), or carries a zero coefficient, and each
    coefficient is rational.
    """
    value = eval_at_special(k, CATALOG["1"])
    sqrt2 = Surd(QuadExt(2))
    for coeff, surd in ((value.pi_coeff, value.pi_surd), (value.alg_coeff, value.alg_surd)):
        if not coeff.is_rational() or (surd != sqrt2 and not coeff.is_zero()):
            return None
    return value.alg_coeff.a, value.pi_coeff.a


def _relations(max_index, tol, prec):
    check_index(max_index, "max_index")
    check_tol(tol)
    specs = [IntegralSpec(k, 1) for k in range(max_index + 1)]

    def compare(values):
        pairs = [in1_pair(k) for k in range(max_index + 1)]
        # exact: each pair must be what the exact value at z = 1 decomposes into
        exact = [_z1_decomposition(k) == pair for k, pair in enumerate(pairs)]
        errors = {}
        with prec.workdps():
            sqrt2 = mpmath.sqrt(2)
            numeric = [sqrt2 * value for value in values]
            for n in range(max_index + 1):
                for m in range(max_index + 1):
                    if pairs[m][1] == 0:
                        continue
                    P, Q = _relation(pairs[n], pairs[m])
                    residual = abs(numeric[n] + to_mpf(P) * numeric[m] + to_mpf(Q))
                    errors[f"n={n}, m={m}"] = residual if exact[n] and exact[m] else math.inf
        notes = "exact rational check per pair; a miss reads as inf"
        return _report("pairwise rational relations at z=1", errors, tol, notes)

    return specs, compare


def check_relations(
    max_index: int = 10, tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION
) -> CheckReport:
    """Pairwise rational relations between sqrt(2)*I_n(1) values.

    Exactness: every (a_k, b_k) that in1_pair reads off the closed form must
    be what eval_at_special's exact value at z = 1 decomposes into.  The
    numeric side replays each relation with quadrature values of the integrals.
    """
    return _alone(_relations(max_index, tol, prec), prec)


def check_structure(n_max: int = 12) -> CheckReport:
    """Degrees and leading coefficients of the closed forms."""
    check_index(n_max, "n_max")
    errors = {}
    for n in range(n_max + 1):
        form = closed_form(n)
        ok = (
            len(form.A) == n + 1
            and len(form.B) == n
            and (not form.B or form.B[-1] != 0)  # deg B_n is exactly n - 1
            and form.A[-1] == (-1) ** n * 2**n * math.factorial(n)
        )
        errors[f"n={n}"] = 0.0 if ok else math.inf
    return _report(
        f"closed-form structure, n<={n_max}", errors, 0.0, "exact structural comparison"
    )


@dataclass
class SuiteResult:
    reports: list[CheckReport] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def exit_status(self) -> int:
        return 0 if self.all_passed else 3

    def text(self) -> str:
        lines = [r.line() for r in self.reports]
        lines.append(
            f"{'ALL CHECKS PASSED' if self.all_passed else 'SOME CHECKS FAILED'} "
            f"({sum(r.passed for r in self.reports)}/{len(self.reports)})"
        )
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [r.to_json() for r in self.reports]


def run_suite(tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION) -> SuiteResult:
    """Run every cross-check; deterministic for a fixed tol and prec.

    Each check runs at its own defaults, and the derivative ladder at
    n = 0..LADDER_N_MAX over LADDER_Z_GRID.  Every input rule runs first.
    Then the checks that compare I_n(z) quadratures share one
    integral_In_numeric_many call over all their specs, which runs each
    distinct integral once, and each check takes its share of the values in
    order.  Nothing is kept between runs.
    """
    identity = _identity(8, DEFAULT_Z_GRID, tol, prec)
    swap = _order_swap(DEFAULT_Z_GRID, tol, prec)
    ladder = [
        _derivative_step(n, z, DEFAULT_STEP, 1e-6, prec)
        for n in range(LADDER_N_MAX + 1)
        for z in LADDER_Z_GRID
    ]
    audit = _audit(tol, prec)
    relations = _relations(10, tol, prec)
    parts = [identity, swap, *ladder, audit, relations]
    results = integral_In_numeric_many([spec for specs, _ in parts for spec in specs], prec)
    values = (result.value for result in results)
    identity, swap, *ladder, audit, relations = (
        compare([next(values) for _ in specs]) for specs, compare in parts
    )
    reports = [
        check_structure(),
        identity,
        check_inner_closed_form(tol=tol, prec=prec),
        swap,
        *ladder,
        *audit,
        check_exact_to_float(),
        relations,
    ]
    return SuiteResult(reports)
