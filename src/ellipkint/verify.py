"""Cross-verification harness for the two evaluation routes.

Everything here compares independent computations: quadrature of the
integral against the closed-form recurrence, the order-swapped iterated
integral against the direct one, the inner-integral closed form against its
quadrature, the derivative ladder against finite differences, and the exact
engine against the hard-coded published value tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf

from .closedform import In_exact_real, closed_form
from .precision import DEFAULT_PRECISION, DomainError, Precision, to_mpf
from .quadfield import QuadExt, Surd
from .quadrature import (
    I0_via_swap,
    IntegralSpec,
    inner_integral_closed,
    inner_integral_numeric,
    integral_In_numeric,
)
from .render import render
from .specialvalues import (
    CATALOG,
    ExactValue,
    eval_at_special,
    in1_pair,
    make_exact_value,
    relation,
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
        return {
            "name": self.name,
            "max_abs_error": self.max_abs_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "cases": self.cases,
            "notes": self.notes,
        }


DEFAULT_Z_GRID = (Fraction(1, 10), Fraction(1, 3), Fraction(1), Fraction(3), Fraction(10))


def check_identity(
    n_max: int = 8,
    z_grid=DEFAULT_Z_GRID,
    tol: float = 1e-10,
    prec: Precision = DEFAULT_PRECISION,
) -> CheckReport:
    """|quadrature(LHS) - closed form(RHS)| over an (n, z) grid."""
    if n_max < 0 or not z_grid:
        raise DomainError("need n_max >= 0 and a nonempty z grid")
    _validate_grid(z_grid)
    worst = mpf(0)
    cases = 0
    with prec.workdps():
        for n in range(n_max + 1):
            for z in z_grid:
                numeric = integral_In_numeric(IntegralSpec(n, z), prec).value
                err = abs(numeric - In_exact_real(n, z, prec.dps))
                worst = max(worst, err)
                cases += 1
    return CheckReport(
        name=f"integral identity, n<={n_max}, {len(z_grid)} z values",
        max_abs_error=float(worst),
        tolerance=tol,
        passed=worst <= tol,
        cases=cases,
    )


def check_derivative_step(
    n: int,
    z,
    h: float = 1e-4,
    rel_tol: float = 1e-6,
    prec: Precision = DEFAULT_PRECISION,
) -> CheckReport:
    """Induction step of the derivative ladder by finite differences.

    I_{n+1}(z) must equal -2/(2n+3) * dI_n/dz; the derivative is estimated by
    central differences at steps h and h/2 with one Richardson round.
    """
    with prec.workdps():
        z = to_mpf(z)
        h = to_mpf(h)
        if z - h <= 0:
            raise DomainError("need z - h > 0")

        def central(step):
            up = integral_In_numeric(IntegralSpec(n, z + step), prec).value
            down = integral_In_numeric(IntegralSpec(n, z - step), prec).value
            return (up - down) / (2 * step)

        d_coarse = central(h)
        d_fine = central(h / 2)
        derivative = (4 * d_fine - d_coarse) / 3
        candidate = -2 * derivative / (2 * n + 3)
        target = integral_In_numeric(IntegralSpec(n + 1, z), prec).value
        rel_err = abs(candidate - target) / abs(target)
        notes = ""
        correction = abs(derivative - d_fine)
        if correction > abs(derivative) * mpf("1e-3"):
            notes = "Richardson correction large; step likely oversized"
    return CheckReport(
        name=f"derivative ladder n={n} -> {n + 1} at z={z}",
        max_abs_error=float(rel_err),
        tolerance=rel_tol,
        passed=rel_err <= rel_tol,
        cases=1,
        notes=notes,
    )


def check_order_swap(
    z_grid=DEFAULT_Z_GRID, tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION
) -> CheckReport:
    """Order-of-integration swap: iterated route vs direct quadrature."""
    _validate_grid(z_grid)
    worst = mpf(0)
    with prec.workdps():
        for z in z_grid:
            direct = integral_In_numeric(IntegralSpec(0, z), prec).value
            err = abs(I0_via_swap(z, prec) - direct)
            worst = max(worst, err)
    return CheckReport(
        name="order-swap identity for I_0",
        max_abs_error=float(worst),
        tolerance=tol,
        passed=worst <= tol,
        cases=len(tuple(z_grid)),
    )


def check_inner_closed_form(
    z_grid=None, t_grid=None, tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION
) -> CheckReport:
    """Inner-integral closed form vs its quadrature on a (z, t) grid."""
    if z_grid is None:
        z_grid = [Fraction(1, 10) + Fraction(11, 10) * i for i in range(10)]
    if t_grid is None:
        t_grid = [Fraction(1, 20) + Fraction(1, 10) * i for i in range(10)]
    _validate_grid(z_grid)
    worst = mpf(0)
    cases = 0
    with prec.workdps():
        for z in z_grid:
            for t in t_grid:
                err = abs(
                    inner_integral_numeric(z, t, prec) - inner_integral_closed(z, t)
                )
                worst = max(worst, err)
                cases += 1
    return CheckReport(
        name="inner-integral closed form",
        max_abs_error=float(worst),
        tolerance=tol,
        passed=worst <= tol,
        cases=cases,
    )


# -- published value tables, stored as exact data ---------------------------

def _rational_value(pi_c, pi_rad, alg_c, alg_rad) -> ExactValue:
    def lift(x):
        return x if isinstance(x, QuadExt) else QuadExt(Fraction(x), Fraction(0), 1)

    return make_exact_value(lift(pi_c), lift(pi_rad), lift(alg_c), lift(alg_rad))


def _published_tables() -> list[tuple[str, int, str, ExactValue, bool]]:
    """(label, n, point label, printed value, expected to match)."""
    f = Fraction
    q = QuadExt
    return [
        ("I_0(1)", 0, "1", _rational_value(f(1, 4), 2, 0, 1), True),
        ("I_1(1)", 1, "1", _rational_value(f(1, 8), 2, f(1, 6), 2), True),
        ("I_2(1)", 2, "1", _rational_value(f(19, 240), 2, f(1, 6), 2), True),
        ("I_3(1)", 3, "1", _rational_value(f(9, 160), 2, f(121, 840), 2), True),
        ("I_0(3)", 0, "3", _rational_value(f(1, 12), 3, 0, 1), True),
        ("I_1(3)", 1, "3", _rational_value(f(7, 432), 3, f(1, 72), 1), True),
        # printed with sqrt(2); the recurrence and the quadrature both give
        # sqrt(3) here, so this entry is expected NOT to match (see audit)
        ("I_2(3)", 2, "3", _rational_value(f(11, 2880), 2, f(1, 180), 1), False),
        ("I_0(1/3)", 0, "1/3", _rational_value(f(1, 2), 1, 0, 1), True),
        # 3*sqrt(3)/8 = 9/(8*sqrt(3)), 9*sqrt(3)/10 = 27/(10*sqrt(3))
        ("I_1(1/3)", 1, "1/3", _rational_value(f(5, 8), 1, f(9, 8), 3), True),
        ("I_2(1/3)", 2, "1/3", _rational_value(f(177, 160), 1, f(27, 10), 3), True),
        (
            "I_0(5+2sqrt5)",
            0,
            "cot2-pi-10",
            _rational_value(f(1, 10), q(f(50), f(22), 5), 0, 1),
            True,
        ),
        (
            "I_0(7+4sqrt3)",
            0,
            "cot2-pi-12",
            _rational_value(f(1, 24), q(f(26), f(15), 3), 0, 1),
            True,
        ),
    ]


def audit_published_tables(
    tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION
) -> list[CheckReport]:
    """Compare the exact engine against every published identity.

    All entries must match exactly except the I_2(3) one, whose printed surd
    disagrees with both independent routes; that entry passes when the
    mismatch is observed and the quadrature sides with the computed value.
    """
    reports = []
    for label, n, point_label, printed, expect_match in _published_tables():
        computed = eval_at_special(n, CATALOG[point_label])
        matches = computed == printed
        if expect_match:
            reports.append(
                CheckReport(
                    name=f"table audit {label}",
                    max_abs_error=0.0 if matches else float("inf"),
                    tolerance=0.0,
                    passed=matches,
                    cases=1,
                    notes="exact rational/surd comparison",
                )
            )
            continue
        # expected mismatch: report both forms and let the quadrature decide
        spec = IntegralSpec(n, CATALOG[point_label].z.a)
        numeric = integral_In_numeric(spec, prec).value
        err_computed = abs(numeric - computed.to_mpf(prec.dps))
        err_printed = abs(numeric - printed.to_mpf(prec.dps))
        # the printed-form rejection threshold is deliberately independent of
        # tol: the gap between the printed surd and the true value is a fixed
        # mathematical quantity, not something a loose run should blur away
        ok = (
            (not matches)
            and err_computed <= tol
            and err_printed > max(mpf("1e-6"), 100 * err_computed)
        )
        reports.append(
            CheckReport(
                name=f"table audit {label} (expected MISMATCH)",
                max_abs_error=float(err_computed),
                tolerance=tol,
                passed=ok,
                cases=1,
                notes=(
                    f"printed: {render(printed)} | computed: {render(computed)} | "
                    f"quadrature deviates from printed by {float(err_printed):.3e}"
                ),
            )
        )
    return reports


def check_relations(
    max_index: int = 10, tol: float = 1e-10, prec: Precision = DEFAULT_PRECISION
) -> CheckReport:
    """Pairwise rational relations between sqrt(2)*I_n(1) values.

    Exactness is checked in rational arithmetic for every pair; the numeric
    side replays the relation with quadrature values of the integrals.
    """
    pairs = {k: in1_pair(k) for k in range(max_index + 1)}
    worst = mpf(0)
    cases = 0
    with prec.workdps():
        sqrt2 = mpmath.sqrt(2)
        numeric = {
            k: sqrt2 * integral_In_numeric(IntegralSpec(k, 1), prec).value for k in pairs
        }
        for n in range(max_index + 1):
            for m in range(max_index + 1):
                a_m, b_m = pairs[m]
                if b_m == 0:
                    continue
                P, Q = relation(n, m)
                a_n, b_n = pairs[n]
                # exact: both the pi and the rational component must vanish
                if b_n + P * b_m != 0 or a_n + P * a_m + Q != 0:
                    return CheckReport(
                        name="pairwise rational relations at z=1",
                        max_abs_error=float("inf"),
                        tolerance=tol,
                        passed=False,
                        cases=cases,
                        notes=f"exact relation violated at (n={n}, m={m})",
                    )
                residual = abs(numeric[n] + to_mpf(P) * numeric[m] + to_mpf(Q))
                worst = max(worst, residual)
                cases += 1
    return CheckReport(
        name="pairwise rational relations at z=1",
        max_abs_error=float(worst),
        tolerance=tol,
        passed=worst <= tol,
        cases=cases,
        notes="exact rational checks all hold",
    )


def check_structure(n_max: int = 12) -> CheckReport:
    """Degrees, scale factors and leading coefficients of the closed forms."""
    ok = True
    for n in range(n_max + 1):
        form = closed_form(n)
        ok &= len(form.A) == n + 1 and len(form.B) == n
        ok &= not form.B or form.B[-1] != 0  # deg B_n is exactly n - 1
        ok &= form.c == 2**n
        ok &= form.A[-1] == (-1) ** n * 2**n * math.factorial(n)
    return CheckReport(
        name=f"closed-form structure, n<={n_max}",
        max_abs_error=0.0,
        tolerance=0.0,
        passed=bool(ok),
        cases=n_max + 1,
        notes="exact structural comparison",
    )


@dataclass(frozen=True)
class SuiteConfig:
    n_max: int = 8
    z_grid: tuple = DEFAULT_Z_GRID
    tol: float = 1e-10
    fd_rel_tol: float = 1e-6
    fd_n_max: int = 4
    fd_z_grid: tuple = (Fraction(1, 3), Fraction(1), Fraction(3))
    relation_max_index: int = 10
    precision: Precision = DEFAULT_PRECISION


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


def _validate_grid(z_grid):
    for z in z_grid:
        if to_mpf(z) <= 0:
            raise DomainError(f"z grid values must be positive, got {z}")


def run_suite(config: SuiteConfig = SuiteConfig()) -> SuiteResult:
    """Run every cross-check; deterministic for a fixed config."""
    _validate_grid(config.z_grid)
    _validate_grid(config.fd_z_grid)
    result = SuiteResult()
    result.reports.append(check_structure())
    result.reports.append(
        check_identity(config.n_max, config.z_grid, config.tol, config.precision)
    )
    result.reports.append(check_inner_closed_form(tol=config.tol, prec=config.precision))
    result.reports.append(
        check_order_swap(config.z_grid, config.tol, config.precision)
    )
    for n in range(config.fd_n_max + 1):
        for z in config.fd_z_grid:
            result.reports.append(
                check_derivative_step(n, z, rel_tol=config.fd_rel_tol, prec=config.precision)
            )
    result.reports.extend(audit_published_tables(config.tol, config.precision))
    result.reports.append(
        check_relations(config.relation_max_index, config.tol, config.precision)
    )
    return result
