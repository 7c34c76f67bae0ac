"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run).
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

import ellipkint as ek
from ellipkint.cli import main as cli_main
from ellipkint.quadfield import Surd, surd_normalize
from ellipkint.specialvalues import in1_pair
from ellipkint import verify
from ellipkint.verify import check_structure

F = Fraction
Z_GRID = (F(1, 10), F(1, 3), F(1), F(3), F(10))


def report(number, description, passed):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_golden_identity(capsys):
    start = time.perf_counter()
    code = cli_main(["eval", "--n", "0", "--z", "1", "--method", "both"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    difference = float(
        next(l for l in out.splitlines() if "difference" in l).split(" = ")[1]
    )
    with capsys.disabled():
        report(
            1,
            f"I_0(1) both routes agree to {difference:.1e} in {elapsed:.2f}s",
            code == 0 and difference <= 1e-10 and elapsed < 1.0,
        )


def test_criterion_2_z1_table(capsys):
    expected = [
        (F(0), F(1, 4)),
        (F(1, 6), F(1, 8)),
        (F(1, 6), F(19, 240)),
        (F(121, 840), F(9, 160)),
    ]
    exact_ok = all(in1_pair(n) == pair for n, pair in enumerate(expected))
    with mpmath.workdps(50):
        numeric_ok = all(
            abs(ek.integral_In_numeric(ek.IntegralSpec(n, 1)).value - ek.In_exact_real(n, 1))
            <= 1e-10
            for n in range(4)
        )
    with capsys.disabled():
        report(2, "I_n(1) table, n=0..3, exact + numeric", exact_ok and numeric_ok)


@pytest.fixture(scope="module")
def suite():
    # criteria 3-8 read their reports from one run of the fixed suite
    start = time.perf_counter()
    result = ek.run_suite()
    return result, time.perf_counter() - start


def reports_named(suite, prefix):
    return [r for r in suite[0].reports if r.name.startswith(prefix)]


def test_criterion_3_other_tables(capsys, suite):
    reports = reports_named(suite, "table audit")
    matches = [r for r in reports if "MISMATCH" not in r.name]
    mismatch = [r for r in reports if "MISMATCH" in r.name]
    ok = (
        all(r.passed for r in matches)
        and len(mismatch) == 1
        and "I_2(3)" in mismatch[0].name
        and mismatch[0].passed
    )
    with capsys.disabled():
        report(3, "tables at z=3, 1/3 and cot^2 points; I_2(3) flagged", ok)


def test_criterion_4_identity_sweep(capsys, suite):
    (result,) = reports_named(suite, "integral identity")
    elapsed = suite[1]
    with capsys.disabled():
        report(
            4,
            f"sweep n<=8 x 5 z values, max err {result.max_error:.1e}, suite {elapsed:.1f}s",
            result.passed
            and result.cases == 45
            and result.tolerance == 1e-10
            and verify.DEFAULT_Z_GRID == Z_GRID
            and elapsed < 60,
        )


def test_criterion_5_inner_integral(capsys, suite):
    (result,) = reports_named(suite, "inner-integral closed form")
    with capsys.disabled():
        report(
            5,
            f"inner-integral identity on 10x10 grid, max err {result.max_error:.1e}",
            result.passed and result.cases == 100 and result.tolerance == 1e-10,
        )


def test_criterion_6_order_swap(capsys, suite):
    (result,) = reports_named(suite, "order-swap identity")
    with capsys.disabled():
        report(
            6,
            f"order-swap on 5-point grid, max err {result.max_error:.1e}",
            result.passed and result.cases == 5 and result.tolerance == 1e-10,
        )


def test_criterion_7_derivative_ladder(capsys, suite):
    reports = reports_named(suite, "derivative ladder")
    names = {
        f"derivative ladder n={n} -> {n + 1} at z={z}"
        for n in range(5)
        for z in (F(1, 3), F(1), F(3))
    }
    worst = max(r.max_error for r in reports)
    with capsys.disabled():
        report(
            7,
            f"finite-difference ladder n=0..4, worst rel err {worst:.1e}",
            {r.name for r in reports} == names
            and all(r.passed and r.tolerance == 1e-6 for r in reports),
        )


def test_criterion_8_relations(capsys, suite):
    (result,) = reports_named(suite, "pairwise rational relations")
    with capsys.disabled():
        report(
            8,
            f"(P,Q) relations for n,m<=10, numeric residual {result.max_error:.1e}",
            result.passed and result.cases == 121 and result.tolerance == 1e-10,
        )


def test_criterion_9_property_suites(capsys):
    rng = random.Random(20191122)
    ok = check_structure().passed

    # elliptic: monotone, bounded below by pi/2
    moduli = sorted(rng.uniform(0.01, 0.99) for _ in range(12))
    kvals = [ek.ellip_k(k) for k in moduli]
    ok &= all(v > mpmath.pi / 2 for v in kvals)
    ok &= all(a < b for a, b in zip(kvals, kvals[1:]))

    # quadrature: positive, monotone in z, above the pointwise K >= pi/2 bound
    with mpmath.workdps(50):
        for _ in range(6):
            n = rng.randint(0, 5)
            z1 = F(rng.randint(1, 40), rng.randint(1, 10))
            z2 = z1 + F(rng.randint(1, 5))
            v1 = ek.integral_In_numeric(ek.IntegralSpec(n, z1)).value
            v2 = ek.integral_In_numeric(ek.IntegralSpec(n, z2)).value
            zf = mpf(z1.numerator) / z1.denominator
            bound = (
                mpmath.pi / 2
                * (zf ** (-n - mpf("0.5")) - (zf + 1) ** (-n - mpf("0.5")))
                / (2 * n + 1)
            )
            ok &= v1 > 0 and v2 > 0 and v1 > v2
            ok &= v1 >= bound - mpf("1e-20")

    # rational + surd normalization idempotence on random operands
    for _ in range(50):
        x = F(rng.randint(-400, 400), rng.randint(1, 100))
        y = F(rng.randint(-400, 400), rng.randint(1, 100))
        prod = x * y
        ok &= prod.denominator > 0 and F(prod.numerator, prod.denominator) == prod
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        d = rng.choice([2, 3, 5, 7])
        radicand = ek.QuadExt(F(a), F(b), d)
        if radicand.sign() <= 0:
            continue
        multiplier, u = surd_normalize(Surd(radicand))
        ok &= multiplier * multiplier * u.radicand == radicand
        ok &= surd_normalize(u) == (ek.QuadExt(1), u)

    with capsys.disabled():
        report(9, "randomized property suites (fixed seed)", bool(ok))


def test_criterion_10_exact_values_in_floating_point(capsys):
    # ExactValue.to_mpf at the default precision vs the closed form at 320
    # digits, relative to the value, at every catalog point for n <= 100
    worst = mpf(0)
    for point in ek.CATALOG.values():
        for n in range(101):
            value = ek.eval_at_special(n, point).to_mpf(ek.DEFAULT_PRECISION)
            with mpmath.workdps(330):
                reference = ek.In_exact_real(n, point.z.to_mpf(), ek.Precision(dps=320))
                worst = max(worst, abs(value / reference - 1))
    with capsys.disabled():
        report(
            10,
            f"exact values to mpf at every catalog point, n<=100, worst rel err {mpmath.nstr(worst, 2)}",
            worst < mpf("1e-35"),
        )
