import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

import ellipkint
from ellipkint import DomainError, In_exact_real, Precision, closed_form

F = Fraction


def odd_double_factorial(n):
    # (2n+1)!! = (2n+1)! / (2n)!!, a reference independent of the product in prefactor
    return math.factorial(2 * n + 1) // (2**n * math.factorial(n))


def test_base_case():
    form = closed_form(0)
    assert form.A == (1,)
    assert form.B == ()


def test_first_derivative():
    form = closed_form(1)
    assert form.A == (-1, -2)   # -(2z+1)
    assert form.B == (-1,)


def test_second_derivative():
    form = closed_form(2)
    assert form.A == (3, 8, 8)
    assert form.B == (3, 7)


@pytest.mark.parametrize("n", range(13))
def test_structure_invariants(n):
    form = closed_form(n)
    assert len(form.A) == n + 1
    assert len(form.B) == n and (n == 0 or form.B[-1] != 0)
    assert all(type(c) is int for c in form.A + form.B)
    # the 2**n under the bracket cancels the (-2)**n of identity (1)
    assert form.prefactor == Fraction((-2) ** n, odd_double_factorial(n) * 2**n)
    assert form.A[-1] == (-1) ** n * 2**n * math.factorial(n)


def test_coefficients_pinned():
    form = closed_form(60)
    digest = hashlib.sha256(repr((form.A, form.B)).encode()).hexdigest()
    assert digest == "09e1aa6e09034d45fc914104587a7fec3a2d9e0786108ec8264e37bbf00e30c3"


def test_deep_order_needs_no_recursion():
    # closed_form builds every lower order on the way up; with a recursive
    # build a stack of 200 frames could not reach n = 500
    code = (
        "import sys\n"
        "from ellipkint import closed_form\n"
        "sys.setrecursionlimit(200)\n"
        "assert len(closed_form(500).A) == 501\n"
    )
    src = str(Path(ellipkint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n", [False, True])
def test_closed_form_rejects_a_bool_index(n):
    # False == 0, but a bool index is a slip, not a request for I_0
    with pytest.raises(DomainError, match="family index n"):
        closed_form(n)


def test_prefactor():
    assert [closed_form(n).prefactor for n in range(5)] == [1, F(-1, 3), F(1, 15), F(-1, 105), F(1, 945)]


def test_exact_real_published_values():
    with mpmath.workdps(45):
        s2 = mpmath.sqrt(2)
        s3 = mpmath.sqrt(3)
        cases = [
            (0, 1, mpmath.pi / (4 * s2)),
            (1, F(1, 3), 3 * s3 / 8 + 5 * mpmath.pi / 8),
            (3, 1, 121 / (840 * s2) + 9 * mpmath.pi / (160 * s2)),
        ]
        for n, z, expected in cases:
            assert abs(In_exact_real(n, z) - expected) < mpf("1e-35")


@pytest.mark.parametrize("dps", [20, 50, 100])
def test_exact_real_matches_exactly_evaluated_polynomials(dps):
    # A_n(z) and B_n(z) summed as Fractions over running powers of z, then the
    # bracket formed at three times the digits: In_exact_real must hold its dps
    def at(coefficients, z):
        total, power = F(0), F(1)
        for c in coefficients:
            total, power = total + c * power, power * z
        return total

    for z in (F(1, 10**6), F(1, 10), F(1), F(67, 10), F(10**8)):
        for n in (0, 1, 2, 5, 10, 20, 40, 80, 120):
            got = In_exact_real(n, z, Precision(dps=dps))
            form = closed_form(n)
            with mpmath.workdps(3 * dps):
                zf = mpf(z.numerator) / z.denominator
                a, b = (mpf(p.numerator) / p.denominator for p in (at(form.A, z), at(form.B, z)))
                bracket = a * mpmath.acot(mpmath.sqrt(zf)) / mpmath.sqrt(zf * (zf + 1)) + b / mpmath.sqrt(zf + 1)
                scale = mpf(form.prefactor.numerator) / form.prefactor.denominator
                expected = scale * bracket / (zf * (zf + 1)) ** n
                assert abs(got / expected - 1) < mpf(10) ** -dps, (n, z)


def test_exact_real_domain():
    with pytest.raises(DomainError):
        In_exact_real(0, 0)
    with pytest.raises(DomainError):
        In_exact_real(0, -3)
    with pytest.raises(DomainError):
        In_exact_real(-1, 1)


@pytest.mark.parametrize("n", [1.0, F(1)])
def test_closed_form_rejects_non_index(n):
    # closed_form is the exact route's one check on n, reached by In_exact_real too
    with pytest.raises(DomainError, match="family index n"):
        closed_form(n)
    with pytest.raises(DomainError, match="family index n"):
        In_exact_real(n, 1)


def test_recurrence_matches_numerical_derivatives():
    # I_n(z) = (-2)^n/(2n+1)!! * d^n I_0/dz^n; differentiate the n=0 closed
    # form numerically to validate the recurrence without any integral
    with mpmath.workdps(60):
        z = mpf("1.7")
        for n in (1, 2, 3):
            fd = mpmath.diff(
                lambda u: In_exact_real(0, u, Precision(dps=60)), z, n, h=mpf(10) ** -12
            )
            expected = mpf((-2) ** n) / odd_double_factorial(n) * fd
            assert abs(In_exact_real(n, z, Precision(dps=60)) - expected) < mpf("1e-15")
