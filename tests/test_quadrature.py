import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from ellipkint import (
    DomainError,
    I0_via_swap,
    In_exact_real,
    IntegralSpec,
    Precision,
    ellip_k,
    inner_integral_closed,
    inner_integral_numeric,
    integral_In_numeric,
    tanh_sinh_integrate,
)
from ellipkint import quadrature

PREC = Precision()


def test_constant_integrand():
    r = tanh_sinh_integrate(lambda x: mpf(1), 0, 1, PREC)
    assert abs(r.value - 1) < 1e-12
    assert r.error_estimate <= 1e-12
    assert r.converged


def test_arcsine_kernel():
    r = tanh_sinh_integrate(lambda t: 1 / mpmath.sqrt((1 - t) * (1 + t)), 0, 1, PREC)
    assert abs(r.value - mpmath.pi / 2) < 1e-12


def test_endpoint_log_singularity():
    r = tanh_sinh_integrate(lambda x: mpmath.log(1 / x), 0, 1, PREC)
    assert abs(r.value - 1) < 1e-12


def test_abscissae_never_touch_endpoints():
    seen = []

    def f(x):
        seen.append(x)
        return mpf(1)

    tanh_sinh_integrate(f, 0, 1, PREC)
    assert seen
    assert all(0 < x < 1 for x in seen)


def test_general_interval():
    r = tanh_sinh_integrate(lambda x: x * x, -2, 3, PREC)
    assert abs(r.value - Fraction(35, 3)) < 1e-12


def test_nonfinite_integrand_rejected():
    with pytest.raises(DomainError):
        tanh_sinh_integrate(lambda x: mpmath.inf, 0, 1, PREC)


def test_unreachable_tolerance_flagged():
    tight = Precision(abs_tol=1e-60, dps=20, max_level=4)
    r = tanh_sinh_integrate(lambda t: 1 / mpmath.sqrt((1 - t) * (1 + t)), 0, 1, tight)
    assert not r.converged


def test_spec_validation():
    with pytest.raises(DomainError):
        IntegralSpec(-1, 1)
    with pytest.raises(DomainError):
        IntegralSpec(0, 0)
    with pytest.raises(DomainError):
        IntegralSpec(0, Fraction(-1, 3))


@pytest.mark.parametrize(
    "n,z,expected",
    [
        (0, 1, lambda: mpmath.pi / (4 * mpmath.sqrt(2))),
        (0, 3, lambda: mpmath.pi / (12 * mpmath.sqrt(3))),
        (
            2,
            1,
            lambda: 1 / (6 * mpmath.sqrt(2)) + 19 * mpmath.pi / (240 * mpmath.sqrt(2)),
        ),
    ],
)
def test_family_integral_published_values(n, z, expected):
    r = integral_In_numeric(IntegralSpec(n, z), PREC)
    with mpmath.workdps(PREC.working_dps):
        assert abs(r.value - expected()) < 1e-12


def test_positivity_and_lower_bound():
    with mpmath.workdps(PREC.working_dps):
        for n in (0, 1, 4):
            for z in (Fraction(1, 10), Fraction(1), Fraction(7)):
                value = integral_In_numeric(IntegralSpec(n, z), PREC).value
                zf = mpf(z.numerator) / z.denominator
                bound = (
                    mpmath.pi
                    / 2
                    * (zf ** (-n - mpf("0.5")) - (zf + 1) ** (-n - mpf("0.5")))
                    / (2 * n + 1)
                )
                assert value > 0
                assert value >= bound - mpf("1e-20")


def test_monotonic_in_z():
    values = [
        integral_In_numeric(IntegralSpec(2, z), PREC).value
        for z in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
    ]
    for v1, v2 in zip(values, values[1:]):
        assert v1 > v2


def test_monotonic_in_n_for_z_at_least_one():
    for z in (1, 3):
        values = [integral_In_numeric(IntegralSpec(n, z), PREC).value for n in range(4)]
        for v1, v2 in zip(values, values[1:]):
            assert v2 <= v1


def test_inner_integral_t_zero_elementary():
    with mpmath.workdps(PREC.working_dps):
        for z in (Fraction(1, 2), Fraction(2), Fraction(9)):
            got = inner_integral_numeric(z, 0, PREC)
            zf = mpf(z.numerator) / z.denominator
            assert abs(got - (1 / mpmath.sqrt(zf) - 1 / mpmath.sqrt(1 + zf))) < 1e-20


def test_inner_closed_direct_substitutions():
    with mpmath.workdps(PREC.working_dps):
        assert abs(inner_integral_closed(1, 0) - (1 - 1 / mpmath.sqrt(2))) < mpf("1e-38")
        expected = mpf(1) / 4 - mpmath.sqrt(3) / (4 * mpmath.sqrt(5))
        assert abs(inner_integral_closed(4, 0.5) - expected) < mpf("1e-38")


@pytest.mark.parametrize("z,t", [(1, 0.5), (3, 0.9), (Fraction(1, 10), 0.05)])
def test_inner_numeric_matches_closed(z, t):
    got = inner_integral_numeric(z, t, PREC)
    assert abs(got - inner_integral_closed(z, t)) < 1e-10


@pytest.mark.parametrize(
    "z,expected",
    [
        (1, lambda: mpmath.pi / (4 * mpmath.sqrt(2))),
        (Fraction(1, 3), lambda: mpmath.pi / 2),
        (3, lambda: mpmath.pi / (12 * mpmath.sqrt(3))),
    ],
)
def test_swap_route_published_values(z, expected):
    with mpmath.workdps(PREC.working_dps):
        assert abs(I0_via_swap(z, PREC) - expected()) < 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        inner_integral_closed(-1, 0.5)
    with pytest.raises(DomainError):
        inner_integral_closed(1, 1)
    with pytest.raises(DomainError):
        inner_integral_numeric(1, -0.5, PREC)
    with pytest.raises(DomainError):
        I0_via_swap(0, PREC)


@pytest.mark.parametrize("tol", [0, -1e-12, math.inf, -math.inf, math.nan])
def test_precision_rejects_nonpositive_or_nonfinite_tolerance(tol):
    with pytest.raises(DomainError):
        Precision(abs_tol=tol)


def test_kernel_table_shared_across_specs(monkeypatch):
    calls = []

    def counting_ellip_k(k, prec):
        calls.append(k)
        return ellip_k(k, prec)

    monkeypatch.setattr(quadrature, "ellip_k", counting_ellip_k)
    monkeypatch.setattr(quadrature, "_KERNEL_CACHE", {})
    prec = Precision(dps=40)
    deep = integral_In_numeric(IntegralSpec(16, Fraction(1, 10)), prec)
    built = len(calls)
    assert built > 0
    other = integral_In_numeric(IntegralSpec(3, Fraction(7, 2)), Precision(abs_tol=1e-20))
    assert other.levels_used <= deep.levels_used
    assert len(calls) == built  # same dps: the table is reused, K is not recomputed

    fine = Precision(abs_tol=1e-30, dps=60)
    result = integral_In_numeric(IntegralSpec(2, 1), fine)
    assert len(calls) > built  # a new working precision builds its own table
    with mpmath.workdps(fine.working_dps):
        assert abs(result.value - In_exact_real(2, 1, fine)) < 1e-30


def test_node_cut_reads_the_working_precision():
    # the node tables take their cut from mp.dps and their key from mp.prec;
    # inside workdps() both come from the same working_dps
    for dps in range(15, 101):
        prec = Precision(dps=dps)
        with prec.workdps():
            assert mpmath.mp.dps == prec.working_dps


@pytest.mark.parametrize("dps,tol", [(40, 1e-12), (60, 1e-30)])
def test_kernel_table_matches_generic_route(dps, tol):
    """The kernel-table sum against tanh_sinh_integrate over the integrand."""
    prec = Precision(abs_tol=tol, dps=dps)
    for n in (0, 8, 16):
        for z in (Fraction(1, 10), Fraction(1), Fraction(10)):
            fast = integral_In_numeric(IntegralSpec(n, z), prec)
            with prec.workdps():
                zf = mpf(z.numerator) / z.denominator
                exponent = n + mpf(3) / 2

                def integrand(k):
                    return ellip_k(k, prec) * k / (zf + k * k) ** exponent

                reference = tanh_sinh_integrate(integrand, 0, 1, prec)
                rel = abs(fast.value - reference.value) / abs(reference.value)
                assert rel <= mpf("1e-45")
            assert fast.levels_used == reference.levels_used
            assert fast.evaluations == reference.evaluations
