import mpmath
import pytest
from mpmath import mpf

from ellipkint import DomainError, Precision, ellip_k
from ellipkint import quadrature

PREC = Precision()


def test_k_landen_transformation():
    # descending Landen step: K(k) = (1 + k1) K(k1), k1 = (1 - k')/(1 + k')
    with mpmath.workdps(45):
        for k in (mpf("0.3"), mpf("0.8"), mpf("0.999")):
            kp = mpmath.sqrt(1 - k * k)
            k1 = (1 - kp) / (1 + kp)
            assert abs(ellip_k(k) - (1 + k1) * ellip_k(k1)) < mpf("1e-38")


def test_k_special_values():
    with mpmath.workdps(45):
        # lemniscatic case: K(1/sqrt(2)) = Gamma(1/4)^2 / (4 sqrt(pi))
        lemniscatic = mpmath.gamma(mpf(1) / 4) ** 2 / (4 * mpmath.sqrt(mpmath.pi))
        assert abs(ellip_k(1 / mpmath.sqrt(2)) - lemniscatic) < mpf("1e-38")
        # k' = 1/2: pi/(2*agm(1, 1/2)), with the AGM limit frozen from an
        # independent hand iteration of four steps (bracket width ~5e-17)
        frozen = mpmath.pi / (2 * mpf("0.72839551552345343"))
        assert abs(ellip_k(mpmath.sqrt(3) / 2) - frozen) < 1e-15


def test_k_at_zero():
    with mpmath.workdps(45):
        assert abs(ellip_k(0) - mpmath.pi / 2) < mpf("1e-38")
    # k² far below one ulp: K is pi/2, with no integer as wide as k's exponent
    assert ellip_k(mpf("1e-1000000000")) == ellip_k(0)


def test_k_domain():
    with pytest.raises(DomainError):
        ellip_k(1)
    with pytest.raises(DomainError):
        ellip_k(-0.1)
    with pytest.raises(DomainError):
        ellip_k(1.5)
    with pytest.raises(DomainError):
        ellip_k(float("nan"))
    # a k that is not a real number is outside the domain too
    for k in ("0.5", "abc", None, 0.5j, True):
        with pytest.raises(DomainError):
            ellip_k(k)


def test_k_lower_bound_and_monotonic():
    grid = [mpf(i) / 20 for i in range(20)]
    values = [ellip_k(k) for k in grid]
    assert values[0] >= mpmath.pi / 2 - mpf("1e-30")
    for v1, v2 in zip(values, values[1:]):
        assert v1 < v2
    for v in values[1:]:
        assert v > mpmath.pi / 2


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_k_against_defining_integral(k):
    # mpmath.quad of the defining integral is the independent oracle
    k = mpf(k)

    def integrand(t):
        return 1 / mpmath.sqrt((1 - t * t) * (1 - (k * t) ** 2))

    with PREC.workdps():
        oracle = mpmath.quad(integrand, [0, 1])
    assert abs(ellip_k(k) - oracle) < 1e-10


def test_k_log_asymptote_near_one():
    k = 1 - mpf("1e-8")
    asymptote = mpmath.log(4 / mpmath.sqrt((1 - k) * (1 + k)))
    assert abs(ellip_k(k) - asymptote) / asymptote < 5e-4  # 3 significant digits


@pytest.mark.parametrize("dps", [15, 40, 60, 100])
def test_ellip_k_within_one_ulp_of_a_reference_at_twice_the_precision(dps):
    """K at every node of levels 0-6, and at the edges of [0, 1), is right to 2^-wp relative.

    The reference is mpmath.ellipk at 2·wp + 40 bits, wp the working
    precision, of k² for k as the working precision holds it.
    """
    prec = Precision(dps=dps)
    with prec.workdps():
        wp = mpmath.mp.prec
        ks = [x for level in range(7) for x, _, _ in quadrature._level_nodes(level)]
        ks += [mpf(0), mpmath.ldexp(1, -200), mpf(1) / 2, 1 - mpmath.ldexp(1, -(wp // 2)), 1 - mpmath.ldexp(1, -wp)]
        assert ks[-1] < 1
        values = [ellip_k(k, prec) for k in ks]
    with mpmath.workprec(2 * wp + 40):
        for k, value in zip(ks, values):
            reference = mpmath.ellipk(k * k)
            assert abs(value - reference) <= mpmath.ldexp(value, -wp), k
