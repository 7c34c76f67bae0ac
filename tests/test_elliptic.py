import mpmath
import pytest
from mpmath import mpf

from ellipkint import DomainError, Precision, ellip_k

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
