import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath import mpf

from ellipkint import CATALOG, DomainError, QuadExt, eval_at_special
from ellipkint.quadfield import (
    UNIT_SURD,
    Surd,
    _over_common_denominator,
    _pair_sign,
    square_part,
    surd_normalize,
)

F = Fraction


def qe(a, b=0, d=1):
    return QuadExt(F(a), F(b), d)


def test_square_part():
    assert square_part(1) == (1, 1)
    assert square_part(12) == (2, 3)
    assert square_part(104) == (2, 26)
    assert square_part(49) == (7, 1)
    assert square_part(2**40 * 3) == (2**20, 3)
    # a cofactor left by trial division below 2**16 is 1 or a prime below 2**32
    assert square_part(4294967291 * 2**8) == (2**4, 4294967291)
    for n in (0, -4, 2**61 - 1, 4294967311 * 4294967291):
        with pytest.raises(DomainError):
            square_part(n)


def test_d_must_be_squarefree():
    with pytest.raises(DomainError):
        qe(1, 1, 4)
    # d is an int: neither a float (integral or not), a bool nor a Fraction;
    # and below 2**32: 4294967311 is the smallest prime above 2**32
    for d in (2.5, 5.0, True, F(5), 2**32, 4294967311, 2**61 - 1):
        with pytest.raises(DomainError):
            qe(1, 1, d)
    assert qe(0, 1, 4294967291).d == 4294967291  # the largest prime below 2**32


def test_d_one_folds_into_rational():
    x = qe(2, 3, 1)
    assert x.a == 5 and x.b == 0


def test_golden_square():
    x = qe(1, 1, 5)
    assert x * x == qe(6, 2, 5)


def test_division_inverts_multiplication():
    x = qe(3, -2, 5)
    y = qe(F(1, 2), F(7, 3), 5)
    assert (x * y) / y == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qe(1, 1, 5) / qe(0, 0, 5)


def test_mixed_fields_rejected():
    with pytest.raises(DomainError):
        qe(1, 1, 5) + qe(1, 1, 3)


def test_rational_coercion():
    assert qe(1, 1, 5) + F(1, 2) == qe(F(3, 2), 1, 5)
    assert 2 * qe(1, 1, 5) == qe(2, 2, 5)


def test_sign_all_quadrants():
    assert qe(1, 1, 2).sign() == 1
    assert qe(-1, -1, 2).sign() == -1
    assert qe(3, -2, 2).sign() == 1      # 9 > 8
    assert qe(-3, 2, 2).sign() == -1
    assert qe(1, -1, 2).sign() == -1     # 1 < 2
    assert qe(-1, 1, 2).sign() == 1
    assert qe(0, 0, 2).sign() == 0
    # the same rule on the integer pairs render takes it from
    assert _pair_sign(1, 1, 2) == 1
    assert _pair_sign(-1, -1, 2) == -1
    assert _pair_sign(3, -2, 2) == 1
    assert _pair_sign(-3, 2, 2) == -1
    assert _pair_sign(1, -1, 2) == -1
    assert _pair_sign(-1, 1, 2) == 1
    assert _pair_sign(0, -1, 2) == -1
    assert _pair_sign(-5, 0, 2) == -1
    assert _pair_sign(0, 0, 2) == 0


def _sign_reference(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) from integers alone, for square-free d > 1.

    Over a common denominator a and b are integers, and |b|*sqrt(d) lies
    strictly between isqrt(b*b*d) and isqrt(b*b*d) + 1.
    """
    r = math.lcm(F(a).denominator, F(b).denominator)
    a, b = int(a * r), int(b * r)
    if b == 0:
        return (a > 0) - (a < 0)
    root = math.isqrt(b * b * d)
    if b > 0:
        return 1 if a >= -root else -1
    return 1 if a > root else -1


def _sign_cases(a, b, d: int) -> None:
    expected = _sign_reference(a, b, d)
    assert _pair_sign(a, b, d) == expected, (a, b, d)
    assert QuadExt(F(a), F(b), d).sign() == expected, (a, b, d)


sign_parts = st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=10**6))


@given(sign_parts, sign_parts, st.sampled_from([2, 3, 5, 7, 4294967291]))
def test_sign_matches_the_integer_reference(a, b, d):
    _sign_cases(a, b, d)


@pytest.mark.parametrize("label", ["cot2-pi-10", "cot2-pi-12"])
def test_sign_of_near_cancelling_coefficients(label):
    # eval_at_special's coefficients at these points have a and b*sqrt(d) of
    # hundreds of digits, mostly of opposite sign; each also yields the two
    # integer pairs closest to a + b*sqrt(d) == 0 for its b
    point = CATALOG[label]
    mixed = 0
    for n in range(121):
        value = eval_at_special(n, point)
        for x in (value.pi_coeff, value.alg_coeff, value.pi_surd.radicand, value.alg_surd.radicand):
            p, q, _ = _over_common_denominator(x)
            mixed += p * q < 0
            for a, b in ((x.a, x.b), (p, q), (-p, -q)):
                _sign_cases(a, b, x.d)
            root = math.isqrt(q * q * x.d)
            for a in (root, root + 1, -root, -root - 1):
                _sign_cases(a, q, x.d)
    assert mixed > 200


def test_sqrt_in_field():
    assert qe(6, 2, 5).sqrt_in_field() == qe(1, 1, 5)
    assert qe(9).sqrt_in_field() == qe(3)
    # 2+sqrt(3) is a square only outside Q(sqrt(3)); must NOT demote
    assert qe(2, 1, 3).sqrt_in_field() is None
    assert qe(26, 15, 3).sqrt_in_field() is None


def test_surd_normalize_extracts_square_content():
    assert surd_normalize(Surd(qe(104, 60, 3))) == (qe(2), Surd(qe(26, 15, 3)))


def test_surd_normalize_rational_radicand():
    assert surd_normalize(Surd(qe(F(4, 3)))) == (qe(F(2, 3)), Surd(qe(3)))


def test_surd_normalize_demotes_field_square():
    assert surd_normalize(Surd(qe(6, 2, 5))) == (qe(1, 1, 5), UNIT_SURD)
    assert surd_normalize(Surd(qe(F(4, 9)))) == (qe(F(2, 3)), UNIT_SURD)


def test_surd_normalize_idempotent():
    _, u = surd_normalize(Surd(qe(104, 60, 3)))
    assert surd_normalize(u) == (QuadExt(1), u)


def test_negative_radicand_rejected():
    with pytest.raises(DomainError):
        Surd(qe(-2))


small_fractions = st.fractions(max_denominator=30)
elements = st.builds(
    lambda a, b, d: QuadExt(a, b, d),
    small_fractions,
    small_fractions,
    st.sampled_from([1, 2, 3, 5, 7]),
)


@given(elements, elements)
def test_field_ops_stay_reduced(x, y):
    assume(x.d == y.d or x.d == 1 or y.d == 1)
    for result in (x + y, x - y, x * y):
        assert result.a.denominator > 0
        assert result.a == Fraction(result.a.numerator, result.a.denominator)
        if result.d == 1:
            assert result.b == 0


@given(elements, elements, elements)
def test_distributive_law(x, y, z):
    assume(len({d for d in (x.d, y.d, z.d) if d != 1}) <= 1)
    assert x * (y + z) == x * y + x * z


@given(elements, elements)
def test_division_roundtrip(x, y):
    assume(x.d == y.d or x.d == 1 or y.d == 1)
    assume(not y.is_zero())
    assert (x / y) * y == x


radicand_parts = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-40, max_value=40, max_denominator=30),
)


@given(radicand_parts, radicand_parts, st.sampled_from([2, 3, 5, 7]))
def test_normalize_idempotent_and_value_preserving(a, b, d):
    radicand = QuadExt(F(a), F(b), d)
    assume(radicand.sign() > 0)
    multiplier, u = surd_normalize(Surd(radicand))
    with mpmath.workdps(30):
        original = mpmath.sqrt(radicand.to_mpf())
        assert abs(multiplier.to_mpf() * u.to_mpf() - original) < mpf("1e-25")
    assert surd_normalize(u) == (QuadExt(1), u)
