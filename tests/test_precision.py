import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from ellipkint import DEFAULT_PRECISION, DomainError, Precision, ToleranceNotReached, ellip_k
from ellipkint.closedform import closed_form
from ellipkint.precision import _digit_count, check_index, check_tol, check_z, is_real, shown, to_mpf
from ellipkint.quadfield import QuadExt, square_part
from ellipkint.specialvalues import SpecialPoint, make_exact_value
from ellipkint.quadrature import (
    I0_via_swap,
    IntegralSpec,
    inner_integral_closed,
    inner_integral_numeric_grid,
    integral_In_numeric_many,
)


def _floor_log2(x: Fraction) -> int:
    """floor(log2(x)) for a positive rational, exactly."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e if x >= Fraction(2) ** e else e - 1


def test_fraction_is_rounded_once():
    # a numerator longer than the working precision must not be rounded
    # before the division: the result is within half an ulp of the exact value
    rng = random.Random(20191122)
    with DEFAULT_PRECISION.workdps():
        prec = mpmath.mp.prec
        for _ in range(300):
            x = Fraction(rng.getrandbits(400) | 1 << 399, rng.getrandbits(300) | 1 << 299)
            x = x if rng.random() < 0.5 else -x
            value = to_mpf(x)
            assert (value < 0) == (x < 0)
            man, exp = value.man_exp  # man is the magnitude's mantissa
            error = abs(man * Fraction(2) ** exp - abs(x))
            assert error <= Fraction(2) ** (_floor_log2(abs(x)) - prec), x


@pytest.mark.parametrize(
    "x",
    [1, -3, Fraction(1, 3), 0.5, math.nan, math.inf, mpmath.mpf("0.25")],
    ids=["int", "negative-int", "fraction", "float", "nan", "inf", "mpf"],
)
def test_is_real_takes_every_real_number_type(x):
    # the sign and finiteness are each rule's own; is_real asks only the type
    assert is_real(x)


@pytest.mark.parametrize(
    "x",
    [True, False, "1", None, 1j, mpmath.mpc(1, 0), Decimal("0.5"), [1]],
    ids=["True", "False", "str", "None", "complex", "mpc", "decimal", "list"],
)
def test_is_real_refuses_what_is_not_a_real_number(x):
    assert not is_real(x)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: IntegralSpec(0, "1"), "shift parameter z must be positive and finite, got str '1'"),
        (lambda: check_z(None), "shift parameter z must be positive and finite, got NoneType None"),
        (lambda: check_z(True), "shift parameter z must be positive and finite, got bool True"),
        (lambda: ellip_k("0.5"), "modulus k must lie in [0, 1), got str '0.5'"),
        (lambda: inner_integral_closed(1, "0.5"), "t must lie in [0, 1), got str '0.5'"),
        (lambda: check_tol("1e-6"), "tol must be positive and finite, got str '1e-6'"),
        (lambda: Precision(dps="40"), "dps must be an integer >= 15, got str '40'"),
        (lambda: QuadExt(1, 1, "5"), "d must be a square-free integer in [1, 2**32), got str '5'"),
    ],
    ids=["z-str", "z-None", "z-bool", "k-str", "t-str", "tol-str", "dps-str", "d-str"],
)
def test_a_non_real_argument_is_named_by_type_and_repr(call, message):
    # "got 1" for the string "1" would read as if the number 1 were rejected
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: check_z(-1), "shift parameter z must be positive and finite, got -1"),
        (lambda: check_z(Fraction(-1)), "shift parameter z must be positive and finite, got -1"),
        (lambda: ellip_k(1.5), "modulus k must lie in [0, 1), got 1.5"),
        (lambda: inner_integral_closed(1, 1.5), "t must lie in [0, 1), got 1.5"),
        (lambda: check_tol(-1), "tol must be positive and finite, got -1"),
    ],
    ids=["z-int", "z-fraction", "k-float", "t-float", "tol-int"],
)
def test_a_real_argument_out_of_range_is_printed_as_its_value(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


def test_shown_clips_a_long_value_to_its_head_and_length():
    assert shown(10**79) == "1" + "0" * 79  # 80 characters print whole
    assert shown(10**80) == "1" + "0" * 39 + "… (81 characters)"
    assert shown("x" * 100) == "str '" + "x" * 35 + "… (106 characters)"
    assert shown(Fraction(-1, 3)) == "-1/3"


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_z(-(10**5000)),
        lambda: check_index(-(10**5000)),
        lambda: closed_form(-(10**5000)),
        lambda: IntegralSpec(-(10**5000), 1),
        lambda: IntegralSpec(0, -(10**5000)),
        lambda: IntegralSpec(0, Fraction(-(10**5000), 3)),
        lambda: Precision(dps=-(10**5000)),
        lambda: QuadExt(1, 1, -(10**5000)),
    ],
    ids=["check_z", "check_index", "closed_form", "spec-n", "spec-z", "spec-z-fraction", "dps", "quadext-d"],
)
def test_a_number_too_long_for_str_is_named_by_sign_and_digit_count(call):
    # Python refuses str() on an int of more than 4300 digits
    with pytest.raises(DomainError, match="got a negative (int of 5001|Fraction of 5001/1) digits$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: QuadExt(1, 1, 10**5000),
        lambda: square_part(10**5000 + 1),
        lambda: make_exact_value(1, 10**5000 + 1, 0, 1),
        lambda: SpecialPoint("x", 10**5000, Fraction(1, 4)),
        lambda: make_exact_value("x" * 10**5, 2, 0, 1),
        lambda: SpecialPoint("x", "y" * 10**5, Fraction(1, 4)),
        lambda: SpecialPoint("x", 1, "q" * 10**5),
    ],
    ids=[
        "quadext-d",
        "square_part",
        "make_exact_value",
        "special-point-z",
        "make_exact_value-str",
        "special-point-z-str",
        "special-point-theta-str",
    ],
)
def test_an_exact_argument_too_long_for_str_is_a_domain_error(call):
    # the value is named by its digit count, or, for a special point's z, not
    # at all; a long string by its clipped head and its length
    with pytest.raises(DomainError) as caught:
        call()
    assert len(str(caught.value)) <= 200


def test_shown_names_a_number_too_long_for_str_by_its_digit_counts():
    assert shown(10**5000) == "a positive int of 5001 digits"
    assert shown(Fraction(-1, 10**4999 + 1)) == "a negative Fraction of 1/5000 digits"
    assert shown(10**4299) == "1" + "0" * 39 + "… (4300 characters)"  # Python's limit, printed whole


def test_digit_count_matches_str():
    rng = random.Random(5001)
    numbers = [rng.getrandbits(rng.randrange(1, 4000)) | 1 for _ in range(500)]
    numbers += [10**e + d for e in range(1, 1300) for d in (-1, 0)]
    for a in numbers:
        assert _digit_count(a) == len(str(a))


TINY = Fraction(1, 3**300)  # 144 digits in its denominator


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_z(-(10**999)),
        lambda: check_tol(-Fraction(10**500, 3)),
        lambda: ellip_k(Fraction(10**300 + 1, 10**300)),
        lambda: integral_In_numeric_many([IntegralSpec(0, TINY)], Precision(abs_tol=1e-300)),
        lambda: inner_integral_numeric_grid([TINY], [TINY], Precision(abs_tol=1e-300)),
        lambda: I0_via_swap(TINY, Precision(abs_tol=1e-300)),
    ],
    ids=["z", "tol", "k", "batch", "inner-grid", "swap"],
)
def test_a_message_never_echoes_a_long_argument_whole(call):
    with pytest.raises((DomainError, ToleranceNotReached)) as caught:
        call()
    assert len(str(caught.value)) <= 200
