import random
from fractions import Fraction

import mpmath

from ellipkint import DEFAULT_PRECISION
from ellipkint.precision import to_mpf


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
