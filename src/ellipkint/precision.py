"""Shared precision settings, input rules and error types for both routes."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import from_rational, round_nearest


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ToleranceNotReached(RuntimeError):
    """Quadrature stopped above the requested tolerance.

    Either its refinement levels ran out, or the tolerance lies below one ulp
    of the value at the working precision.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class Precision:
    """Numeric working parameters.

    abs_tol  target absolute error for quadrature
    dps      significant decimal digits carried by the float type
    """

    abs_tol: float = 1e-12
    dps: int = 40

    def __post_init__(self):
        check_tol(self.abs_tol, "abs_tol")
        if not _is_integer(self.dps) or self.dps < 15:
            raise DomainError(f"dps must be an integer >= 15, got {shown(self.dps)}")

    @property
    def working_dps(self) -> int:
        # guard digits over the requested precision
        return self.dps + 10

    def workdps(self):
        return mpmath.workdps(self.working_dps)


def check_tol(tol, name: str = "tol") -> None:
    """A tolerance must be a real number with 0 < tol < inf."""
    # the negated test also rejects nan, for which every comparison is false
    if not is_real(tol) or not 0 < tol < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {shown(tol)}")


def _is_a(x, kind) -> bool:
    # a bool is an int, but True as a number argument is a slip, not a 1
    return isinstance(x, kind) and not isinstance(x, bool)


def is_real(x) -> bool:
    """The one rule for a real argument (z, k, t, a tolerance): a numbers.Real, not a bool.

    mpf is registered as a Real.
    """
    return _is_a(x, numbers.Real)


def clipped(text: str, width: int = 80) -> str:
    """text whole up to `width` characters; longer, its first width // 2, '…' and its length."""
    return text if len(text) <= width else f"{text[: width // 2]}… ({len(text)} characters)"


def _digit_count(a: int) -> int:
    """The number of decimal digits of an int a > 0, from its bit length.

    a lies in [2^(b−1), 2^b), so it has d or d + 1 digits, d below.
    """
    d = int((a.bit_length() - 1) * math.log10(2)) + 1
    return d + (a >= 10**d)


def shown(x) -> str:
    """x as an error message prints it: a real as its value, anything else by type and repr.

    A string "1" then reads "got str '1'", not as if the number 1 were rejected;
    a value of a thousand digits reads as its head and its length.  An int or
    Fraction too long for str(), which Python refuses past its limit of 4300
    digits, reads as its sign and digit counts, taken from its bit length.
    """
    try:
        return clipped(str(x) if is_real(x) else f"{type(x).__name__} {x!r}")
    except ValueError:
        if not is_rational(x):
            raise
    parts = [x.numerator] if x.denominator == 1 else [x.numerator, x.denominator]
    digits = "/".join(str(_digit_count(abs(part))) for part in parts)
    return f"a {'negative' if x < 0 else 'positive'} {type(x).__name__} of {digits} digits"


def is_rational(x) -> bool:
    """An exact rational argument (a special point's z or angle): an int or Fraction, not a bool."""
    return _is_a(x, (int, Fraction))


def _is_integer(x) -> bool:
    # an index or a dps
    return _is_a(x, numbers.Integral)


DEFAULT_PRECISION = Precision()


def check_index(n) -> None:
    """The family index n of I_n must be a nonnegative integer."""
    if not _is_integer(n) or n < 0:
        raise DomainError(f"family index n must be a nonnegative integer, got {shown(n)}")


def check_z(z) -> mpf:
    """The shift parameter z as mpf at the current precision; it must be a positive finite real."""
    # the negated test also rejects nan, for which every comparison is false
    if not is_real(z) or not 0 < (value := to_mpf(z)) < mpmath.inf:
        raise DomainError(f"shift parameter z must be positive and finite, got {shown(z)}")
    return value


def check_unit_interval(x, name: str) -> mpf:
    """x as mpf at the current precision; it must be a real in [0, 1) (so not nan), like a modulus k."""
    if not is_real(x) or not 0 <= (value := to_mpf(x)) < 1:
        raise DomainError(f"{name} must lie in [0, 1), got {shown(x)}")
    return value


def to_mpf(x) -> mpf:
    """Convert reals (including Fraction) to mpf at the current precision, rounding once."""
    if isinstance(x, Fraction):
        return mpf(from_rational(x.numerator, x.denominator, mpmath.mp.prec, round_nearest))
    return mpf(x)
