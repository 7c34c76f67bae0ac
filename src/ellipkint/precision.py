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


# no quadrature stops, converged, before this tanh-sinh level: its error
# estimate needs two level differences, and two can agree by chance
MIN_STOP_LEVEL = 3


@dataclass(frozen=True)
class Precision:
    """Numeric working parameters.

    abs_tol    target absolute error for quadrature
    max_level  tanh-sinh refinement levels (step halves per level), at least
               MIN_STOP_LEVEL
    dps        significant decimal digits carried by the float type
    """

    abs_tol: float = 1e-12
    max_level: int = 12
    dps: int = 40

    def __post_init__(self):
        check_tol(self.abs_tol, "abs_tol")
        if not _is_integer(self.max_level) or self.max_level < MIN_STOP_LEVEL:
            raise DomainError(
                f"max_level must be an integer >= {MIN_STOP_LEVEL}, got {self.max_level}"
            )
        if not _is_integer(self.dps) or self.dps < 15:
            raise DomainError(f"dps must be an integer >= 15, got {self.dps}")

    @property
    def working_dps(self) -> int:
        # guard digits over the requested precision
        return self.dps + 10

    def workdps(self):
        return mpmath.workdps(self.working_dps)


def check_tol(tol, name: str = "tol") -> None:
    """A tolerance must be a real number with 0 < tol < inf."""
    # the negated test also rejects nan, for which every comparison is false
    if not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {tol}")


def _is_integer(x) -> bool:
    # a bool is an Integral, but True as an index or a level is a slip, not a 1
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


DEFAULT_PRECISION = Precision()


def check_index(n, name: str = "family index n") -> None:
    """The family index n of I_n, or an order up to which n runs, must be a nonnegative integer."""
    if not _is_integer(n) or n < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {n}")


def check_z(z) -> mpf:
    """The shift parameter z as mpf at the current precision; it must be positive and finite."""
    value = to_mpf(z)
    # the negated test also rejects nan, for which every comparison is false
    if not 0 < value < mpmath.inf:
        raise DomainError(f"shift parameter z must be positive and finite, got {z}")
    return value


def to_mpf(x) -> mpf:
    """Convert reals (including Fraction) to mpf at the current precision, rounding once."""
    if isinstance(x, Fraction):
        return mpf(from_rational(x.numerator, x.denominator, mpmath.mp.prec, round_nearest))
    return mpf(x)
