"""Exact values of the family at algebraic special points.

At a special point z the three ingredients of the closed form become
algebraic: sqrt(z) and z itself live in a quadratic field, and
ArcCot(sqrt(z)) is a rational multiple of pi.  The exact value then takes the
shape  coeff_pi * pi / surd_pi + coeff_alg / surd_alg  with quadratic-field
coefficients and normalized denominator radicals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .closedform import closed_form
from .precision import DEFAULT_PRECISION, DomainError, Precision, is_rational, to_mpf
from .quadfield import UNIT_SURD, QuadExt, Surd, _polyval, surd_normalize

_ZERO = QuadExt(Fraction(0))


@dataclass(frozen=True)
class SpecialPoint:
    """z in a quadratic field with ArcCot(sqrt(z)) = theta_over_pi * pi.

    z is a QuadExt, or an int or Fraction, which becomes one as in
    make_exact_value; theta_over_pi is an int or a Fraction.
    """

    label: str
    z: QuadExt
    theta_over_pi: Fraction

    def __post_init__(self):
        if is_rational(self.z):
            object.__setattr__(self, "z", QuadExt._coerce(self.z))
        if not isinstance(self.z, QuadExt):
            raise DomainError(f"special point z must be a QuadExt, int or Fraction, got {self.z!r}")
        if not is_rational(self.theta_over_pi):
            raise DomainError(f"theta/pi must be an int or Fraction, got {self.theta_over_pi!r}")
        if self.z.sign() <= 0:
            raise DomainError("special point must have z > 0")
        if not 0 < self.theta_over_pi < Fraction(1, 2):
            raise DomainError("theta/pi must lie in (0, 1/2)")
        with DEFAULT_PRECISION.workdps():
            gap = mpmath.acot(mpmath.sqrt(self.z.to_mpf())) - mpmath.pi * to_mpf(self.theta_over_pi)
            if abs(gap) > mpf(10) ** -DEFAULT_PRECISION.dps:
                raise DomainError(f"ArcCot(sqrt({self.z})) is not {self.theta_over_pi}*pi")


CATALOG: dict[str, SpecialPoint] = {
    p.label: p
    for p in (
        SpecialPoint("1", QuadExt(Fraction(1)), Fraction(1, 4)),
        SpecialPoint("3", QuadExt(Fraction(3)), Fraction(1, 6)),
        SpecialPoint("1/3", QuadExt(Fraction(1, 3)), Fraction(1, 3)),
        # Cot^2(pi/10) = 5 + 2*sqrt(5)
        SpecialPoint("cot2-pi-10", QuadExt(Fraction(5), Fraction(2), 5), Fraction(1, 10)),
        # Cot^2(pi/12) = 7 + 4*sqrt(3)
        SpecialPoint("cot2-pi-12", QuadExt(Fraction(7), Fraction(4), 3), Fraction(1, 12)),
    )
}


@dataclass(frozen=True)
class ExactValue:
    """pi_coeff*pi/pi_surd + alg_coeff/alg_surd with normalized surds."""

    pi_coeff: QuadExt
    pi_surd: Surd
    alg_coeff: QuadExt
    alg_surd: Surd

    def is_zero(self) -> bool:
        return self.pi_coeff.is_zero() and self.alg_coeff.is_zero()

    def to_mpf(self, prec: Precision = DEFAULT_PRECISION) -> mpf:
        with prec.workdps():
            value = mpf(0)
            if not self.pi_coeff.is_zero():
                value += self.pi_coeff.to_mpf() * mpmath.pi / self.pi_surd.to_mpf()
            if not self.alg_coeff.is_zero():
                value += self.alg_coeff.to_mpf() / self.alg_surd.to_mpf()
            return +value


def _normalized_term(raw, radical) -> tuple[QuadExt, Surd]:
    """Canonicalize raw / sqrt(radical) into (coefficient, normalized surd)."""
    raw = QuadExt._coerce(raw)
    if raw.is_zero():
        return _ZERO, UNIT_SURD
    multiplier, surd = surd_normalize(Surd(QuadExt._coerce(radical)))
    return raw / multiplier, surd


def make_exact_value(pi_raw, pi_radical, alg_raw, alg_radical) -> ExactValue:
    """pi_raw*pi/sqrt(pi_radical) + alg_raw/sqrt(alg_radical); each a QuadExt, int or Fraction."""
    pi_coeff, pi_surd = _normalized_term(pi_raw, pi_radical)
    alg_coeff, alg_surd = _normalized_term(alg_raw, alg_radical)
    return ExactValue(pi_coeff, pi_surd, alg_coeff, alg_surd)


def eval_at_special(n: int, point: SpecialPoint) -> ExactValue:
    """Exact I_n(z) at a special point, via the closed-form recurrence."""
    form = closed_form(n)
    z = point.z
    zp1 = z + 1
    power = (z * zp1) ** n
    prefactor = form.prefactor  # Fraction
    pi_raw = prefactor * point.theta_over_pi * _polyval(form.A, z) / power
    alg_raw = prefactor * _polyval(form.B, z) / power
    return make_exact_value(pi_raw, z * zp1, alg_raw, zp1)


def relation(n: int, m: int) -> tuple[Fraction, Fraction]:
    """Rationals (P, Q) with sqrt(2)*I_n(1) + P*sqrt(2)*I_m(1) + Q = 0.

    Uses the exact decomposition sqrt(2)*I_k(1) = a_k + b_k*pi.
    """
    pair_m = in1_pair(m)
    if pair_m[1] == 0:
        raise DomainError(f"relation undefined: pi-coefficient of I_{m}(1) is zero")
    return _relation(in1_pair(n), pair_m)


def _relation(pair_n, pair_m) -> tuple[Fraction, Fraction]:
    """relation's (P, Q) from the pairs (a_n, b_n), (a_m, b_m); b_m must be nonzero."""
    (a_n, b_n), (a_m, b_m) = pair_n, pair_m
    P = -b_n / b_m
    Q = -a_n - P * a_m
    return P, Q


def in1_pair(k: int) -> tuple[Fraction, Fraction]:
    """(a_k, b_k) with sqrt(2)*I_k(1) = a_k + b_k*pi, exactly.

    Read off the closed form: at z = 1, ArcCot(1) = pi/4 and z(z+1) = z+1 = 2,
    so a_k = prefactor*B_k(1)/2**k and b_k = prefactor*A_k(1)/2**(k+2).
    """
    form = closed_form(k)
    return (
        form.prefactor * Fraction(sum(form.B), 2**k),
        form.prefactor * Fraction(sum(form.A), 2 ** (k + 2)),
    )
