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
from functools import cached_property
from typing import NamedTuple

import mpmath
from mpmath import mpf

from .closedform import closed_form
from .precision import DEFAULT_PRECISION, DomainError, Precision, is_rational, shown, to_mpf
from .quadfield import (
    UNIT_SURD,
    QuadExt,
    Surd,
    _over_common_denominator,
    _pair_mul,
    _pair_pow,
    _polyval_pair,
    surd_normalize,
)

_ZERO = QuadExt(Fraction(0))


class _PointConstants(NamedTuple):
    """What eval_at_special needs of a point for every n.

    Each triple (p, q, r) is the value (p + q*sqrt(d))/r in integers.
    """

    d: int
    z: tuple[int, int, int]
    u: tuple[int, int, int]  # 1/(z(z+1))
    pi_factor: tuple[int, int, int]  # theta/pi over the multiplier of sqrt(z(z+1))
    pi_surd: Surd
    alg_factor: tuple[int, int, int]  # 1 over the multiplier of sqrt(z+1)
    alg_surd: Surd

    def term(self, coefficients, u_n, num: int, den: int, factor, surd) -> tuple[QuadExt, Surd]:
        """(num/den) * poly(z) * u_n * factor with surd, (_ZERO, UNIT_SURD) when poly(z) == 0.

        u_n is an integer pair; den already carries u_n's denominator.
        """
        P, Q, scale = _polyval_pair(coefficients, *self.z, self.d)
        if P == 0 and Q == 0:
            return _ZERO, UNIT_SURD
        P, Q = _pair_mul((P, Q), _pair_mul(u_n, factor[:2], self.d), self.d)
        den *= scale * factor[2]
        return QuadExt(Fraction(num * P, den), Fraction(num * Q, den), self.d), surd


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
            raise DomainError(f"special point z must be a QuadExt, int or Fraction, got {shown(self.z)}")
        if not is_rational(self.theta_over_pi):
            raise DomainError(f"theta/pi must be an int or Fraction, got {shown(self.theta_over_pi)}")
        if self.z.sign() <= 0:
            raise DomainError("special point must have z > 0")
        if not 0 < self.theta_over_pi < Fraction(1, 2):
            raise DomainError("theta/pi must lie in (0, 1/2)")
        with DEFAULT_PRECISION.workdps():
            gap = mpmath.acot(mpmath.sqrt(self.z.to_mpf())) - mpmath.pi * to_mpf(self.theta_over_pi)
            if abs(gap) > mpf(10) ** -DEFAULT_PRECISION.dps:
                # z is not echoed: a QuadExt prints whole, however long
                raise DomainError(f"ArcCot(sqrt(z)) is not {shown(self.theta_over_pi)}*pi for this z")

    @cached_property
    def _constants(self) -> _PointConstants:
        """eval_at_special's n-independent parts, built on first use.

        The cache sits in the instance __dict__, outside the dataclass fields,
        so it enters neither equality nor the hash.
        """
        zp1 = self.z + 1
        w = self.z * zp1
        w_multiplier, w_surd = surd_normalize(Surd(w))
        zp1_multiplier, zp1_surd = surd_normalize(Surd(zp1))
        return _PointConstants(
            self.z.d,
            _over_common_denominator(self.z),
            _over_common_denominator(1 / w),
            _over_common_denominator(self.theta_over_pi / w_multiplier),
            w_surd,
            _over_common_denominator(1 / zp1_multiplier),
            zp1_surd,
        )


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
    raw, surd = QuadExt._coerce(raw), Surd(QuadExt._coerce(radical))  # checked even under a zero raw
    if raw.is_zero():
        return _ZERO, UNIT_SURD
    multiplier, surd = surd_normalize(surd)
    return raw / multiplier, surd


def make_exact_value(pi_raw, pi_radical, alg_raw, alg_radical) -> ExactValue:
    """pi_raw*pi/sqrt(pi_radical) + alg_raw/sqrt(alg_radical); each a QuadExt, int or Fraction."""
    named = {"pi_raw": pi_raw, "pi_radical": pi_radical, "alg_raw": alg_raw, "alg_radical": alg_radical}
    for name, x in named.items():
        if not (isinstance(x, QuadExt) or is_rational(x)):
            raise DomainError(f"{name} must be a QuadExt, int or Fraction, got {shown(x)}")
    pi_coeff, pi_surd = _normalized_term(pi_raw, pi_radical)
    alg_coeff, alg_surd = _normalized_term(alg_raw, alg_radical)
    return ExactValue(pi_coeff, pi_surd, alg_coeff, alg_surd)


def eval_at_special(n: int, point: SpecialPoint) -> ExactValue:
    """Exact I_n(z) at a special point, via the closed-form recurrence.

    With u = 1/(z(z+1)) the closed form reads
        prefactor * u**n * (theta*A_n(z)*pi/sqrt(z(z+1)) + B_n(z)/sqrt(z+1)).
    A_n(z), B_n(z) and u**n are integer pairs of (P + Q*sqrt(d))/s, and each
    coefficient becomes Fractions once, at the end.
    """
    form = closed_form(n)
    c = point._constants
    prefactor = form.prefactor
    u_n = _pair_pow(c.u[:2], n, c.d)
    num, den = prefactor.numerator, prefactor.denominator * c.u[2] ** n
    return ExactValue(
        *c.term(form.A, u_n, num, den, c.pi_factor, c.pi_surd),
        *c.term(form.B, u_n, num, den, c.alg_factor, c.alg_surd),
    )


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
