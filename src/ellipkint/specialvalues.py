"""Exact values of the family at algebraic special points.

At a special point z the three ingredients of the closed form become
algebraic: sqrt(z) and z itself live in a quadratic field, and
ArcCot(sqrt(z)) is a rational multiple of pi.  The exact value then takes the
shape  coeff_pi * pi / surd_pi + coeff_alg / surd_alg  with quadratic-field
coefficients and normalized denominator radicals.  The coefficients come from
identity (1)'s three-term recurrence in n, run on integer pairs of Z[sqrt(d)]
and kept per point, so each new order costs one step.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import mpmath
from mpmath import mpf

from .precision import DEFAULT_PRECISION, DomainError, Precision, check_index, is_rational, shown, to_mpf
from .quadfield import (
    UNIT_SURD,
    QuadExt,
    Surd,
    _over_common_denominator,
    _pair_mul,
    surd_normalize,
)

_ZERO = QuadExt(Fraction(0))


class _State(NamedTuple):
    """The recurrence in n at one n; each pair (P, Q) is P + Q*sqrt(d).

    I_n(z) = c_n*theta*pi/sqrt(z(z+1)) + a_n/sqrt(z+1) with c_n = C/D and
    a_n = A/E.  G = (E/N(Z)**n)*(r*conj(Z))**n is the pair the source term
    (z+1)**(-n) enters the next step with.
    """

    C: tuple[int, int]
    D: int
    A: tuple[int, int]
    E: int
    G: tuple[int, int]


# I_0(z) = theta*pi/sqrt(z(z+1)): c_0 = 1, a_0 = 0
_START = _State((1, 0), 1, (0, 0), 1, (1, 0))
# every SpecialPoint's states are extended in order under this one lock
_RECURRENCE_LOCK = threading.Lock()


class _PointConstants(NamedTuple):
    """What eval_at_special needs of a point for every n.

    With z = (p + q*sqrt(d))/r in integers, the recurrence runs on the integer
    pairs W = r**2*z(z+1), T = r(2z+1) and Z = r(z+1); N is the field norm.
    Each pair (P, Q) is P + Q*sqrt(d) and each triple (p, q, r) is
    (p + q*sqrt(d))/r.
    """

    d: int
    rt: tuple[int, int]  # r*T
    r2: int  # r**2
    w_bar: tuple[int, int]  # the conjugate of W
    w_norm: int  # N(W) = W*w_bar
    z_norm: int  # N(Z)
    rz_bar: tuple[int, int]  # r times the conjugate of Z
    pi_factor: tuple[int, int, int]  # theta/pi over the multiplier of sqrt(z(z+1))
    pi_surd: Surd
    alg_factor: tuple[int, int, int]  # 1 over the multiplier of sqrt(z+1)
    alg_surd: Surd

    def step(self, n: int, state: _State, previous: _State) -> _State:
        """The state at n + 1 from those at n and n - 1; at n = 0 previous meets only zeros.

        Identity (1)'s recurrence in n,
            (2n+1)(2n+3)*z(z+1)*I_{n+1} = (2n+1)**2*(2z+1)*I_n - 4n**2*I_{n-1} + (z+1)**(-n-1/2),
        holds for the pi part without its source term and for the algebraic
        part with it.  Over integer denominators, with 1/W = conj(W)/N(W):
            C' = [(2n+1)*rT*C - 4n**2*r**2*N(W)*C_prev]*conj(W)
            D' = (2n+3)*N(W)*D
            A' = [(2n+1)**2*rT*A - 4n**2*r**2*(2n-1)(2n+1)*N(W)*N(Z)*A_prev + r**2*G]*conj(W)*N(Z)
            E' = (2n+1)(2n+3)*N(W)*N(Z)*E
            G' = (2n+1)(2n+3)*N(W)*G*r*conj(Z)
        No step takes a gcd.
        """
        d, r2, w_norm, z_norm = self.d, self.r2, self.w_norm, self.z_norm
        k = 2 * n + 1
        back = 4 * n * n * r2 * w_norm
        t0, t1 = _pair_mul(self.rt, state.C, d)
        C = _pair_mul((k * t0 - back * previous.C[0], k * t1 - back * previous.C[1]), self.w_bar, d)
        back *= (2 * n - 1) * k * z_norm
        t0, t1 = _pair_mul(self.rt, state.A, d)
        g0, g1 = state.G
        a0, a1 = _pair_mul(
            (k * k * t0 - back * previous.A[0] + r2 * g0, k * k * t1 - back * previous.A[1] + r2 * g1),
            self.w_bar,
            d,
        )
        grow = k * (2 * n + 3) * w_norm
        g0, g1 = _pair_mul(state.G, self.rz_bar, d)
        return _State(
            C,
            (2 * n + 3) * w_norm * state.D,
            (a0 * z_norm, a1 * z_norm),
            grow * z_norm * state.E,
            (grow * g0, grow * g1),
        )

    def term(self, pair: tuple[int, int], den: int, factor, surd) -> tuple[QuadExt, Surd]:
        """(pair/den)*factor with surd, (_ZERO, UNIT_SURD) when the pair is zero."""
        if pair == (0, 0):
            return _ZERO, UNIT_SURD
        P, Q = _pair_mul(pair, factor[:2], self.d)
        den *= factor[2]
        return QuadExt(Fraction(P, den), Fraction(Q, den), self.d), surd


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
        so it enters neither equality nor the hash; so does _recurrence.
        """
        d = self.z.d
        p, q, r = _over_common_denominator(self.z)
        W = _pair_mul((p, q), (p + r, q), d)
        zp1 = self.z + 1
        w_multiplier, w_surd = surd_normalize(Surd(self.z * zp1))
        zp1_multiplier, zp1_surd = surd_normalize(Surd(zp1))
        return _PointConstants(
            d,
            (r * (2 * p + r), 2 * r * q),
            r * r,
            (W[0], -W[1]),
            W[0] ** 2 - W[1] ** 2 * d,
            (p + r) ** 2 - q * q * d,
            (r * (p + r), -r * q),
            _over_common_denominator(self.theta_over_pi / w_multiplier),
            w_surd,
            _over_common_denominator(1 / zp1_multiplier),
            zp1_surd,
        )

    @cached_property
    def _recurrence(self) -> list[_State]:
        """The recurrence's state at every n < len(_recurrence), appended whole."""
        return [_START]

    def _state(self, n: int) -> _State:
        """The recurrence's state at n, extending the states in order up to n."""
        states = self._recurrence
        if n >= len(states):
            with _RECURRENCE_LOCK:
                constants = self._constants
                while len(states) <= n:
                    m = len(states) - 1
                    states.append(constants.step(m, states[m], states[m - 1]))
        return states[n]


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
    if multiplier.a == 1 and multiplier.b == 0:
        return raw, surd
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
    """Exact I_n(z) at a special point, via identity (1)'s recurrence in n.

    I_n(z) = c_n*theta*pi/sqrt(z(z+1)) + a_n/sqrt(z+1), with c_n and a_n
    quadratic-field numbers that the point's recurrence states carry as
    integer pairs over integer denominators, one step per new order.  Each
    coefficient becomes Fractions once, at the end.
    """
    check_index(n)
    c = point._constants
    state = point._state(n)
    return ExactValue(
        *c.term(state.C, state.D, c.pi_factor, c.pi_surd),
        *c.term(state.A, state.E, c.alg_factor, c.alg_surd),
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

    Read off the recurrence's state at z = 1, where ArcCot(1) = pi/4 and
    z(z+1) = z+1 = 2: a_k = A_k/E_k and b_k = C_k/(4*D_k).
    """
    check_index(k)
    state = CATALOG["1"]._state(k)
    return Fraction(state.A[0], state.E), Fraction(state.C[0], 4 * state.D)
