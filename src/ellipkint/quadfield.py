"""Arithmetic in a real quadratic field Q(sqrt(d)) plus formal square roots.

QuadExt is a + b*sqrt(d) with rational a, b and square-free 0 < d < 2**32
(d = 1 is the plain rationals).  Surd is the formal sqrt of a positive
QuadExt.  Normalization splits a surd into a QuadExt multiplier and a surd:
the multiplier takes the rational square factors of the radicand, or the whole
root when the radicand is a perfect square inside its own field.  Square
factors whose root leaves the field (e.g. 2+sqrt(3) = (1+sqrt(3))**2 / 2) are
deliberately left nested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mpf

from .precision import DomainError, _is_integer, shown, to_mpf


def square_part(n: int) -> tuple[int, int]:
    """n = s**2 * f with f square-free; returns (s, f) for a positive integer n.

    Trial division stops below 2**16, so the cofactor it leaves must be below
    2**32, where it is 1 or a prime; a larger cofactor is a DomainError.
    """
    if n <= 0:
        raise DomainError("square_part requires a positive integer")
    original = n
    s, f = 1, 1
    p = 2
    while p * p <= n and p < 2**16:
        if n % p == 0:
            count = 0
            while n % p == 0:
                n //= p
                count += 1
            s *= p ** (count // 2)
            if count % 2:
                f *= p
        p += 1 if p == 2 else 2
    if n >= 2**32:
        raise DomainError(f"square_part cannot factor {shown(original)}: a cofactor >= 2**32 has no prime below 2**16")
    return s, f * n


def _sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _pair_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for int or Fraction a, b, exactly; with d = 1 only if b == 0.

    With equal signs or a zero part the sign is the nonzero one; with mixed
    signs it is the sign of a when a**2 > b**2*d, else that of b.
    """
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * d else sb


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with rational a, b; d a square-free int in [1, 2**32), d=1 rational."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        d = self.d
        if not _is_integer(d) or not 0 < d < 2**32 or square_part(d)[0] != 1:
            raise DomainError(f"d must be a square-free integer in [1, 2**32), got {shown(d)}")
        if self.d == 1 and self.b != 0:
            # fold sqrt(1) into the rational part
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", Fraction(0))
        if self.b == 0 and self.d != 1:
            object.__setattr__(self, "d", 1)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(Fraction(x), Fraction(0), 1)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(sqrt(d))")

    def _same_field(self, other: "QuadExt") -> int:
        if self.d == 1:
            return other.d
        if other.d == 1 or other.d == self.d:
            return self.d
        raise DomainError(f"mixed quadratic fields d={self.d} and d={other.d}")

    # -- ring / field operations ------------------------------------------

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        d = self._same_field(other)
        return QuadExt(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        d = self._same_field(other)
        return QuadExt(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        d = self._same_field(other)
        n = other.norm()
        conj = other.conjugate()
        num = self * conj
        return QuadExt(num.a / n, num.b / n, d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(d), computed exactly."""
        return _pair_sign(self.a, self.b, self.d)

    def __abs__(self) -> "QuadExt":
        return self if self.sign() >= 0 else -self

    def sqrt_in_field(self) -> Optional["QuadExt"]:
        """The positive x + y*sqrt(d) with (x+y*sqrt(d))**2 == self, if any."""
        if self.is_zero():
            return QuadExt(Fraction(0))
        if self.sign() < 0:
            return None
        if self.b == 0:
            root = _sqrt_fraction(self.a)
            return QuadExt(root) if root is not None else None
        disc = _sqrt_fraction(self.norm())
        if disc is None:
            return None
        for candidate in ((self.a + disc) / 2, (self.a - disc) / 2):
            x = _sqrt_fraction(candidate)
            if x is not None and x != 0:
                y = self.b / (2 * x)
                root = QuadExt(x, y, self.d)
                if root * root == self:
                    return abs(root)
        return None

    def to_mpf(self) -> mpf:
        if self.a < 0 < self.b or self.b < 0 < self.a:
            # a and b*sqrt(d) would cancel; the exact norm over the conjugate does not
            return to_mpf(self.norm()) / (to_mpf(self.a) - to_mpf(self.b) * mpmath.sqrt(self.d))
        value = to_mpf(self.a)
        if self.b:
            value += to_mpf(self.b) * mpmath.sqrt(self.d)
        return value

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.d}))"


@dataclass(frozen=True)
class Surd:
    """sqrt(radicand) with radicand a positive QuadExt."""

    radicand: QuadExt

    def __post_init__(self):
        if self.radicand.sign() <= 0:
            raise DomainError("surd radicand must be positive")

    def to_mpf(self) -> mpf:
        return mpmath.sqrt(self.radicand.to_mpf())

    def __repr__(self):
        return f"Surd(sqrt({self.radicand}))"


UNIT_SURD = Surd(QuadExt(Fraction(1)))


def _over_common_denominator(x: QuadExt) -> tuple[int, int, int]:
    """Integers (p, q, r), r > 0 the lcm of the denominators, with x == (p + q*sqrt(d))/r."""
    r = math.lcm(x.a.denominator, x.b.denominator)
    return x.a.numerator * (r // x.a.denominator), x.b.numerator * (r // x.b.denominator), r


def _pair_mul(x: tuple[int, int], y: tuple[int, int], d: int) -> tuple[int, int]:
    """(P, Q) with (x0 + x1*sqrt(d))*(y0 + y1*sqrt(d)) == P + Q*sqrt(d)."""
    return x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0]


def surd_normalize(s: Surd) -> tuple[QuadExt, Surd]:
    """Canonical form of a surd: (multiplier, surd) with sqrt(s.radicand) == multiplier*surd.

    The multiplier takes the rational square factors of the radicand, leaving
    an integer radicand with square-free content; a radicand that is a perfect
    square inside its field moves whole into the multiplier, leaving UNIT_SURD.
    """
    r = s.radicand
    ai, bi, den = _over_common_denominator(r)
    ai, bi = ai * den, bi * den
    # r == (ai + bi*sqrt(d)) / den**2 with integer ai, bi
    g = math.gcd(ai, bi)
    sq, _ = square_part(g)
    radicand = QuadExt(Fraction(ai // (sq * sq)), Fraction(bi // (sq * sq)), r.d)
    multiplier = QuadExt(Fraction(sq, den))
    root = radicand.sqrt_in_field()
    if root is not None:
        return multiplier * root, UNIT_SURD
    return multiplier, Surd(radicand)
