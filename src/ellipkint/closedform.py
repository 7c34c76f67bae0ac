"""Exact closed forms for the integral family, and its floating route.

The n-th derivative of F(z) = ArcCot(sqrt(z)) / sqrt(z(z+1)) stays in the shape

    F^(n)(z) = [A_n(z)*ArcCot(sqrt(z)) + B_n(z)*sqrt(z)] / (2**n * (z(z+1))^(n+1/2))

with integer-coefficient polynomials A_n, B_n, because the shape closes under
differentiation:

    A_{m+1} = 2z(z+1)A'_m - (2m+1)(2z+1)A_m
    B_{m+1} = 2z(z+1)B'_m - ((4m+1)z + 2m)B_m - A_m

On the coefficients a_j, b_j of z**j in A_m, B_m (zero outside their range)
these read

    a_j -> (2j-2m-1)*a_j + 2(j-2m-2)*a_{j-1}
    b_j -> 2(j-m)*b_j + (2j-4m-3)*b_{j-1} - a_j

The family value is then I_n(z) = (-2)**n / (2n+1)!! * F^(n)(z), in which
the 2**n cancels.  No route evaluates these forms: In_exact_real and the
exact route (specialvalues) run identity (1)'s recurrence in n, and the
closed forms are the independent reference the tests and the verification
suite hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .precision import DEFAULT_PRECISION, Precision, check_index, check_z


@dataclass(frozen=True)
class ClosedForm:
    """A_n, B_n as integer coefficients in ascending powers of z; B_0 = ()."""

    n: int
    A: tuple[int, ...]
    B: tuple[int, ...]

    @property
    def prefactor(self) -> Fraction:
        """(-1)**n / (2n+1)!!, the scalar in front of the bracket."""
        return Fraction((-1) ** self.n, math.prod(range(1, 2 * self.n + 2, 2)))


def _next_form(form: ClosedForm) -> ClosedForm:
    m = form.n
    # zero-padded on both sides: a[j + 1] and b[j + 1] multiply z**j
    a = (0, *form.A, 0)
    b = (0, *form.B, 0)
    return ClosedForm(
        m + 1,
        tuple((2 * j - 2 * m - 1) * a[j + 1] + 2 * (j - 2 * m - 2) * a[j] for j in range(m + 2)),
        tuple(2 * (j - m) * b[j + 1] + (2 * j - 4 * m - 3) * b[j] - a[j + 1] for j in range(m + 1)),
    )


def closed_form(n: int) -> ClosedForm:
    """The closed form of I_n, built afresh from n = 0 by the differentiation recurrence."""
    check_index(n)
    form = ClosedForm(0, (1,), ())
    for _ in range(n):
        form = _next_form(form)
    return form


def In_exact_real(n: int, z, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """I_n(z) in floating point by identity (1)'s recurrence in n, run forward:

        (2k+1)(2k+3)*z(z+1)*I_{k+1} = (2k+1)**2*(2z+1)*I_k - 4k**2*I_{k-1} + (z+1)**(-k-1/2)

    from I_{-1} = 0 and I_0 = ArcCot(sqrt(z))/sqrt(z(z+1)).  It is stable: I_n ~ z**(-n)
    is the dominant solution (the characteristic roots are 1/z and 1/(z+1)),
    and the one subtraction per step cancels by at most a factor of about 2.
    """
    check_index(n)
    with prec.workdps():
        z = check_z(z)
        zp1, t = z + 1, 2 * z + 1
        w, g = z * zp1, 1 / mpmath.sqrt(zp1)  # g = (z+1)**(-k-1/2), one division per step
        previous, value = mpf(0), mpmath.atan(1 / mpmath.sqrt(z)) / mpmath.sqrt(w)
        for k in range(n):
            odd = 2 * k + 1
            previous, value = value, (odd * odd * t * value - 4 * k * k * previous + g) / (odd * (odd + 2) * w)
            g /= zp1
        return value
