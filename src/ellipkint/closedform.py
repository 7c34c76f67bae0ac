"""Exact closed forms for the integral family.

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
the 2**n cancels.  The recurrence is cross-checked against quadrature and
finite differences by the verification suite before anything downstream
trusts it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .precision import DEFAULT_PRECISION, Precision, check_index, check_z, to_mpf


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


# closed_form(n) for every n < len(_FORMS), extended in order under _FORMS_LOCK
_FORMS = [ClosedForm(0, (1,), ())]
_FORMS_LOCK = threading.Lock()


def closed_form(n: int) -> ClosedForm:
    """The closed form of I_n, built by the differentiation recurrence.

    In_exact_real evaluates it and checks n only here.  At the special points
    eval_at_special and in1_pair run the recurrence in n instead, and the
    closed forms are their independent reference.
    """
    check_index(n)
    if n >= len(_FORMS):
        with _FORMS_LOCK:
            while len(_FORMS) <= n:
                _FORMS.append(_next_form(_FORMS[-1]))
    return _FORMS[n]


def In_exact_real(n: int, z, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """Floating-point evaluation of the closed-form route for I_n(z)."""
    form = closed_form(n)
    with prec.workdps():
        z = check_z(z)
        arccot = mpmath.atan(1 / mpmath.sqrt(z))
        # mpmath.polyval reads coefficients in descending powers; A_n and B_n ascend
        a, b = mpmath.polyval(form.A[::-1], z), mpmath.polyval(form.B[::-1], z)
        bracket = a * arccot / mpmath.sqrt(z * (z + 1)) + b / mpmath.sqrt(z + 1)
        return to_mpf(form.prefactor) * bracket / (z * (z + 1)) ** n
