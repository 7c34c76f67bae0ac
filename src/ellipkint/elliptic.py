"""Complete elliptic integral of the first kind via the arithmetic-geometric mean.

Legendre-modulus convention: ellip_k(k) here equals EllipticK[k^2] in the
convention used by Mathematica.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf
from mpmath.libmp import from_man_exp, pi_fixed, round_nearest

from .precision import DEFAULT_PRECISION, Precision, check_unit_interval

# bits the fixed-point AGM carries over the working precision, besides the
# bits k' lies below 1: each of its ~log2(wp) + log2(log(1/k')) steps
# truncates a and b by one unit
_GUARD_BITS = 24


def ellip_k(k, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """K(k) = pi / (2 * agm(1, sqrt(1-k^2))) for 0 <= k < 1, within 2^-wp relative.

    The AGM runs on fixed-point ints by math.isqrt, from k'² = 1 − k²
    taken exactly from k's mantissa, so nothing cancels as k nears 1; the
    quotient by pi is rounded once to the working precision wp.

    k = 1 is a hard domain error: K diverges logarithmically there, and so
    is a k that is not a real number.
    """
    with prec.workdps():
        _, man, exp, _ = check_unit_interval(k, "modulus k")._mpf_
        wp = mpmath.mp.prec
        # k² = square·2^(−e) exactly; k = 0 is (0, 0, 0, 0), so square = 0 and e = 0
        square, e = man * man, -2 * exp
        below = 0  # k' lies about 2^-below below 1
        if square.bit_length() >= e > 0:  # k² >= 1/2, so e <= 2·wp + 1 and 2^e is small
            below = (e - ((1 << e) - square).bit_length()) // 2
        bits = wp + _GUARD_BITS + below
        # b = ⌊k'·2^bits⌋ = isqrt of 2^(2·bits) less the ceiling of k²·2^(2·bits)
        shift = 2 * bits - e
        ceiling = square << shift if shift >= 0 else -(-square >> -shift)
        a, b = 1 << bits, math.isqrt((1 << 2 * bits) - ceiling)
        # a >= b at every step, and a − b about halves or better per step
        while a - b > 1:
            a, b = (a + b) >> 1, math.isqrt(a * b)
        # K = pi·2^bits / (2a), the quotient carried to wp + _GUARD_BITS bits or more
        quotient = (pi_fixed(bits) << (wp + _GUARD_BITS)) // a
        return mpmath.mp.make_mpf(from_man_exp(quotient, -(wp + _GUARD_BITS) - 1, wp, round_nearest))
