"""Complete elliptic integral of the first kind via the arithmetic-geometric mean.

Legendre-modulus convention: ellip_k(k) here equals EllipticK[k^2] in the
convention used by Mathematica.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

from .precision import DEFAULT_PRECISION, Precision, check_unit_interval


def ellip_k(k, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """K(k) = pi / (2 * agm(1, sqrt(1-k^2))) for 0 <= k < 1.

    k = 1 is a hard domain error: K diverges logarithmically there, and so
    is a k that is not a real number.
    """
    with prec.workdps():
        k = check_unit_interval(k, "modulus k")
        # (1-k)(1+k) avoids cancellation when k is close to 1
        kp = mpmath.sqrt((1 - k) * (1 + k))
        return mpmath.pi / (2 * mpmath.agm(1, kp))
