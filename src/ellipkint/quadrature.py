"""Tanh-sinh (double-exponential) quadrature and the family integrals.

The transformation x = tanh((pi/2) sinh t) clusters abscissae doubly
exponentially toward the endpoints without ever touching them, which is what
the k -> 1 logarithmic singularity of the K(k) kernel needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .elliptic import ellip_k
from .precision import (
    DEFAULT_PRECISION,
    DomainError,
    Precision,
    ToleranceNotReached,
    check_index,
    to_mpf,
)


@dataclass(frozen=True)
class QuadratureResult:
    value: mpf
    error_estimate: mpf
    levels_used: int
    evaluations: int
    converged: bool = True


@dataclass(frozen=True)
class IntegralSpec:
    """Index pair (n, z) of the integral ∫₀¹ K(k)·k/(z+k²)^(n+3/2) dk."""

    n: int
    z: object  # positive real: int, float, Fraction or mpf

    def __post_init__(self):
        check_index(self.n)
        if to_mpf(self.z) <= 0:
            raise DomainError(f"shift parameter z must be positive, got {self.z}")


# node cache: (working binary precision, level) -> list of (delta, weight)
# delta is the node's distance from the interval endpoint on [-1, 1] scale,
# kept separate from the abscissa so endpoint offsets stay accurate.
_NODE_CACHE: dict[tuple[int, int], list[tuple[mpf, mpf]]] = {}


def _level_nodes(level: int) -> list[tuple[mpf, mpf]]:
    key = (mpmath.mp.prec, level)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    h = mpf(1) / 2**level
    # nodes with smaller endpoint offset than this cannot be represented
    # accurately enough to evaluate a singular integrand on; the truncated
    # tail is O(sqrt(cut)) even for 1/sqrt endpoint singularities.
    cut = mpf(10) ** (-(3 * mpmath.mp.dps) // 4)
    pi_half = mpmath.pi / 2
    nodes = []
    k = 1 if level > 0 else 0
    step = 2 if level > 0 else 1
    while True:
        t = k * h
        u = pi_half * mpmath.sinh(t)
        delta = 2 / (mpmath.exp(2 * u) + 1)  # = 1 - tanh(u), computed stably
        if delta < cut:
            break
        weight = pi_half * mpmath.cosh(t) / mpmath.cosh(u) ** 2
        nodes.append((delta, weight))
        k += step
    _NODE_CACHE[key] = nodes
    return nodes


# kernel cache: (working binary precision, level) -> list of (x, K(x)·x·w)
# over the nodes of that level on (0, 1).  Like the nodes it depends on
# neither n nor z, so every I_n(z) quadrature at one precision shares it.
_KERNEL_CACHE: dict[tuple[int, int], list[tuple[mpf, mpf]]] = {}


def _level_points(level: int, a: mpf, b: mpf):
    """(x, weight) for the nodes new on this level, mapped onto (a, b)."""
    half = (b - a) / 2
    for delta, weight in _level_nodes(level):
        offset = half * delta
        yield b - offset, weight
        if delta != 1:  # delta == 1 is the midpoint, count it once
            yield a + offset, weight


def _level_kernel(level: int, prec: Precision) -> list[tuple[mpf, mpf]]:
    key = (mpmath.mp.prec, level)
    cached = _KERNEL_CACHE.get(key)
    if cached is None:
        cached = [
            (x, ellip_k(x, prec) * x * weight)
            for x, weight in _level_points(level, mpf(0), mpf(1))
        ]
        _KERNEL_CACHE[key] = cached
    return cached


def _refine(samples, scale: mpf, prec: Precision) -> QuadratureResult:
    """The level loop of every quadrature here, stopping as tanh_sinh_integrate says.

    samples(level) yields (x, f(x)·weight) for the nodes new on that level;
    the estimate at level L is scale/2^L times the sum of all samples so far.
    """
    tol = to_mpf(prec.abs_tol)
    raw = mpf(0)
    evaluations = 0
    previous = None
    estimate = mpf("inf")
    value = mpf(0)
    for level in range(prec.max_level + 1):
        for x, term in samples(level):
            if not mpmath.isfinite(term):
                raise DomainError(f"integrand not finite at {x}")
            raw += term
            evaluations += 1
        value = raw * scale / 2**level
        if previous is not None:
            estimate = abs(value - previous)
            if estimate <= tol:
                return QuadratureResult(value, estimate, level, evaluations)
        previous = value
    return QuadratureResult(value, estimate, prec.max_level, evaluations, converged=False)


def tanh_sinh_integrate(f, a, b, prec: Precision = DEFAULT_PRECISION) -> QuadratureResult:
    """Integrate f over the open interval (a, b).

    f is never called at a or b.  Refines level by level until two successive
    level sums differ by at most prec.abs_tol; if the level budget runs out
    the best value is returned with converged=False.
    """
    with prec.workdps():
        a = to_mpf(a)
        b = to_mpf(b)
        if not a < b:
            raise DomainError("tanh_sinh_integrate requires a < b")

        def samples(level):
            for x, weight in _level_points(level, a, b):
                yield x, f(x) * weight

        return _refine(samples, (b - a) / 2, prec)


def integral_In_numeric(spec: IntegralSpec, prec: Precision = DEFAULT_PRECISION) -> QuadratureResult:
    """Quadrature of ∫₀¹ K(k)·k/(z+k²)^(n+3/2) dk over the shared kernel table."""
    with prec.workdps():
        z = to_mpf(spec.z)
        exponent = spec.n + mpf(3) / 2

        def samples(level):
            for x, kernel in _level_kernel(level, prec):
                yield x, kernel / (z + x * x) ** exponent

        result = _refine(samples, mpf(1) / 2, prec)
        if not result.converged:
            raise ToleranceNotReached(
                f"I_{spec.n}({spec.z}) did not reach abs_tol={prec.abs_tol}", result
            )
        return result


def inner_integral_closed(z, t) -> mpf:
    """1/(√z·(1+z·t²)) − √(1−t²)/(√(1+z)·(1+z·t²)) for z > 0, 0 <= t < 1."""
    z = to_mpf(z)
    t = to_mpf(t)
    if z <= 0:
        raise DomainError("z must be positive")
    if not 0 <= t < 1:
        raise DomainError("t must lie in [0, 1)")
    denom = 1 + z * t * t
    return 1 / (mpmath.sqrt(z) * denom) - mpmath.sqrt((1 - t) * (1 + t)) / (
        mpmath.sqrt(1 + z) * denom
    )


def inner_integral_numeric(z, t, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """Quadrature of ∫₀¹ k dk / ((z+k²)^(3/2)·√(1−k²t²)).

    t = 0 short-circuits to the elementary antiderivative; the general path
    needs 0 < t < 1.
    """
    with prec.workdps():
        z = to_mpf(z)
        t = to_mpf(t)
        if z <= 0:
            raise DomainError("z must be positive")
        if not 0 <= t < 1:
            raise DomainError("t must lie in [0, 1)")
        if t == 0:
            return 1 / mpmath.sqrt(z) - 1 / mpmath.sqrt(1 + z)

        def integrand(k):
            return k / ((z + k * k) ** mpf(1.5) * mpmath.sqrt(1 - (k * t) ** 2))

        result = tanh_sinh_integrate(integrand, 0, 1, prec)
        if not result.converged:
            raise ToleranceNotReached(
                f"inner integral at (z={z}, t={t}) did not converge", result
            )
        return result.value


def I0_via_swap(z, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """I_0(z) as the order-swapped iterated integral.

    Outer t-integral of the closed inner form against the 1/√(1−t²) weight;
    independent of the direct (n=0, z) quadrature route.
    """
    with prec.workdps():
        z = to_mpf(z)
        if z <= 0:
            raise DomainError("z must be positive")

        def integrand(t):
            return inner_integral_closed(z, t) / mpmath.sqrt((1 - t) * (1 + t))

        result = tanh_sinh_integrate(integrand, 0, 1, prec)
        if not result.converged:
            raise ToleranceNotReached(f"I0_via_swap({z}) did not converge", result)
        return result.value
