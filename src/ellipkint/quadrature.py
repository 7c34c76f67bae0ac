"""Tanh-sinh (double-exponential) quadrature and the family integrals.

The transformation x = tanh((pi/2) sinh t) clusters abscissae doubly
exponentially toward the endpoints without ever touching them, which is what
the k -> 1 logarithmic singularity of the K(k) kernel needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pow_int,
    mpf_sqrt,
    round_nearest,
)

from .elliptic import ellip_k
from .precision import (
    DEFAULT_PRECISION,
    DomainError,
    Precision,
    ToleranceNotReached,
    check_index,
    check_z,
    is_real,
    shown,
    to_mpf,
)

# tanh-sinh refinement levels run 0..MAX_LEVEL, the step halving per level;
# no quadrature stops, converged, before MIN_STOP_LEVEL: its error estimate
# needs two level differences, and two can agree by chance
MAX_LEVEL = 12
MIN_STOP_LEVEL = 3


@dataclass(frozen=True)
class QuadratureResult:
    """One tanh-sinh quadrature: its value and how it was obtained.

    error_estimate  d_L²/d_(L−1) at the level L it stopped on, d_L being the
                    difference of the level sums S_L and S_(L−1) (d_L at
                    level 1 or when d_(L−1) is 0); inf if it stopped at level 0
    levels_used     the level it stopped on; a converged result has at
                    least MIN_STOP_LEVEL (3)
    evaluations     integrand evaluations made
    converged       error_estimate <= abs_tol was met
    """

    value: mpf
    error_estimate: mpf
    levels_used: int
    evaluations: int
    converged: bool = True


@dataclass(frozen=True)
class IntegralSpec:
    """Index pair (n, z) of the integral ∫₀¹ K(k)·k/(z+k²)^(n+3/2) dk."""

    n: int
    z: object  # positive finite real: int, float, Fraction or mpf

    def __post_init__(self):
        check_index(self.n)
        check_z(self.z)


# node cache: (working binary precision, level) -> list of (x, weight) for the
# nodes new on that level, x on (0, 1) and weight that of the (-1, 1) rule;
# _refine halves the sums, (0, 1) being half as wide.
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
        nodes.append((1 - delta / 2, weight))
        if delta != 1:  # delta == 1 is the midpoint, count it once
            nodes.append((delta / 2, weight))
        k += step
    _NODE_CACHE[key] = nodes
    return nodes


# kernel cache: (working binary precision, level) -> list of (x, x², K(x)·x·w)
# over the nodes of that level on (0, 1), x² and K(x)·x·w as raw mpf tuples.
# Like the nodes it depends on neither n nor z, so every I_n(z) quadrature at
# one precision shares it.
_KERNEL_CACHE: dict[tuple[int, int], list[tuple[mpf, tuple, tuple]]] = {}


def _level_kernel(level: int, prec: Precision) -> list[tuple[mpf, tuple, tuple]]:
    key = (mpmath.mp.prec, level)
    cached = _KERNEL_CACHE.get(key)
    if cached is None:
        cached = [
            (x, (x * x)._mpf_, (ellip_k(x, prec) * x * weight)._mpf_)
            for x, weight in _level_nodes(level)
        ]
        _KERNEL_CACHE[key] = cached
    return cached


_NONFINITE = (finf, fninf, fnan)


def _refine(samples, members: int, prec: Precision) -> list[QuadratureResult]:
    """The level loop of every quadrature here: many sums over one pass of the nodes.

    samples(level, live) yields (x, terms) for the nodes new on that level,
    terms[j] being the raw mpf tuple (`_mpf_`) of f(x)·weight for member
    live[j].  Sums stay raw tuples, added by mpf_add at the working precision
    rounding to nearest, which is what mpf.__add__ calls, so they are the
    operator sums bit for bit without an mpf object per term.  A member's
    value at level L is the sum of its terms so far over 2^(L+1), the
    weights being those of (-1, 1).

    Tanh-sinh about doubles its correct digits per level, so with
    d_L = |S_L − S_(L−1)| the error of S_L is estimated as d_L²/d_(L−1), or
    as d_L at level 1 or when d_(L−1) is 0.  A member stops, converged, at
    the first level L >= MIN_STOP_LEVEL whose estimate is at most abs_tol,
    and then leaves `live`.  Below that level the estimate is not trusted: a
    sum can land close to the next by chance and make d_L²/d_(L−1) read
    small.  A member whose tolerance is below one ulp of its sum at the
    working precision can never meet it, so it stops at once, unconverged.
    """
    tol = to_mpf(prec.abs_tol)
    wp = mpmath.mp.prec
    raw = [fzero] * members
    value = [mpf(0)] * members
    last_d = [None] * members  # d_(L−1), None before level 1
    estimate = [mpf("inf")] * members
    results = [None] * members
    live = list(range(members))
    evaluations = 0  # every live member sees every node
    for level in range(MAX_LEVEL + 1):
        if not live:
            break
        for x, terms in samples(level, live):
            for i, term in zip(live, terms):
                if term in _NONFINITE:
                    raise DomainError(f"integrand not finite at {x}")
                raw[i] = mpf_add(raw[i], term, wp, round_nearest)
            evaluations += 1
        for i in live:
            current = mpmath.mp.make_mpf(raw[i]) / 2 ** (level + 1)
            if level > 0:
                d = abs(current - value[i])
                estimate[i] = d * d / last_d[i] if last_d[i] else d
                last_d[i] = d
                if level >= MIN_STOP_LEVEL and estimate[i] <= tol:
                    results[i] = QuadratureResult(current, estimate[i], level, evaluations)
            if results[i] is None and tol < mpmath.ldexp(abs(current), -mpmath.mp.prec):
                results[i] = QuadratureResult(
                    current, estimate[i], level, evaluations, converged=False
                )
            value[i] = current
        live = [i for i in live if results[i] is None]
    for i in live:
        results[i] = QuadratureResult(
            value[i], estimate[i], MAX_LEVEL, evaluations, converged=False
        )
    return results


def tanh_sinh_integrate(f, prec: Precision = DEFAULT_PRECISION) -> QuadratureResult:
    """Integrate f over the open interval (0, 1).

    f is never called at 0 or 1.  Refines level by level and stops at the
    first level from MIN_STOP_LEVEL (3) on whose error estimate, d_L²/d_(L−1)
    over the differences d_L of successive level sums, is at most
    prec.abs_tol (see _refine).  If MAX_LEVEL (12) passes without one, or
    prec.abs_tol is below one ulp of the sum, the best value is returned with
    converged=False.  f must be real: a complex value raises DomainError.
    """
    with prec.workdps():

        def samples(level, live):
            for x, weight in _level_nodes(level):
                term = getattr(f(x) * weight, "_mpf_", None)
                if term is None:
                    raise DomainError(f"integrand not real at {x}")
                yield x, (term,)

        return _refine(samples, 1, prec)[0]


def integral_In_numeric(spec: IntegralSpec, prec: Precision = DEFAULT_PRECISION) -> QuadratureResult:
    """Quadrature of ∫₀¹ K(k)·k/(z+k²)^(n+3/2) dk over the shared kernel table."""
    return integral_In_numeric_many([spec], prec)[0]


def integral_In_numeric_many(specs, prec: Precision = DEFAULT_PRECISION) -> list[QuadratureResult]:
    """integral_In_numeric for every spec, all advanced over one pass of each level.

    Specs with the same n and the same z as mpf at the working precision are
    one integral, run once, so a repeated spec costs nothing.  Each integral
    keeps its own sum and stop rule, so every result, returned in input
    order, is the one the spec's own integral_In_numeric call gives.  Raises
    ToleranceNotReached for the first spec that did not converge.
    """
    specs = list(specs)
    with prec.workdps():
        wp = mpmath.mp.prec
        keys = [(to_mpf(spec.z)._mpf_, 2 * spec.n + 3) for spec in specs]
        params = list(dict.fromkeys(keys))  # one member per distinct integral

        # kernel/(z+x²)^((2n+3)/2) as mpf.__pow__ and __div__ compute it:
        # √(z+x²) at wp+10 bits, its (2n+3)-th power, the quotient; the root
        # depends on z alone, so the members at one z share it
        def samples(level, live):
            members = [params[i] for i in live]
            live_z = {z for z, _ in members}
            for x, xx, kernel in _level_kernel(level, prec):
                roots = {
                    z: mpf_sqrt(mpf_add(z, xx, wp, round_nearest), wp + 10, round_nearest)
                    for z in live_z
                }
                yield x, [
                    mpf_div(kernel, mpf_pow_int(roots[z], power, wp, round_nearest), wp, round_nearest)
                    for z, power in members
                ]

        distinct = dict(zip(params, _refine(samples, len(params), prec)))
    results = [distinct[key] for key in keys]
    for spec, result in zip(specs, results):
        if not result.converged:
            raise ToleranceNotReached(
                f"I_{spec.n}({shown(spec.z)}) did not reach abs_tol={prec.abs_tol}", result
            )
    return results


def _inner_domain(z_grid, t_grid) -> tuple[list[mpf], list[mpf]]:
    """The inner integral's arguments as mpf, each z > 0 and each t a real in [0, 1)."""
    zs = [check_z(z) for z in z_grid]
    for t in t_grid:
        if not is_real(t):
            raise DomainError(f"t must lie in [0, 1), got {shown(t)}")
        if not 0 <= to_mpf(t) < 1:
            raise DomainError("t must lie in [0, 1)")
    return zs, [to_mpf(t) for t in t_grid]


def _inner_closed(z: mpf, t: mpf, root_z: mpf, root_1z: mpf, root_t: mpf) -> mpf:
    """inner_integral_closed given root_z = √z, root_1z = √(1+z) and root_t = √((1−t)(1+t))."""
    denom = 1 + z * t * t
    return 1 / (root_z * denom) - root_t / (root_1z * denom)


def inner_integral_closed(z, t) -> mpf:
    """1/(√z·(1+z·t²)) − √(1−t²)/(√(1+z)·(1+z·t²)) for z > 0, 0 <= t < 1."""
    (z,), (t,) = _inner_domain([z], [t])
    root_t = mpmath.sqrt((1 - t) * (1 + t))
    return _inner_closed(z, t, mpmath.sqrt(z), mpmath.sqrt(1 + z), root_t)


def inner_integral_numeric_grid(z_grid, t_grid, prec: Precision = DEFAULT_PRECISION) -> list[list[mpf]]:
    """Quadrature of ∫₀¹ k dk / ((z+k²)^(3/2)·√(1−k²t²)) at every z > 0, 0 <= t < 1.

    Returns rows over z_grid of values over t_grid.  The integrand factors
    into x·w/(z+x²)^(3/2) and 1/√(1−x²t²), so each node costs one power per z
    and one square root per t; every pair then keeps its own sum and stop
    rule.  Nothing is kept between calls.
    """
    z_grid, t_grid = list(z_grid), list(t_grid)
    with prec.workdps():
        wp = mpmath.mp.prec
        zs, ts = _inner_domain(z_grid, t_grid)
        width = len(ts)
        three_halves = mpf(3) / 2

        def samples(level, live):
            pairs = [divmod(i, width) for i in live]
            live_z = {iz for iz, _ in pairs}
            live_t = {it for _, it in pairs}
            for x, weight in _level_nodes(level):
                xw, xx = x * weight, x * x
                z_part = {iz: (xw / (zs[iz] + xx) ** three_halves)._mpf_ for iz in live_z}
                t_part = {it: (1 / mpmath.sqrt(1 - (x * ts[it]) ** 2))._mpf_ for it in live_t}
                yield x, [mpf_mul(z_part[iz], t_part[it], wp, round_nearest) for iz, it in pairs]

        results = _refine(samples, len(zs) * width, prec)
    for i, result in enumerate(results):
        if not result.converged:
            iz, it = divmod(i, width)
            raise ToleranceNotReached(
                f"inner integral at (z={shown(z_grid[iz])}, t={shown(t_grid[it])}) did not converge", result
            )
    return [[r.value for r in results[iz * width : (iz + 1) * width]] for iz in range(len(zs))]


def I0_via_swap(z, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """I_0(z) as the order-swapped iterated integral.

    Outer t-integral of the closed inner form against the 1/√(1−t²) weight;
    independent of the direct (n=0, z) quadrature route.
    """
    with prec.workdps():
        z = check_z(z)
        root_z, root_1z = mpmath.sqrt(z), mpmath.sqrt(1 + z)

        def integrand(t):
            root_t = mpmath.sqrt((1 - t) * (1 + t))
            return _inner_closed(z, t, root_z, root_1z, root_t) / root_t

        result = tanh_sinh_integrate(integrand, prec)
        if not result.converged:
            raise ToleranceNotReached(f"I0_via_swap({shown(z)}) did not converge", result)
        return result.value
