"""Tanh-sinh (double-exponential) quadrature and the family integrals.

The transformation x = tanh((pi/2) sinh t) clusters abscissae doubly
exponentially toward the endpoints without ever touching them, which is what
the k -> 1 logarithmic singularity of the K(k) kernel needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_cosh_sinh,
    mpf_div,
    mpf_exp,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from .elliptic import ellip_k
from .precision import (
    DEFAULT_PRECISION,
    DomainError,
    Precision,
    ToleranceNotReached,
    check_index,
    check_unit_interval,
    check_z,
    shown,
    to_mpf,
)

# tanh-sinh refinement levels run 0..MAX_LEVEL, the step halving per level;
# no quadrature stops, converged, before MIN_STOP_LEVEL: its error estimate
# needs two level differences, and two can agree by chance
MAX_LEVEL = 12
MIN_STOP_LEVEL = 3

# bits a batch term carries over the working precision besides the bit length
# of its power 2n+3: the power multiplies the root's relative error by 2n+3,
# and each of its ~2·log2(2n+3) truncations adds at most one more unit
_GUARD_BITS = 8


@dataclass(frozen=True)
class QuadratureResult:
    """One tanh-sinh quadrature: its value and how it was obtained.

    value           the level sum S_L at the level L it stopped on: the exact
                    sum of its terms, each within one ulp of the working
                    precision, rounded once to that precision
    error_estimate  d_L²/d_(L−1) at the level L it stopped on, d_L being the
                    difference of the level sums S_L and S_(L−1) (d_L at
                    level 1 or when d_(L−1) is 0); inf if it stopped at level 0
    levels_used     the level it stopped on; a converged result has at
                    least MIN_STOP_LEVEL (3)
    evaluations     terms summed, one per node of levels 0..levels_used
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


# node cache: (working binary precision, level) -> list of (x, weight, x²) for the
# nodes new on that level, x on (0, 1), weight that of the (-1, 1) rule and x² an
# exact (mantissa, exponent) pair of ints; _refine halves the sums, (0, 1) being half as wide.
_NODE_CACHE: dict[tuple[int, int], list[tuple[mpf, mpf, tuple[int, int]]]] = {}


def _level_nodes(level: int) -> list[tuple[mpf, mpf, tuple[int, int]]]:
    key = (mpmath.mp.prec, level)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    # the mpf formulas t = k·h, u = (pi/2)·sinh(t), delta = 2/(exp(2u) + 1) = 1 − tanh(u)
    # and weight = (pi/2)·cosh(t)/cosh(u)², each step rounded to nearest at the
    # working precision as mpf arithmetic rounds it, run on raw libmp tuples
    wp, rnd, make = mpmath.mp.prec, round_nearest, mpmath.mp.make_mpf
    h = mpf_shift(fone, -level)
    # nodes with smaller endpoint offset than this cannot be represented
    # accurately enough to evaluate a singular integrand on; the truncated
    # tail is O(sqrt(cut)) even for 1/sqrt endpoint singularities.
    cut = mpf_pow_int(from_int(10), -(3 * mpmath.mp.dps) // 4, wp, rnd)
    pi_half = mpf_shift(mpf_pi(wp, rnd), -1)
    nodes = []
    k = 1 if level > 0 else 0
    step = 2 if level > 0 else 1
    while True:
        cosh_t, sinh_t = mpf_cosh_sinh(mpf_mul_int(h, k, wp, rnd), wp, rnd)
        u = mpf_mul(pi_half, sinh_t, wp, rnd)
        delta = mpf_rdiv_int(2, mpf_add(mpf_exp(mpf_shift(u, 1), wp, rnd), fone, wp, rnd), wp, rnd)
        if mpf_lt(delta, cut):
            break
        cosh_u = mpf_cosh_sinh(u, wp, rnd)[0]
        weight = make(mpf_div(mpf_mul(pi_half, cosh_t, wp, rnd), mpf_pow_int(cosh_u, 2, wp, rnd), wp, rnd))
        half = mpf_shift(delta, -1)
        for x in (mpf_sub(fone, half, wp, rnd), half) if delta != fone else (half,):  # the midpoint once
            nodes.append((make(x), weight, (x[1] * x[1], 2 * x[2])))
        k += step
    _NODE_CACHE[key] = nodes
    return nodes


# kernel cache: (working binary precision, level) -> list of (x², K(x)·x·w)
# over the nodes of that level on (0, 1), each an exact (mantissa, exponent)
# pair of ints: x² from the node table, K(x)·x·w as its mpf at the working precision.
# Like the nodes it depends on neither n nor z, so every I_n(z) quadrature at
# one precision shares it.
_KERNEL_CACHE: dict[tuple[int, int], list[tuple[tuple[int, int], tuple[int, int]]]] = {}


def _level_kernel(level: int, prec: Precision) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    key = (mpmath.mp.prec, level)
    cached = _KERNEL_CACHE.get(key)
    if cached is None:
        wp, rnd, cached = mpmath.mp.prec, round_nearest, []
        for x, weight, xx in _level_nodes(level):
            # (K·x)·w, rounded twice as mpf products round it
            kxw = mpf_mul(mpf_mul(ellip_k(x, prec)._mpf_, x._mpf_, wp, rnd), weight._mpf_, wp, rnd)
            cached.append((xx, _pair(kxw, x)))
        _KERNEL_CACHE[key] = cached
    return cached


_NONFINITE = (finf, fninf, fnan)


def _pair(raw: tuple, x) -> tuple[int, int]:
    """A raw mpf tuple as its exact (signed mantissa, exponent) pair; DomainError if inf or nan."""
    if raw in _NONFINITE:
        raise DomainError(f"integrand not finite at {x}")
    sign, man, exp, _ = raw
    return -man if sign else man, exp


def _roots(z: tuple[int, int], squares, bits: int) -> list[tuple[int, int]]:
    """√(z+x²) for one pair z > 0 over a level's x² pairs, each as (r, e): r = ⌊√(z+x²)/2^e⌋ of exactly `bits` bits.

    z + x² is summed exactly, and a sum longer than 2·bits bits is cut there,
    which leaves the floor as it is.  So r >> k is the root taken at
    bits − k, bit for bit.
    """
    zm, ze = z
    isqrt, roots = math.isqrt, []
    for xm, xe in squares:
        if ze < xe:
            e, s = ze, zm + (xm << (xe - ze))
        else:
            e, s = xe, (zm << (ze - xe)) + xm
        shift = 2 * bits - s.bit_length()
        shift += (e - shift) & 1  # the exponent of the root's argument must be even
        r = isqrt(s << shift if shift >= 0 else s >> -shift)
        extra = r.bit_length() - bits  # 1 when s had 2·bits + 1 bits, else 0
        roots.append((r >> extra, ((e - shift) >> 1) + extra))
    return roots


def _quotients(kernels, roots, power: int, bits: int) -> list[tuple[int, int]]:
    """kernel/root^power over a level's (kernel, root) pairs, each mantissa of `bits` or bits+1 bits.

    Each root is first cut to `bits` bits (see _roots), so a term does not
    depend on which other members share the roots.  The power is binary
    powering, its product cut back to `bits` bits after each step; its
    relative error is below (power + 2·log2(power))·2^(1−bits) over the
    root's, and the quotient's truncation adds 2^(1−bits).
    """
    steps = [bit == "1" for bit in bin(power)[3:]]  # power >= 2: every step squares
    terms = []
    for (km, ke), (r, re) in zip(kernels, roots):
        drop = r.bit_length() - bits
        r >>= drop
        p, pe = r, 0  # p·2^pe = r^j, j the leading bits of power read so far
        for times_r in steps:
            p = p * p * r if times_r else p * p
            extra = p.bit_length() - bits  # > 0: p had `bits` bits before the step
            p >>= extra
            pe = 2 * pe + extra
        shift = 2 * bits - km.bit_length()  # p has `bits` bits after its last step
        terms.append(((km << shift) // p, ke - shift - pe - power * (re + drop)))
    return terms


def _refine(samples, members: int, prec: Precision) -> list[QuadratureResult]:
    """The level loop of every quadrature here: many sums over one pass of the nodes.

    samples(level, live) yields, for each member in live in that order, the
    list of its terms f(x)·weight over the nodes new on that level, each an
    exact (signed mantissa, exponent) pair of ints.  A member's sum is one
    exact integer in units of 2^floor, floor lying wp + 64 bits below the
    leading bit of its first nonzero term in node order, wp the working
    precision in bits.  Only the bits of a term below 2^floor are dropped,
    less than 2^floor per term.  Once per level the sum is rounded to
    nearest at wp; its value at level L is that sum over 2^(L+1), the
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
    sums = [0] * members
    floors = [None] * members  # None until the member's first nonzero term
    value = [mpf(0)] * members
    last_d = [None] * members  # d_(L−1), None before level 1
    estimate = [mpf("inf")] * members
    results = [None] * members
    live = list(range(members))
    evaluations = 0  # every live member sees every node
    for level in range(MAX_LEVEL + 1):
        if not live:
            break
        for i, terms in zip(live, samples(level, live)):
            floor = floors[i]
            if floor is None:
                man, exp = next((term for term in terms if term[0]), (0, 0))
                if not man:
                    continue
                floor = floors[i] = exp + man.bit_length() - 1 - (wp + 64)
            sums[i] += sum([man << (exp - floor) if exp >= floor else man >> (floor - exp) for man, exp in terms])
        evaluations += len(terms)
        for i in live:
            exp = (floors[i] or 0) - (level + 1)
            current = mpmath.mp.make_mpf(from_man_exp(sums[i], exp, wp, round_nearest))
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
            terms = []
            for x, weight, _ in _level_nodes(level):
                term = getattr(f(x) * weight, "_mpf_", None)
                if term is None:
                    raise DomainError(f"integrand not real at {x}")
                terms.append(_pair(term, x))
            yield terms

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
        bits = {power: wp + power.bit_length() + _GUARD_BITS for _, power in params}
        widest = max(bits.values(), default=0)

        # kernel/(z+x²)^((2n+3)/2) on ints, a level per member: z+x² exact, its
        # root by isqrt, the power and the quotient truncated to wp + _GUARD_BITS
        # bits over the power's bit length; the roots depend on z alone, so the
        # members at one z share a level's roots, taken at the widest member's bits
        def samples(level, live):
            squares, kernels = zip(*_level_kernel(level, prec))
            roots = {}
            for i in live:
                z, power = params[i]
                if z not in roots:
                    roots[z] = _roots(z[1:3], squares, widest)  # z > 0: its raw (man, exp)
                yield _quotients(kernels, roots[z], power, bits[power])

        distinct = dict(zip(params, _refine(samples, len(params), prec)))
    results = [distinct[key] for key in keys]
    for spec, result in zip(specs, results):
        if not result.converged:
            raise ToleranceNotReached(
                f"I_{spec.n}({shown(spec.z)}) did not reach abs_tol={prec.abs_tol}", result
            )
    return results


def inner_integral_closed(z, t) -> mpf:
    """1/(√z·√(1+z)·(√(1+z) + √z·√(1−t²))) for z > 0, 0 <= t < 1.

    This is 1/(√z·(1+z·t²)) − √(1−t²)/(√(1+z)·(1+z·t²)) without its
    subtraction, which cancels at small t and large z.
    """
    return _inner_closed_rows([z], [t])[0][0]


def _inner_closed_rows(z_grid, t_grid) -> list[list[mpf]]:
    """inner_integral_closed at every (z, t), in rows over z_grid of values over t_grid.

    √z and √(1+z) are taken once per z and √((1−t)(1+t)) once per t.
    """
    zs = [check_z(z) for z in z_grid]
    roots_t = [mpmath.sqrt((1 - t) * (1 + t)) for t in (check_unit_interval(t, "t") for t in t_grid)]
    rows = []
    for z in zs:
        root_z, root_1z = mpmath.sqrt(z), mpmath.sqrt(1 + z)
        rows.append([1 / (root_z * root_1z * (root_1z + root_z * root_t)) for root_t in roots_t])
    return rows


def inner_integral_numeric_grid(z_grid, t_grid, prec: Precision = DEFAULT_PRECISION) -> list[list[mpf]]:
    """Quadrature of ∫₀¹ k dk / ((z+k²)^(3/2)·√(1−k²t²)) at every z > 0, 0 <= t < 1.

    Returns rows over z_grid of values over t_grid.  The integrand factors
    into x·w/(z+x²)^(3/2), formed on ints as a batch term of power 3 over the
    exact x·w, within one ulp, and 1/√(1−x²t²) = ⌊√(2^k/s)⌋·2^(−(k+e)/2)
    over the exact s·2^e = 1−x²t², of bits+1 bits or more and so within
    2^(−bits) relative, bits = wp + 10 being the z-part's width over the
    working precision wp; every pair keeps its own sum and stop rule.
    Nothing is kept between calls.
    """
    z_grid, t_grid = list(z_grid), list(t_grid)
    with prec.workdps():
        zs = [check_z(z)._mpf_[1:3] for z in z_grid]  # z > 0: its raw (man, exp)
        # t² as an exact (man, exp) pair; t = 0 is (0, 0)
        ts = [(t.man * t.man, 2 * t.exp) for t in (check_unit_interval(t, "t") for t in t_grid)]
        width = len(ts)
        bits = mpmath.mp.prec + (3).bit_length() + _GUARD_BITS  # the batch's width at power 3
        isqrt = math.isqrt

        def t_part(squares, tm, te) -> list[tuple[int, int]]:
            parts = []
            for xm, xe in squares:
                e = xe + te  # < 0: x < 1, and t < 1 or t = 0
                s = (1 << -e) - xm * tm
                k = 2 * bits + s.bit_length()
                k += (k + e) & 1
                parts.append((isqrt((1 << k) // s), -((k + e) >> 1)))
            return parts

        def samples(level, live):
            nodes = _level_nodes(level)
            squares = [xx for _, _, xx in nodes]
            xws = [(x.man * weight.man, x.exp + weight.exp) for x, weight, _ in nodes]
            z_parts, t_parts = {}, {}
            for i in live:
                iz, it = divmod(i, width)
                if iz not in z_parts:
                    z_parts[iz] = _quotients(xws, _roots(zs[iz], squares, bits), 3, bits)
                if it not in t_parts:
                    t_parts[it] = t_part(squares, *ts[it])
                # each pair's term is the exact product
                yield [(zm * tm, ze + te) for (zm, ze), (tm, te) in zip(z_parts[iz], t_parts[it])]

        results = _refine(samples, len(zs) * width, prec)
    for i, result in enumerate(results):
        if not result.converged:
            iz, it = divmod(i, width)
            raise ToleranceNotReached(
                f"inner integral at (z={shown(z_grid[iz])}, t={shown(t_grid[it])}) "
                f"did not reach abs_tol={prec.abs_tol}",
                result,
            )
    return [[r.value for r in results[iz * width : (iz + 1) * width]] for iz in range(len(zs))]


def I0_via_swap(z, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """I_0(z) as the order-swapped iterated integral.

    Outer t-integral of the closed inner form against the 1/√(1−t²) weight;
    independent of the direct (n=0, z) quadrature route.  That integrand is
    1/(r·c·(c+r)), r = √(z·(1−t²)) and c = √(1+z), formed on ints: r over
    the exact z·(1−x²) and c once, each by _roots, c+r and the product
    exact, then one truncated quotient, within 2^(3−bits) relative, bits
    = wp + 8 over the working precision wp.
    """
    with prec.workdps():
        zm, ze = check_z(z)._mpf_[1:3]  # z > 0: its raw (man, exp)
        bits = mpmath.mp.prec + _GUARD_BITS
        [(c, ce)] = _roots((zm, ze), [(1, 0)], bits)

        def samples(level, live):
            nodes = _level_nodes(level)
            # z·(1−x²), exact: x < 1, so x²'s exponent is negative; its root is √(0 + z·(1−x²))
            products = [(zm * ((1 << -xe) - xm), ze + xe) for _, _, (xm, xe) in nodes]
            terms = []
            for (_, weight, _), (r, re) in zip(nodes, _roots((0, 0), products, bits)):
                s, se = (c + (r << (re - ce)), ce) if re >= ce else ((c << (ce - re)) + r, re)
                p = r * c * s
                shift = bits + 1 + p.bit_length() - weight.man.bit_length()
                terms.append(((weight.man << shift) // p, weight.exp - shift - re - ce - se))
            yield terms

        result = _refine(samples, 1, prec)[0]
    if not result.converged:
        raise ToleranceNotReached(f"I0_via_swap({shown(z)}) did not reach abs_tol={prec.abs_tol}", result)
    return result.value
