import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from ellipkint import (
    DomainError,
    I0_via_swap,
    In_exact_real,
    IntegralSpec,
    Precision,
    ToleranceNotReached,
    ellip_k,
    inner_integral_closed,
    inner_integral_numeric_grid,
    integral_In_numeric,
    integral_In_numeric_many,
)
from ellipkint import quadrature
from ellipkint.precision import to_mpf
from ellipkint.quadrature import MIN_STOP_LEVEL, tanh_sinh_integrate
from ellipkint.verify import DEFAULT_Z_GRID, INNER_T_GRID, INNER_Z_GRID

PREC = Precision()


def test_constant_integrand():
    r = tanh_sinh_integrate(lambda x: mpf(1), PREC)
    assert abs(r.value - 1) < 1e-12
    assert r.error_estimate <= 1e-12
    assert r.converged


def test_arcsine_kernel():
    r = tanh_sinh_integrate(lambda t: 1 / mpmath.sqrt((1 - t) * (1 + t)), PREC)
    assert abs(r.value - mpmath.pi / 2) < 1e-12


def test_endpoint_log_singularity():
    r = tanh_sinh_integrate(lambda x: mpmath.log(1 / x), PREC)
    assert abs(r.value - 1) < 1e-12


def test_abscissae_never_touch_endpoints():
    seen = []

    def f(x):
        seen.append(x)
        return mpf(1)

    tanh_sinh_integrate(f, PREC)
    assert seen
    assert all(0 < x < 1 for x in seen)


def test_level_nodes_lie_inside_and_carry_exact_squares():
    # every quadrature reads these nodes; each x² is the exact square of x
    with PREC.workdps():
        for level in range(7):
            nodes = quadrature._level_nodes(level)
            assert nodes
            for x, _, xx in nodes:
                assert 0 < x < 1
                assert xx == (x.man * x.man, 2 * x.exp)


def _reference_level_nodes(level):
    """The node table by the mpf-object formulas, at the current precision."""
    h = mpf(1) / 2**level
    cut = mpf(10) ** (-(3 * mpmath.mp.dps) // 4)
    pi_half = mpmath.pi / 2
    nodes = []
    k = 1 if level > 0 else 0
    step = 2 if level > 0 else 1
    while True:
        t = k * h
        u = pi_half * mpmath.sinh(t)
        delta = 2 / (mpmath.exp(2 * u) + 1)
        if delta < cut:
            return nodes
        weight = pi_half * mpmath.cosh(t) / mpmath.cosh(u) ** 2
        for x in (1 - delta / 2, delta / 2) if delta != 1 else (delta / 2,):
            nodes.append((x._mpf_, weight._mpf_, (x.man * x.man, 2 * x.exp)))
        k += step


def test_level_nodes_equal_the_mpf_formulas_bit_for_bit(monkeypatch):
    # the table runs these formulas on raw libmp tuples, rounding each step as mpf does
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    count = 0
    for dps in range(15, 121):
        with mpmath.workdps(dps):
            for level in range(5):
                nodes = [(x._mpf_, weight._mpf_, xx) for x, weight, xx in quadrature._level_nodes(level)]
                assert nodes == _reference_level_nodes(level), (dps, level)
                count += len(nodes)
    assert count == 14232


def test_nonfinite_integrand_rejected():
    with pytest.raises(DomainError):
        tanh_sinh_integrate(lambda x: mpmath.inf, PREC)


def test_unreachable_tolerance_flagged():
    tight = Precision(abs_tol=1e-60, dps=20)
    r = tanh_sinh_integrate(lambda t: 1 / mpmath.sqrt((1 - t) * (1 + t)), tight)
    assert not r.converged


def test_spec_validation():
    with pytest.raises(DomainError):
        IntegralSpec(-1, 1)
    # True is an Integral equal to 1, but as an index it is a slip
    with pytest.raises(DomainError, match="family index n"):
        IntegralSpec(True, 1)
    with pytest.raises(DomainError):
        IntegralSpec(0, 0)
    with pytest.raises(DomainError):
        IntegralSpec(0, Fraction(-1, 3))


@pytest.mark.parametrize(
    "n,z,expected",
    [
        (0, 1, lambda: mpmath.pi / (4 * mpmath.sqrt(2))),
        (0, 3, lambda: mpmath.pi / (12 * mpmath.sqrt(3))),
        (
            2,
            1,
            lambda: 1 / (6 * mpmath.sqrt(2)) + 19 * mpmath.pi / (240 * mpmath.sqrt(2)),
        ),
    ],
)
def test_family_integral_published_values(n, z, expected):
    r = integral_In_numeric(IntegralSpec(n, z), PREC)
    with mpmath.workdps(PREC.working_dps):
        assert abs(r.value - expected()) < 1e-12


def test_positivity_and_lower_bound():
    with mpmath.workdps(PREC.working_dps):
        for n in (0, 1, 4):
            for z in (Fraction(1, 10), Fraction(1), Fraction(7)):
                value = integral_In_numeric(IntegralSpec(n, z), PREC).value
                zf = mpf(z.numerator) / z.denominator
                bound = (
                    mpmath.pi
                    / 2
                    * (zf ** (-n - mpf("0.5")) - (zf + 1) ** (-n - mpf("0.5")))
                    / (2 * n + 1)
                )
                assert value > 0
                assert value >= bound - mpf("1e-20")


def test_monotonic_in_z():
    values = [
        integral_In_numeric(IntegralSpec(2, z), PREC).value
        for z in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
    ]
    for v1, v2 in zip(values, values[1:]):
        assert v1 > v2


def test_monotonic_in_n_for_z_at_least_one():
    for z in (1, 3):
        values = [integral_In_numeric(IntegralSpec(n, z), PREC).value for n in range(4)]
        for v1, v2 in zip(values, values[1:]):
            assert v2 <= v1


def test_inner_integral_t_zero_elementary():
    tight = Precision(abs_tol=1e-22)
    with mpmath.workdps(tight.working_dps):
        for z in (Fraction(1, 2), Fraction(2), Fraction(9)):
            got = inner_integral_numeric_grid([z], [0], tight)[0][0]
            zf = mpf(z.numerator) / z.denominator
            assert abs(got - (1 / mpmath.sqrt(zf) - 1 / mpmath.sqrt(1 + zf))) < 1e-20


def test_inner_closed_direct_substitutions():
    with mpmath.workdps(PREC.working_dps):
        assert abs(inner_integral_closed(1, 0) - (1 - 1 / mpmath.sqrt(2))) < mpf("1e-38")
        expected = mpf(1) / 4 - mpmath.sqrt(3) / (4 * mpmath.sqrt(5))
        assert abs(inner_integral_closed(4, 0.5) - expected) < mpf("1e-38")


@pytest.mark.parametrize("dps", [20, 50, 100])
def test_inner_closed_within_a_few_ulps_of_a_400_digit_reference(dps):
    """inner_integral_closed is right to 8 ulps relative, also at small t and large z.

    The reference is the subtractive form 1/(√z·(1+z·t²)) − √(1−t²)/(√(1+z)·(1+z·t²))
    at 400 digits, over z and t as the closed form reads them.  That form
    at the working precision cancels: at 50 digits it read (10^30, 0) right to 4e-21.
    """
    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        for z in (Fraction(1, 10**30), Fraction(1, 10), 1, 10**8, 10**20, 10**30):
            for t in (0, Fraction(1, 10**20), Fraction(1, 2), Fraction(19, 20)):
                got, zf, tf = inner_integral_closed(z, t), to_mpf(z), to_mpf(t)
                with mpmath.workdps(400):
                    denom = 1 + zf * tf * tf
                    want = 1 / (mpmath.sqrt(zf) * denom) - mpmath.sqrt(1 - tf * tf) / (mpmath.sqrt(1 + zf) * denom)
                    assert abs(got - want) <= mpmath.ldexp(want, 3 - prec), (z, t)


@pytest.mark.parametrize("z,t", [(1, 0.5), (3, 0.9), (Fraction(1, 10), 0.05)])
def test_inner_numeric_matches_closed(z, t):
    got = inner_integral_numeric_grid([z], [t], PREC)[0][0]
    assert abs(got - inner_integral_closed(z, t)) < 1e-10


@pytest.mark.parametrize(
    "z,expected",
    [
        (1, lambda: mpmath.pi / (4 * mpmath.sqrt(2))),
        (Fraction(1, 3), lambda: mpmath.pi / 2),
        (3, lambda: mpmath.pi / (12 * mpmath.sqrt(3))),
    ],
)
def test_swap_route_published_values(z, expected):
    with mpmath.workdps(PREC.working_dps):
        assert abs(I0_via_swap(z, PREC) - expected()) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the node table's cut (1e-38 at 50 working digits) drops a tail of the "
    "1/sqrt(1-t^2) endpoint singularity of order sqrt(cut), about 1e-19, that no level "
    "sum sees; a bound for the order swap must add that tail term (ROADMAP item 12)",
)
def test_swap_route_within_a_tight_abs_tol():
    prec, reference = Precision(abs_tol=1e-20), Precision(dps=80)
    for z in (Fraction(1, 10), Fraction(1, 3), Fraction(1)):
        value = I0_via_swap(z, prec)
        with reference.workdps():
            assert abs(value - In_exact_real(0, z, reference)) <= prec.abs_tol, z


def test_domain_errors():
    with pytest.raises(DomainError):
        inner_integral_closed(-1, 0.5)
    with pytest.raises(DomainError):
        inner_integral_closed(1, 1)
    with pytest.raises(DomainError):
        inner_integral_numeric_grid([1], [-0.5], PREC)
    with pytest.raises(DomainError):
        I0_via_swap(0, PREC)


@pytest.mark.parametrize("tol", [0, -1e-12, math.inf, -math.inf, math.nan, True])
def test_precision_rejects_nonpositive_or_nonfinite_tolerance(tol):
    with pytest.raises(DomainError):
        Precision(abs_tol=tol)


@pytest.mark.parametrize("dps", [math.nan, 40.0, "40", 14, True])
def test_precision_rejects_a_non_integer_or_small_dps(dps):
    # a bad value must fail here, typed, not later as a bare ValueError or
    # TypeError inside the level loop
    with pytest.raises(DomainError, match="dps must be an integer"):
        Precision(dps=dps)


def test_kernel_table_shared_across_specs(monkeypatch):
    calls = []

    def counting_ellip_k(k, prec):
        calls.append(k)
        return ellip_k(k, prec)

    monkeypatch.setattr(quadrature, "ellip_k", counting_ellip_k)
    monkeypatch.setattr(quadrature, "_KERNEL_CACHE", {})
    prec = Precision(dps=40)
    deep = integral_In_numeric(IntegralSpec(16, Fraction(1, 10)), prec)
    built = len(calls)
    assert built > 0
    other = integral_In_numeric(IntegralSpec(3, Fraction(7, 2)), Precision(abs_tol=1e-20))
    assert other.levels_used <= deep.levels_used
    assert len(calls) == built  # same dps: the table is reused, K is not recomputed

    fine = Precision(abs_tol=1e-30, dps=60)
    result = integral_In_numeric(IntegralSpec(2, 1), fine)
    assert len(calls) > built  # a new working precision builds its own table
    with mpmath.workdps(fine.working_dps):
        assert abs(result.value - In_exact_real(2, 1, fine)) < 1e-30


def test_node_cut_reads_the_working_precision():
    # the node tables take their cut from mp.dps and their key from mp.prec;
    # inside workdps() both come from the same working_dps
    for dps in range(15, 101):
        prec = Precision(dps=dps)
        with prec.workdps():
            assert mpmath.mp.dps == prec.working_dps


@pytest.mark.parametrize("dps,tol", [(40, 1e-12), (60, 1e-30)])
def test_kernel_table_matches_generic_route(dps, tol):
    """The kernel-table sum against tanh_sinh_integrate over the integrand."""
    prec = Precision(abs_tol=tol, dps=dps)
    for n in (0, 8, 16):
        for z in (Fraction(1, 10), Fraction(1), Fraction(10)):
            fast = integral_In_numeric(IntegralSpec(n, z), prec)
            with prec.workdps():
                zf = mpf(z.numerator) / z.denominator
                exponent = n + mpf(3) / 2

                def integrand(k):
                    return ellip_k(k, prec) * k / (zf + k * k) ** exponent

                reference = tanh_sinh_integrate(integrand, prec)
                rel = abs(fast.value - reference.value) / abs(reference.value)
                assert rel <= mpf("1e-45")
            assert fast.levels_used == reference.levels_used
            assert fast.evaluations == reference.evaluations


@pytest.mark.parametrize("dps,tol", [(40, 1e-12), (60, 1e-30)])
def test_batch_matches_one_spec_calls(dps, tol):
    """Every member of a batch stops where its own call stops, with the same sum.

    Members at one z share √(z+x²) at each node; a repeated spec shares its member.
    """
    prec = Precision(abs_tol=tol, dps=dps)
    specs = [IntegralSpec(n, 1) for n in (0, 2, 8, 16, 2)] + [
        IntegralSpec(n, z)
        for n, z in [
            (16, Fraction(1, 10)),
            (3, Fraction(7, 2)),
            (8, Fraction(7, 2)),
            (8, 10),
            (1, Fraction(1, 3)),
            (40, 10**8),
        ]
    ]
    batch = integral_In_numeric_many(specs, prec)
    single = [integral_In_numeric(spec, prec) for spec in specs]
    assert len({r.levels_used for r in single}) > 1  # members leave at different levels
    for got, want in zip(batch, single):
        assert got.value._mpf_ == want.value._mpf_
        assert got.error_estimate == want.error_estimate
        assert got.levels_used == want.levels_used
        assert got.evaluations == want.evaluations
        assert got.converged and want.converged


def test_batch_runs_each_distinct_integral_once(monkeypatch):
    """Specs with one n and one z at the working precision share a member of _refine."""
    with PREC.workdps():
        third = mpf(1) / 3  # the working-precision 1/3, as Fraction(1, 3) reads there
    specs = [
        IntegralSpec(2, Fraction(1, 3)),
        IntegralSpec(0, 1),
        IntegralSpec(2, Fraction(1, 3)),
        IntegralSpec(0, Fraction(1)),
        IntegralSpec(5, Fraction(7, 2)),
        IntegralSpec(2, third),
    ]
    real = quadrature._refine
    members = []

    def counting(samples, count, prec):
        members.append(count)
        return real(samples, count, prec)

    monkeypatch.setattr(quadrature, "_refine", counting)
    batch = integral_In_numeric_many(specs, PREC)
    assert members == [3]
    assert len(batch) == len(specs)
    for spec, got in zip(specs, batch):
        want = integral_In_numeric(spec, PREC)
        assert got.value._mpf_ == want.value._mpf_
        assert got.error_estimate == want.error_estimate
        assert got.levels_used == want.levels_used
        assert got.evaluations == want.evaluations


def test_batch_names_the_member_that_did_not_converge(monkeypatch):
    # with abs_tol=1e-20, I_0(3) and I_2(1) stop at level 4, I_16(1/10) needs 6
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 5)
    prec = Precision(abs_tol=1e-20)
    specs = [IntegralSpec(0, 3), IntegralSpec(16, Fraction(1, 10)), IntegralSpec(2, 1)]
    with pytest.raises(ToleranceNotReached, match=r"I_16\(1/10\)") as caught:
        integral_In_numeric_many(specs, prec)
    assert not caught.value.result.converged
    assert caught.value.result.levels_used == 5


@pytest.mark.parametrize(
    "entry, member",
    [
        (lambda prec: integral_In_numeric_many([IntegralSpec(0, Fraction(1, 10))], prec), r"I_0\(1/10\)"),
        (
            lambda prec: inner_integral_numeric_grid([Fraction(1, 10)], [Fraction(1, 20)], prec),
            r"inner integral at \(z=1/10, t=1/20\)",
        ),
        (lambda prec: I0_via_swap(Fraction(1, 10), prec), r"I0_via_swap\(1/10\)"),
    ],
    ids=["batch", "inner grid", "order swap"],
)
def test_every_entry_point_names_the_tolerance_it_missed(monkeypatch, entry, member):
    # three levels cannot reach 1e-30: each failure names its member and abs_tol
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 3)
    with pytest.raises(ToleranceNotReached, match=member + " did not reach abs_tol=1e-30$") as caught:
        entry(Precision(abs_tol=1e-30))
    assert not caught.value.result.converged


def test_tolerance_below_one_ulp_stops_at_once():
    # I_3(1e-12) is about 5e41, so one ulp of the sum at 50 digits is far above
    # abs_tol=1e-12: the member stops unconverged instead of running every level
    prec = Precision(abs_tol=1e-12)
    with pytest.raises(ToleranceNotReached) as caught:
        integral_In_numeric(IntegralSpec(3, Fraction(1, 10**12)), prec)
    result = caught.value.result
    assert not result.converged and result.levels_used < quadrature.MAX_LEVEL
    with prec.workdps():
        assert prec.abs_tol < abs(result.value) * mpf(2) ** -mpmath.mp.prec
    # the other members of a batch keep their own stop rule
    with pytest.raises(ToleranceNotReached, match=r"I_3\(1/1000000000000\)"):
        integral_In_numeric_many([IntegralSpec(0, 1), IntegralSpec(3, Fraction(1, 10**12))], prec)


def test_batch_of_no_specs_is_empty():
    assert integral_In_numeric_many([], PREC) == []


@pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan], ids=["inf", "-inf", "nan"])
def test_a_nonfinite_term_is_rejected(monkeypatch, bad):
    # the kernel table checks K once, when it is built; tanh_sinh_integrate
    # checks each term as it turns it into an integer pair
    def poisoned_ellip_k(k, prec):
        return bad if k < mpf("0.25") else ellip_k(k, prec)

    monkeypatch.setattr(quadrature, "ellip_k", poisoned_ellip_k)
    monkeypatch.setattr(quadrature, "_KERNEL_CACHE", {})
    with pytest.raises(DomainError, match="not finite"):
        integral_In_numeric_many([IntegralSpec(0, 1), IntegralSpec(2, 3)], PREC)
    assert not quadrature._KERNEL_CACHE  # no level holding a bad K is kept
    with pytest.raises(DomainError, match="not finite"):
        tanh_sinh_integrate(lambda x: bad if x < mpf("0.25") else x, PREC)


@pytest.mark.parametrize("f", [lambda x: mpmath.mpc(x, 1), lambda x: 1j * x])
def test_complex_integrand_rejected(f):
    with pytest.raises(DomainError, match="not real"):
        tanh_sinh_integrate(f, PREC)


@pytest.mark.parametrize("dps", [40, 60, 100])
def test_batch_terms_within_one_ulp_of_a_reference_at_twice_the_precision(monkeypatch, dps):
    """Each batch term kernel/(z+x²)^(n+3/2) is right to 2^-wp relative, wp the working precision.

    The reference takes the table's x² and kernel as exact, as the terms do,
    and z as the batch reads it at the working precision.
    """
    prec = Precision(dps=dps)
    specs = [
        IntegralSpec(n, z)
        for n in (0, 1, 2, 8, 16, 40, 500)
        for z in (Fraction(1, 10**30), Fraction(1, 10), 1, Fraction(67, 10), 10**8, 10**30)
    ]
    checked = []

    def compare_terms(samples, members, p):
        assert members == len(specs)
        wp = mpmath.mp.prec
        params = [(to_mpf(spec.z), spec.n + mpf(3) / 2) for spec in specs]
        live = list(range(members))
        for level in range(4):
            table = quadrature._level_kernel(level, p)
            for terms, (z, exponent) in zip(samples(level, live), params):
                assert len(terms) == len(table)
                with mpmath.workprec(2 * wp):
                    for (man, exp), ((xm, xe), (km, ke)) in zip(terms, table):
                        xx, kernel = mpmath.ldexp(xm, xe), mpmath.ldexp(km, ke)
                        want = kernel / (z + xx) ** exponent
                        assert abs(mpmath.ldexp(man, exp) - want) <= mpmath.ldexp(want, -wp)
                        checked.append(man)
        return [quadrature.QuadratureResult(mpf(0), mpf(0), 0, 0)] * members

    monkeypatch.setattr(quadrature, "_refine", compare_terms)
    integral_In_numeric_many(specs, prec)
    assert len(checked) > 60 * len(specs)


def _synthetic_terms(rng, wp, levels=5, nodes=12):
    """Signed (mantissa, exponent) terms for five members, per level, per node.

    0: random signs and lengths around 2^-900
    1: pairs +b, −b + δ, b near 2^-990 and δ below 2^-1170: heavy cancellation
    2: a first term near 2^-1300, then terms 400 bits above it
    3: a first term near 2^-900, then terms 400 bits below its floor
    4: zeros on level 0, then terms like member 0's
    """

    def term(lead, bits):  # a `bits`-bit mantissa, its leading bit near 2^lead
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        return rng.choice((1, -1)) * man, lead - bits + 1 + rng.randrange(-20, 20)

    table = []
    for level in range(levels):
        rows = []
        for node in range(nodes):
            first = (level, node) == (0, 0)
            if node % 2 == 0:
                big = rng.getrandbits(wp + 40) | 1 << (wp + 39)
            rows.append(
                [
                    term(-900, rng.randrange(1, wp + 30)),
                    (rng.getrandbits(30) - big, -1029 - wp) if node % 2 else (big, -1029 - wp),
                    term(-1300 if first else -900, wp),
                    term(-900 if first else -1300, wp),
                    (0, 0) if level == 0 else term(-900, wp),
                ]
            )
        table.append(rows)
    return table


def _fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def test_level_sums_are_the_exact_sum_rounded_once(monkeypatch):
    """A level value is the exact sum of the terms so far over 2^(L+1), rounded once at wp.

    Bits of a term below the floor, wp + 64 bits under the leading bit of the
    member's first nonzero term, are dropped: each such term may move the
    sum by less than 2^floor.  abs_tol=1e-300 lies above one ulp of a sum
    near 2^-900 and below its level differences, so every member but the
    cancelling one runs to MAX_LEVEL.
    """
    prec = Precision(abs_tol=1e-300)
    for max_level in range(5):
        monkeypatch.setattr(quadrature, "MAX_LEVEL", max_level)
        with prec.workdps():
            wp = mpmath.mp.prec
            table = _synthetic_terms(random.Random(f"sums-{max_level}"), wp)

            def samples(level, live):
                for i in live:
                    yield [row[i] for row in table[level]]

            results = quadrature._refine(samples, 5, prec)
            for i, result in enumerate(results):
                terms = [row[i] for rows in table[: result.levels_used + 1] for row in rows]
                exact = sum(Fraction(man) * Fraction(2) ** exp for man, exp in terms)
                scale = Fraction(2) ** (result.levels_used + 1)
                if not any(m for m, _ in terms):
                    assert result.value == 0
                    continue
                man, exp = next((m, e) for m, e in terms if m)
                floor = exp + man.bit_length() - 1 - (wp + 64)
                below = sum(1 for m, e in terms if m and e < floor)
                want = to_mpf(exact / scale)
                if below == 0:
                    assert result.value == want, (max_level, i)
                else:
                    bound = abs(_fraction(want)) * Fraction(1, 2**wp) + below * Fraction(2) ** floor / scale
                    assert abs(_fraction(result.value) - exact / scale) <= bound, (max_level, i)
            assert [r.levels_used for i, r in enumerate(results) if i != 1] == [max_level] * 4
    # member 1 cancels: its sum is ~200 bits below its largest term
    assert abs(results[1].value) < mpmath.ldexp(1, -1100)


def test_inner_grid_matches_pointwise_and_unfactored_integrand():
    z_grid = [Fraction(1, 10), Fraction(1), Fraction(67, 10)]
    t_grid = [Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)]
    rows = inner_integral_numeric_grid(z_grid, t_grid, PREC)
    assert [len(row) for row in rows] == [3, 3, 3]
    with PREC.workdps():
        for z, row in zip(z_grid, rows):
            for t, got in zip(t_grid, row):
                assert got == inner_integral_numeric_grid([z], [t], PREC)[0][0]
                zf, tf = mpf(z.numerator) / z.denominator, mpf(t.numerator) / t.denominator

                def integrand(k):
                    return k / ((zf + k * k) ** mpf(1.5) * mpmath.sqrt(1 - (k * tf) ** 2))

                reference = tanh_sinh_integrate(integrand, PREC).value
                assert abs(got - reference) <= mpf("1e-45")


@pytest.mark.parametrize("dps", [40, 60, 100])
def test_inner_grid_z_parts_within_one_ulp_of_a_reference_at_twice_the_precision(monkeypatch, dps):
    """Each z-part x·w/(z+x²)^(3/2) of the inner grid is right to 2^-wp relative.

    At t = 0 the t-part is exactly 1, so each term is its z-part.  The
    reference takes x·w and x² as exact, as the grid does, and z as the grid
    reads it at the working precision.
    """
    z_grid = [Fraction(1, 10**30), Fraction(1, 10), 1, Fraction(67, 10), 10**8]
    checked = []

    def compare_terms(samples, members, p):
        assert members == len(z_grid)
        wp = mpmath.mp.prec
        zs = [to_mpf(z) for z in z_grid]
        live = list(range(members))
        for level in range(4):
            nodes = quadrature._level_nodes(level)
            for terms, z in zip(samples(level, live), zs):
                assert len(terms) == len(nodes)
                with mpmath.workprec(2 * wp):
                    for (man, exp), (x, weight, _) in zip(terms, nodes):
                        xw, xx = x * weight, x * x  # exact: 2·wp bits hold each product
                        want = xw / (z + xx) ** mpf(1.5)
                        assert abs(mpmath.ldexp(man, exp) - want) <= mpmath.ldexp(want, -wp)
                        checked.append(man)
        return [quadrature.QuadratureResult(mpf(0), mpf(0), 0, 0)] * members

    monkeypatch.setattr(quadrature, "_refine", compare_terms)
    inner_integral_numeric_grid(z_grid, [0], Precision(dps=dps))
    assert len(checked) > 60 * len(z_grid)


@pytest.mark.parametrize("dps", [40, 60, 100])
def test_inner_grid_t_parts_within_one_ulp_of_a_reference_at_twice_the_precision(monkeypatch, dps):
    """Each t-part 1/√(1−x²t²) of the inner grid is right to 2^-bits relative, bits = wp + 10.

    The first t is 0, whose t-part is exactly 1, so a term over the term at
    t = 0 is its t-part.  The reference takes x² as exact, as the grid does,
    and t as the grid reads it at the working precision.
    """
    t_grid = [0, Fraction(1, 20), Fraction(19, 20), 1 - Fraction(1, 2**60)]
    checked = []

    def compare_terms(samples, members, p):
        assert members == len(t_grid)
        wp = mpmath.mp.prec
        ts = [to_mpf(t) for t in t_grid]
        live = list(range(members))
        for level in range(4):
            nodes = quadrature._level_nodes(level)
            (base, *rows) = samples(level, live)
            for terms, t in zip(rows, ts[1:]):
                assert len(terms) == len(nodes)
                with mpmath.workprec(2 * wp):
                    for (man, exp), (bm, be), (_, _, (xm, xe)) in zip(terms, base, nodes):
                        got = mpmath.ldexp(mpf(man) / bm, exp - be)
                        want = 1 / mpmath.sqrt(1 - mpmath.ldexp(xm, xe) * t * t)
                        assert abs(got - want) <= mpmath.ldexp(want, -(wp + 10))
                        checked.append(man)
        return [quadrature.QuadratureResult(mpf(0), mpf(0), 0, 0)] * members

    monkeypatch.setattr(quadrature, "_refine", compare_terms)
    inner_integral_numeric_grid([Fraction(67, 10)], t_grid, Precision(dps=dps))
    assert len(checked) > 60 * (len(t_grid) - 1)


@pytest.mark.parametrize("dps", [40, 60, 100])
def test_swap_terms_within_one_ulp_of_a_reference_at_twice_the_precision(monkeypatch, dps):
    """Each term w/(r·c·(c+r)) of I0_via_swap is right to 2^(3−bits) relative, bits = wp + 8.

    The reference is the subtractive integrand [1/(√z·(1+z·x²)) − √(1−x²)/(√(1+z)·(1+z·x²))]/√(1−x²)
    times w at twice the precision, which leaves it above 2·wp − 101 bits at z = 10^30.
    It takes x² and w as exact, as the terms do, and z as I0_via_swap reads it.
    """
    z_grid = [Fraction(1, 10**30), Fraction(1, 10**8), Fraction(1, 10), 1, Fraction(67, 10), 10**8, 10**20, 10**30]
    checked = []

    def compare_terms_at(z):
        def compare_terms(samples, members, p):
            assert members == 1
            wp = mpmath.mp.prec
            zf = to_mpf(z)
            for level in range(4):
                nodes = quadrature._level_nodes(level)
                (terms,) = samples(level, [0])
                assert len(terms) == len(nodes)
                with mpmath.workprec(2 * wp):
                    for (man, exp), (_, weight, (xm, xe)) in zip(terms, nodes):
                        xx = mpmath.ldexp(xm, xe)
                        root_t, denom = mpmath.sqrt(1 - xx), 1 + zf * xx
                        inner = 1 / (mpmath.sqrt(zf) * denom) - root_t / (mpmath.sqrt(1 + zf) * denom)
                        want = weight * inner / root_t
                        assert abs(mpmath.ldexp(man, exp) - want) <= mpmath.ldexp(want, 3 - (wp + 8)), (z, level)
                        checked.append(man)
            return [quadrature.QuadratureResult(mpf(0), mpf(0), 0, 0)]

        return compare_terms

    for z in z_grid:
        monkeypatch.setattr(quadrature, "_refine", compare_terms_at(z))
        I0_via_swap(z, Precision(dps=dps))
    assert len(checked) > 60 * len(z_grid)


@pytest.mark.parametrize(
    "z,t",
    [(1, -0.5), (1, 1), (1, 1.5), (0, 0.5), (-1, 0.5), (1, "0.5"), (1, None), (1, 0.5j)],
)
def test_inner_grid_rejects_points_outside_the_domain(z, t):
    with pytest.raises(DomainError):
        inner_integral_numeric_grid([Fraction(1, 2), z], [Fraction(1, 4), t], PREC)


# -- the stop rule: e_L = d_L²/d_(L−1) <= abs_tol, never before MIN_STOP_LEVEL --

IDENTITY_GRID = [
    IntegralSpec(n, z)
    for n in range(9)
    for z in (Fraction(1, 10), Fraction(1, 3), 1, 3, 10)
]
FAR_FIELD_GRID = [IntegralSpec(n, z) for n in (0, 8, 20, 40) for z in (10, 10**4, 10**6, 10**8)]
# the specs that stopped at level 1 under the older rule |S_L − S_(L−1)| <= abs_tol,
# wrong by 1e-3 to 2e-6 relative while reporting convergence
FAR_FIELD_SPECS = [(12, 10), (16, 10), (8, 10**6), (20, 10**4), (0, 10**8), (40, 10**8)]


def test_every_converged_result_stopped_at_level_three_or_later():
    results = integral_In_numeric_many(IDENTITY_GRID + FAR_FIELD_GRID, PREC)
    results.append(tanh_sinh_integrate(lambda x: mpf(1), PREC))  # every d_L is 0
    results.append(tanh_sinh_integrate(lambda x: x, PREC))
    assert MIN_STOP_LEVEL == 3
    assert all(r.converged and r.levels_used >= MIN_STOP_LEVEL for r in results)


@pytest.mark.parametrize("dps,tol", [(40, 1e-12), (60, 1e-30)])
def test_true_error_within_abs_tol_on_identity_and_far_field_grids(dps, tol):
    prec = Precision(abs_tol=tol, dps=dps)
    reference = Precision(dps=dps + 50)
    specs = IDENTITY_GRID + FAR_FIELD_GRID
    results = integral_In_numeric_many(specs, prec)
    with reference.workdps():
        for spec, result in zip(specs, results):
            error = abs(result.value - In_exact_real(spec.n, spec.z, reference))
            assert error <= tol, (spec, error)


def test_a_level_sum_landing_close_by_chance_does_not_stop_the_quadrature():
    # d_2²/d_1 read 1.2e-13 for I_0(4/7) at level 2 while its error was 4.9e-8
    result = integral_In_numeric(IntegralSpec(0, Fraction(4, 7)), PREC)
    reference = Precision(dps=90)
    with reference.workdps():
        error = abs(result.value - In_exact_real(0, Fraction(4, 7), reference))
    assert result.levels_used >= MIN_STOP_LEVEL
    assert error <= PREC.abs_tol


@pytest.mark.parametrize("n,z", FAR_FIELD_SPECS)
def test_far_field_specs_right_relative_to_their_value(n, z):
    result = integral_In_numeric(IntegralSpec(n, z), PREC)
    reference = Precision(dps=90)
    with reference.workdps():
        exact = In_exact_real(n, z, reference)
        assert abs(result.value / exact - 1) <= mpf("1e-15")


# -- the numeric route, pinned bit for bit --

# one z in each quarter of [1/10, 10] on a log scale, as the benchmark's sweep draws them
PINNED_Z = (Fraction(9, 65), Fraction(37, 53), Fraction(45, 26), Fraction(453, 92))
# sha256 of the batch's results below, taken once K was computed by the integer AGM
# within 2^-wp relative: 17 of the 102 values moved by one ulp, with the same levels
# and evaluations, and the mpf AGM put back gives the earlier 0f01701d…; any one-ulp
# change moves it
BATCH_SHA256 = "d79e110283acff87f8f1e87e711a9215ef40a69ce1549c9b84ce691a80e435ea"
# sha256 of the inner grid's and the swap's values, taken once the grid's t-part and
# the swap's integrand were formed on ints, with every verify report passing
GRID_AND_SWAP_SHA256 = "465e12030a72fe866bd3d233d57d78c5c84289ec46a7237358c1d8ff9b101b0e"


def _pinned(*parts) -> str:
    """parts as plain ints: an mpf by its raw tuple, whatever mpmath's backend."""
    return repr(tuple(tuple(map(int, p._mpf_)) if isinstance(p, mpf) else p for p in parts))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_numeric_route_is_pinned_bit_for_bit():
    batch = []
    pools = [
        (Precision(dps=40, abs_tol=1e-12), [IntegralSpec(n, z) for n in range(17) for z in PINNED_Z]),
        (
            Precision(dps=60, abs_tol=1e-30),
            [IntegralSpec(n, PINNED_Z[(n + half) % 4]) for n in range(17) for half in (0, 2)],
        ),
    ]
    for prec, specs in pools:
        for r in integral_In_numeric_many(specs, prec):
            batch.append(_pinned(r.value, r.error_estimate, r.levels_used, r.evaluations, r.converged))
    grid_and_swap = [_pinned(*row) for row in inner_integral_numeric_grid(INNER_Z_GRID, INNER_T_GRID, PREC)]
    grid_and_swap.append(_pinned(*(I0_via_swap(z, PREC) for z in DEFAULT_Z_GRID)))
    assert (len(batch), len(grid_and_swap)) == (68 + 34, 10 + 1)
    assert _digest(batch) == BATCH_SHA256
    assert _digest(grid_and_swap) == GRID_AND_SWAP_SHA256
