import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

import ellipkint
from ellipkint import (
    CATALOG,
    DomainError,
    In_exact_real,
    Precision,
    QuadExt,
    SpecialPoint,
    eval_at_special,
    make_exact_value,
    relation,
)
from ellipkint import closedform, specialvalues
from ellipkint.closedform import closed_form
from ellipkint.quadfield import UNIT_SURD, Surd
from ellipkint.specialvalues import in1_pair

F = Fraction


def qe(a, b=0, d=1):
    return QuadExt(F(a), F(b), d)


def test_catalog_contents():
    assert set(CATALOG) == {"1", "3", "1/3", "cot2-pi-10", "cot2-pi-12"}
    assert CATALOG["cot2-pi-10"].z == qe(5, 2, 5)
    assert CATALOG["cot2-pi-12"].z == qe(7, 4, 3)
    assert CATALOG["1/3"].theta_over_pi == F(1, 3)


def test_catalog_arccot_values():
    # ArcCot(sqrt(z)) must really equal theta*pi for every catalog point
    with mpmath.workdps(40):
        for point in CATALOG.values():
            lhs = mpmath.acot(mpmath.sqrt(point.z.to_mpf()))
            rhs = mpf(point.theta_over_pi.numerator) / point.theta_over_pi.denominator * mpmath.pi
            assert abs(lhs - rhs) < mpf("1e-35")


def test_eval_z1_table():
    # sqrt(2)*I_n(1) = a + b*pi for n = 0..3, printed table values
    expected = [
        (F(0), F(1, 4)),
        (F(1, 6), F(1, 8)),
        (F(1, 6), F(19, 240)),
        (F(121, 840), F(9, 160)),
    ]
    for n, (a, b) in enumerate(expected):
        assert in1_pair(n) == (a, b)


def test_in1_pair_is_the_exact_value_at_1_decomposed():
    # sqrt(2)*I_k(1) = a_k + b_k*pi: the pair read off the closed form, read as
    # (a_k + b_k*pi)/sqrt(2), must be eval_at_special's exact value
    for k in range(101):
        a, b = in1_pair(k)
        assert make_exact_value(b, 2, a, 2) == eval_at_special(k, CATALOG["1"])


def test_in1_pair_equals_the_closed_form_reading():
    # the recurrence's pair against the closed form at z = 1, where
    # ArcCot(1) = pi/4 and z(z+1) = z+1 = 2
    for k in range(101):
        form = closed_form(k)
        expected = (
            form.prefactor * F(sum(form.B), 2**k),
            form.prefactor * F(sum(form.A), 2 ** (k + 2)),
        )
        assert in1_pair(k) == expected, k


def test_eval_cot_points():
    v = eval_at_special(0, CATALOG["cot2-pi-10"])
    assert v.pi_coeff == qe(F(1, 10))
    assert v.pi_surd == Surd(qe(50, 22, 5))
    assert v.alg_coeff.is_zero()

    v = eval_at_special(0, CATALOG["cot2-pi-12"])
    assert v.pi_coeff == qe(F(1, 24))
    assert v.pi_surd == Surd(qe(26, 15, 3))


def test_eval_i2_at_3_has_sqrt3():
    # the published table prints sqrt(2) here; both routes say sqrt(3)
    v = eval_at_special(2, CATALOG["3"])
    assert v.alg_coeff == qe(F(1, 180))
    assert v.alg_surd == Surd(qe(1))
    assert v.pi_coeff == qe(F(11, 2880))
    assert v.pi_surd == Surd(qe(3))


def test_exact_matches_floating_route():
    # every catalog point, n <= 100: the exact value in floating point vs the
    # closed form at 320 digits, relative; at the irrational points a and
    # b*sqrt(d) grow to hundreds of digits of opposite sign
    prec = Precision(dps=60)
    for point in CATALOG.values():
        for n in range(101):
            exact = eval_at_special(n, point).to_mpf(prec)
            with mpmath.workdps(330):
                reference = In_exact_real(n, point.z.to_mpf(), Precision(dps=320))
                assert abs(exact / reference - 1) < mpf("1e-55"), (point.label, n)


# z = Cot^2(theta*pi) in Q(sqrt(d)) beyond the catalog: d = 2, negative b, and
# the irrational multipliers 1+(3/5)*sqrt(5) and -1+sqrt(5)
EXTRA_POINTS = (
    SpecialPoint("cot2-pi-8", qe(3, 2, 2), F(1, 8)),
    SpecialPoint("cot2-3pi-8", qe(3, -2, 2), F(3, 8)),
    SpecialPoint("cot2-pi-5", qe(1, F(2, 5), 5), F(1, 5)),
    SpecialPoint("cot2-2pi-5", qe(1, F(-2, 5), 5), F(2, 5)),
    SpecialPoint("cot2-3pi-10", qe(5, -2, 5), F(3, 10)),
    SpecialPoint("cot2-5pi-12", qe(7, -4, 3), F(5, 12)),
)


def field_arithmetic_values(point, n_max):
    """I_n(z) for n <= n_max from the closed forms in QuadExt arithmetic.

    Sums c·zⁱ over the powers of z, divides by (z(z+1))**n and normalizes
    both surds in make_exact_value at every n.
    """
    z = point.z
    w = z * (z + 1)
    power = QuadExt(1)
    z_powers = [QuadExt(1)]  # z**i, extended as the forms grow

    def at_z(coefficients):
        while len(z_powers) < len(coefficients):
            z_powers.append(z_powers[-1] * z)
        return sum((c * p for c, p in zip(coefficients, z_powers)), QuadExt(0))

    values = []
    for n in range(n_max + 1):
        form = closed_form(n)
        values.append(
            make_exact_value(
                form.prefactor * point.theta_over_pi * at_z(form.A) / power,
                w,
                form.prefactor * at_z(form.B) / power,
                z + 1,
            )
        )
        power *= w
    return values


ALL_POINTS = [*CATALOG.values(), *EXTRA_POINTS]


def fresh_copy(point):
    """An equal point whose recurrence has not yet run."""
    return SpecialPoint(point.label, point.z, point.theta_over_pi)


@pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.label)
def test_eval_at_special_matches_field_arithmetic(point):
    for n, expected in enumerate(field_arithmetic_values(point, 120)):
        assert eval_at_special(n, point) == expected, n


@pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.label)
def test_recurrence_gives_the_same_values_in_any_order(point):
    # a shuffled order extends the states by several steps at once, or not at all
    orders = list(range(61))
    random.Random(point.label).shuffle(orders)
    shuffled, in_order = fresh_copy(point), fresh_copy(point)
    got = {n: eval_at_special(n, shuffled) for n in orders}
    expected = field_arithmetic_values(point, 60)
    assert [eval_at_special(n, in_order) for n in range(61)] == expected
    assert [got[n] for n in range(61)] == expected


def test_two_threads_extend_one_point_as_one_thread_does():
    point = CATALOG["cot2-pi-12"]
    single = fresh_copy(point)
    expected = {n: eval_at_special(n, single) for n in (200, 300)}
    shared, got = fresh_copy(point), {}

    def ask(n):
        got[n] = eval_at_special(n, shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(n,)) for n in (300, 200)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_exact_route_at_special_points_builds_no_closed_form(monkeypatch):
    n = 150
    expected_value = eval_at_special(n, fresh_copy(CATALOG["cot2-pi-10"]))
    expected_pairs = [in1_pair(k) for k in (n - 1, n)]

    def refuse(n):
        raise AssertionError("closed_form called")

    monkeypatch.setattr(closedform, "closed_form", refuse)
    monkeypatch.setattr(specialvalues, "closed_form", refuse, raising=False)
    # a fresh z = 1 point, so that in1_pair runs its steps under the patch too
    monkeypatch.setitem(CATALOG, "1", fresh_copy(CATALOG["1"]))
    assert eval_at_special(n, fresh_copy(CATALOG["cot2-pi-10"])) == expected_value
    assert [in1_pair(k) for k in (n - 1, n)] == expected_pairs


def test_cold_deep_value_holds_little_memory():
    # a fresh process, so that no earlier test has filled the caches; the
    # closed forms up to n = 500 alone would take about 100 MB
    code = (
        "import tracemalloc\n"
        "from ellipkint import CATALOG, eval_at_special\n"
        "tracemalloc.start()\n"
        "eval_at_special(500, CATALOG['cot2-pi-12'])\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(ellipkint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 10_000_000


def test_per_point_constants_stay_out_of_equality_and_hash():
    fresh = SpecialPoint("cot2-pi-10", qe(5, 2, 5), F(1, 10))
    used = SpecialPoint("cot2-pi-10", qe(5, 2, 5), F(1, 10))
    eval_at_special(3, used)
    for cache in ("_constants", "_recurrence"):
        assert cache in vars(used) and cache not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert {used: 1}[fresh] == 1
    assert used != SpecialPoint("other", qe(5, 2, 5), F(1, 10))


def test_self_relation():
    assert relation(4, 4) == (F(-1), F(0))


def test_relation_published_pairs():
    assert relation(1, 0) == (F(-1, 2), F(-1, 6))
    assert relation(2, 0) == (F(-19, 60), F(-1, 6))


def test_relation_exactness_sweep():
    pairs = {k: in1_pair(k) for k in range(11)}
    for n in range(11):
        for m in range(11):
            a_m, b_m = pairs[m]
            if b_m == 0:
                continue
            P, Q = relation(n, m)
            a_n, b_n = pairs[n]
            assert b_n + P * b_m == 0
            assert a_n + P * a_m + Q == 0


def test_user_extensible_point():
    # Cot^2(pi/8) = 3 + 2*sqrt(2), theta = 1/8
    point = SpecialPoint("cot2-pi-8", qe(3, 2, 2), F(1, 8))
    v = eval_at_special(0, point)
    with mpmath.workdps(40):
        z = point.z.to_mpf()
        assert abs(v.to_mpf() - In_exact_real(0, z)) < 1e-12


def test_special_point_validation():
    with pytest.raises(DomainError):
        SpecialPoint("bad", qe(-1), F(1, 4))
    with pytest.raises(DomainError):
        SpecialPoint("bad", qe(1), F(2, 3))


@pytest.mark.parametrize(
    "z,theta",
    [
        (2, F(1, 5)),  # an int z is coerced; ArcCot(sqrt(2)) is not pi/5
        (F(1, 5), F(1, 5)),
        (qe(1), 0.25),
        (qe(1), True),
        (qe(1), "1/4"),
        (1.0, F(1, 4)),
        ("1", F(1, 4)),
        (True, F(1, 4)),
        (None, F(1, 4)),
    ],
    ids=[
        "int-z",
        "fraction-z",
        "float-theta",
        "bool-theta",
        "str-theta",
        "float-z",
        "str-z",
        "bool-z",
        "None-z",
    ],
)
def test_special_point_rejects_a_bad_z_or_theta_as_a_domain_error(z, theta):
    # never a bare AttributeError or TypeError, here or later in eval_at_special
    with pytest.raises(DomainError):
        SpecialPoint("bad", z, theta)


@pytest.mark.parametrize("z", [1, F(1)], ids=["int", "fraction"])
def test_special_point_takes_an_int_or_fraction_z(z):
    point = SpecialPoint("one", z, F(1, 4))
    assert point.z == QuadExt(F(1))
    assert eval_at_special(2, point) == eval_at_special(2, CATALOG["1"])


def test_special_point_theta_must_match_z():
    # ArcCot(sqrt(2)) is not pi/5: eval_at_special(0, .) would give 0.25651
    # where I_0(2) is 0.25127
    with pytest.raises(DomainError, match="ArcCot"):
        SpecialPoint("y", QuadExt(F(2)), F(1, 5))


@pytest.mark.parametrize("n", [1.0, -1])
def test_eval_at_special_rejects_non_index(n):
    with pytest.raises(DomainError, match="family index n"):
        eval_at_special(n, CATALOG["1"])


def test_make_exact_value_normalizes():
    # radical 104+60*sqrt(3) must normalize to 2*sqrt(26+15*sqrt(3))
    v = make_exact_value(qe(1), qe(104, 60, 3), qe(0), qe(1))
    assert v.pi_surd == Surd(qe(26, 15, 3))
    assert v.pi_coeff == qe(F(1, 2))


@pytest.mark.parametrize(
    "radical",
    [2**61 - 1, F(1, 2**61 - 1), 4294967311 * 4294967291],
    ids=["mersenne-61", "one-over-mersenne-61", "product-of-primes-near-2**32"],
)
def test_make_exact_value_rejects_radicals_too_large_to_factor(radical):
    # square content is found by trial division, which stops below 2**16;
    # each of these leaves a cofactor above 2**32, so it is a DomainError at once
    start = time.perf_counter()
    with pytest.raises(DomainError, match="2\\*\\*32"):
        make_exact_value(1, radical, 0, 1)
    assert time.perf_counter() - start < 1


def test_make_exact_value_factors_the_largest_prime_below_the_bound():
    v = make_exact_value(1, 4294967291, 0, 1)
    assert (v.pi_coeff, v.pi_surd) == (qe(1), Surd(qe(4294967291)))


def test_make_exact_value_factors_large_radicals_with_small_prime_factors():
    # the bound is on the cofactor left by trial division, not on the radicand
    v = make_exact_value(1, 2**40, 0, 1)
    assert (v.pi_coeff, v.pi_surd) == (qe(F(1, 2**20)), UNIT_SURD)
    v = make_exact_value(1, F(65537, 65536), 0, 1)
    assert (v.pi_coeff, v.pi_surd) == (qe(256), Surd(qe(65537)))


@pytest.mark.parametrize("bad", [0.5, "1", True, None], ids=["float", "str", "bool", "None"])
@pytest.mark.parametrize("position", range(4), ids=["pi_raw", "pi_radical", "alg_raw", "alg_radical"])
def test_make_exact_value_rejects_what_is_not_exact_as_a_domain_error(bad, position):
    # never a bare TypeError, and True is not taken as 1
    args = [1, 2, 1, 3]
    args[position] = bad
    with pytest.raises(DomainError, match="must be a QuadExt, int or Fraction"):
        make_exact_value(*args)


@pytest.mark.parametrize("args", [(0, -5, 1, 1), (1, 1, 0, -5)], ids=["pi", "alg"])
def test_make_exact_value_checks_a_radical_under_a_zero_coefficient(args):
    # a zero term drops its radical, but a negative one is still no surd
    with pytest.raises(DomainError, match="surd radicand must be positive"):
        make_exact_value(*args)


def test_make_exact_value_takes_rationals():
    lifted = make_exact_value(qe(F(1, 4)), qe(2), qe(0), qe(1))
    assert make_exact_value(F(1, 4), 2, 0, 1) == lifted
    assert lifted.pi_coeff == qe(F(1, 4)) and lifted.pi_surd == Surd(qe(2))


def test_zero_value():
    v = make_exact_value(qe(0), qe(2), qe(0), qe(2))
    assert v == make_exact_value(0, 1, 0, 1)
