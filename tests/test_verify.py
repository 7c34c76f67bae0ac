import dataclasses
import hashlib
import json
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from ellipkint import (
    CATALOG,
    DomainError,
    I0_via_swap,
    In_exact_real,
    IntegralSpec,
    Precision,
    QuadExt,
    ToleranceNotReached,
    closed_form,
    eval_at_special,
    inner_integral_closed,
    inner_integral_numeric_grid,
    integral_In_numeric_many,
    make_exact_value,
    relation,
    run_suite,
)
from ellipkint import quadrature, verify
from ellipkint.precision import to_mpf
from ellipkint.verify import check_exact_to_float, check_structure

F = Fraction


@pytest.fixture(scope="module")
def suite():
    return run_suite()


def reports_named(suite, prefix):
    return [r for r in suite.reports if r.name.startswith(prefix)]


def test_identity_report_covers_its_grid(suite):
    (report,) = reports_named(suite, "integral identity")
    assert report.name == "integral identity, n<=8, 5 z values"
    assert report.passed
    assert report.cases == (verify.IDENTITY_N_MAX + 1) * len(verify.DEFAULT_Z_GRID)


def test_structure_check():
    assert check_structure().passed


def test_audit_flags_only_i2_3(suite):
    reports = reports_named(suite, "table audit")
    assert len(reports) == 12
    mismatches = [r for r in reports if "MISMATCH" in r.name]
    assert len(mismatches) == 1
    assert "I_2(3)" in mismatches[0].name
    assert "sqrt(2)" in mismatches[0].notes and "sqrt(3)" in mismatches[0].notes
    assert all(r.passed for r in reports)


def test_relations_check(suite):
    (report,) = reports_named(suite, "pairwise rational relations")
    assert report.passed
    assert report.cases == (verify.RELATIONS_MAX_INDEX + 1) ** 2  # b_m is nonzero for every m


@pytest.mark.parametrize("part", [0, 1], ids=["a_2", "b_2"])
def test_relations_miss_reads_inf(monkeypatch, part):
    # a_2 or b_2 one off: the pair no longer equals the exact value at z = 1,
    # so every relation through k = 2 reads inf, whatever its numeric residual
    real = verify.in1_pair

    def perturbed(k):
        pair = list(real(k))
        if k == 2:
            pair[part] += 1
        return tuple(pair)

    monkeypatch.setattr(verify, "in1_pair", perturbed)
    suite = run_suite()
    (report,) = reports_named(suite, "pairwise rational relations")
    assert not report.passed and not suite.all_passed
    assert report.max_error == math.inf
    assert "worst at n=0, m=2" in report.notes  # the first pair with k = 2


def test_relations_compare_the_pairs_with_the_closed_form(monkeypatch):
    # B_2(1) one off: in1_pair, read off the recurrence, no longer equals the
    # closed form's a_2, so every relation through k = 2 reads inf
    real = verify.closed_form

    def perturbed(n):
        form = real(n)
        if n == 2:
            form = dataclasses.replace(form, B=(form.B[0] + 1, *form.B[1:]))
        return form

    monkeypatch.setattr(verify, "closed_form", perturbed)
    suite = run_suite()
    (report,) = reports_named(suite, "pairwise rational relations")
    assert not report.passed
    assert report.max_error == math.inf
    assert "worst at n=0, m=2" in report.notes


def test_reports_are_self_consistent(suite):
    for report in suite.reports:
        assert report.passed == (report.max_error <= report.tolerance)


def test_structure_failure_reports_inf(monkeypatch):
    real = verify.closed_form

    def wrong_leading_coefficient(n):
        form = real(n)
        return dataclasses.replace(form, A=(*form.A[:-1], form.A[-1] + 1))

    monkeypatch.setattr(verify, "closed_form", wrong_leading_coefficient)
    report = check_structure()
    assert not report.passed
    assert report.max_error == math.inf
    assert "worst at n=0" in report.notes


def test_exact_to_float_covers_every_catalog_point():
    report = check_exact_to_float()
    assert report.passed and report.cases == len(CATALOG) * len(verify.EXACT_N_GRID)
    assert report.tolerance == 1e-35


def test_exact_to_float_fails_when_a_and_b_sqrt_d_cancel(monkeypatch):
    def cancelling(self):
        return to_mpf(self.a) + to_mpf(self.b) * mpmath.sqrt(self.d)

    monkeypatch.setattr(QuadExt, "to_mpf", cancelling)
    report = check_exact_to_float()
    assert not report.passed
    assert "z=cot2-pi-1" in report.notes  # an irrational point is the worst


def _quadrature_off(n, z):
    """A fault: the batch's I_n(z) quadrature value, off by 1e-6."""

    def plant(monkeypatch):
        real = verify.integral_In_numeric_many

        def faulty(specs, prec):
            results = real(specs, prec)
            with prec.workdps():
                target = (n, z() if callable(z) else to_mpf(z))
                return [
                    dataclasses.replace(r, value=r.value + mpmath.mpf("1e-6"))
                    if (s.n, to_mpf(s.z)) == target
                    else r
                    for s, r in zip(specs, results)
                ]

        monkeypatch.setattr(verify, "integral_In_numeric_many", faulty)

    return plant


def _route_off(name):
    """A fault: every value of verify's route `name` off by 1e-6."""

    def plant(monkeypatch):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a: real(*a) + mpmath.mpf("1e-6"))

    return plant


def _closed_rows_off(monkeypatch):
    # the check reads the closed form a grid at a time
    real = verify._inner_closed_rows
    off = mpmath.mpf("1e-6")
    monkeypatch.setattr(verify, "_inner_closed_rows", lambda *a: [[v + off for v in row] for row in real(*a)])


def _printed_i0_1_off(monkeypatch):
    real = verify._published_tables

    def misprinted():
        (label, n, point, _, match), *rest = real()
        assert label == "I_0(1)"
        # pi/(5*sqrt(2)) where the table prints pi/(4*sqrt(2))
        return [(label, n, point, make_exact_value(F(1, 5), 2, 0, 1), match), *rest]

    monkeypatch.setattr(verify, "_published_tables", misprinted)


def _ladder_shift():
    # the ladder's I_0(1/3 + h), which no other check compares
    return to_mpf(F(1, 3)) + to_mpf(verify.DEFAULT_STEP)


# a fault in one value a check compares, and the reports that must fail
# with it; every other report must still pass
PLANTED_FAULTS = {
    "I_8(10)": (_quadrature_off(8, 10), ["integral identity, n<=8, 5 z values"]),
    "I_10(1)": (_quadrature_off(10, 1), ["pairwise rational relations at z=1"]),
    "I_0(1/10)": (
        _quadrature_off(0, F(1, 10)),
        ["integral identity, n<=8, 5 z values", "order-swap identity for I_0"],
    ),
    "I_5(3)": (
        _quadrature_off(5, 3),
        ["integral identity, n<=8, 5 z values", "derivative ladder n=4 -> 5 at z=3"],
    ),
    "I_2(3)": (
        _quadrature_off(2, 3),
        [
            "integral identity, n<=8, 5 z values",
            "derivative ladder n=1 -> 2 at z=3",
            "table audit I_2(3) (expected MISMATCH)",
        ],
    ),
    "I_0(1/3+h)": (_quadrature_off(0, _ladder_shift), ["derivative ladder n=0 -> 1 at z=1/3"]),
    "I0_via_swap": (_route_off("I0_via_swap"), ["order-swap identity for I_0"]),
    "inner_integral_closed": (_closed_rows_off, ["inner-integral closed form"]),
    "printed-I_0(1)": (_printed_i0_1_off, ["table audit I_0(1)"]),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_a_planted_fault_fails_exactly_the_checks_that_compare_it(monkeypatch, fault):
    # a check that cannot fail shows nothing: each fault must be seen, and
    # only by the reports that compare the faulty value
    plant, failing = PLANTED_FAULTS[fault]
    plant(monkeypatch)
    suite = run_suite()
    assert [r.name for r in suite.reports if not r.passed] == failing
    assert suite.exit_status == 3


# each check that compares I_n(z) quadratures, with the specs it compares
CHECKS_ALONE = {
    "check_identity": (
        verify.IDENTITY_SPECS,
        lambda values, prec: verify.check_identity(values, 1e-10, prec),
    ),
    "check_order_swap": (
        verify.SWAP_SPECS,
        lambda values, prec: verify.check_order_swap(values, 1e-10, prec),
    ),
    "check_derivative_step": (
        verify._ladder_specs(2, F(3), Precision()),
        lambda values, prec: verify.check_derivative_step(values, 2, F(3), prec),
    ),
    "audit_published_tables": (
        [verify.AUDIT_SPEC],
        lambda values, prec: verify.audit_published_tables(values, 1e-10, prec),
    ),
    "check_relations": (
        verify.RELATIONS_SPECS,
        lambda values, prec: verify.check_relations(values, 1e-10, prec),
    ),
}


@pytest.mark.parametrize("check", sorted(CHECKS_ALONE))
def test_a_check_alone_gives_the_suites_report(suite, check):
    # a check reads its values by spec, so a batch of its own specs alone
    # gives it what the suite's whole batch gives it
    specs, run = CHECKS_ALONE[check]
    prec = Precision()
    values = {spec: r.value for spec, r in zip(specs, integral_In_numeric_many(specs, prec))}
    reports = run(values, prec)
    by_name = {r.name: r for r in suite.reports}
    for report in reports if isinstance(reports, list) else [reports]:
        assert report == by_name[report.name]


def test_derivative_ladder_names_z_as_given(suite):
    reports = reports_named(suite, "derivative ladder")
    assert len(reports) == (verify.LADDER_N_MAX + 1) * len(verify.LADDER_Z_GRID)
    assert reports[0].name == "derivative ladder n=0 -> 1 at z=1/3"
    assert all(r.tolerance == verify.LADDER_REL_TOL for r in reports)
    # a central difference at z needs both z + h and z - h inside the domain
    assert 0 < verify.DEFAULT_STEP < min(verify.LADDER_Z_GRID)


# sha256 of `ellipkint verify --format json` (the default suite, indent=2),
# as computed once quadratures stopped on d_L²/d_(L−1) from level 3 on, the
# suite gained the exact-to-float check, the reports' field became max_error
# and In_exact_real ran the recurrence in n
DEFAULT_SUITE_SHA256 = "428e2a3f1339b100ae007e55855e6e1f3e027ef6a96d85ba35066133171c0fcc"
# sha256 of the text report of the same suite, as `ellipkint verify` prints it
DEFAULT_SUITE_TEXT_SHA256 = "a3a38adab61f657a97bf3522cc538a1f56f21cd0e5b5fcf768d4a5077690368a"


def test_default_suite_output_pinned(suite):
    text = json.dumps(suite.to_json(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SUITE_SHA256


def test_default_suite_text_pinned(suite):
    text = suite.text() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SUITE_TEXT_SHA256


def test_structure_covers_every_compared_closed_form():
    compared = max(
        verify.IDENTITY_N_MAX,
        verify.LADDER_N_MAX + 1,  # the ladder's I_{n+1}
        verify.RELATIONS_MAX_INDEX,
        *(n for _, n, *_ in verify._published_tables()),
    )
    assert verify.STRUCTURE_N_MAX >= compared


# every public entry that takes the family index n itself, each handed one
# index that is not a nonnegative integer
INDEX_ENTRY_POINTS = {
    "IntegralSpec": lambda n: IntegralSpec(n, 1),
    "closed_form": closed_form,
    "In_exact_real": lambda n: In_exact_real(n, 1),
    "eval_at_special": lambda n: eval_at_special(n, CATALOG["1"]),
    "relation.n": lambda n: relation(n, 1),
    "relation.m": lambda m: relation(0, m),
}


@pytest.mark.parametrize(
    "value", [0.5, 1.5, F(5, 2), "2", True], ids=["0.5", "1.5", "5/2", "str", "bool"]
)
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
def test_every_index_entry_point_rejects_a_non_integer_index(entry, value):
    with pytest.raises(DomainError, match="family index n must be a nonnegative integer"):
        INDEX_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [-1, -(10**6)], ids=["-1", "-10**6"])
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
def test_every_index_entry_point_rejects_a_negative_index(entry, value):
    with pytest.raises(DomainError, match="family index n must be a nonnegative integer"):
        INDEX_ENTRY_POINTS[entry](value)


def test_suite_deterministic(suite):
    again = run_suite()
    assert suite.all_passed
    assert suite.exit_status == 0
    assert [r.to_json() for r in suite.reports] == [r.to_json() for r in again.reports]


def test_loose_tolerance_trivially_green():
    assert run_suite(tol=1e-2).all_passed


# every public entry that takes the shift parameter z, each handed one bad z
Z_ENTRY_POINTS = {
    "IntegralSpec": lambda z: IntegralSpec(0, z),
    "In_exact_real": lambda z: In_exact_real(0, z),
    "I0_via_swap": I0_via_swap,
    "inner_integral_closed": lambda z: inner_integral_closed(z, 0.5),
    "inner_integral_numeric_grid": lambda z: inner_integral_numeric_grid([1, z], [0.5]),
}


@pytest.mark.parametrize(
    "z",
    [0, -1, F(-1, 3), math.nan, math.inf, mpmath.inf, "1", "abc", None, 1j, True, Decimal(1)],
    ids=[
        "0",
        "-1",
        "-1/3",
        "nan",
        "inf",
        "mpf-inf",
        "str-1",
        "str-abc",
        "None",
        "complex",
        "bool",
        "decimal",
    ],
)
@pytest.mark.parametrize("entry", sorted(Z_ENTRY_POINTS))
def test_every_z_entry_point_rejects_z_outside_the_domain(entry, z):
    with pytest.raises(DomainError, match="positive and finite"):
        Z_ENTRY_POINTS[entry](z)


# every public entry that takes a check tolerance, each handed one bad
# tolerance; Precision.abs_tol, under the same rule, has its own test
TOL_ENTRY_POINTS = {
    "run_suite": lambda tol: run_suite(tol=tol),
    "check_inner_closed_form": lambda tol: verify.check_inner_closed_form(tol=tol),
}


@pytest.mark.parametrize(
    "tol",
    [math.nan, -1.0, 0, math.inf, -math.inf, "1e-10", None, True],
    ids=["nan", "-1", "0", "inf", "-inf", "str", "None", "bool"],
)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_every_tolerance_entry_point_rejects_a_tolerance_outside_0_inf(monkeypatch, entry, tol):
    # the rule runs before any work: a bad tolerance is a usage error, not a
    # failing report that would make run_suite exit 3 (numeric failure)
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the tolerance was checked")

    monkeypatch.setattr(verify, "integral_In_numeric_many", no_quadrature)
    monkeypatch.setattr(verify, "inner_integral_numeric_grid", no_quadrature)
    with pytest.raises(DomainError, match="positive and finite"):
        TOL_ENTRY_POINTS[entry](tol)


def test_suite_makes_one_quadrature_pass_over_its_distinct_specs(monkeypatch):
    # the default suite compares 137 specs; the grid's Fraction(1, 3) and the
    # ladder's mpf 1/3 are one of the 107 distinct ones.  Counted are the
    # _refine passes of I_n(z) quadratures, not those of the inner grid or the
    # order swap.
    real = quadrature._refine
    members = []

    def counting(samples, count, prec):
        if samples.__qualname__.startswith("integral_In_numeric_many."):
            members.append(count)
        return real(samples, count, prec)

    monkeypatch.setattr(quadrature, "_refine", counting)
    assert run_suite().all_passed
    assert members == [107]


# sha256 of repr() of the (levels_used, evaluations) of every quadrature the
# default suite runs, in the order _refine returns them, as computed while
# each level sum was still rounded at every term; the count, evaluations and
# levels are spelled out beside it
SUITE_STOPS_SHA256 = "a2258e950614c8e7910bfb6dba4aef36bc7619707195fcf0f87a616efebaa09d"


def test_suite_quadratures_stop_at_the_pinned_levels(monkeypatch):
    # the level sums are now exact until one rounding per level; the stop
    # rule reads them, so every stop and every count must be as before
    real = quadrature._refine
    stops = []

    def recording(samples, count, prec):
        results = real(samples, count, prec)
        stops.extend((r.levels_used, r.evaluations) for r in results)
        return results

    monkeypatch.setattr(quadrature, "_refine", recording)
    assert run_suite().all_passed
    assert len(stops) == 212 and sum(e for _, e in stops) == 18900
    assert {level: [l for l, _ in stops].count(level) for level in (3, 4, 5)} == {3: 142, 4: 65, 5: 5}
    assert hashlib.sha256(repr(stops).encode()).hexdigest() == SUITE_STOPS_SHA256


def test_suite_raises_when_a_quadrature_cannot_converge(monkeypatch):
    # the batch's below-one-ulp stop has its own test in test_quadrature.py
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 3)
    with pytest.raises(ToleranceNotReached):
        run_suite(prec=Precision(abs_tol=1e-30))
