import dataclasses
import hashlib
import inspect
import json
import math
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
    audit_published_tables,
    check_derivative_step,
    check_order_swap,
    check_inner_closed_form,
    check_identity,
    check_relations,
    closed_form,
    eval_at_special,
    inner_integral_closed,
    inner_integral_numeric_grid,
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


def test_identity_single_point():
    report = check_identity(n_max=0, z_grid=(F(1),), tol=1e-10)
    assert report.passed
    assert report.cases == 1
    assert report.max_abs_error <= 1e-10


def test_identity_z1_block():
    report = check_identity(n_max=3, z_grid=(F(1),), tol=1e-10)
    assert report.passed
    assert report.cases == 4


def test_identity_rejects_bad_grid():
    with pytest.raises(DomainError):
        check_identity(n_max=1, z_grid=(F(1), F(-1)))
    with pytest.raises(DomainError):
        check_identity(n_max=-1, z_grid=(F(1),))


def test_derivative_step_small_steps_pass():
    assert check_derivative_step(0, F(1), h=1e-4).passed
    assert check_derivative_step(2, F(3), h=1e-4).passed


@pytest.mark.parametrize("h", [0, math.nan, -1e-4, 1])
def test_derivative_step_rejects_a_step_outside_0_z(h):
    with pytest.raises(DomainError, match="0 < h < z"):
        check_derivative_step(0, 1, h=h)


def test_derivative_step_oversized():
    report = check_derivative_step(0, F(1), h=0.3)
    # discretization dominates: either the check fails outright or the
    # Richardson instability warning fires
    assert (not report.passed) or report.notes


def test_order_swap_and_inner_closed_form():
    assert check_order_swap(z_grid=(F(1), F(3))).passed
    small = check_inner_closed_form(z_grid=[F(1), F(3)], t_grid=[F(1, 4), F(3, 4)])
    assert small.passed
    assert small.cases == 4


def test_structure_check():
    assert check_structure(12).passed


def test_audit_flags_only_i2_3():
    reports = audit_published_tables()
    assert len(reports) == 12
    mismatches = [r for r in reports if "MISMATCH" in r.name]
    assert len(mismatches) == 1
    assert "I_2(3)" in mismatches[0].name
    assert "sqrt(2)" in mismatches[0].notes and "sqrt(3)" in mismatches[0].notes
    assert all(r.passed for r in reports)


def test_relations_check():
    report = check_relations(max_index=4)
    assert report.passed
    assert report.cases == 25  # b_m is nonzero for every m


def test_relations_miss_reads_inf(monkeypatch):
    # a_2 one off: every relation still solves from the perturbed pairs, so
    # only the comparison with the exact value at z = 1 can see it
    real = verify.in1_pair

    def perturbed(k):
        a, b = real(k)
        return (a + 1, b) if k == 2 else (a, b)

    monkeypatch.setattr(verify, "in1_pair", perturbed)
    report = check_relations(max_index=4)
    assert not report.passed
    assert report.max_abs_error == math.inf
    assert "worst at n=0, m=2" in report.notes  # the first pair with k = 2


def test_reports_are_self_consistent(suite):
    for report in suite.reports:
        assert report.passed == (report.max_abs_error <= report.tolerance)


@pytest.mark.parametrize(
    "run",
    [
        lambda: check_identity(z_grid=()),
        lambda: check_order_swap(z_grid=()),
        lambda: check_inner_closed_form(z_grid=[]),
        lambda: check_inner_closed_form(t_grid=[]),
        lambda: check_relations(max_index=-1),
        lambda: check_structure(-1),
    ],
    ids=[
        "identity-no-z",
        "order-swap-no-z",
        "inner-no-z",
        "inner-no-t",
        "relations-no-index",
        "structure-no-n",
    ],
)
def test_check_without_cases_is_an_error(run):
    with pytest.raises(DomainError):
        run()


def test_structure_failure_reports_inf(monkeypatch):
    real = verify.closed_form

    def wrong_leading_coefficient(n):
        form = real(n)
        return dataclasses.replace(form, A=(*form.A[:-1], form.A[-1] + 1))

    monkeypatch.setattr(verify, "closed_form", wrong_leading_coefficient)
    report = check_structure(3)
    assert not report.passed
    assert report.max_abs_error == math.inf
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


def test_derivative_step_names_z_as_given():
    report = check_derivative_step(0, F(1, 3))
    assert report.name == "derivative ladder n=0 -> 1 at z=1/3"


# sha256 of `ellipkint verify --format json` (the default suite, indent=2),
# as computed once quadratures stopped on d_L²/d_(L−1) from level 3 on and
# the suite gained the exact-to-float check
DEFAULT_SUITE_SHA256 = "3a1db934339e20e3d60ad48d1c375ef54f56996e477898f071c6eb46ee504e3e"


def test_default_suite_output_pinned(suite):
    text = json.dumps(suite.to_json(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SUITE_SHA256


def test_structure_covers_every_compared_closed_form():
    def default(check, name):
        return inspect.signature(check).parameters[name].default

    compared = max(
        default(check_identity, "n_max"),
        verify.LADDER_N_MAX + 1,  # the ladder's I_{n+1}
        default(check_relations, "max_index"),
        *(n for _, n, *_ in verify._published_tables()),
    )
    assert default(check_structure, "n_max") >= compared


# every public entry that takes an order up to which the family index runs,
# each handed one order that is not a nonnegative integer
ORDER_ENTRY_POINTS = {
    "check_identity": lambda order: check_identity(n_max=order, z_grid=(F(1),)),
    "check_derivative_step": lambda order: check_derivative_step(order, 1),
    "check_relations": lambda order: check_relations(max_index=order),
    "check_structure": lambda order: check_structure(order),
}


NOT_AN_INDEX = pytest.mark.parametrize(
    "value", [0.5, 1.5, F(5, 2), "2", True], ids=["0.5", "1.5", "5/2", "str", "bool"]
)


@NOT_AN_INDEX
@pytest.mark.parametrize("entry", sorted(ORDER_ENTRY_POINTS))
def test_every_order_entry_point_rejects_a_non_integer_order(entry, value):
    with pytest.raises(DomainError, match="nonnegative integer"):
        ORDER_ENTRY_POINTS[entry](value)


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


@NOT_AN_INDEX
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
def test_every_index_entry_point_rejects_a_non_integer_index(entry, value):
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
    "check_identity": lambda z: check_identity(n_max=0, z_grid=(1, z)),
    "check_order_swap": lambda z: check_order_swap(z_grid=(1, z)),
    "check_derivative_step": lambda z: check_derivative_step(0, z),
    "check_inner_closed_form": lambda z: check_inner_closed_form(z_grid=(1, z)),
}


@pytest.mark.parametrize(
    "z", [0, -1, math.nan, math.inf, mpmath.inf], ids=["0", "-1", "nan", "inf", "mpf-inf"]
)
@pytest.mark.parametrize("entry", sorted(Z_ENTRY_POINTS))
def test_every_z_entry_point_rejects_z_outside_the_domain(entry, z):
    with pytest.raises(DomainError, match="positive and finite"):
        Z_ENTRY_POINTS[entry](z)


# every public entry that takes a check tolerance, each handed one bad
# tolerance; Precision.abs_tol, under the same rule, has its own test
TOL_ENTRY_POINTS = {
    "run_suite": lambda tol: run_suite(tol=tol),
    "check_identity": lambda tol: check_identity(0, (1,), tol=tol),
    "check_derivative_step": lambda tol: check_derivative_step(0, 1, rel_tol=tol),
    "check_order_swap": lambda tol: check_order_swap((1,), tol=tol),
    "check_inner_closed_form": lambda tol: check_inner_closed_form([1], [0.5], tol=tol),
    "audit_published_tables": lambda tol: audit_published_tables(tol=tol),
    "check_relations": lambda tol: check_relations(2, tol=tol),
}


@pytest.mark.parametrize(
    "tol", [math.nan, -1.0, 0, math.inf, "1e-10"], ids=["nan", "-1", "0", "inf", "str"]
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


def test_each_check_alone_matches_its_report_in_the_suite(suite):
    alone = [
        check_structure(),
        check_identity(),
        check_inner_closed_form(),
        check_order_swap(),
        *[
            check_derivative_step(n, z)
            for n in range(verify.LADDER_N_MAX + 1)
            for z in verify.LADDER_Z_GRID
        ],
        *audit_published_tables(),
        check_exact_to_float(),
        check_relations(),
    ]
    assert alone == suite.reports


def test_suite_raises_when_a_quadrature_cannot_converge():
    # the batch's below-one-ulp stop has its own test in test_quadrature.py
    with pytest.raises(ToleranceNotReached):
        run_suite(prec=Precision(abs_tol=1e-30, max_level=3))
