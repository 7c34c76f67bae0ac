import importlib
import json
from fractions import Fraction

import pytest

import ellipkint
from ellipkint import (
    CATALOG,
    DomainError,
    QuadExt,
    eval_at_special,
    exact_value_from_json,
    make_exact_value,
)
from ellipkint import cli
from ellipkint.render import render, render_quadext

F = Fraction


def qe(a, b=0, d=1):
    return QuadExt(F(a), F(b), d)


def test_text_golden_i0_1():
    assert render(eval_at_special(0, CATALOG["1"])) == "pi/(4*sqrt(2))"


def test_latex_golden_i1_3():
    v = eval_at_special(1, CATALOG["3"])
    assert render(v, "latex") == "\\frac{1}{72}+\\frac{7\\pi}{432\\sqrt{3}}"


def test_zero_renders_as_zero():
    v = make_exact_value(qe(0), qe(1), qe(0), qe(1))
    assert render(v) == "0"
    assert render(v, "latex") == "0"


def test_text_nested_radical():
    v = eval_at_special(0, CATALOG["cot2-pi-10"])
    assert render(v) == "pi/(10*sqrt(50+22*sqrt(5)))"


def test_text_algebraic_term_first():
    v = eval_at_special(1, CATALOG["1"])
    assert render(v) == "1/(6*sqrt(2)) + pi/(8*sqrt(2))"


def test_negative_coefficient():
    v = make_exact_value(qe(F(-1, 3)), qe(2), qe(F(1, 5)), qe(1))
    assert render(v) == "1/5 - pi/(3*sqrt(2))"


def test_quadratic_coefficient():
    v = make_exact_value(qe(3, 2, 5), qe(1), qe(0), qe(1))
    assert render(v) == "(3+2*sqrt(5))*pi"
    assert render(v, "latex") == "(3+2\\sqrt{5})\\pi"


def test_field_elements_print_one_way():
    # a unit coefficient of sqrt(d) is dropped in a coefficient just as in a radicand or a point
    v = make_exact_value(QuadExt(1, 1, 5), 1, QuadExt(-1, 1, 5) / 2, 1)
    assert render(v) == "(-1+sqrt(5))/2 + (1+sqrt(5))*pi"
    assert render(v, "latex") == "\\frac{(-1+\\sqrt{5})}{2}+(1+\\sqrt{5})\\pi"
    assert exact_value_from_json(json.loads(json.dumps(render(v, "json")))) == v


def test_unknown_format():
    v = eval_at_special(0, CATALOG["1"])
    with pytest.raises(DomainError, match="choose from"):
        render(v, "html")


@pytest.mark.parametrize("format", ["html", "json"])
@pytest.mark.parametrize("r", [QuadExt(3), QuadExt(5, 2, 5)], ids=["rational", "irrational"])
def test_render_quadext_takes_only_text_or_latex(r, format):
    # a point z has no JSON form of its own; every other format is refused by name
    with pytest.raises(DomainError, match="choose from \\('text', 'latex'\\)"):
        render_quadext(r, format)


@pytest.mark.parametrize("label", sorted(CATALOG))
@pytest.mark.parametrize("n", [0, 1, 4])
def test_json_round_trip(label, n):
    v = eval_at_special(n, CATALOG[label])
    payload = json.loads(json.dumps(render(v, "json")))
    assert exact_value_from_json(payload) == v


def _document(pi_coeff, pi_radicand, alg_coeff, alg_radicand):
    """An exact-value document with rational coefficients and radicands, as written."""

    def rational(text):
        return {"a": text, "b": "0/1", "d": 1}

    def term(coeff, radicand):
        return {"coeff": rational(coeff), "surd": {"radicand": rational(radicand), "scale": "1/1"}}

    return {"pi": term(pi_coeff, pi_radicand), "alg": term(alg_coeff, alg_radicand)}


@pytest.mark.parametrize(
    "document,expected,text",
    [
        (_document("1/1", "8/1", "0/1", "1/1"), make_exact_value(1, 8, 0, 1), "pi/(2*sqrt(2))"),
        (_document("0/1", "1/1", "1/1", "1/4"), make_exact_value(0, 1, 2, 1), "2"),
        (_document("0/1", "1/1", "0/1", "5/1"), make_exact_value(0, 1, 0, 1), "0"),
    ],
    ids=["pi-over-sqrt-8", "alg-radicand-1/4", "zero-over-sqrt-5"],
)
def test_json_reads_back_a_canonical_value(document, expected, text):
    # a surd as written, not normalized, would render pi/sqrt(8) or 1/sqrt(1/4),
    # and a zero term over sqrt(5) would compare unequal to zero
    value = exact_value_from_json(document)
    assert value == expected
    assert render(value) == text


def test_json_radicand_with_unknown_square_content_is_a_domain_error():
    # as in make_exact_value: 2**61 - 1 leaves a cofactor too large to factor
    with pytest.raises(DomainError, match="cannot factor"):
        exact_value_from_json(_document("1/1", f"{2**61 - 1}/1", "0/1", "1/1"))


def test_table_json_reads_back_value_for_value(capsys):
    points = "1,3,1/3,cot2-pi-10,cot2-pi-12"
    assert cli.main(["table", "--max-n", "100", "--points", points, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 505
    for row in rows:
        value = exact_value_from_json(row["value"])
        assert value == eval_at_special(row["n"], CATALOG[row["point"]])
        assert render(value, "json") == row["value"]


def test_json_with_a_scaled_surd_is_rejected():
    # render prints no surd scale, so pi/(4*sqrt(2)) at scale 2 would print as scale 1
    payload = render(eval_at_special(0, CATALOG["1"]), "json")
    payload["pi"]["surd"]["scale"] = "2/1"
    with pytest.raises(DomainError, match="unit scale"):
        exact_value_from_json(payload)


@pytest.mark.parametrize(
    "path,bad",
    [
        (("pi", "surd", "radicand", "d"), 3.7),
        (("pi", "surd", "radicand", "d"), True),
        (("pi", "surd", "radicand", "d"), "5"),
        (("pi", "coeff", "a"), 0.1),
        (("pi", "coeff", "a"), "one tenth"),
        # only the "p/q" render writes: no exponent, no decimal point, and
        # no power of ten built in full
        (("pi", "coeff", "a"), "1e3"),
        (("pi", "coeff", "a"), "0.5"),
        (("pi", "coeff", "a"), "1e10000000"),
        (("alg", "surd", "scale"), "1/0"),
        (("alg",), None),
        (("pi", "coeff"), ["1/10", "0/1", 1]),
    ],
    ids=[
        "d-float",
        "d-bool",
        "d-str",
        "a-float",
        "a-literal",
        "a-exponent",
        "a-decimal",
        "a-huge-exponent",
        "scale-1/0",
        "alg-null",
        "coeff-list",
    ],
)
def test_json_with_a_bad_field_is_a_domain_error(path, bad):
    # I_0(5+2sqrt5) = pi/(10*sqrt(50+22*sqrt(5))); int(3.7) or int(true) would
    # quietly read another radicand
    payload = render(eval_at_special(0, CATALOG["cot2-pi-10"]), "json")
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(DomainError):
        exact_value_from_json(payload)


def test_json_with_a_missing_field_is_a_domain_error():
    payload = render(eval_at_special(0, CATALOG["cot2-pi-10"]), "json")
    del payload["pi"]["surd"]["radicand"]["d"]
    with pytest.raises(DomainError):
        exact_value_from_json(payload)


def test_json_schema_shape():
    obj = render(eval_at_special(1, CATALOG["1"]), "json")
    assert set(obj) == {"pi", "alg"}
    assert set(obj["pi"]) == {"coeff", "surd"}
    assert obj["pi"]["coeff"] == {"a": "1/8", "b": "0/1", "d": 1}
    assert obj["pi"]["surd"]["radicand"]["a"] == "2/1"
    # rationals are strings, never floats
    assert isinstance(obj["alg"]["coeff"]["a"], str)


def test_render_submodule_is_reachable():
    import ellipkint.render as module

    assert module is importlib.import_module("ellipkint.render")
    assert ellipkint.render is module
    v = eval_at_special(2, CATALOG["1/3"])
    assert module.render(v) == "27/(10*sqrt(3)) + 177*pi/160"
    assert module.exact_value_from_json(module.render(v, "json")) == v


def test_every_public_name_resolves():
    assert [name for name in ellipkint.__all__ if not hasattr(ellipkint, name)] == []
