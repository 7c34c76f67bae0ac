"""Deterministic rendering of exact values as text, LaTeX and JSON."""

from __future__ import annotations

import re
from fractions import Fraction

from .precision import DomainError
from .quadfield import QuadExt, Surd, _over_common_denominator, _pair_sign
from .specialvalues import ExactValue, make_exact_value

FORMATS = ("text", "latex", "json")


# per-format pieces: a square root, the product sign between a numeral and
# sqrt/pi, pi itself, a grouped product, a fraction and a term separator
_STYLES = {
    "text": {
        "sqrt": "sqrt({})",
        "times": "*",
        "pi": "pi",
        "group": "({})",
        "frac": "{}/{}",
        "sep": " {} ",
    },
    "latex": {
        "sqrt": "\\sqrt{{{}}}",
        "times": "",
        "pi": "\\pi",
        "group": "{}",
        "frac": "\\frac{{{}}}{{{}}}",
        "sep": "{}",
    },
}


def _style(format: str, accepts: tuple = tuple(_STYLES)):
    """The pieces of `format`, None for json; a format not in `accepts` is a DomainError."""
    if format not in accepts:
        raise DomainError(f"unknown format {format!r}; choose from {accepts}")
    return _STYLES.get(format)


def _field_element(a, b, d: int, style: dict) -> str:
    """a+b*sqrt(d), a alone when b == 0; a unit |b| is not printed."""
    if b == 0:
        return str(a)
    sign = "+" if b > 0 else "-"
    coefficient = "" if abs(b) == 1 else f"{abs(b)}{style['times']}"
    return f"{a}{sign}{coefficient}{style['sqrt'].format(d)}"


def render_quadext(r: QuadExt, format: str = "text") -> str:
    """a+b*sqrt(d) as text or LaTeX, as printed under a radical or as a point z."""
    return _field_element(r.a, r.b, r.d, _style(format))


def _term(coeff: QuadExt, surd: Surd, with_pi: bool, style: dict) -> tuple[int, str]:
    na, nb, q = _over_common_denominator(coeff)
    sign = _pair_sign(na, nb, coeff.d)
    na, nb = sign * na, sign * nb  # |coeff| over the same denominator
    numerator = _field_element(na, nb, coeff.d, style)
    if nb:
        numerator = f"({numerator})"
    times = style["times"]
    if with_pi:
        numerator = style["pi"] if numerator == "1" else f"{numerator}{times}{style['pi']}"
    parts = [str(q)] if q != 1 else []
    rad = surd.radicand
    if not (rad.b == 0 and rad.a == 1):
        parts.append(style["sqrt"].format(_field_element(rad.a, rad.b, rad.d, style)))
    if not parts:
        return sign, numerator
    denominator = times.join(parts)
    if len(parts) > 1:
        denominator = style["group"].format(denominator)
    return sign, style["frac"].format(numerator, denominator)


_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _quadext_json(x: QuadExt) -> dict:
    return {"a": _fraction_str(x.a), "b": _fraction_str(x.b), "d": x.d}


def _surd_json(s: Surd) -> dict:
    # every surd is unit-scale; the field stays so the document keeps its shape
    return {"radicand": _quadext_json(s.radicand), "scale": "1/1"}


def _fraction_from_json(text) -> Fraction:
    # exactly the "p/q" that _fraction_str writes: Fraction would also take a
    # float or a bool and quietly read another number, read "1e3", and build
    # the power of ten of "1e10000000" in full
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise DomainError(f"a rational must be a 'p/q' string of integers, got {text!r}")
    return Fraction(text)


def _quadext_from_json(obj: dict) -> QuadExt:
    # d goes through as written, so QuadExt's rule rejects 3.7 or true
    return QuadExt(_fraction_from_json(obj["a"]), _fraction_from_json(obj["b"]), obj["d"])


def _radicand_from_json(obj: dict) -> QuadExt:
    if _fraction_from_json(obj["scale"]) != 1:
        raise DomainError(f"an exact value's surds have unit scale, got {obj['scale']}")
    return _quadext_from_json(obj["radicand"])


def exact_value_from_json(obj: dict) -> ExactValue:
    """The exact value render(v, "json") wrote, normalized as make_exact_value normalizes it.

    A malformed document is a DomainError.
    """
    try:
        return make_exact_value(
            _quadext_from_json(obj["pi"]["coeff"]),
            _radicand_from_json(obj["pi"]["surd"]),
            _quadext_from_json(obj["alg"]["coeff"]),
            _radicand_from_json(obj["alg"]["surd"]),
        )
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise DomainError(f"not an exact value document: {err!r}") from err


def render(v: ExactValue, format: str = "text"):
    """Canonical string (text/latex, algebraic term first) or dict (json) for an exact value.

    The json dict is what exact_value_from_json reads back.
    """
    style = _style(format, FORMATS)
    if format == "json":
        return {
            "pi": {"coeff": _quadext_json(v.pi_coeff), "surd": _surd_json(v.pi_surd)},
            "alg": {"coeff": _quadext_json(v.alg_coeff), "surd": _surd_json(v.alg_surd)},
        }
    ordered = ((v.alg_coeff, v.alg_surd, False), (v.pi_coeff, v.pi_surd, True))
    terms = [_term(*term, style) for term in ordered if not term[0].is_zero()]
    if not terms:
        return "0"
    out = ("-" if terms[0][0] < 0 else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += style["sep"].format("-" if sign < 0 else "+") + body
    return out
