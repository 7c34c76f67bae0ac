"""Two-route evaluation of the family ∫₀¹ K(k)·k/(z+k²)^(n+3/2) dk.

The numeric route does tanh-sinh quadrature of the integral with an AGM
kernel for K(k); the exact route runs identity (1)'s recurrence in n, in
floating point at any z and over quadratic fields at special points.  The
verification module checks the two against each other.
"""

from .closedform import ClosedForm, In_exact_real, closed_form
from .elliptic import ellip_k
from .precision import (
    DEFAULT_PRECISION,
    DomainError,
    Precision,
    ToleranceNotReached,
)
from .quadfield import QuadExt
from .quadrature import (
    I0_via_swap,
    IntegralSpec,
    QuadratureResult,
    inner_integral_closed,
    inner_integral_numeric_grid,
    integral_In_numeric,
    integral_In_numeric_many,
)
from . import render  # the module; the function is render.render
from .render import exact_value_from_json
from .specialvalues import (
    CATALOG,
    ExactValue,
    SpecialPoint,
    eval_at_special,
    make_exact_value,
    relation,
)
from .verify import CheckReport, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "ellip_k",
    "Precision",
    "DEFAULT_PRECISION",
    "DomainError",
    "ToleranceNotReached",
    "QuadratureResult",
    "IntegralSpec",
    "integral_In_numeric",
    "integral_In_numeric_many",
    "inner_integral_numeric_grid",
    "inner_integral_closed",
    "I0_via_swap",
    "QuadExt",
    "ClosedForm",
    "closed_form",
    "In_exact_real",
    "SpecialPoint",
    "CATALOG",
    "ExactValue",
    "make_exact_value",
    "eval_at_special",
    "relation",
    "render",
    "exact_value_from_json",
    "CheckReport",
    "SuiteResult",
    "run_suite",
]
