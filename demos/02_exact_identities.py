"""Reproduce the published exact-value tables and mint new identities.

Every value is computed in exact rational/quadratic-field arithmetic; no
floating point is involved until the final cross-check column.
"""

import mpmath

from ellipkint import CATALOG, IntegralSpec, eval_at_special, integral_In_numeric
from ellipkint.render import render

print("The classic table at z = 1:")
for n in range(4):
    print(f"  I_{n}(1) = {render(eval_at_special(n, CATALOG['1']))}")

print("\nAt the cotangent-squared points the radicals go nested:")
for label in ("cot2-pi-10", "cot2-pi-12"):
    point = CATALOG[label]
    for n in range(3):
        value = eval_at_special(n, point)
        print(f"  I_{n}({label}) = {render(value)}")

print("\nNew identities, spot-checked against quadrature:")
with mpmath.workdps(40):
    for label, n in (("cot2-pi-10", 1), ("cot2-pi-12", 2), ("1/3", 5)):
        point = CATALOG[label]
        value = eval_at_special(n, point)
        numeric = integral_In_numeric(IntegralSpec(n, point.z.to_mpf())).value
        diff = abs(value.to_mpf() - numeric)
        print(f"  I_{n}({label}) = {render(value)}")
        print(f"      |exact - quadrature| = {mpmath.nstr(diff, 2)}")

print("\nLaTeX output:")
print(" ", render(eval_at_special(1, CATALOG["3"]), "latex"))
