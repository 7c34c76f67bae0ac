"""Run the full cross-verification suite and inspect the one known mismatch.

The suite checks the integral identity over an (n, z) grid, the
order-of-integration swap, the inner-integral closed form, the derivative
ladder by finite differences, the published tables, the exact values in
floating point, and the pairwise rational relations.  One published entry
(I_2(3)) is expected to disagree: its printed surd is sqrt(2) where both
independent routes give sqrt(3).
"""

from ellipkint import run_suite

result = run_suite()
print(result.text())

print("\nThe interesting line in detail:")
for report in result.reports:
    if "MISMATCH" in report.name:
        for piece in report.notes.split(" | "):
            print("   ", piece)
