"""Certified Mahler measures of small classic polynomials.

Each measure is computed from certified root enclosures; the circle
integral from the test oracles (tests/oracles.py) gives a quick
independent sanity value, and the coefficient inequality
|f|_inf >= M(f) (n+1)^(-1/2) is checked on every example.
"""
import sys
from pathlib import Path

from polyheight import check_complexmahler, mahler_measure

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import mahler_via_integral  # noqa: E402

GALLERY = [
    ("x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1", [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]),
    ("x^3-x-1 (plastic number)", [-1, -1, 0, 1]),
    ("x^2-x-1 (golden ratio)", [-1, -1, 1]),
    ("x^4-1", [-1, 0, 0, 0, 1]),
    ("2x-1", [-1, 2]),
    ("x^2-2", [-2, 0, 1]),
    ("5x^3+3x-7", [-7, 3, 0, 5]),
]

print(f"{'polynomial':<38} {'measure':<22} {'integral':<12} check")
for name, coeffs in GALLERY:
    m = mahler_measure(coeffs)
    approx = mahler_via_integral(coeffs)
    chk = check_complexmahler(coeffs)
    print(f"{name:<38} {float(m.enclosure.mid):<22.15f} {approx:<12.6f} {chk.verdict}")

record = mahler_measure(GALLERY[0][1])
print(f"\nsmallest known measure above 1: {float(record.enclosure.mid):.12f}")
print(f"enclosure width at default precision: {record.width:.3e}")
