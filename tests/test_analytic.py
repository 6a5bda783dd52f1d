import math
from fractions import Fraction as F

import mpmath
import pytest

from polyheight import (DEFAULT_PREC, PolyOverK, SplitPoly, arch_gauss_exact,
                        check_complexmahler, int_to_poly, mahler_measure,
                        quadratic_field, rationals)
from polyheight.analytic import mahler_sigma1_exact_split

from conftest import ALL_FIELDS, random_element, random_split_poly
from oracles import mahler_via_integral

RECORD_DEG10 = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
PLASTIC_CUBIC = [-1, -1, 0, 1]


def _mahler_oracle(coeffs, dps=60):
    """Independent route: mpmath.polyroots."""
    with mpmath.workdps(dps):
        roots = mpmath.polyroots(list(reversed([mpmath.mpf(c) for c in coeffs])),
                                 maxsteps=300, extraprec=200)
        m = abs(mpmath.mpf(coeffs[-1]))
        for r in roots:
            m *= max(1, abs(r))
        return float(m)


def test_mahler_paper_targets():
    m = mahler_measure(RECORD_DEG10)
    assert m.lo <= 1.176 + 1e-3 and m.hi >= 1.176 - 1e-3
    assert abs(m.enclosure.mid - _mahler_oracle(RECORD_DEG10)) < 1e-12
    m2 = mahler_measure(PLASTIC_CUBIC)
    assert m2.lo <= 1.325 + 1e-3 and m2.hi >= 1.325 - 1e-3
    assert abs(m2.enclosure.mid - _mahler_oracle(PLASTIC_CUBIC)) < 1e-12


def test_mahler_trivial_cases():
    for k in (1, 2, 5, 8):
        m = mahler_measure([-1] + [0] * (k - 1) + [1])
        assert float(m.lo) == 1.0 and float(m.hi) == 1.0
    m = mahler_measure([-1, 2])
    assert float(m.lo) == 2.0 == float(m.hi)


def test_mahler_monic_lower_bound_invariant(rng):
    for _ in range(30):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))] + [1]
        m = mahler_measure(coeffs)
        assert m.lo >= 1


def test_mahler_multiplicativity(rng):
    for _ in range(25):
        f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 9))] + [rng.randint(1, 4)]
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 9))] + [rng.randint(1, 4)]
        mf, mg = mahler_measure(f), mahler_measure(g)
        mfg = mahler_measure(int_to_poly(f) * int_to_poly(g))
        prod = mf.enclosure * mg.enclosure
        assert mfg.enclosure.overlaps(prod)
        assert mfg.width < 1e-10 and prod.width < 1e-10


def test_mahler_length_and_lead_bounds(rng):
    for _ in range(30):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 10))] + [rng.randint(1, 6)]
        m = mahler_measure(coeffs)
        assert m.hi <= sum(abs(c) for c in coeffs) + 1e-12
        assert m.lo >= abs(coeffs[-1]) - 1e-12


def test_mahler_zero_root_padding(rng):
    for _ in range(10):
        coeffs = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(4)] + [rng.randint(1, 5)]
        m1 = mahler_measure(coeffs)
        m2 = mahler_measure([0] + coeffs)
        assert m1.enclosure.overlaps(m2.enclosure)
        assert abs(m1.enclosure.mid - m2.enclosure.mid) < 1e-30


def test_mahler_integral_cross_check():
    # low-precision circle-integral route, away from unit-circle roots
    for coeffs in ([-2, 1], [-1, -1, 1], [7, 3, 2], [3, 0, 0, 5]):
        m = mahler_measure(coeffs)
        approx = mahler_via_integral(coeffs, npoints=1 << 14)
        assert abs(approx - m.enclosure.mid) < 1e-4


def test_arch_gauss_examples():
    qi = quadratic_field(-1)
    p1 = PolyOverK([qi.element(-1, -1), qi.one()], qi)
    assert float(arch_gauss_exact(p1, qi).to_interval(DEFAULT_PREC).lo) == 2.0
    q = rationals()
    assert float(arch_gauss_exact(int_to_poly([-1, 2]), q).to_interval(DEFAULT_PREC).lo) == 2.0
    q2 = quadratic_field(2)
    p2 = PolyOverK([q2.element(-1, -1), q2.one()], q2)
    iv = arch_gauss_exact(p2, q2).to_interval(DEFAULT_PREC)
    assert abs(iv.mid - 2.414213562373095) < 1e-12
    # rational coefficients: (max |a_i|)^d exactly
    for field in ALL_FIELDS.values():
        f = int_to_poly([3, -7, 2], field)
        assert F(7 ** field.degree) in arch_gauss_exact(f, field).to_interval(DEFAULT_PREC)


def test_check_complexmahler_examples():
    for n in (1, 2, 7):
        c = check_complexmahler([-1] + [0] * (n - 1) + [1])
        assert c.verdict == "holds"
    c = check_complexmahler([-32, 80, -80, 40, -10, 1])  # (x-2)^5
    assert c.verdict == "holds"
    assert abs(c.lhs.mid - 80) < 1e-12
    assert abs(c.rhs.mid - 32 / math.sqrt(6)) < 1e-9


def test_check_complexmahler_random_suite(rng):
    # randomized checks: the inequality is a theorem, fails must not occur
    for _ in range(200):
        deg = rng.randint(1, 20)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        c = check_complexmahler(coeffs)
        assert c.verdict == "holds"


def test_check_complexmahler_split_route(rng):
    for field in ALL_FIELDS.values():
        for _ in range(10):
            s = random_split_poly(rng, field, max_distinct=4, max_mult=2, max_degree=8)
            c = check_complexmahler(s)
            assert c.verdict == "holds" and c.exact


def test_split_mahler_exact_agrees_with_enclosure(rng):
    q2 = quadratic_field(-2)
    s = random_split_poly(rng, q2, max_distinct=4, max_mult=2, max_degree=8)
    sv = mahler_sigma1_exact_split(s)
    m = mahler_measure(s.expand())
    assert float(sv.to_interval(128).mid) == pytest.approx(float(m.enclosure.mid), abs=1e-20)
