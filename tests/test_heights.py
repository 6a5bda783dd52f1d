import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polyheight import (PolyOverK, SplitPoly, char_poly, count_unity_roots,
                        height, int_to_poly, mk_alpha_exact,
                        quadratic_field, rationals, roots_of_unity)
from polyheight.intervals import DEFAULT_PREC
from polyheight.polynomials import intpoly_pow
from polyheight.valuations import local_max_product

from conftest import ALL_FIELDS, random_element, random_split_poly
from oracles import local_max_by_denominator, mk_alpha_by_branches, mk_alpha_via_charpoly


def test_height_examples():
    q = rationals()
    assert height(int_to_poly([1, 0, -2, 0, 1])).exact == 2     # (x^2-1)^2
    q2 = quadratic_field(-2)
    octic = int_to_poly([4, 0, -4, 0, -3, 0, 2, 0, 1], q2)
    rep = height(octic)
    assert rep.exact == 4 and rep.nonarch == 1
    assert height(int_to_poly([-1, 2])).exact == 2              # 2x - 1
    assert height(int_to_poly([-1, 1])).exact == 1
    assert rep.height.lo >= 1


def test_height_primitive_integer_is_max_coeff(rng):
    for field in ALL_FIELDS.values():
        for _ in range(40):
            coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 10))]
            coeffs.append(rng.randint(1, 50))
            g = math.gcd(*coeffs)
            coeffs = [c // g for c in coeffs]
            rep = height(int_to_poly(coeffs, field))
            expect = max(abs(c) for c in coeffs)
            assert rep.exact == expect
            assert F(expect) in rep.height
            assert rep.height.width < 1e-20


def test_height_scale_invariance(rng):
    for field in ALL_FIELDS.values():
        for _ in range(20):
            s = random_split_poly(rng, field, max_distinct=3, max_mult=2, max_degree=6)
            f = s.expand()
            c = random_element(rng, field)
            rep1, rep2 = height(f), height(f.scale(c))
            assert rep1.height_power_exact() == rep2.height_power_exact()
            assert rep1.height.overlaps(rep2.height)


def test_height_split_fast_path_matches_generic(rng):
    for field in ALL_FIELDS.values():
        for _ in range(15):
            s = random_split_poly(rng, field, max_distinct=3, max_mult=2, max_degree=6)
            rep_split = height(s)
            rep_generic = height(s.expand())
            assert rep_split.nonarch == rep_generic.nonarch
            assert rep_split.height_power_exact() == rep_generic.height_power_exact()


def test_height_lower_bound_one(rng):
    for field in ALL_FIELDS.values():
        for _ in range(20):
            s = random_split_poly(rng, field, max_distinct=4, max_mult=2, max_degree=8)
            assert height(s).height.lo >= 1


def test_char_poly_examples():
    qi = quadratic_field(-1)
    cp = char_poly(qi.element(2))
    assert cp.coeffs == (-2, 1) and cp.power == 2 and cp.inner_degree == 1
    cp = char_poly(qi.element(1, 1))
    assert cp.coeffs == (2, -2, 1) and cp.power == 1 and cp.inner_degree == 2
    cp = char_poly(rationals().element(F(1, 2)))
    assert cp.coeffs == (-1, 2) and cp.power == 1
    cp = char_poly(qi.element(0))
    assert cp.coeffs == (0, 1) and cp.power == 2
    q5 = quadratic_field(5)
    cp = char_poly(q5.element(F(1, 2), F(1, 2)))
    assert cp.coeffs == (-1, -1, 1) and cp.power == 1


def test_char_poly_inner_degree_times_power_is_d(rng):
    for field in ALL_FIELDS.values():
        for _ in range(30):
            x = random_element(rng, field, nonzero=False)
            cp = char_poly(x, field)
            assert cp.inner_degree * cp.power == field.degree
            assert math.gcd(*cp.coeffs) == 1 and cp.coeffs[-1] > 0


def test_mk_alpha_examples():
    qi = quadratic_field(-1)
    for field in ALL_FIELDS.values():
        for zeta in roots_of_unity(field):
            assert mk_alpha_exact(zeta, field).is_one()
    assert mk_alpha_exact(qi.element(1, 1)) == 2
    assert mk_alpha_exact(qi.element(2)) == 4
    assert float(mk_alpha_exact(qi.element(1, 1)).to_interval(DEFAULT_PREC).lo) == 2.0
    assert mk_alpha_exact(qi.element(0)).is_one()


def test_mk_alpha_unit_iff_torsion(rng):
    for field in ALL_FIELDS.values():
        torsion = {(z.a, z.b) for z in roots_of_unity(field)}
        for _ in range(60):
            x = random_element(rng, field)
            is_one = mk_alpha_exact(x, field).is_one()
            assert is_one == ((x.a, x.b) in torsion)


def test_mk_alpha_inversion_invariance(rng):
    for field in ALL_FIELDS.values():
        for _ in range(40):
            x = random_element(rng, field)
            assert mk_alpha_exact(x, field) == mk_alpha_exact(x.inverse(), field)


def test_mk_alpha_route_agreement(rng):
    for field in ALL_FIELDS.values():
        for _ in range(1000):
            x = random_element(rng, field, nonzero=False)
            direct = mk_alpha_exact(x, field).to_interval(DEFAULT_PREC)
            via_cp = mk_alpha_via_charpoly(x, field)
            assert direct.overlaps(via_cp.enclosure)


BRANCH_FIELDS = [rationals()] + [quadratic_field(D) for D in (-1, -2, -3, -7, -10, 2, 5, 13, 17)]


@st.composite
def field_elements(draw):
    """A field and an element of it with numerators up to 10^12 and
    denominators up to 10^6 (zero and integral elements included)."""
    K = draw(st.sampled_from(BRANCH_FIELDS))
    num, den = st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6)
    b = F(draw(num), draw(den)) if K.degree == 2 else 0
    return K, K.element(F(draw(num), draw(den)), b)


@settings(max_examples=300, deadline=None, database=None)
@given(field_elements())
def test_one_height_matches_the_formulas_it_replaced(case):
    # M_K(alpha) = H(x - alpha)^d and the local maxima as the Gauss norm of
    # (1, alpha), against the per-kind archimedean branches and den^d / N((den, den x))
    K, x = case
    assert mk_alpha_exact(x, K) == mk_alpha_by_branches(x, K)
    for e in (1, 2, K.unity_order):
        assert local_max_product(x, K, e) == local_max_by_denominator(x, K, e)


def test_count_unity_roots_examples():
    q2 = quadratic_field(-2)
    quartet = [q2.element(1), q2.element(-1), q2.element(0, 1), q2.element(0, -1)]
    assert count_unity_roots(SplitPoly(q2.one(), quartet, q2)) == 2
    qi = quadratic_field(-1)
    s = SplitPoly(qi.one(), roots_of_unity(qi), qi)
    assert count_unity_roots(s) == 4
    q = rationals()
    s2 = SplitPoly(q.one(), [q.element(2), q.element(F(1, 2))], q)
    assert count_unity_roots(s2) == 0
    assert count_unity_roots(SplitPoly(qi.one(), [qi.element(0, 1)], qi)) == 1
    q3 = quadratic_field(-3)
    s3 = SplitPoly(q3.one(), [q3.element(F(1, 2), F(1, 2))], q3)
    assert count_unity_roots(s3) == 1
    assert count_unity_roots(SplitPoly(q.one(), [q.element(2)], q)) == 0


def test_central_binomial_height_family():
    q = rationals()
    for m in (4, 9, 20):
        coeffs = intpoly_pow([-1, 0, 1], m)
        rep = height(int_to_poly(coeffs, q))
        assert rep.exact == math.comb(m, m // 2)


def test_char_poly_matches_sympy_minimal_polynomial():
    import random

    import sympy
    x = sympy.Symbol("x")
    rng = random.Random(20261019)
    fields = [rationals()] + [quadratic_field(D) for D in (-1, -3, 5, -2)]
    for field in fields:
        elements = [field.zero(), field.element(F(-3, 2))]
        elements += [random_element(rng, field, nonzero=False, num=9, den=6) for _ in range(12)]
        for alpha in elements:
            expr = sympy.Rational(alpha.a.numerator, alpha.a.denominator)
            if field.degree == 2:
                expr += sympy.Rational(alpha.b.numerator, alpha.b.denominator) * sympy.sqrt(field.D)
            mp = sympy.Poly(sympy.minimal_polynomial(expr, x), x)
            coeffs = [int(c) for c in reversed(mp.all_coeffs())]
            if coeffs[-1] < 0:
                coeffs = [-c for c in coeffs]
            cp = char_poly(alpha, field)
            assert list(cp.coeffs) == coeffs, (field, alpha)
            assert cp.inner_degree == mp.degree()
            assert cp.power * cp.inner_degree == field.degree
            if alpha.is_rational():
                assert cp.power == field.degree
