import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polyheight import (PolyOverK, SplitPoly, check_alphabound1,
                        check_alphabound2, check_bound1, check_bound2,
                        check_complexmahler, count_unity_roots, height,
                        int_to_poly, quadratic_field, rationals,
                        roots_of_unity)
from polyheight import bounds, polynomials
from polyheight.cli import main
from polyheight.polynomials import (has_unit_mahler, intpoly_content,
                                    intpoly_graeffe, intpoly_mul, intpoly_pow,
                                    is_primitive_int)

from conftest import ALL_FIELDS, random_element
from oracles import mahler_via_polyroots, unit_mahler_via_factoring


def test_expand_examples():
    q = rationals()
    s = SplitPoly(q.one(), [q.element(1), q.element(-1)], q)
    assert s.expand().rational_coeffs() == [F(-1), F(0), F(1)]
    q2 = quadratic_field(-2)
    quartet = [q2.element(1), q2.element(-1), q2.element(0, 1), q2.element(0, -1)]
    s2 = SplitPoly(q2.one(), quartet, q2)
    assert s2.expand().rational_coeffs() == [F(-2), F(0), F(1), F(0), F(1)]
    s3 = SplitPoly(q2.one(), quartet * 2, q2)
    assert s3.expand().rational_coeffs() == [F(4), F(0), F(-4), F(0), F(-3), F(0), F(2), F(0), F(1)]


def test_split_poly_rejects_zero_roots():
    q = rationals()
    with pytest.raises(ValueError):
        SplitPoly(q.one(), [q.element(0)], q)
    with pytest.raises(ValueError):
        SplitPoly(q.element(0), [q.element(1)], q)


def test_poly_eval_and_division():
    q = rationals()
    f = int_to_poly([-2, 0, 1])            # x^2 - 2
    assert f(q.element(3)) == 7
    g = f.divide_root(q.element(1))
    assert g is None
    f2 = int_to_poly([-1, 0, 1])
    g = f2.divide_root(q.element(1))
    assert g.rational_coeffs() == [F(1), F(1)]


def test_divmod_roundtrip(rng):
    for field in ALL_FIELDS.values():
        for _ in range(30):
            f = PolyOverK([random_element(rng, field, nonzero=False) for _ in range(4)]
                          + [random_element(rng, field)], field)
            g = PolyOverK([random_element(rng, field, nonzero=False)]
                          + [random_element(rng, field)], field)
            quo, rem = f.divmod(g)
            recon = g * quo if quo else None
            coeffs = list(recon.coeffs) if recon else [field.zero()] * 1
            if rem is not None:
                padded = list(rem.coeffs) + [field.zero()] * (len(coeffs) - len(rem.coeffs))
                coeffs = [a + b for a, b in zip(coeffs, padded + [field.zero()] * (len(coeffs) - len(padded)))]
            assert PolyOverK(coeffs, field) == f


def test_squarefree_decomposition():
    q = rationals()
    f = int_to_poly([-1, 0, 1]) * int_to_poly([-1, 0, 1]) * int_to_poly([1, 0, 1])
    parts = f.squarefree_decomposition()
    assert sorted((g.degree, m) for g, m in parts) == [(2, 1), (2, 2)]
    total = 1
    for g, m in parts:
        total *= (1 + g.degree * m)
    f2 = int_to_poly([2])
    assert f2.squarefree_decomposition() == []
    f3 = int_to_poly([-1, 1]) ** 5
    parts = f3.squarefree_decomposition()
    assert [(g.degree, m) for g, m in parts] == [(1, 5)]


def test_squarefree_certificate_matches_yun():
    # every integer polynomial of degree <= 4 with coefficients in [-2, 2]:
    # the decomposition equals Yun's, whether or not the certificate mod P
    # decided it
    certified = repeated = 0
    for n in range(1, 5):
        for cs in itertools.product(range(-2, 3), repeat=n):
            for lead in (-2, -1, 1, 2):
                f = int_to_poly(list(cs) + [lead]).monic()
                yun = f._yun()
                assert f.squarefree_decomposition() == yun, cs + (lead,)
                certified += polynomials._squarefree_mod_prime(f)
                repeated += any(m > 1 for _, m in yun)
    assert certified > 2000 and repeated > 100


def test_squarefree_decomposition_matches_sympy():
    # random products g1^e1 g2^e2 g3^e3 of degree <= 12 against sympy.sqf_list
    rng = random.Random(20260)
    x = sympy.Symbol("x")
    for _ in range(150):
        cs = [1]
        for _ in range(rng.randint(1, 3)):
            g = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)]
            cs = intpoly_mul(cs, intpoly_pow(g, rng.randint(1, 3)))
        if len(cs) > 13:
            continue
        got = {(tuple(g.rational_coeffs()), m) for g, m in int_to_poly(cs).squarefree_decomposition()}
        _, parts = sympy.sqf_list(sum(c * x ** i for i, c in enumerate(cs)), x)
        want = set()
        for p, m in parts:
            coeffs = [F(int(c)) for c in reversed(sympy.Poly(p, x).all_coeffs())]
            if len(coeffs) > 1:
                want.add((tuple(c / coeffs[-1] for c in coeffs), m))
        assert got == want, cs


def test_squarefree_prime_dividing_lead_falls_through(monkeypatch):
    # P | lead: the reduction mod P drops the degree, so Yun decides
    calls = []
    yun = PolyOverK._yun

    def recording(self):
        calls.append(self)
        return yun(self)

    monkeypatch.setattr(PolyOverK, "_yun", recording)
    P = polynomials.SQUAREFREE_PRIME
    assert int_to_poly([1, 1, P]).squarefree_decomposition() == [(int_to_poly([F(1, P), F(1, P), 1]), 1)]
    assert int_to_poly([1, 2 * P, P * P]).squarefree_decomposition() == [(int_to_poly([F(1, P), 1]), 2)]
    assert len(calls) == 2
    assert int_to_poly([1, 1, 1]).squarefree_decomposition() == [(int_to_poly([1, 1, 1]), 1)]
    assert len(calls) == 2


def test_squarefree_over_quadratic():
    q2 = quadratic_field(-2)
    r = q2.element(0, 1)
    lin = PolyOverK([-r, q2.one()], q2)
    f = lin * lin * PolyOverK([q2.element(-1), q2.one()], q2)
    parts = f.squarefree_decomposition()
    assert sorted((g.degree, m) for g, m in parts) == [(1, 1), (1, 2)]


def _sympy_squarefree(cs) -> set:
    """sympy.sqf_list of an integer polynomial as (monic coefficients, multiplicity)."""
    x = sympy.Symbol("x")
    _, parts = sympy.sqf_list(sum(c * x ** i for i, c in enumerate(cs)), x)
    want = set()
    for p, m in parts:
        coeffs = [F(int(c)) for c in reversed(sympy.Poly(p, x).all_coeffs())]
        if len(coeffs) > 1:
            want.add((tuple(c / coeffs[-1] for c in coeffs), m))
    return want


@st.composite
def repeated_products(draw):
    """g h^2 k^3 of degree at most 24, coefficients up to 10^6 in absolute
    value, times a rational lead, as (integer coefficients, lead)."""
    big = st.integers(-10 ** 6, 10 ** 6)
    dg = draw(st.integers(1, 6))
    dh = draw(st.integers(0, (24 - dg) // 2))
    dk = draw(st.integers(0, min(3, (24 - dg - 2 * dh) // 3)))
    cs = [1]
    for d, e in ((dg, 1), (dh, 2), (dk, 3)):
        if d:
            part = draw(st.lists(big, min_size=d, max_size=d)) + [draw(st.integers(1, 10 ** 6))]
            cs = intpoly_mul(cs, intpoly_pow(part, e))
    lead = F(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
    return cs, lead


@settings(max_examples=6, deadline=None, database=None)
@given(repeated_products())
def test_integer_yun_matches_field_yun_and_sympy(case):
    cs, lead = case
    f = int_to_poly([lead * c for c in cs])
    parts = f.squarefree_decomposition()
    assert parts == f.monic()._yun()
    assert {(tuple(g.rational_coeffs()), m) for g, m in parts} == _sympy_squarefree(cs)


def test_gcd_certificate_rejects_a_proper_common_divisor():
    # f = (x - 1)^2 (x - 2)^2: x - 1 divides f and f', but the cofactors
    # share x - 2, so only (x - 1)(x - 2) is certified
    f = intpoly_mul(intpoly_pow([-1, 1], 2), intpoly_pow([-2, 1], 2))
    df = [k * c for k, c in enumerate(f)][1:]
    assert polynomials._certified_quotients(f, df, [-1, 1]) is None
    assert polynomials._certified_quotients(f, df, [2, -3, 1]) == ([2, -3, 1], [-6, 4])
    assert polynomials._heuristic_gcd(f, df) == ([2, -3, 1], [2, -3, 1], [-6, 4])


def test_degree_100_repeated_factor_matches_sympy():
    rng = random.Random(100)
    g = [rng.randint(-9, 9) for _ in range(34)] + [rng.randint(1, 9)]
    h = [rng.randint(-9, 9) for _ in range(33)] + [rng.randint(1, 9)]
    cs = intpoly_mul(g, intpoly_pow(h, 2))
    parts = int_to_poly(cs).squarefree_decomposition()
    assert [(g.degree, m) for g, m in parts] == [(34, 1), (33, 2)]
    assert {(tuple(g.rational_coeffs()), m) for g, m in parts} == _sympy_squarefree(cs)


def test_rational_input_never_runs_the_field_gcd(monkeypatch):
    def field_gcd(f, g):
        raise AssertionError("PolyOverK.gcd ran")

    monkeypatch.setattr(PolyOverK, "gcd", staticmethod(field_gcd))
    for cs, shape in ((intpoly_pow([F(-1, 3), 0, 1], 2), [(2, 2)]),
                      (intpoly_mul(intpoly_pow([1, 0, 1], 3), [5, -7, 0, 2]), [(3, 1), (2, 3)]),
                      ([F(c, 7) for c in intpoly_pow([-4, 1, 6], 5)], [(2, 5)])):
        parts = int_to_poly(cs).squarefree_decomposition()
        assert [(g.degree, m) for g, m in parts] == shape


def test_intpoly_helpers():
    sq = intpoly_pow([-1, 0, 1], 2)
    assert sq == [1, 0, -2, 0, 1]
    m = 10
    pw = intpoly_pow([-1, 0, 1], m)
    assert sum(map(abs, pw)) == 2 ** m
    assert max(abs(c) for c in pw) == math.comb(m, m // 2)
    assert intpoly_content([6, 9, 12]) == 3
    assert is_primitive_int([4, 0, -4, 0, -3, 0, 2, 0, 1])
    assert intpoly_mul([1, 1], [1, 1]) == [1, 2, 1]


def test_has_unit_mahler():
    assert has_unit_mahler([-1, 1])            # x - 1
    assert has_unit_mahler([1, 1, 1])          # x^2 + x + 1
    assert has_unit_mahler([-1, 0, 0, 0, 1])   # x^4 - 1
    assert has_unit_mahler([0, 0, 1])          # x^2
    assert has_unit_mahler([1, 2, 1])          # (x+1)^2
    assert not has_unit_mahler([-2, 1])        # x - 2
    assert not has_unit_mahler([-1, 2])        # 2x - 1 (lead 2)
    assert not has_unit_mahler([-1, -1, 0, 1])  # plastic-number cubic
    assert not has_unit_mahler([-1, -1, 1])    # golden ratio


LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]   # measure 1.17628...


def _cyclotomic(order: int) -> list[int]:
    x = sympy.Symbol("x")
    return [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()[::-1]]


def test_has_unit_mahler_matches_sympy_on_small_polys():
    # every integer polynomial of degree <= 4 with coefficients in [-2, 2]
    for cs in itertools.product(range(-2, 3), repeat=5):
        if any(cs):
            assert has_unit_mahler(cs) == unit_mahler_via_factoring(cs), cs


def test_has_unit_mahler_high_degree(monkeypatch):
    rng = random.Random(11)
    orders = [m for m in range(1, 200) if sympy.totient(m) <= 20]
    products = 0
    while products < 25:
        f = [1]
        while len(f) - 1 < 20:
            f = intpoly_mul(f, _cyclotomic(rng.choice(orders)))
        if len(f) - 1 > 40:
            continue
        products += 1
        sign, shift = rng.choice([-1, 1]), rng.randint(0, 2)
        assert has_unit_mahler([0] * shift + [sign * c for c in f])
        assert not has_unit_mahler(intpoly_mul(f, [-1, -1, 1]))    # times x^2 - x - 1
    assert not has_unit_mahler(LEHMER)
    assert not has_unit_mahler(intpoly_mul(LEHMER, _cyclotomic(7)))
    # random monic polynomials with |f(0)| = 1 are decided within a few
    # Graeffe steps
    steps = []
    graeffe = polynomials.intpoly_graeffe

    def counting(a):
        steps[-1] += 1
        return graeffe(a)

    monkeypatch.setattr(polynomials, "intpoly_graeffe", counting)
    for _ in range(30):
        n = rng.randint(10, 16)
        f = [rng.choice([-1, 1])] + [rng.randint(-3, 3) for _ in range(n - 1)] + [1]
        steps.append(0)
        assert has_unit_mahler(f) == unit_mahler_via_factoring(f), f
    assert max(steps) <= 8


int_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=9).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=200, deadline=None, database=None)
@given(int_polys)
def test_graeffe_step_identity(f):
    # g(x^2) = (-1)^n f(x) f(-x)
    n = len(f) - 1
    g = intpoly_graeffe(f)
    g_of_x2 = [0] * (2 * n + 1)
    g_of_x2[::2] = g
    f_of_minus_x = [c * (-1) ** i for i, c in enumerate(f)]
    assert g_of_x2 == [(-1) ** n * c for c in intpoly_mul(f, f_of_minus_x)]


@settings(max_examples=60, deadline=None, database=None)
@given(int_polys)
def test_graeffe_bracket_below_measure_power(f):
    # Mahler: max_i |g_i| / C(n, i) <= M(g) = M(f)^(2^k) for the k-th iterate
    n = len(f) - 1
    with mpmath.workdps(60):
        m = mahler_via_polyroots(f)
        slack = 1 + mpmath.mpf(10) ** -40
        g = f
        for k in range(6):
            low = max(F(abs(c), math.comb(n, i)) for i, c in enumerate(g))
            assert mpmath.mpf(low.numerator) / low.denominator <= m ** (2 ** k) * slack
            g = intpoly_graeffe(g)


@st.composite
def exactly_measured_polys(draw):
    """c * prod (x - r_j) * cyclotomic factors, degree <= 8, with its
    measure |c| prod max(1, |r_j|)."""
    lead = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    roots = draw(st.lists(st.integers(-3, 3), max_size=5))
    cyclo = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=(8 - len(roots)) // 2))
    f = [lead]
    for r in roots:
        f = intpoly_mul(f, [-r, 1])
    for order in cyclo:
        f = intpoly_mul(f, _cyclotomic(order))
    return f, abs(lead) * math.prod(max(1, abs(r)) for r in roots)


@settings(max_examples=100, deadline=None, database=None)
@given(exactly_measured_polys())
def test_cap_filter_keeps_measure_at_cap(case):
    f, m = case
    n = len(f) - 1
    assert not bounds._above_cap(f, bounds._graeffe_limits(n, F(m)))


@settings(max_examples=60, deadline=None, database=None)
@given(int_polys, st.sampled_from([1.05, 1.15, 1.3, 1.5, 2.0, 2.5]))
def test_cap_filter_skips_only_measures_above_cap(f, cap):
    n = len(f) - 1
    with mpmath.workdps(60):
        m = mahler_via_polyroots(f)
        just_above = F(int(mpmath.ceil(m * 10 ** 30)), 10 ** 30)
        assert not bounds._above_cap(f, bounds._graeffe_limits(n, just_above))
        if bounds._above_cap(f, bounds._graeffe_limits(n, F(cap))):
            assert m > cap


def test_poly_pow_matches_repeated_mul():
    f = int_to_poly([1, 2, 3])
    assert (f ** 3) == f * f * f


def test_split_poly_expanded_once(monkeypatch, capsys):
    calls = []
    multiply_out = polynomials._multiply_out

    def counting(lead, roots, field):
        calls.append(len(roots))
        return multiply_out(lead, roots, field)

    monkeypatch.setattr(polynomials, "_multiply_out", counting)
    q2 = quadratic_field(-2)
    pair = [q2.element(1), q2.element(-1), q2.element(0, 1), q2.element(0, -1)]
    s = SplitPoly(q2.one(), pair * 2, q2)       # x^8 + 2x^6 - 3x^4 - 4x^2 + 4
    for check in (check_alphabound1, check_alphabound2, check_bound2,
                  check_complexmahler):
        check(s)
    check_bound1(s, F(3, 2))
    height(s)
    assert calls == [8]
    calls.clear()
    assert main(["verify", "--field", "Q(sqrt(-2))",
                 "--poly", "x^8+2x^6-3x^4-4x^2+4", "--all"]) == 0
    capsys.readouterr()
    assert calls == [8]


@st.composite
def split_polys(draw):
    field = draw(st.sampled_from(list(ALL_FIELDS.values())))
    coord = st.fractions(-3, 3, max_denominator=2)
    sqrt_part = coord if field.degree == 2 else st.just(F(0))
    element = st.builds(field.element, coord, sqrt_part).filter(lambda x: not x.is_zero())
    root = st.one_of(element, st.sampled_from(roots_of_unity(field)))
    return SplitPoly(draw(element), draw(st.lists(root, max_size=8)), field)


@settings(max_examples=60, deadline=None, database=None)
@given(split_polys())
def test_split_poly_expansion_and_unity_count(s):
    field = s.field
    product = PolyOverK([s.lead], field)
    for r in s.roots:
        product = product * PolyOverK([-r, field.one()], field)
    assert s.expand() == product
    w = field.unity_order
    assert count_unity_roots(s) == sum(1 for r in s.roots if r ** w == field.one())
