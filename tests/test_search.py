import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polyheight import (PolyOverK, SplitPoly, alphabound2_root_factor, ck_lower_certify,
                        int_to_poly, lattice_case_check, mahler_measure, mk_search,
                        pell_counterexample, quadratic_field, rationals,
                        real_case_samples, recognize_split, rootfind, search)
from polyheight.intervals import CertificationError
from polyheight.polynomials import intpoly_pow

from conftest import ALL_FIELDS, random_split_poly
from oracles import mk_direct_enumeration, split_by_rounded_roots, splits_by_sympy


# -- mk_search ---------------------------------------------------------------

# squarefree D in [-30, 30] whose field has a measure in (1, 3]; 1 stands for Q
MK_D = [-23, -15, -11, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 13, 17]


def test_mk_lower_fraction_is_a_lower_bound():
    for D in MK_D:
        field = rationals() if D == 1 else quadratic_field(D)
        res = mk_search(field, 3)
        assert res.value_exact.compare(res.lower_fraction) >= 0, D
        assert res.value_exact.compare(res.lower_fraction * (1 + F(1, 2 ** 50))) <= 0, D


def test_mk_search_examples():
    q = rationals()
    r = mk_search(q, 3)
    assert float(r.value.lo) == 2.0 and r.exhaustive
    polys = {w.coeffs for w in r.witnesses}
    assert (-2, 1) in polys and (-1, 2) in polys
    qi = quadratic_field(-1)
    r2 = mk_search(qi, 3)
    assert float(r2.value.lo) == 2.0
    assert (2, -2, 1) in {w.coeffs for w in r2.witnesses}
    q5 = quadratic_field(5)
    r3 = mk_search(q5, 2)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(float(r3.value.lo) - golden) < 1e-12
    assert (-1, -1, 1) in {w.coeffs for w in r3.witnesses}
    with pytest.raises(ValueError):
        mk_search(q, 1.0)
    with pytest.raises(ValueError):
        mk_search(q, 5.0)


def test_mk_search_witness_measures_match():
    # every witness's Mahler enclosure overlaps the reported minimum
    for field in ALL_FIELDS.values():
        r = mk_search(field, 3.5)
        for w in r.witnesses:
            m = mahler_measure(int_to_poly(w.expanded()))
            assert m.enclosure.overlaps(r.value.enclosure)


def test_mk_search_against_direct_enumeration():
    # independent oracle: scan field elements directly and compare minima
    for key in ("Q", "Q(i)"):
        field = ALL_FIELDS[key]
        r = mk_search(field, 3)
        values = [v for _, v in mk_direct_enumeration(field, 3)]
        assert values, "direct enumeration found candidates"
        direct_min = min(values)
        assert direct_min.compare(r.value_exact) == 0


# -- certificates ------------------------------------------------------------

def test_certificate_examples():
    q = rationals()
    certs = ck_lower_certify([-1, 0, 1], q, 1)
    assert abs(certs[0].cert_value - 2 / math.log(2)) < 1e-12
    q2 = quadratic_field(-2)
    certs = ck_lower_certify([-2, 0, 1, 0, 1], q2, 2)
    assert certs[0].sum_abs == 4
    assert abs(certs[0].cert_value - 4 / math.log(4)) < 1e-12
    assert certs[1].sum_abs == 14
    assert abs(certs[1].cert_value - 8 / math.log(14)) < 1e-12
    assert certs[1].cert_value > certs[0].cert_value


def test_certificate_errors():
    q = rationals()
    with pytest.raises(ValueError):
        ck_lower_certify([-2, 0, 2], q, 2)       # not primitive
    with pytest.raises(ValueError):
        ck_lower_certify([1, 0, 1], q, 2)        # does not split over Q
    with pytest.raises(ValueError):
        ck_lower_certify([-2, 0, 1, 0, 1], quadratic_field(-1), 2)  # wrong field


def test_certificate_budgets():
    q, q2 = rationals(), quadratic_field(-2)
    assert len(ck_lower_certify([-2, 0, 1, 0, 1], q2, 256, check_split=False)) == 256
    with pytest.raises(ValueError, match="jmax \\* deg"):
        ck_lower_certify([-1, 0, 1], q, 1025)          # degree 2050
    # sum |base| = 10^1075: sum_abs of the j-th power is exactly 10^(1075 j),
    # which prints for j = 3 and would not for j = 4
    base = [10 ** 1075 - 1, 1]
    assert ck_lower_certify(base, q, 3)[-1].sum_abs == 10 ** 3225
    with pytest.raises(ValueError, match="4300 digits"):
        ck_lower_certify(base, q, 4)


def test_certificate_soundness_invariant():
    # (nj)/log(S_j) >= n/log(S_1) is S_1^j >= S_j as exact integers
    q2 = quadratic_field(-2)
    base = [-2, 0, 1, 0, 1]
    s1 = sum(map(abs, base))
    certs = ck_lower_certify(base, q2, 30)
    for c in certs:
        assert s1 ** c.j >= c.sum_abs
        assert c.cert_value <= c.height_trend
        assert c.cert_value >= certs[0].cert_value - 1e-12


def test_certificate_infinite_trend():
    q = rationals()
    certs = ck_lower_certify([-1, 1], q, 1)   # x - 1: H = 1
    assert certs[0].height_trend == math.inf


# -- lattice scans -----------------------------------------------------------

def test_lattice_gaussian():
    qi = quadratic_field(-1)
    rep = lattice_case_check(qi, 10)
    assert rep.exponent == 4
    assert rep.min_norm == 4
    assert rep.unit_or_zero_hits == 0
    assert (((1, 0), (1, 0))) in rep.attaining_pairs


def test_lattice_eisenstein():
    q3 = quadratic_field(-3)
    rep = lattice_case_check(q3, 10)
    assert rep.exponent == 6
    assert rep.min_norm >= 4
    assert rep.unit_or_zero_hits == 0


def test_lattice_small_radii():
    qi = quadratic_field(-1)
    for radius in (1, 2, 5):
        rep = lattice_case_check(qi, radius)
        assert rep.min_norm >= 4


def test_lattice_unsupported_field():
    with pytest.raises(ValueError):
        lattice_case_check(quadratic_field(-2), 5)
    with pytest.raises(ValueError):
        lattice_case_check(quadratic_field(-1), 0)


def test_lattice_pair_budget():
    # the smallest radii over the budget: 47 over Q(i) gives 2256 elements,
    # 2 545 896 pairs; 33 over Q(sqrt(-3)) 2244 elements, 2 518 890 pairs
    for D, radius in ((-1, 47), (-3, 33), (-1, 10 ** 6)):
        with pytest.raises(ValueError, match="budget"):
            lattice_case_check(quadratic_field(D), radius)


# -- real case ---------------------------------------------------------------

def test_real_case_spec_values():
    q5 = quadratic_field(5)
    assert alphabound2_root_factor(q5.one(), q5, 2) == 4                 # equality case
    assert alphabound2_root_factor(q5.element(0, 1), q5, 2) == 36        # alpha = sqrt 5
    assert alphabound2_root_factor(q5.element(0, F(1, 5)), q5, 2) == 36  # alpha = 1/sqrt 5


def test_real_case_samples():
    for key in ("Q", "Q(sqrt5)"):
        field = ALL_FIELDS[key]
        checks = real_case_samples(field, 100, seed=7)
        assert len(checks) == 100
        assert all(c.holds for c in checks)
        assert all(c.threshold == 2 ** field.degree for c in checks)
    with pytest.raises(ValueError):
        real_case_samples(quadratic_field(-1), 5)


# -- Pell --------------------------------------------------------------------

def _pell_brute(d, limit=10000):
    for y in range(1, limit):
        x2 = d * y * y + 1
        x = math.isqrt(x2)
        if x * x == x2:
            return x, y
    raise AssertionError("no solution in range")


def test_pell_fundamental_matches_brute_force():
    for d in (2, 5, 6, 7, 10, 13):
        w = pell_counterexample(d)
        assert (w.b, w.c) == _pell_brute(d)
        assert w.b * w.b - d * w.c * w.c == 1


def test_pell_product_exactly_one():
    for d in (2, 5, 6, 7, 10):
        w = pell_counterexample(d)
        assert w.product == 1            # rational equality, zero tolerance
        assert w.product <= 1


def test_pell_errors():
    with pytest.raises(ValueError):
        pell_counterexample(4)    # square
    with pytest.raises(ValueError):
        pell_counterexample(8)    # not squarefree
    with pytest.raises(ValueError):
        pell_counterexample(1)


def test_pell_budgets():
    # the continued fraction stops at a 4300-digit solution, and d must be
    # within the |D| budget of the field Q(sqrt(-d))
    for d in (1000000007, 10000000019):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            pell_counterexample(d)
    with pytest.raises(ValueError, match="budget"):
        pell_counterexample(10 ** 18 + 1)
    w = pell_counterexample(100003)   # a 174-digit solution
    assert w.b * w.b - 100003 * w.c * w.c == 1 and w.product == 1


# -- recognize_split ----------------------------------------------------------

def test_recognize_split_examples():
    q2 = quadratic_field(-2)
    s = recognize_split([4, 0, -4, 0, -3, 0, 2, 0, 1], q2)
    assert s is not None
    counts = {}
    for r in s.roots:
        counts[(r.a, r.b)] = counts.get((r.a, r.b), 0) + 1
    assert counts == {(1, 0): 2, (-1, 0): 2, (0, 1): 2, (0, -1): 2}
    q5 = quadratic_field(5)
    assert recognize_split([1, 0, 1], q5) is None
    qi = quadratic_field(-1)
    s2 = recognize_split([-1, 0, 0, 0, 1], qi)
    assert s2 is not None and len(s2.roots) == 4


def test_recognize_split_not_split_cases():
    q = rationals()
    assert recognize_split([-2, 0, 1], q) is None       # sqrt 2 not rational
    assert recognize_split([1, 0, 1], q) is None        # complex roots
    assert recognize_split([0, 1], q) is None           # root zero
    assert recognize_split([0, 0, 1], q) is None
    # but x^2 - 2 splits over Q(sqrt(2))
    qs2 = quadratic_field(2)
    s = recognize_split([-2, 0, 1], qs2)
    assert s is not None


def test_recognize_split_half_integer_roots():
    q5 = quadratic_field(5)
    golden = q5.element(F(1, 2), F(1, 2))
    sp = SplitPoly(q5.element(1), [golden, golden.conj()], q5)
    rec = recognize_split(sp.expand(), q5)
    assert rec == sp
    q3 = quadratic_field(-3)
    zeta = q3.element(F(1, 2), F(1, 2))
    sp2 = SplitPoly(q3.element(2, 1), [zeta, zeta ** 5, q3.element(-2)], q3)
    rec2 = recognize_split(sp2.expand(), q3)
    assert rec2 == sp2


def test_recognize_split_large_denominators():
    # 17-digit denominators: a root of x - 1/(M sqrt(D)) has coordinates far
    # beyond double precision
    M = 100000000000000003
    for D in (-1, -3, 5):
        K = quadratic_field(D)
        r = K.one() / (M * K.element(0, 1))     # 1 / (M sqrt(D))
        s = SplitPoly(K.one(), [r], K)
        assert recognize_split(s.expand(), K) == s
    for D in (-1, 5, -7):
        K = quadratic_field(D)
        s = SplitPoly(K.element(3), [K.element(0, F(1, M * D)),
                                     K.element(F(1, M), F(2, M * D))], K)
        assert recognize_split(s.expand(), K) == s


def test_recognize_split_roundtrip(rng):
    # ledgered scale: 150 per field, degree <= 8
    for field in ALL_FIELDS.values():
        for _ in range(150):
            s = random_split_poly(rng, field, max_distinct=4, max_mult=2, max_degree=8)
            rec = recognize_split(s.expand(), field)
            assert rec == s, (field.descriptor(), s)


def test_recognize_split_scaled_coefficients(rng):
    # non-integral leading coefficients exercise the denominator bound
    q2 = quadratic_field(-2)
    s = SplitPoly(q2.element(F(3, 7), F(1, 2)), [q2.element(F(1, 3)), q2.element(0, F(2, 3))], q2)
    rec = recognize_split(s.expand(), q2)
    assert rec == s


# -- recognize_split against the rounded-root oracle --------------------------

RECOGNIZER_FIELDS = [rationals()] + [quadratic_field(D) for D in (-1, -2, -3, -7, 2, 5, 17)]
M17 = 100000000000000003


@st.composite
def recognizer_inputs(draw):
    """A field and a polynomial over it: split with multiplicities 1-3,
    with half-integer or 15-digit coordinates, x - sqrt(D)/M17, or one of
    these with a perturbed coefficient, which usually no longer splits."""
    K = draw(st.sampled_from(RECOGNIZER_FIELDS))
    kind = draw(st.sampled_from(["small", "half", "wide", "tiny"]))
    if kind == "tiny":
        roots = [K.one() / M17 if K.is_rational else K.element(0, F(1, M17))]
        lead = K.one()
    else:
        if kind == "wide":
            coord = st.integers(-10 ** 15, 10 ** 15)
        elif kind == "half":
            coord = st.integers(-9, 9).map(lambda n: F(2 * n + 1, 2))
        else:
            coord = st.fractions(-6, 6, max_denominator=4)
        roots = []
        for _ in range(draw(st.integers(1, 3 if kind == "wide" else 4))):
            b = draw(coord) if K.degree == 2 and draw(st.booleans()) else 0
            x = K.element(draw(coord), b)
            if x:
                roots += [x] * draw(st.integers(1, 3))
        lead = K.element(draw(st.integers(1, 5)), draw(st.integers(-2, 2)) if K.degree == 2 else 0)
    cs = list(SplitPoly(lead, roots, K).expand().coeffs) if roots else [lead]
    if len(cs) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(cs) - 2))
        cs[i] = cs[i] + K.element(draw(st.integers(-3, 3).filter(bool)),
                                  draw(st.integers(-1, 1)) if K.degree == 2 else 0)
    return K, PolyOverK(cs, K)


@settings(max_examples=400, deadline=None)
@given(recognizer_inputs())
def test_recognize_split_matches_rounded_root_oracle(case):
    K, f = case
    rec = recognize_split(f, K)
    try:
        assert rec == split_by_rounded_roots(f, K, max_prec=1024)
    except CertificationError:
        # the oracle stops at 1024 bits: some near-double roots of 15-digit
        # size over Q(sqrt(17)) are not isolated even at 4096; sympy decides
        assert (rec is not None) == splits_by_sympy(f, K)


def test_recognize_split_needs_every_lifted_digit():
    # 15-digit roots whose lead * alpha is not determined mod P^(k-1), one
    # p-adic digit below the lifting bound (found by a scan of such roots)
    for D, lead, roots in ((-7, (5, 0), [(F(-56618397692850, 11), 373175644907245)]),
                           (-7, (4, -2), [(-331627216854281, 48804559115132), (-1, 0)]),
                           (5, (3, 2), [(F(93304328205355, 3), 614859373277899)]),
                           (5, (4, -1), [(195200009642034, -433576834349464)]),
                           (-3, (1, -2), [(F(-886434495066854, 7), 505527498415982)])):
        K = quadratic_field(D)
        s = SplitPoly(K.element(*lead), [K.element(*r) for r in roots], K)
        assert recognize_split(s.expand(), K) == s


def test_recognize_split_high_degree(monkeypatch):
    # primes no larger than the largest multiplicity mod p are skipped in
    # one step: (x - 1)^200 is lifted at 211, right after 3
    primes = []
    real = search._roots_mod
    monkeypatch.setattr(search, "_roots_mod", lambda cs, p: primes.append(p) or real(cs, p))
    q = rationals()
    for roots, first_primes in (([1] * 200, [3, 211]), ([1] * 100 + [-1] * 100, [3, 101]),
                                (range(1, 101), [3, 37])):
        primes.clear()
        s = SplitPoly(q.one(), [q.element(r) for r in roots], q)
        assert recognize_split(s.expand(), q) == s
        assert primes[:2] == first_primes


def test_recognize_split_needs_no_root_isolation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("root isolation entered")
    monkeypatch.setattr(rootfind, "isolate_roots", refuse)
    q2, q5 = quadratic_field(-2), quadratic_field(5)
    assert recognize_split([4, 0, -4, 0, -3, 0, 2, 0, 1], q2) is not None
    assert recognize_split([1, 0, 1], q5) is None
    assert recognize_split([-1] + [0] * 2999 + [1], rationals()) is None
    assert ck_lower_certify([5, 0, -6, 0, 1], q5, 2)[0].sum_abs == 12
