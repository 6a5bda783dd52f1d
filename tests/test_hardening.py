"""Adversarial checks beyond the core examples."""
import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from polyheight import (PolyOverK, SplitPoly, check_complexmahler,
                        ck_lower_certify, complex_roots, height, mahler_measure,
                        quadratic_field, rationals, recognize_split,
                        roots_of_unity, split_prime, valuation)
import polyheight as ph
from polyheight.gauss_lattice import is_coprime
from polyheight.intervals import RealInterval, mpf_to_fraction

from oracles import nonarch_gauss_by_primes


def _random_integer(K, rng, bound):
    """x + y*theta with theta the second integral-basis element of K."""
    x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
    if K.half_integer_basis:   # theta = (1 + sqrt(D))/2
        return K.element(x + F(y, 2), F(y, 2))
    return K.element(x, y)


def test_is_coprime_matches_gauss_norm(rng):
    # (beta, gamma) is the unit ideal exactly when the Gauss norm of the
    # pair, prod_P max(|beta|_P, |gamma|_P) = 1 / N((beta, gamma)), is 1;
    # Q(sqrt(-5)) has non-principal ideals such as (2, 1 + sqrt(-5))
    for D in (-1, -3, -5, -7, 5, 17):
        K = quadratic_field(D)
        shared = 0
        for _ in range(150):
            beta, gamma = _random_integer(K, rng, 12), _random_integer(K, rng, 12)
            if rng.random() < 0.4:   # a common factor, often a non-unit
                delta = _random_integer(K, rng, 3)
                beta, gamma = beta * delta, gamma * delta
            if beta.is_zero() and gamma.is_zero():
                continue
            expected = nonarch_gauss_by_primes([beta, gamma], K) == 1
            assert is_coprime(beta, gamma) == expected, (beta, gamma)
            shared += not expected
        assert shared >= 30
    K = quadratic_field(-5)
    assert not is_coprime(K.element(2), K.element(1, 1))
    # norms 6 and 9 share 3, but 3 splits and the two lie over different primes
    assert is_coprime(K.element(1, 1), K.element(2, 1))


def test_is_coprime_rejects_non_integral():
    K = quadratic_field(-1)
    with pytest.raises(ValueError):
        is_coprime(K.element(F(1, 2)), K.one())


def test_root_box_contains_true_algebraic_root():
    # sqrt(2) must lie inside the certified box for x^2 - 2
    rs = complex_roots([-2, 0, 1], target_width=1e-40)
    with mpmath.workprec(300):
        true_root = mpmath.sqrt(2)
        pos = [r for r in rs if r.box.re.mid > 0][0]
        assert pos.box.re.lo <= true_root <= pos.box.re.hi
        assert 0 in pos.box.im


def test_mahler_with_quadratic_coefficients():
    qi = quadratic_field(-1)
    # (x - 2i)(x - 1/2) embedded at the first embedding
    f = PolyOverK([qi.element(0, 1), qi.element(F(-1, 2), -2), qi.one()], qi)
    m = mahler_measure(f)
    assert abs(float(m.enclosure.mid) - 2.0) < 1e-12
    c = check_complexmahler(f)
    assert c.verdict == "holds"


def test_split_valuation_half_basis():
    # x = (1 + sqrt(17))/2 is integral; its split-2 valuations are {2, 0}
    q17 = quadratic_field(17)
    x = q17.element(F(1, 2), F(1, 2))
    assert x.is_integral()
    b0, b1 = split_prime(2, q17)
    vals = sorted((valuation(x, b0), valuation(x, b1)))
    assert vals == [0, 2]           # N(x) = (1 - 17)/4 = -4
    y = q17.element(1, 1)           # 1 + sqrt(17): N = -16
    vals = sorted((valuation(y, b0), valuation(y, b1)))
    assert vals == [1, 3]
    assert valuation(x, b0) + valuation(x, b1) == 2


def test_recognize_split_high_multiplicity():
    q = rationals()
    s = SplitPoly(q.element(3), [q.element(F(1, 2))] * 7 + [q.element(-2)] * 2, q)
    rec = recognize_split(s.expand(), q)
    assert rec == s


def test_recognize_split_torsion_heavy():
    q3 = quadratic_field(-3)
    s = SplitPoly(q3.element(1), roots_of_unity(q3) * 2, q3)
    rec = recognize_split(s.expand(), q3)
    assert rec == s


def test_recognize_split_near_miss():
    # (x^2 - 2)(x - 1) over Q: the rational root must not drag the
    # irrational pair along
    q = rationals()
    from polyheight import int_to_poly
    f = int_to_poly([2, -2, -1, 1], q)
    assert recognize_split(f, q) is None
    qs2 = quadratic_field(2)
    s = recognize_split(int_to_poly([2, -2, -1, 1], qs2), qs2)
    assert s is not None and len(s.roots) == 3


def test_recognize_split_large_lead():
    q2 = quadratic_field(-2)
    lead = q2.element(991, 97)     # norm 1001099
    s = SplitPoly(lead, [q2.element(F(1, 3), F(1, 2)), q2.element(-2, 1)], q2)
    rec = recognize_split(s.expand(), q2)
    assert rec == s


def test_certify_base_with_conjugate_irrational_roots():
    q5 = quadratic_field(5)
    base = [5, 0, -6, 0, 1]        # (x^2-1)(x^2-5)
    certs = ck_lower_certify(base, q5, 3)
    assert certs[0].sum_abs == 12
    assert all(c.cert_value <= c.height_trend for c in certs)


def test_mpf_fraction_roundtrip():
    for x in (0.5, -1.25, 3.0, 1e-30):
        assert mpf_to_fraction(mpmath.mpf(x)) == F(x)


def test_endpoints_exact_outside_precision_scope():
    # endpoints are read exactly, not re-rounded at mpmath's ambient 53 bits
    for q in (F(1, 3), F(-2, 7), F(10 ** 40, 3)):
        enc = RealInterval.from_fraction(q, 256)
        assert q in enc
        assert mpf_to_fraction(enc.lo) <= q <= mpf_to_fraction(enc.hi)
        assert 0 < mpf_to_fraction(enc.hi) - mpf_to_fraction(enc.lo) <= abs(q) / 2 ** 250


_K = quadratic_field(-1)
_X = _K.element(F(3, 2), -2)
_S = SplitPoly(_K.element(2), [_X, _K.element(1), _K.element(0, 1)], _K)
PRECISION_ENTRIES = {
    "height": lambda p: ph.height(_S, p),
    "check_alphabound1": lambda p: ph.check_alphabound1(_S, p),
    "check_bound1": lambda p: ph.check_bound1(_S, 2, p),
    "check_alphabound2": lambda p: ph.check_alphabound2(_S, p),
    "check_bound2": lambda p: ph.check_bound2(_S, p),
    "check_complexmahler": lambda p: ph.check_complexmahler(_S, p),
    "combined_bound_check": lambda p: ph.combined_bound_check(_S, 2, p),
    "SqrtValue.to_interval": lambda p: ph.SqrtValue.sqrt_of_rational(F(7, 3)).to_interval(p),
    "FieldElement.embeddings": lambda p: _X.embeddings(p),
    "embed": lambda p: ph.embed(_X, prec=p),
    "product_formula_check": lambda p: ph.product_formula_check(_X, _K, p),
    "mk_search": lambda p: ph.mk_search(_K, 3, p),
}


@pytest.mark.parametrize("bits", [16, 8192])
@pytest.mark.parametrize("entry", sorted(PRECISION_ENTRIES))
def test_precision_outside_the_supported_range_is_refused(entry, bits):
    with pytest.raises(ValueError):
        PRECISION_ENTRIES[entry](bits)


def test_height_of_torsion_products_is_one():
    for field in (rationals(), quadratic_field(-1), quadratic_field(-3)):
        s = SplitPoly(field.one(), roots_of_unity(field), field)
        rep = height(s)
        assert rep.exact == 1


def test_nested_scaling_height_exactness():
    # H(c f) recognized exactly whenever H(f) is rational and c is too
    q = rationals()
    from polyheight import int_to_poly
    f = int_to_poly([3, 1, 4, 1, 5], q)
    for c in (F(2), F(-7, 3), F(1, 1000)):
        rep = height(f.scale(q.element(c)))
        assert rep.exact == 5


def _newton_polygon_root_valuations(vn, vt):
    """Valuations of the roots of t^2 - tr*t + N over Q_p from the Newton
    polygon: points (0, v(N)), (1, v(tr)), (2, 0); vt may be None (tr = 0).
    Returns the sorted pair, in e-normalized (possibly half-integer) units."""
    if vt is not None and 2 * vt < vn:   # (1, vt) below the chord
        return sorted([F(vn - vt), F(vt)])
    return sorted([F(vn, 2), F(vn, 2)])


def test_valuations_match_newton_polygon(rng):
    import random
    from polyheight.numutil import vp
    from polyheight.valuations import element_support
    from polyheight import split_prime, valuation, quadratic_field
    for D in (-1, -2, -3, 5, 17, -7, 13, 21):
        field = quadratic_field(D)
        for _ in range(40):
            a = F(rng.randint(-9, 9), rng.randint(1, 4))
            b = F(rng.randint(-9, 9), rng.randint(1, 4))
            x = field.element(a, b)
            if x.is_zero():
                continue
            for p in sorted(element_support(x)):
                primes = split_prime(p, field)
                vn = vp(x.norm(), p)
                tr = x.trace()
                vt = vp(tr, p) if tr != 0 else None
                expected = _newton_polygon_root_valuations(vn, vt)
                if primes[0].kind == "ramified":
                    # ramification index 2: ord is twice the slope value
                    mine = [F(valuation(x, primes[0]), 2)] * 1
                    assert mine[0] == expected[0] == expected[1]
                else:
                    mine = sorted(F(valuation(x, pr)) for pr in primes)
                    if len(primes) == 1:       # inert: conjugate roots
                        mine = mine * 2
                    assert mine == expected, (D, str(x), p, mine, expected)
