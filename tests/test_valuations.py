import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polyheight import (PolyOverK, int_to_poly, nonarch_gauss_product,
                        product_formula_check, quadratic_field, rationals,
                        split_prime, valuation)
from polyheight.valuations import (INFINITE, MAX_FACTORED, _hensel_root, abs_at,
                                   element_support, ideal_norm, local_max_product,
                                   primes_above)

from conftest import ALL_FIELDS, random_element
from oracles import local_max_by_primes, nonarch_gauss_by_primes


def test_split_prime_examples():
    qi = quadratic_field(-1)
    ps = split_prime(5, qi)
    assert [p.kind for p in ps] == ["split", "split"]
    assert all(p.residue_norm == 5 for p in ps)
    (p3,) = split_prime(3, qi)
    assert p3.kind == "inert" and p3.residue_norm == 9
    (p2,) = split_prime(2, quadratic_field(-2))
    assert p2.kind == "ramified" and p2.residue_norm == 2
    (pq,) = split_prime(7, rationals())
    assert pq.kind == "rational" and pq.residue_norm == 7
    with pytest.raises(ValueError):
        split_prime(6, qi)


def test_split_prime_2_half_basis():
    q17 = quadratic_field(17)
    ps = split_prime(2, q17)
    assert [p.kind for p in ps] == ["split", "split"]
    # the two Hensel branches square to 17 2-adically
    for p in ps:
        r = p.lifted_root(10)
        assert (r * r - 17) % 2 ** 10 == 0
    q5 = quadratic_field(5)
    (p2,) = split_prime(2, q5)
    assert p2.kind == "inert"


def test_valuation_examples():
    qi = quadratic_field(-1)
    (p2,) = split_prime(2, qi)
    assert valuation(qi.element(2), p2) == 2        # (2) = (1+i)^2 times a unit
    b0, b1 = split_prime(5, qi)
    x = qi.element(2, 1)
    vals = sorted((valuation(x, b0), valuation(x, b1)))
    assert vals == [0, 1]
    assert valuation(x.conj(), b0) == valuation(x, b1)
    assert valuation(x.conj(), b1) == valuation(x, b0)
    (p3,) = split_prime(3, qi)
    third = qi.element(F(1, 3))
    assert valuation(third, p3) == -1
    assert abs_at(third, p3) == 9


def test_valuation_zero_is_infinite():
    qi = quadratic_field(-1)
    (p2,) = split_prime(2, qi)
    assert valuation(qi.element(0), p2) == INFINITE
    assert valuation(qi.element(0), p2) == math.inf
    assert abs_at(qi.element(0), p2) == 0


def test_hensel_root_cache_is_bounded():
    assert _hensel_root.cache_info().maxsize is not None


def test_valuation_additive(rng):
    for field in ALL_FIELDS.values():
        for _ in range(40):
            x = random_element(rng, field)
            y = random_element(rng, field)
            support = element_support(x) | element_support(y)
            for pr in primes_above(support, field):
                assert valuation(x * y, pr) == valuation(x, pr) + valuation(y, pr)


def test_valuation_norm_identity(rng):
    # prod over primes of residue_norm^ord(x) equals |N(x)| exactly
    for field in ALL_FIELDS.values():
        for _ in range(60):
            x = random_element(rng, field)
            prod = F(1)
            for pr in primes_above(element_support(x), field):
                prod *= F(pr.residue_norm) ** valuation(x, pr)
            assert prod == x.abs_norm()


def test_half_integer_units_have_zero_valuation():
    q5 = quadratic_field(5)
    gold = q5.element(F(1, 2), F(1, 2))
    for pr in primes_above({2, 3, 5}, q5):
        assert valuation(gold, pr) == 0
    q3 = quadratic_field(-3)
    zeta = q3.element(F(1, 2), F(1, 2))
    for pr in primes_above({2, 3, 5, 7}, q3):
        assert valuation(zeta, pr) == 0


def test_nonarch_gauss_examples():
    q = rationals()
    assert nonarch_gauss_product(int_to_poly([6, 2]), q) == F(1, 2)
    qi = quadratic_field(-1)
    g = PolyOverK([qi.element(2), qi.element(1, 1)], qi)
    assert nonarch_gauss_product(g, qi) == F(1, 2)
    q2 = quadratic_field(-2)
    octic = int_to_poly([4, 0, -4, 0, -3, 0, 2, 0, 1], q2)
    assert nonarch_gauss_product(octic, q2) == 1
    # any primitive integer polynomial has discrete product 1
    assert nonarch_gauss_product(int_to_poly([3, 5, 7]), q) == 1
    with pytest.raises(ValueError):
        nonarch_gauss_product([q.element(0)], q)


def test_gauss_multiplicativity(rng):
    for field in ALL_FIELDS.values():
        for _ in range(50):
            f = PolyOverK([random_element(rng, field, nonzero=False) for _ in range(3)]
                          + [random_element(rng, field)], field)
            g = PolyOverK([random_element(rng, field, nonzero=False) for _ in range(2)]
                          + [random_element(rng, field)], field)
            assert (nonarch_gauss_product(f * g, field)
                    == nonarch_gauss_product(f, field) * nonarch_gauss_product(g, field))


# a prime pi of norm p at a split prime p, per D
_SPLIT_PI = {-1: (2, 1), -3: (2, 1), 5: (F(7, 2), F(1, 2)), -2: (1, 1),
             -7: (F(1, 2), F(1, 2)), 17: (F(5, 2), F(1, 2))}
_SPLIT_PI_NORM = {-1: 5, -3: 7, 5: 11, -2: 3, -7: 2, 17: 2}


def _gauss_product_full_support(coeffs, field):
    """prod_P max_i |a_i|_P over the primes of every den and every norm
    numerator."""
    coeffs = [c for c in coeffs if not c.is_zero()]
    out = F(1)
    for pr in primes_above(set().union(*map(element_support, coeffs)), field):
        out *= F(pr.residue_norm) ** -min(valuation(c, pr) for c in coeffs)
    return out


def test_gauss_support_matches_full_support(rng):
    # only primes dividing the gcd of the norm numerators or the den of a
    # non-integral coefficient are visited; pi / conj(pi) has norm 1 but
    # valuations +1 and -1 at the two primes above a split p
    fields = list(ALL_FIELDS.values()) + [quadratic_field(-7), quadratic_field(17)]
    for field in fields:
        specials = [field.element(6), field.element(F(5, 12))]
        if field.degree == 2:
            pi = field.element(*_SPLIT_PI[field.D])
            assert pi.is_integral() and pi.abs_norm() == _SPLIT_PI_NORM[field.D]
            specials += [pi, pi / pi.conj(), pi.conj() / pi, pi * pi, pi * pi / pi.conj()]
        for _ in range(120):
            coeffs = [random_element(rng, field, nonzero=False, num=12, den=6)
                      * (rng.choice(specials) if rng.random() < 0.5 else 1)
                      for _ in range(rng.randint(1, 5))]
            coeffs.append(rng.choice(specials))
            if rng.random() < 0.3:   # a common factor
                shared = rng.choice(specials)
                coeffs = [c * shared for c in coeffs]
            assert (nonarch_gauss_product(coeffs, field)
                    == _gauss_product_full_support(coeffs, field)), coeffs


def test_ideal_norm_examples():
    assert ideal_norm([rationals().element(-12), rationals().element(18)]) == 6
    qi = quadratic_field(-1)
    # (2 + i) and (2 - i) lie over the two primes above 5: norms share 5, the ideal is (1)
    assert ideal_norm([qi.element(2, 1), qi.element(2, -1)]) == 1
    assert ideal_norm([qi.element(2, 1), qi.element(5)]) == 5
    q5 = quadratic_field(-5)
    assert ideal_norm([q5.element(2), q5.element(1, 1)]) == 2    # not principal
    q3 = quadratic_field(-3)
    assert ideal_norm([q3.element(2), q3.element(1, 1)]) == 4    # (1 + sqrt(-3))/2 is a unit
    assert ideal_norm([q3.element(F(1, 2), F(3, 2)), q3.zero()]) == 7
    assert ideal_norm([qi.zero(), qi.zero()]) == 0


# 2 splits in Q(sqrt(-7)) and Q(sqrt(17)), is inert in Q(sqrt(-3)) and
# Q(sqrt(5)) and ramifies in the others; D = 1 mod 4 for -3, -7, -15, 5, 17;
# Q(sqrt(-5)), Q(sqrt(-15)) and Q(sqrt(10)) have non-principal primes
ORACLE_FIELDS = [rationals()] + [quadratic_field(D) for D in (-1, -2, -3, -5, -7, -15,
                                                             2, 5, 10, 17)]


def _theta(K):
    """The second integral-basis element and its minimal polynomial x^2 + b x + c."""
    if K.half_integer_basis:
        return K.element(F(1, 2), F(1, 2)), -1, -(K.D - 1) // 4
    return K.element(0, 1), 0, -K.D


def _primes_above(K, p):
    """Generators of each prime ideal above p: (p, theta - r) for every root r
    of theta's minimal polynomial mod p, or (p) when there is none."""
    if K.is_rational:
        return [[K.element(p)]]
    theta, b, c = _theta(K)
    roots = [r for r in range(p) if (r * r + b * r + c) % p == 0]
    return [[K.element(p), theta - r] for r in roots] or [[K.element(p)]]


@st.composite
def contents(draw):
    """A field, coefficients whose content is a product of up to three
    prime ideals (split, inert or ramified) times small integral elements
    over small denominators, and the ratio of two of them."""
    K = draw(st.sampled_from(ORACLE_FIELDS))
    gens = [K.one()]
    for p in draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=3)):
        ideal = draw(st.sampled_from(_primes_above(K, p)))
        gens = [g * h for g in gens for h in ideal]   # generators of the product
    small = st.integers(-6, 6)
    coeffs = []
    for g in gens:
        x = K.element(draw(small), draw(small) if K.degree == 2 else 0)
        x = x * _theta(K)[0] if K.degree == 2 and draw(st.booleans()) else x
        coeffs.append(g * (x if x else K.one()) / draw(st.integers(1, 12)))
    ratio = coeffs[0] / coeffs[-1]
    return K, coeffs, ratio


@settings(max_examples=250, deadline=None, database=None)
@given(contents())
def test_ideal_norm_route_matches_primes(case):
    K, coeffs, x = case
    assert nonarch_gauss_product(coeffs, K) == nonarch_gauss_by_primes(coeffs, K)
    for e in (1, 2, K.unity_order):
        assert local_max_product(x, K, e) == local_max_by_primes(x, K, e)


def test_product_formula_examples():
    q = rationals()
    r = product_formula_check(q.element(7), q)
    assert r.holds and r.nonarch == F(1, 7)
    qi = quadratic_field(-1)
    r = product_formula_check(qi.element(1, 1), qi)
    assert r.holds and r.nonarch == F(1, 2)
    q5 = quadratic_field(5)
    r = product_formula_check(q5.element(F(3, 2)), q5)
    assert r.holds
    with pytest.raises(ValueError):
        product_formula_check(q.element(0), q)


def test_product_formula_factoring_budget():
    # the denominator and the norm numerator are factored, so each is held
    # to MAX_FACTORED before any factoring
    qi = quadratic_field(-1)
    x = qi.element(F(123456789012345678901234567, 98765432109876543210), 1)
    with pytest.raises(ValueError, match="MAX_FACTORED"):
        product_formula_check(x, qi)
    with pytest.raises(ValueError, match="MAX_FACTORED"):
        product_formula_check(qi.element(10 ** 9 + 7, 10 ** 9), qi)   # norm above 10^18
    assert product_formula_check(rationals().element(F(1, MAX_FACTORED)), rationals()).holds


def test_product_formula_random(rng):
    for field in ALL_FIELDS.values():
        for _ in range(100):
            x = random_element(rng, field)
            r = product_formula_check(x, field)
            assert r.holds
            assert r.product.width < 1e-20
