import math
from fractions import Fraction as F

import pytest

from polyheight import (SplitPoly, alphabound2_root_factor, check_alphabound1,
                        check_alphabound2, check_bound1, check_bound2,
                        ck_interval, combined_bound_check, height,
                        mahler_floor, quadratic_field, rationals,
                        mahler_measure, roots_of_unity, t2_constant)
from polyheight import bounds
from polyheight.intervals import mpf_to_fraction
from polyheight.polynomials import int_to_poly, intpoly_pow

from conftest import ALL_FIELDS, random_split_poly


def test_alphabound1_examples():
    q = rationals()
    s = SplitPoly(q.one(), [q.element(1), q.element(-1)], q)
    c = check_alphabound1(s)
    assert c.holds and c.exact
    assert abs(c.rhs.mid - 3 ** -0.5) < 1e-12
    s2 = SplitPoly(q.one(), [q.element(2), q.element(F(1, 2))], q)
    c2 = check_alphabound1(s2)
    assert c2.holds
    assert abs(c2.lhs.mid - 5) < 1e-12
    assert abs(c2.rhs.mid - 4 / math.sqrt(3)) < 1e-12


def test_bound1_examples():
    q2 = quadratic_field(-2)
    quartet = [q2.element(1), q2.element(-1), q2.element(0, 1), q2.element(0, -1)]
    s = SplitPoly(q2.one(), quartet * 2, q2)
    c = check_bound1(s, 2)
    assert c.holds
    assert abs(c.lhs.mid - math.log(4)) < 1e-12
    assert abs(c.rhs.mid - (2 * math.log(2) - 0.5 * math.log(9))) < 1e-12
    # all roots of unity: rhs term vanishes
    qi = quadratic_field(-1)
    s2 = SplitPoly(qi.one(), roots_of_unity(qi), qi)
    c2 = check_bound1(s2, 2)
    assert c2.holds
    assert abs(c2.rhs.mid + 0.5 * math.log(5)) < 1e-12
    q = rationals()
    s3 = SplitPoly(q.one(), [q.element(2), q.element(F(1, 2))], q)
    c3 = check_bound1(s3, 2)
    assert c3.holds
    assert abs(c3.rhs.mid - (2 * math.log(2) - 0.5 * math.log(3))) < 1e-12
    with pytest.raises(ValueError):
        check_bound1(s3, 1)


def test_alphabound2_examples():
    # per-root factor is exactly 2^d on roots of unity
    for field in ALL_FIELDS.values():
        for zeta in roots_of_unity(field):
            assert alphabound2_root_factor(zeta, field) == 2 ** field.degree
    # the Pell-style element collapses the factor to exactly 1
    q2 = quadratic_field(-2)
    alpha = q2.element(0, F(-3, 4))   # 3/(2 sqrt(-2))
    assert alphabound2_root_factor(alpha, q2) == 1
    qi = quadratic_field(-1)
    s = SplitPoly(qi.one(), roots_of_unity(qi), qi)
    assert check_alphabound2(s).holds
    with pytest.raises(ValueError):
        alphabound2_root_factor(q2.element(0), q2)


def test_bound2_examples():
    qi = quadratic_field(-1)
    s = SplitPoly(qi.one(), roots_of_unity(qi), qi)
    c = check_bound2(s)
    assert c.holds
    assert abs(c.lhs.mid) < 1e-12
    assert abs(c.rhs.mid - (math.log(2) - math.log(5))) < 1e-12
    q = rationals()
    s2 = SplitPoly(q.one(), [q.element(2)], q)
    c2 = check_bound2(s2)
    assert c2.holds
    assert abs(c2.lhs.mid - math.log(2)) < 1e-12
    assert abs(c2.rhs.mid + math.log(2)) < 1e-12


def test_bound2_binomial_family_ratio():
    q = rationals()
    pm = [q.element(1), q.element(-1)]
    ratios = {}
    for m in (5, 20, 60, 200):
        s = SplitPoly(q.one(), pm * m, q)
        c = check_bound2(s)
        assert c.holds
        ratios[m] = c.lhs.mid / c.rhs.mid
    # the ratio tends to 1 from above as m grows
    assert ratios[200] < ratios[20] < ratios[5]
    assert 1 < ratios[200] < 1.05


def test_combined_bound(rng):
    for field in ALL_FIELDS.values():
        for _ in range(10):
            s = random_split_poly(rng, field, max_distinct=3, max_mult=2, max_degree=8)
            c = combined_bound_check(s, 2)
            assert c.verdict == "holds"


def test_verdict_interval_rule_consistency(rng):
    # the endpoint rule defines the verdict for interval-route checks
    q = rationals()
    s = SplitPoly(q.one(), [q.element(1), q.element(-1)], q)
    c = combined_bound_check(s, 2)
    assert (c.lhs.lo >= c.rhs.hi) == (c.verdict == "holds")


def test_ck_interval_examples():
    q = rationals()
    ck = ck_interval(q, 2)
    assert ck.exact and ck.lower == ck.upper
    assert abs(ck.lower - 2 / math.log(2)) < 1e-12
    qi = quadratic_field(-1)
    ck2 = ck_interval(qi, 2)
    assert ck2.exact and abs(ck2.lower - 4 / math.log(2)) < 1e-12
    q2 = quadratic_field(-2)
    ck3 = ck_interval(q2, 2)
    assert not ck3.exact
    assert abs(ck3.lower - 2 / math.log(2)) < 1e-12
    assert abs(ck3.upper - 4 / math.log(2)) < 1e-12
    q5 = quadratic_field(5)
    assert ck_interval(q5, 1.5).exact   # totally real
    with pytest.raises(ValueError):
        ck_interval(q, 1.0)


def test_mahler_floor_examples():
    f = mahler_floor(3, reciprocal_allowed=False)
    assert abs(f.value - 1.3247179572447460) < 1e-9 and not f.vacuous
    f10 = mahler_floor(10)
    assert abs(f10.value - 1.0118806931655764) < 1e-9 and not f10.vacuous
    f2 = mahler_floor(2)
    assert f2.value < 1 and f2.vacuous
    # odd degree picks the nonreciprocal floor automatically
    f5 = mahler_floor(5)
    assert f5.source == "nonreciprocal" and abs(f5.value - 1.32471795724) < 1e-9
    with pytest.raises(ValueError):
        mahler_floor(0)


def test_nonreciprocal_floor_rounds_down():
    m = mahler_measure(int_to_poly([-1, -1, 0, 1]))   # x^3 - x - 1
    assert F(mahler_floor(3, reciprocal_allowed=False).value) <= mpf_to_fraction(m.lo)


def test_t2_floor_rounds_down():
    # the smallest measure of degree <= 3 is the plastic number
    # 1.3247179572447460259..., M(x^3 - x - 1); the reported floor lies
    # below its certified lower endpoint, not a rounding above it
    t = t2_constant(3, 1.33)
    m = mahler_measure(int_to_poly([-1, -1, 0, 1]))
    assert t.floor_attained
    assert F(t.M_floor) <= mpf_to_fraction(m.lo)
    assert F(t.M_floor) < F("1.32471795724474602596")
    assert t.M_floor == 1.3247179572447458


def test_t2_examples():
    t = t2_constant(1, 2)
    assert t.w == 2 and t.M_floor == 2.0 and t.floor_attained
    assert abs(t.C - 3 / math.log(2)) < 1e-9
    t2 = t2_constant(2, 1.3)
    assert t2.w == 12 and t2.M_floor == pytest.approx(1.3) and not t2.floor_attained
    assert abs(t2.C - (12 / math.log(2) + 2 / math.log(1.3))) < 1e-9


def test_t2_unity_exponent_divisibility():
    # quadratic fields' torsion orders divide w for k = 2
    t = t2_constant(2, 1.1)
    assert t.w % 4 == 0 and t.w % 6 == 0


def test_t2_errors():
    with pytest.raises(ValueError):
        t2_constant(7, 1.2)
    with pytest.raises(ValueError):
        t2_constant(1, 1.0)
    with pytest.raises(ValueError):
        t2_constant(6, 1.5)   # enumeration beyond the desk-scale budget


def test_no_check_fails_on_random_split(rng):
    from polyheight import mk_search
    for field in ALL_FIELDS.values():
        mk = mk_search(field, 3).lower_fraction
        for _ in range(10):
            s = random_split_poly(rng, field, max_distinct=4, max_mult=2, max_degree=10)
            for c in (check_alphabound1(s), check_bound1(s, mk),
                      check_alphabound2(s), check_bound2(s)):
                assert c.verdict == "holds", (field.descriptor(), c.name, s)


def test_t2_cap_filter_isolates_only_survivors(monkeypatch):
    # integer Graeffe steps prove every other candidate above the cap, so
    # root isolation runs only on cubics whose measure is at most the cap
    calls = []
    worker = bounds.mahler_worker

    def counting(coeffs):
        calls.append(tuple(coeffs))
        return worker(coeffs)

    monkeypatch.setattr(bounds, "mahler_worker", counting)
    t2_constant(3, 1.15)
    assert calls == []
    t2_constant(3, 1.5)
    plastic = [(-1, -1, 0, 1), (1, -1, 0, 1), (-1, 0, 1, 1), (1, 0, -1, 1)]   # 1.3247...
    next_up = [(-1, 0, -1, 1), (1, 0, 1, 1), (-1, 1, 0, 1), (1, 1, 0, 1)]     # 1.4656...
    assert sorted(calls) == sorted(plastic + next_up)


def _split_over_gaussian_rationals():
    k = quadratic_field(-1)
    roots = [k.element(F(3, 2), -2), k.element(1), k.element(0, 1), k.element(-2, 5)]
    return SplitPoly(k.element(2), roots, k)


def _all_checks(s, prec):
    return (check_alphabound1(s, prec), check_bound1(s, 2, prec),
            check_alphabound2(s, prec), check_bound2(s, prec),
            combined_bound_check(s, 2, prec))


def test_split_poly_height_is_computed_once(monkeypatch):
    from polyheight import heights
    computed = []
    original = heights.height

    def counting(f, *args, **kwargs):
        if not isinstance(f, SplitPoly):
            computed.append(f)
        return original(f, *args, **kwargs)
    for mod in (heights, bounds):
        monkeypatch.setattr(mod, "height", counting)
    s = _split_over_gaussian_rationals()
    assert all(c.holds for c in _all_checks(s, 256))
    assert len(computed) == 1
    assert height(s, 256) is height(s, 256)


def test_split_poly_height_at_another_precision_is_fresh():
    s = _split_over_gaussian_rationals()
    _all_checks(s, 512)
    again = _all_checks(s, 256)
    fresh = _all_checks(_split_over_gaussian_rationals(), 256)
    for a, b in zip(again, fresh):
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
            assert (x.lo, x.hi, x.prec) == (y.lo, y.hi, y.prec), a.name
    assert height(s, 256).height.prec == 256


def test_split_poly_height_still_refuses_a_bad_precision():
    s = _split_over_gaussian_rationals()
    _all_checks(s, 256)
    with pytest.raises(ValueError):
        height(s, 16)
    for check in (lambda p: check_bound1(s, 2, p), lambda p: check_bound2(s, p),
                  lambda p: combined_bound_check(s, 2, p)):
        with pytest.raises(ValueError):
            check(16)


def test_mk_search_is_cached():
    from polyheight import mk_search
    k = quadratic_field(-7)
    assert mk_search(k, 3) is mk_search(k, 3)
    # the result keeps cap as given, so 3 and 3.0 are cached apart
    assert repr(mk_search(k, 3.0).cap) == "3.0"
