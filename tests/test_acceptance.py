"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time (run with -s to see the lines live).

Criterion 3's height-trend clause is asserted exactly as stated and is
an expected failure: the exact-expansion oracle itself yields 3.4901 at
j = 256 (the trend converges to degree/log of the sup-norm of the base
on the unit circle, 3.4557, and is near 4/log 2 only for j <= 2).
"""
import math
import random
import time
from fractions import Fraction as F

import pytest

from polyheight import (check_alphabound1, check_alphabound2, check_bound1,
                        check_bound2, check_complexmahler, ck_interval,
                        ck_lower_certify, height, int_to_poly,
                        lattice_case_check, mahler_measure, mk_search,
                        nonarch_gauss_product, pell_counterexample,
                        product_formula_check, quadratic_field, rationals,
                        t2_constant)
from polyheight.polynomials import PolyOverK, intpoly_pow

from conftest import ALL_FIELDS, random_element, random_split_poly
from oracles import mk_direct_enumeration

RECORD_DEG10 = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
PLASTIC_CUBIC = [-1, -1, 0, 1]
OCTIC = [4, 0, -4, 0, -3, 0, 2, 0, 1]
BASE = [-2, 0, 1, 0, 1]          # x^4 + x^2 - 2


class Stopwatch:
    def __init__(self, label: str, budget: float):
        self.label, self.budget = label, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and self.elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status}  ({self.elapsed:.2f}s / budget {self.budget:.0f}s)")
        return False


def test_criterion_1_mahler_targets():
    with Stopwatch("1 mahler targets", 1.0) as sw:
        m = mahler_measure(RECORD_DEG10)
        assert m.lo <= 1.176 + 1e-3 and m.hi >= 1.176 - 1e-3
        m2 = mahler_measure(PLASTIC_CUBIC)
        assert m2.lo <= 1.325 + 1e-3 and m2.hi >= 1.325 - 1e-3
    assert sw.elapsed < 1.0


def test_criterion_2_counterexample_reproduction():
    q2 = quadratic_field(-2)
    with Stopwatch("2 counterexample", 1.0) as sw:
        rep = height(int_to_poly(OCTIC, q2))
        assert rep.exact == 4                      # exactly 4
        certs = ck_lower_certify(BASE, q2, 2)
        assert abs(certs[1].cert_value - 8 / math.log(14)) < 1e-6
        assert certs[1].cert_value > 2 / math.log(2)
    assert sw.elapsed < 1.0


def test_criterion_3_higher_powers_improve():
    q2 = quadratic_field(-2)
    with Stopwatch("3 higher powers (cert_value)", 60.0) as sw:
        certs = ck_lower_certify(BASE, q2, 64)
        assert any(c.cert_value > 3.2 for c in certs)
    assert sw.elapsed < 60.0


@pytest.mark.xfail(strict=True,
                   reason="exact-expansion oracle gives height_trend(256) = 3.4901; "
                          "the trend converges to 4/log(sup-norm 3.18198) = 3.4557 "
                          "and is within 0.1 of 4/log 2 = 5.7708 only for j <= 2")
def test_criterion_3_height_trend_as_stated():
    q2 = quadratic_field(-2)
    with Stopwatch("3 height trend at j=256 (as stated)", 60.0):
        certs = ck_lower_certify(BASE, q2, 256)
        trend = certs[255].height_trend
        print(f"  measured height_trend(256) = {trend:.4f}")
        assert abs(trend - 4 / math.log(2)) <= 0.1


def test_criterion_4_tightness_families():
    with Stopwatch("4 tightness families", 30.0) as sw:
        m = 200
        for field, w, base in ((rationals(), 2, [-1, 0, 1]),
                               (quadratic_field(-1), 4, [-1, 0, 0, 0, 1])):
            coeffs = intpoly_pow(base, m)
            rep = height(int_to_poly(coeffs, field))
            assert rep.exact == math.comb(m, m // 2)   # central binomial
            ratio = (w * m) / math.log(rep.exact)
            target = w / math.log(2)
            assert abs(ratio / target - 1) < 0.05
    assert sw.elapsed < 30.0


def test_criterion_5_randomized_bound_suite():
    rng = random.Random(52)
    with Stopwatch("5 randomized bound suite", 600.0) as sw:
        for field in ALL_FIELDS.values():
            mk = mk_search(field, 3).lower_fraction
            for _ in range(1000):
                s = random_split_poly(rng, field, max_distinct=8, max_mult=3,
                                      max_degree=24)
                checks = (check_alphabound1(s), check_bound1(s, mk),
                          check_alphabound2(s), check_bound2(s),
                          check_complexmahler(s))
                for c in checks:
                    assert c.verdict == "holds", (field.descriptor(), c.name, s)
    assert sw.elapsed < 600.0


def test_criterion_6_lattice_cases():
    with Stopwatch("6 lattice cases", 30.0) as sw:
        rep = lattice_case_check(quadratic_field(-1), 10)
        assert rep.min_norm == 4
        assert rep.unit_or_zero_hits == 0
        rep3 = lattice_case_check(quadratic_field(-3), 10)
        assert rep3.min_norm >= 4
        assert rep3.unit_or_zero_hits == 0
    assert sw.elapsed < 30.0


def test_criterion_7_pell_obstruction():
    with Stopwatch("7 pell obstruction", 5.0) as sw:
        for d in (2, 5, 6, 7, 10):
            w = pell_counterexample(d)
            assert w.product == 1          # rational equality, zero tolerance
    assert sw.elapsed < 5.0


def test_criterion_8_mk_searches():
    with Stopwatch("8 mk searches", 60.0) as sw:
        for key in ("Q", "Q(i)"):
            field = ALL_FIELDS[key]
            res = mk_search(field, 3)
            assert res.value_exact == 2
            direct = [v for _, v in mk_direct_enumeration(field, 3)]
            assert min(direct).compare(res.value_exact) == 0
        ck = ck_interval(rationals(), 2)
        assert ck.exact and abs(ck.lower - 2 / math.log(2)) < 1e-9
        assert ck.lower == ck.upper
        ck2 = ck_interval(quadratic_field(-2), 2)
        assert abs(ck2.upper - 4 / math.log(2)) < 1e-6
    assert sw.elapsed < 60.0


def test_criterion_9_exactness_properties():
    rng = random.Random(99)
    with Stopwatch("9 exactness properties", 300.0) as sw:
        for field in ALL_FIELDS.values():
            for _ in range(10000):
                x = random_element(rng, field)
                r = product_formula_check(x, field)
                assert r.holds and r.product.width < 1e-20
        for field in ALL_FIELDS.values():
            for _ in range(200):
                f = PolyOverK([random_element(rng, field, nonzero=False)
                               for _ in range(3)] + [random_element(rng, field)], field)
                g = PolyOverK([random_element(rng, field, nonzero=False)
                               for _ in range(2)] + [random_element(rng, field)], field)
                assert (nonarch_gauss_product(f * g, field)
                        == nonarch_gauss_product(f, field) * nonarch_gauss_product(g, field))
        for field in ALL_FIELDS.values():
            for _ in range(20):
                s = random_split_poly(rng, field, max_distinct=3, max_mult=2, max_degree=6)
                f = s.expand()
                c = random_element(rng, field)
                r1, r2 = height(f), height(f.scale(c))
                assert r1.height_power_exact() == r2.height_power_exact()
                assert r1.height.overlaps(r2.height)
    assert sw.elapsed < 300.0


def test_criterion_10_t2_constants():
    with Stopwatch("10 t2 constants", 30.0) as sw:
        t = t2_constant(1, 2)
        assert t.w == 2 and t.M_floor == 2.0
        assert abs(t.C - 3 / math.log(2)) < 1e-9
        t2 = t2_constant(2, 1.3)
        assert t2.w == 12
        assert t2.M_floor == pytest.approx(1.3)
        assert not t2.floor_attained            # certified empty interval
    assert sw.elapsed < 30.0
