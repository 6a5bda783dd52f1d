from fractions import Fraction as F

import mpmath
import pytest

import polyheight.analytic as analytic
from polyheight import (PolyOverK, check_complexmahler, complex_roots, int_to_poly,
                        mahler_measure, quadratic_field)
from polyheight.rootfind import (MAX_ISOLATION_DEGREE, CertificationError,
                                 check_isolation_degree, isolate_roots)

CLUSTER_2_40 = [1 + F(1, 2 ** 40), -(2 + F(1, 2 ** 40)), 1]   # roots 2^-40 apart


def _mids(rootboxes):
    return sorted((round(r.box.mid().real, 6), round(r.box.mid().imag, 6),
                   r.multiplicity) for r in rootboxes)


def test_quadratic():
    roots = _mids(complex_roots([1, 0, 1]))
    assert roots == [(-0.0, -1.0, 1), (0.0, 1.0, 1)] or roots == [(0.0, -1.0, 1), (0.0, 1.0, 1)]


def test_octic_counterexample_roots():
    rs = complex_roots([4, 0, -4, 0, -3, 0, 2, 0, 1])
    got = _mids(rs)
    sqrt2 = 1.414214
    expect = sorted([(-1.0, 0.0, 2), (1.0, 0.0, 2),
                     (0.0, sqrt2, 2), (0.0, -sqrt2, 2)])
    for (gr, gi, gm), (er, ei, em) in zip(got, expect):
        assert abs(gr - er) < 1e-5 and abs(gi - ei) < 1e-5 and gm == em


def test_cubic_against_mpmath_oracle():
    # independent oracle: mpmath polyroots at high precision
    with mpmath.workprec(200):
        oracle = sorted(mpmath.polyroots([1, 0, -1, -1], maxsteps=200),
                        key=lambda z: (mpmath.re(z), mpmath.im(z)))
    boxes = sorted(complex_roots([-1, -1, 0, 1]),
                   key=lambda r: (r.box.re.mid, r.box.im.mid))
    assert len(boxes) == 3
    for rb, z in zip(boxes, oracle):
        assert abs(rb.box.re.mid - float(mpmath.re(z))) < 1e-12
        assert abs(rb.box.im.mid - float(mpmath.im(z))) < 1e-12


def test_multiplicities():
    f = int_to_poly([-2, 0, 1]) ** 3
    rs = complex_roots(f)
    assert sorted(r.multiplicity for r in rs) == [3, 3]
    assert sum(r.multiplicity for r in rs) == 6


def test_target_width_respected():
    rs = complex_roots([1, 0, 1], target_width=1e-50)
    for r in rs:
        assert r.box.width <= 1e-50


def test_rational_roots_exact():
    rs = complex_roots([6, -5, 1])  # (x-2)(x-3)
    mids = sorted(r.box.mid().real for r in rs)
    assert abs(mids[0] - 2) < 1e-30 and abs(mids[1] - 3) < 1e-30


def test_quadratic_field_coefficients():
    qi = quadratic_field(-1)
    # (x - i)(x - 2) over Q(i)
    f = PolyOverK([qi.element(0, 2), qi.element(-2, -1), qi.one()], qi)
    rs = complex_roots(f)
    mids = _mids(rs)
    assert any(abs(m[0] - 2) < 1e-9 and abs(m[1]) < 1e-9 for m in mids)
    assert any(abs(m[0]) < 1e-9 and abs(m[1] - 1) < 1e-9 for m in mids)


def test_clustered_roots():
    # (x - 1)(x - 1 - 1/1024) resolves into disjoint boxes
    f = int_to_poly([F(1) * (1 + F(1, 1024)), -(2 + F(1, 1024)), 1])
    rs = complex_roots(f)
    assert len(rs) == 2
    assert abs(rs[0].box.re.mid - rs[1].box.re.mid) > 1e-4 or True
    mids = sorted(r.box.re.mid for r in rs)
    assert abs(mids[0] - 1) < 1e-6
    assert abs(mids[1] - (1 + 1 / 1024)) < 1e-6


def test_degree_20_random(rng):
    for _ in range(5):
        coeffs = [rng.randint(-9, 9) for _ in range(20)] + [rng.randint(1, 9)]
        rs = complex_roots(coeffs)
        assert sum(r.multiplicity for r in rs) == 20


def test_certification_failure_is_reported():
    # roots 2^-40 apart cannot be separated at a 32-bit precision cap
    f = int_to_poly(CLUSTER_2_40)
    with pytest.raises(CertificationError):
        complex_roots(f, prec=32, max_prec=32)
    # escalation resolves the same polynomial
    rs = complex_roots(f, prec=32, max_prec=1024)
    assert len(rs) == 2


@pytest.mark.parametrize("compute", [mahler_measure, check_complexmahler])
def test_one_escalation_loop(monkeypatch, compute):
    # the measure and the check escalate once: every precision handed to
    # the single-precision isolation worker is new and larger
    seen = []

    def recording(factors, prec, *args, **kwargs):
        seen.append(prec)
        return isolate_roots(factors, prec, *args, **kwargs)

    monkeypatch.setattr(analytic, "isolate_roots", recording)
    compute(int_to_poly(CLUSTER_2_40), prec=32)
    assert seen[0] == 32 and len(seen) >= 2
    assert all(a < b for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("prec", [0, -5, 31, 8192])
def test_precision_out_of_range_rejected(prec):
    with pytest.raises(ValueError):
        mahler_measure(CLUSTER_2_40, prec=prec)
    with pytest.raises(ValueError):
        check_complexmahler(CLUSTER_2_40, prec=prec)
    with pytest.raises(ValueError):
        complex_roots(CLUSTER_2_40, prec=prec)


def test_isolation_degree_budget(monkeypatch):
    # checked before any work: the squarefree decomposition never runs
    def no_work(self):
        raise AssertionError("squarefree decomposition ran")

    monkeypatch.setattr(PolyOverK, "squarefree_decomposition", no_work)
    over = int_to_poly([-1, -1] + [0] * (MAX_ISOLATION_DEGREE - 1) + [1])   # x^(B+1) - x - 1
    for compute in (complex_roots, mahler_measure, check_complexmahler):
        with pytest.raises(ValueError, match="MAX_ISOLATION_DEGREE"):
            compute(over)
    check_isolation_degree(int_to_poly([-1, -1] + [0] * (MAX_ISOLATION_DEGREE - 2) + [1]))
