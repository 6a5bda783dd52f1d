from fractions import Fraction as F

import mpmath
import pytest

from polyheight import (embed, make_field, quadratic_field, rationals,
                        roots_of_unity)

from conftest import ALL_FIELDS, random_element


def test_make_field_examples():
    f = make_field("Q(sqrt(-1))")
    assert f.unity_order == 4 and f.degree == 2 and f.disc == -4
    f = make_field("Q(sqrt(-3))")
    assert f.unity_order == 6 and f.degree == 2 and f.half_integer_basis
    f = make_field("Q(sqrt(5))")
    assert f.unity_order == 2 and f.half_integer_basis and f.disc == 5
    q = make_field("Q")
    assert q.degree == 1 and q.unity_order == 2
    assert make_field(" Q ( sqrt( -2 ) ) ").D == -2


def test_make_field_errors():
    for bad in ("Q(sqrt(0))", "Q(sqrt(1))", "Q(sqrt(12))", "Q(sqrt(-4))"):
        with pytest.raises(ValueError):
            make_field(bad)
    with pytest.raises(ValueError):
        make_field("R")


def test_arith_examples():
    qi = quadratic_field(-1)
    q2 = quadratic_field(-2)
    x = qi.element(1, 1)
    assert x * x.conj() == 2
    assert (q2.element(1) / q2.element(0, 1)) == q2.element(0, F(-1, 2))
    assert q2.element(3, 2).norm() == 17
    assert qi.element(2, 1).trace() == 4
    with pytest.raises(ZeroDivisionError):
        qi.element(1) / qi.element(0)


def test_pow_and_inverse(rng):
    for field in ALL_FIELDS.values():
        for _ in range(50):
            x = random_element(rng, field)
            assert x ** 3 == x * x * x
            assert x ** -2 == (x * x).inverse()
            assert (x * x.inverse()) == field.one()


def test_norm_trace_properties(rng):
    for field in ALL_FIELDS.values():
        for _ in range(200):
            x = random_element(rng, field, nonzero=False)
            y = random_element(rng, field, nonzero=False)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()
            assert x.conj().norm() == x.norm()


def test_embed_examples():
    qi = quadratic_field(-1)
    boxes = embed(qi.element(0, 1))
    assert 1.0 in boxes[0].im and -1.0 in boxes[1].im and 0.0 in boxes[0].re
    q2 = quadratic_field(2)
    boxes = embed(q2.element(1, 1), prec=64)
    assert abs(boxes[0].re.mid - 2.414213562373095) < 1e-12
    assert abs(boxes[1].re.mid + 0.414213562373095) < 1e-12
    q = rationals()
    boxes = embed(q.element(3))
    assert len(boxes) == 1 and 3.0 in boxes[0].re
    with pytest.raises(ValueError):
        embed(q.element(3), prec=16)


def test_embed_contains_norm(rng):
    for field in ALL_FIELDS.values():
        for _ in range(50):
            x = random_element(rng, field)
            prod = None
            for b in embed(x, prec=128):
                prod = abs(b) if prod is None else prod * abs(b)
            assert x.abs_norm() in prod


def test_embed_width_halves_under_doubling():
    for field in ALL_FIELDS.values():
        x = field.element(F(1, 3), F(1, 7) if field.degree == 2 else 0)
        w_lo = max(b.width for b in embed(x, prec=128))
        w_hi = max(b.width for b in embed(x, prec=256))
        assert w_hi <= w_lo / 2


def test_root_of_unity_examples():
    qi = quadratic_field(-1)
    q3 = quadratic_field(-3)
    assert qi.element(0, 1) in roots_of_unity(qi)
    assert q3.element(F(1, 2), F(1, 2)) in roots_of_unity(q3)
    assert rationals().element(2) not in roots_of_unity(rationals())
    assert qi.element(0) not in roots_of_unity(qi)


def test_unity_count_in_box():
    # scan a bounded grid; exactly w elements satisfy x^w = 1
    for field in ALL_FIELDS.values():
        found = set()
        fracs = [F(p, q) for q in (1, 2) for p in range(-4, 5)]
        bs = fracs if field.degree == 2 else [F(0)]
        for a in fracs:
            for b in bs:
                x = field.element(a, b)
                if not x.is_zero() and x ** field.unity_order == field.one():
                    found.add((x.a, x.b))
        assert len(found) == field.unity_order
        listed = {(z.a, z.b) for z in roots_of_unity(field)}
        assert found == listed


def test_hash_agrees_with_eq(rng):
    # an element equal to an int or a Fraction hashes like it, so sets
    # and dicts find it under either key
    for field in ALL_FIELDS.values():
        for v in (0, 2, -7, F(3, 4), F(-5, 6)):
            x = field.element(v)
            assert x == v and hash(x) == hash(v)
            assert v in {x} and x in {v}
        for _ in range(50):
            x = random_element(rng, field)
            y = x * x / x
            assert y == x and hash(y) == hash(x)


def test_sign_sigma1():
    q5 = quadratic_field(5)
    assert q5.element(1, 1).sign_sigma1() == 1
    assert q5.element(-1, -1).sign_sigma1() == -1
    assert q5.element(2, -1).sign_sigma1() == -1   # 2 - sqrt 5 < 0
    assert q5.element(3, -1).sign_sigma1() == 1    # 3 - sqrt 5 > 0
    assert q5.element(0, 0).sign_sigma1() == 0
    with pytest.raises(ValueError):
        quadratic_field(-1).element(1, 1).sign_sigma1()


def test_half_integrality():
    q5 = quadratic_field(5)
    assert q5.element(F(1, 2), F(1, 2)).is_integral()
    assert not q5.element(F(1, 2), F(1, 3)).is_integral()
    assert not q5.element(F(1, 2), 1).is_integral()
    q2 = quadratic_field(-2)
    assert not q2.element(F(1, 2), F(1, 2)).is_integral()
    assert q2.element(4, -7).is_integral()
