"""Property tests for the integer ball kernel of rootfind.

Values under an embedding of Q, Q(i), Q(sqrt(-3)) or Q(sqrt(5)) are kept
exactly as P + Q*w with w = sqrt|D| and P, Q Gaussian rationals, so ball
containment is decided exactly (numutil.surd_sign).  Roots come from
mpmath.polyroots at 400 digits.  Small scales s make every rounding term
count.
"""
import io
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction as F

import mpmath
from hypothesis import given, settings, strategies as st
from mpmath import iv

from polyheight import (PolyOverK, complex_roots, height, mahler_measure,
                        product_formula_check, quadratic_field, rationals)
from polyheight.cli import main
from polyheight.numutil import surd_sign
from polyheight.rootfind import (GUARD_BITS, _isolate_squarefree, _krawczyk, ball_horner,
                                 coeff_ball, derivative_balls)

FIELDS = [rationals(), quadratic_field(-1), quadratic_field(-3), quadratic_field(5)]


# -- exact values P + Q*w -------------------------------------------------------

def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _w2(field) -> int:
    return 1 if field.is_rational else abs(field.D)


def _exact(c, embedding):
    """sigma(c) as (P, Q)."""
    a, b = F(c.p, c.den), F(c.q, c.den) * (1 if embedding == 0 else -1)
    if c.field.is_rational or c.field.D > 0:
        return (a, F(0)), (b, F(0))
    return (a, F(0)), (F(0), b)


def _under(f, embedding):
    """A polynomial whose first embedding is the given embedding of f."""
    return f.conj() if embedding else f


def _horner_exact(vals, z, w2):
    """f(z) for coefficient values (P, Q) and a Gaussian rational z."""
    acc = vals[-1]
    for p, q in reversed(vals[:-1]):
        acc = _gadd(_gmul(acc[0], z), p), _gadd(_gmul(acc[1], z), q)
    return acc


def _derivative(vals):
    return [((k * p[0], k * p[1]), (k * q[0], k * q[1])) for k, (p, q) in enumerate(vals)][1:]


def _contains(ball, value, s, w2) -> bool:
    """|value - (x + iy) 2^-s| <= r 2^-s, decided exactly."""
    x, y, r = ball
    (pr, pi), (qr, qi) = value
    pr, pi = pr - F(x, 1 << s), pi - F(y, 1 << s)
    alpha = pr * pr + pi * pi + (qr * qr + qi * qi) * w2 - F(r, 1 << s) ** 2
    beta = 2 * (pr * qr + pi * qi)
    return surd_sign(alpha, beta, w2) <= 0


# -- strategies ---------------------------------------------------------------------

@st.composite
def polys(draw, max_degree=5):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max_degree))
    cs = []
    for i in range(n + 1):
        p = draw(st.integers(-9, 9).filter(bool) if i == n else st.integers(-9, 9))
        q = draw(st.integers(-9, 9)) if field.degree == 2 else 0
        cs.append(field.element(F(p, draw(st.integers(1, 6))), F(q, draw(st.integers(1, 6)))))
    return PolyOverK(cs, field)


gauss_rationals = st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                            st.fractions(min_value=-5, max_value=5, max_denominator=9))


# -- ball Horner --------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(polys(), st.integers(0, 1), gauss_rationals, st.integers(1, 80))
def test_ball_horner_contains_values_at_rational_points(f, embedding, z, s):
    w2 = _w2(f.field)
    vals = [_exact(c, embedding) for c in f.coeffs]
    cs = [coeff_ball(c, s) for c in _under(f, embedding).coeffs]
    for c, v in zip(cs, vals):
        assert _contains(c, v, s, w2)
    dcs = derivative_balls(cs)
    # z rounded to the grid is within 2^-s / sqrt(2) of z
    x, y = round(z[0] * (1 << s)), round(z[1] * (1 << s))
    for rz, point in ((1, z), (0, (F(x, 1 << s), F(y, 1 << s)))):
        assert _contains(ball_horner(cs, x, y, rz, s), _horner_exact(vals, point, w2), s, w2)
        if dcs:
            assert _contains(ball_horner(dcs, x, y, rz, s),
                             _horner_exact(_derivative(vals), point, w2), s, w2)


@settings(max_examples=300, deadline=None)
@given(polys(), st.integers(0, 1), gauss_rationals, st.integers(2, 60),
       st.fractions(min_value=0, max_value=F(1, 4), max_denominator=64),
       st.lists(st.tuples(st.fractions(-1, 1, max_denominator=16),
                          st.fractions(-1, 1, max_denominator=16)), max_size=4))
def test_ball_horner_contains_values_on_discs(f, embedding, z, s, radius, offsets):
    w2 = _w2(f.field)
    vals = [_exact(c, embedding) for c in f.coeffs]
    cs = [coeff_ball(c, s) for c in _under(f, embedding).coeffs]
    dcs = derivative_balls(cs)
    x, y = round(z[0] * (1 << s)), round(z[1] * (1 << s))
    rz = int(radius * (1 << s))
    centre, rad = (F(x, 1 << s), F(y, 1 << s)), F(rz, 1 << s)
    points = [centre] + [_gadd(centre, (rad * u, rad * v))
                         for u, v in [(1, 0), (-1, 0), (0, 1), (0, -1)] + offsets
                         if u * u + v * v <= 1]
    fball = ball_horner(cs, x, y, rz, s)
    dball = ball_horner(dcs, x, y, rz, s) if dcs else None
    for w in points:
        assert _contains(fball, _horner_exact(vals, w, w2), s, w2)
        if dball:
            assert _contains(dball, _horner_exact(_derivative(vals), w, w2), s, w2)


UNIT = st.sampled_from([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)),
                        (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)), (F(-3, 5), F(-4, 5)),
                        (F(4, 5), F(-3, 5))])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99),
                                             st.integers(0, 500), UNIT), min_size=2, max_size=6),
       st.integers(-99, 99), st.integers(-99, 99), st.integers(0, 50), UNIT)
def test_ball_horner_contains_every_member(s, balls, x, y, rz, u):
    # wide coefficient balls at coarse scales: f(w) for a polynomial f
    # taken on the boundary of every coefficient ball and w on the
    # boundary of the disc lies in the result
    one = 1 << s
    cs = [(cx, cy, r) for cx, cy, r, _ in balls]
    member = [((F(cx, one) + F(r, one) * v[0], F(cy, one) + F(r, one) * v[1]), (F(0), F(0)))
              for cx, cy, r, v in balls]
    w = (F(x, one) + F(rz, one) * u[0], F(y, one) + F(rz, one) * u[1])
    assert _contains(ball_horner(cs, x, y, rz, s), _horner_exact(member, w, 1), s, 1)


# -- the Krawczyk disc and the isolated discs -------------------------------------

def _roots400(f, embedding):
    """The roots of sigma(f) from mpmath.polyroots at 400 digits."""
    with mpmath.workdps(400):
        w = mpmath.sqrt(_w2(f.field))
        coeffs = []
        for c in reversed(f.coeffs):
            (pr, pi), (qr, qi) = _exact(c, embedding)
            coeffs.append(mpmath.mpc(mpmath.mpf(pr.numerator) / pr.denominator
                                     + w * mpmath.mpf(qr.numerator) / qr.denominator,
                                     mpmath.mpf(pi.numerator) / pi.denominator
                                     + w * mpmath.mpf(qi.numerator) / qi.denominator))
        return [mpmath.mpc(r) for r in mpmath.polyroots(coeffs, maxsteps=500, extraprec=800)]


def _roots_in_disc(roots, x, y, d, s) -> int:
    with mpmath.workdps(400):
        centre = mpmath.mpc(mpmath.mpf(x) / 2 ** s, mpmath.mpf(y) / 2 ** s)
        return sum(abs(r - centre) <= mpmath.mpf(d) / 2 ** s for r in roots)


@settings(max_examples=150, deadline=None)
@given(polys(max_degree=4), st.integers(0, 1), st.integers(4, 40), st.data())
def test_krawczyk_disc_holds_one_root(f, embedding, s, data):
    f = f.squarefree_decomposition()[0][0]
    roots = _roots400(f, embedding)
    cs = [coeff_ball(c, s) for c in _under(f, embedding).coeffs]
    dcs = derivative_balls(cs)
    with mpmath.workdps(400):
        r = roots[data.draw(st.integers(0, len(roots) - 1))]
        x = int(mpmath.nint(mpmath.re(r) * 2 ** s)) + data.draw(st.integers(-3, 3))
        y = int(mpmath.nint(mpmath.im(r) * 2 ** s)) + data.draw(st.integers(-3, 3))
    dabs = data.draw(st.integers(1, 1 << (s + 4)))
    d = _krawczyk(cs, dcs, x, y, dabs, s)
    if d is not None:
        assert _roots_in_disc(roots, x, y, d, s) == 1


@settings(max_examples=600, deadline=None)
@given(st.integers(4, 24), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(1, 8))
def test_krawczyk_on_small_slopes(s, c0x, c0y, ax, ay, x, y, dabs):
    # f(w) = a w + c0 with |a| a few units of 2^-s, so that a bound off by
    # one unit, such as an upper bound taken for a lower one, or a dropped
    # rounding term, puts the root outside the disc
    if (ax, ay) == (0, 0):
        return
    cs, dcs = [(c0x, c0y, 0), (ax, ay, 0)], [(ax, ay, 0)]
    d = _krawczyk(cs, dcs, x, y, dabs, s)
    if d is not None:
        n2 = ax * ax + ay * ay   # the root is -c0 / a, against z = (x + iy) 2^-s
        ux = F(-(c0x * ax + c0y * ay), n2) - F(x, 1 << s)
        uy = F(c0x * ay - c0y * ax, n2) - F(y, 1 << s)
        assert ux * ux + uy * uy <= F(d, 1 << s) ** 2


@settings(max_examples=40, deadline=None)
@given(polys(max_degree=6), st.integers(0, 1), st.sampled_from([32, 64, 256]))
def test_isolated_discs_hold_the_roots(f, embedding, prec):
    s = prec + GUARD_BITS
    for g, _ in f.squarefree_decomposition():
        discs = _isolate_squarefree(_under(g, embedding), prec, F(1, 1 << (prec // 2)))
        if discs is None:      # not certified at this precision: escalation's job
            continue
        roots = _roots400(g, embedding)
        assert len(discs) == len(roots)
        for x, y, d in discs:
            assert _roots_in_disc(roots, x, y, d, s) == 1


# -- independence from the ambient precision --------------------------------------

@contextmanager
def _ambient(bits):
    old = mpmath.mp.prec, iv.prec
    mpmath.mp.prec = iv.prec = bits
    try:
        yield
    finally:
        mpmath.mp.prec, iv.prec = old


def _endpoints(f):
    boxes = [(r.box.re.lo, r.box.re.hi, r.box.im.lo, r.box.im.hi, r.multiplicity)
             for r in complex_roots(f)]
    m = mahler_measure(f)
    return boxes, (m.lo, m.hi)


@settings(max_examples=25, deadline=None)
@given(polys(max_degree=6))
def test_results_do_not_depend_on_ambient_precision(f):
    with _ambient(53):
        low = _endpoints(f)
    with _ambient(1000):
        high = _endpoints(f)
    assert low == high


def _enclosures(f):
    """Endpoints of the height report of f, of the display enclosures of
    its archimedean part, and of the product formula at its lead."""
    def ends(x):
        return x.lo, x.hi, x.width, x.mid
    h = height(f)
    pf = product_formula_check(f.lead, f.field)
    return ([ends(x) for x in (h.arch, h.height, h.log_height, pf.arch, pf.product)]
            + [ends(h.arch_exact.to_interval(p)) for p in (64, 256, 1000)] + [pf.holds])


@settings(max_examples=25, deadline=None)
@given(polys(max_degree=6))
def test_enclosures_do_not_depend_on_ambient_precision(f):
    with _ambient(53):
        low = _enclosures(f)
    with _ambient(1000):
        high = _enclosures(f)
    assert low == high


def test_verify_json_does_not_depend_on_ambient_precision():
    argv = ["verify", "--all", "--json", "--field", "Q(sqrt(-2))",
            "--poly", "x^8+2x^6-3x^4-4x^2+4"]
    outs = []
    for bits in (53, 1000):
        buf = io.StringIO()
        with _ambient(bits), redirect_stdout(buf):
            assert main(argv) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
