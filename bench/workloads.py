"""Seeded input streams and output oracles for the four bench workloads.

Every item is one ``polyheight`` CLI invocation (an argv list) together
with a check of its schema-1 JSON report.  Inputs depend only on the
workload name, the seed and the item index, so a run is reproducible and
items can be generated lazily, one at a time, outside the timed region.
The oracles share no code with ``polyheight``: field arithmetic,
contents and Mahler measures are recomputed here from scratch
(``mpmath.polyroots`` for the measures).

Mixes are stratified by item index (field, subcommand, degree, special
case) with a period of PERIOD items, so that a run of whole periods
covers each stratum in the same proportion; only the values inside a
stratum are random.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import mpmath
import numpy as np

# (CLI descriptor, D); D is None for Q.  The five test fields take turns.
FIELDS = [("Q", None), ("Q(sqrt(-1))", -1), ("Q(sqrt(-3))", -3),
          ("Q(sqrt(5))", 5), ("Q(sqrt(-2))", -2)]

# Squarefree D in [-30, 30] whose field has a local Mahler measure in
# (1, 3]; for the others `mk --cap 3` exits with an input error, and the
# workload must contain only items that succeed.  D = 1 stands for Q.
MK_D = [-23, -15, -11, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 13, 17]

PELL_D = [d for d in range(2, 201)
          if math.isqrt(d) ** 2 != d and all(d % (p * p) for p in range(2, 15))]

# Strata.  Item costs differ by up to 100x between strata, so every
# workload cycles through its strata in a seeded order with a period of
# PERIOD items, and a run ends on a period boundary: each run takes every
# stratum in the same share, and the seed moves only the values inside.
VERIFY_CASES = [(distinct, phase) for distinct in range(1, 9) for phase in range(3)]
MAHLER_DENSE_N = tuple(10 + 22 * k // 14 for k in range(15))
MAHLER_REPEATED_N = (12, 17, 22, 27, 32)
MIGNOTTE_N = (12, 15, 18, 21, 24)   # the 256 -> 512-bit escalation costs 0.3-0.7 s
HEIGHT_CASES = [(deg, big) for deg in (4, 7, 10, 13, 16) for big in (0, 0, 0, 0, 1)]
# Six in ten search items are short (mk, pell) and three in twenty a t2
# with k = 3 (0.6-1.1 s), so p50 lies inside the short items and p90
# inside those t2 ones rather than on the edge between two strata.
SEARCH_SLOTS = ("mk", "pell", "lattice", "mk", "t2", "pell", "mk", "ck-certify", "pell", "t2")
LATTICE_CASES = ((-1, 8), (-1, 12), (-3, 6), (-3, 10))
T2_CASES = tuple((3, cap) for cap in (1.05, 1.15, 1.25, 1.35, 1.45, 1.5)) + ((2, 1.05), (2, 1.5))
CK_CASES = (("Q(sqrt(-2))", "x^4 + x^2 - 2", 64), ("Q(sqrt(-2))", "x^4 + x^2 - 2", 256),
            ("Q", "x^2 - 1", 32), ("Q", "x^2 - 1", 160))
PERIOD = {"verify": 120, "mahler": 25, "height": 125, "search": 40}

# The CLI formats enclosure endpoints after converting them to mpmath's
# ambient 53-bit precision with round-to-nearest, so a printed endpoint
# can sit up to half a 53-bit ulp inside the true one (see README.md).
# Containment is checked after widening each endpoint by |x| * 2^-52.
SERIALIZED_REL = Fraction(1, 2 ** 52)

# Digits of the Mahler-measure oracle; the CLI prints about 16 correct ones.
ORACLE_DPS = 30

Check = Callable[[dict], "str | None"]


@dataclass
class Item:
    """One CLI call, which must exit with code 0, and its oracle:
    check(report) returns None when the report is right, else a reason."""

    argv: list[str]
    check: Check
    strict_miss: bool = False   # value outside the unwidened enclosure


def item_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


@functools.lru_cache(maxsize=None)
def _order(workload: str, seed: int, key: str, n: int) -> tuple[int, ...]:
    order = list(range(n))
    random.Random(f"{workload}:{seed}:{key}").shuffle(order)
    return tuple(order)


def cycle(workload: str, seed: int, key: str, values, k: int):
    """The k-th value of a seeded cycle through values: every run of
    len(values) consecutive k takes each value once, in a seeded order."""
    return values[_order(workload, seed, key, len(values))[k % len(values)]]


# -- field arithmetic and CLI formatting --------------------------------------

def _mul(x, y, D):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + (D or 0) * b1 * b2, a1 * b2 + a2 * b1)


def _frac(q: Fraction) -> str:
    q = abs(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coeff_text(c, D) -> tuple[int, str]:
    """(sign, text) of a nonzero coefficient in the CLI grammar."""
    a, b = c
    if D is None:
        return (-1 if a < 0 else 1), _frac(a)
    parts = []
    if a:
        parts.append((a < 0, _frac(a)))
    if b:
        parts.append((b < 0, f"{_frac(b)}*sqrt({D})"))
    text = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, t in parts[1:]:
        text += (" - " if neg else " + ") + t
    return 1, f"({text})"


def poly_text(coeffs, D) -> str:
    """Degree-indexed coefficients (a, b) as a CLI polynomial string."""
    out = []
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k] == (0, 0):
            continue
        sign, text = _coeff_text(coeffs[k], D)
        mono = "" if k == 0 else ("*x" if k == 1 else f"*x^{k}")
        if out:
            out.append(("- " if sign < 0 else "+ ") + text + mono)
        else:
            out.append(("-" if sign < 0 else "") + text + mono)
    return " ".join(out)


def _random_elem(rng, D, num, den, nonzero=True):
    while True:
        a = Fraction(rng.randint(-num, num), rng.randint(1, den))
        b = Fraction(rng.randint(-num, num), rng.randint(1, den)) if D is not None else Fraction(0)
        if not (nonzero and a == 0 and b == 0):
            return (a, b)


@functools.lru_cache(maxsize=None)
def _small_elements(D) -> list:
    """The nonzero elements whose coordinates are n/d with |n| <= 2 and
    d <= 2, as criterion 5 draws its roots."""
    q = sorted({Fraction(n, d) for n in range(-2, 3) for d in (1, 2)})
    return [(a, b) for a in q for b in (q if D is not None else [Fraction(0)])
            if (a, b) != (0, 0)]


def _exact(x) -> Fraction:
    """Exact rational value of a nonzero mpf."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _widened(pair) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(pair[0]), Fraction(pair[1])
    return lo - abs(lo) * SERIALIZED_REL, hi + abs(hi) * SERIALIZED_REL


# -- verify ----------------------------------------------------------------------

def verify_item(seed: int, i: int) -> Item:
    """Expanded random split polynomial as in criterion 5: at most 8
    distinct roots of multiplicity at most 3, so degree at most 24.  The
    number of distinct roots and the multiplicity pattern 1, 2, 3, 1, ...
    (starting at 1, 2 or 3) are strata; the roots and lead are random.
    Roots are drawn without repeats (Q has only six, so at most six
    distinct roots there): a repeat would raise a multiplicity beyond its
    stratum and make the share of items that need certified root
    isolation, and with it p90, follow the seed."""
    rng = item_rng("verify", seed, i)
    name, D = FIELDS[i % 5]
    distinct, phase = cycle("verify", seed, name, VERIFY_CASES, i // 5)
    pool = _small_elements(D)
    roots = []
    for j, r in enumerate(rng.sample(pool, min(distinct, len(pool)))):
        roots.extend([r] * (1 + (j + phase) % 3))
    lead = _random_elem(rng, D, 2, 1)
    coeffs = [(Fraction(1), Fraction(0))]
    for r in roots:
        nxt = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            rc = _mul(c, r, D)
            nxt[k + 1] = (nxt[k + 1][0] + c[0], nxt[k + 1][1] + c[1])
            nxt[k] = (nxt[k][0] - rc[0], nxt[k][1] - rc[1])
        coeffs = nxt
    coeffs = [_mul(c, lead, D) for c in coeffs]

    def check(rep):
        checks = rep["results"]["checks"]
        if len(checks) != 5:
            return f"{len(checks)} checks, expected 5"
        bad = [c["name"] for c in checks if c["verdict"] != "holds"]
        if bad or rep["verdicts"] != ["holds"] * 5:
            return f"checks not holding: {bad}"
        return None

    return Item(["verify", "--field", name, "--poly", poly_text(coeffs, D), "--all", "--json"],
                check)


# -- mahler ----------------------------------------------------------------------

def _random_intpoly(rng, n, bound):
    cs = [rng.randint(-bound, bound) for _ in range(n + 1)]
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or 1
    return cs


def _intpoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def mahler_estimate(cs, init=None):
    """|lead| * prod max(1, |root|) from mpmath.polyroots at ORACLE_DPS
    digits, started from double-precision companion roots (or the given
    ones)."""
    if init is None:
        init = [complex(z) for z in np.roots(np.array(cs[::-1], dtype=float))]
    with mpmath.workdps(ORACLE_DPS):
        roots, err = mpmath.polyroots(cs[::-1], maxsteps=200, extraprec=60, error=True,
                                      roots_init=[mpmath.mpc(z) for z in init])
        if err > mpmath.mpf(10) ** (5 - ORACLE_DPS):
            raise ArithmeticError(f"oracle root error {err} for {cs}")
        m = abs(mpmath.mpf(cs[-1]))
        for r in roots:
            m *= max(1, abs(r))
    return m


def _mignotte_init(n, a, cs):
    """Start values for x^n - 2(ax-1)^2: the two roots clustered within
    ~a^(-n/2) of 1/a come from the fixed point u = +-sqrt((1+u)^n / (2 a^n))
    with x = (1+u)/a; the others from the companion matrix."""
    far = sorted((complex(z) for z in np.roots(np.array(cs[::-1], dtype=float))),
                 key=lambda z: abs(z - 1 / a))[2:]
    with mpmath.workdps(100):
        near = []
        for s in (1, -1):
            u = mpmath.mpf(0)
            for _ in range(6):
                u = s * mpmath.sqrt((1 + u) ** n / (2 * mpmath.mpf(a) ** n))
            near.append((1 + u) / a)
    return near + far


@functools.lru_cache(maxsize=None)
def _mignotte(n: int):
    """x^n - 2(ax-1)^2 for the smallest a with n log10(a) >= 80, and its
    measure.  The cost of an item jumps by +-25 % between neighbouring a,
    which would make p90, which lies among these items, follow the seed."""
    a = math.ceil(10 ** (80 / n))
    cs = [0] * (n + 1)
    cs[n], cs[2], cs[1], cs[0] = 1, -2 * a * a, 4 * a, -2
    return cs, mahler_estimate(cs, _mignotte_init(n, a, cs))


def mahler_item(seed: int, i: int) -> Item:
    """Non-split integer polynomial of degree 10-32.  Slot 4 of every 5 is
    a Mignotte polynomial x^n - 2(ax-1)^2 with n log10(a) >= 80, which
    forces precision escalation, slot 2 a product g * h^2 with a repeated
    factor; the rest are dense with coefficients in [-9, 9].  The five
    Mignotte polynomials are the same for every seed."""
    rng = item_rng("mahler", seed, i)
    kind = i % 5
    if kind == 4:
        cs, expected = _mignotte(cycle("mahler", seed, "mignotte", MIGNOTTE_N, i // 5))
    elif kind == 2:
        n = cycle("mahler", seed, "repeated", MAHLER_REPEATED_N, i // 5)
        h = _random_intpoly(rng, rng.randint(1, 3), 5)
        g = _random_intpoly(rng, n - 2 * (len(h) - 1), 9)
        cs = _intpoly_mul(g, _intpoly_mul(h, h))
        expected = mahler_estimate(g) * mahler_estimate(h) ** 2
    else:
        n = cycle("mahler", seed, "dense", MAHLER_DENSE_N, 3 * (i // 5) + kind - (kind > 2))
        cs = _random_intpoly(rng, n, 9)
        expected = mahler_estimate(cs)
    expected = _exact(expected)

    def check(rep):
        if rep["results"]["degree"] != len(cs) - 1:
            return "wrong degree"
        pair = rep["results"]["mahler"]
        item.strict_miss = not Fraction(pair[0]) <= expected <= Fraction(pair[1])
        lo, hi = _widened(pair)
        if not lo <= expected <= hi:
            return f"enclosure {pair} misses {float(expected)!r}"
        return None

    item = Item(["mahler", "--poly", poly_text([(Fraction(c), 0) for c in cs], None), "--json"],
                check)
    return item


# -- height ----------------------------------------------------------------------

def height_item(seed: int, i: int, run_cli) -> Item:
    """Random dense polynomial of degree 4-16 over the five fields.  Most
    coordinates have numerators <= 10^4 and denominators <= 100; every
    fifth round of fields uses 10^6 and 10^4, so that factoring the norms
    reaches Pollard rho.  Over Q the non-archimedean part and the exact
    height are recomputed with integer gcd/lcm; every fourth quadratic
    round is compared with the same polynomial scaled by a field element
    (run through the CLI here, outside the timed region)."""
    rng = item_rng("height", seed, i)
    name, D = FIELDS[i % 5]
    rnd = i // 5
    deg, big = cycle("height", seed, name, HEIGHT_CASES, rnd)
    num, den = (10 ** 6, 10 ** 4) if big else (10 ** 4, 100)
    coeffs = [_random_elem(rng, D, num, den, nonzero=False) for _ in range(deg)]
    coeffs.append(_random_elem(rng, D, num, den))
    text = poly_text(coeffs, D)
    argv = ["height", "--field", name, "--poly", text, "--json"]
    scaled = None
    if D is None:
        nz = [c[0] for c in coeffs if c[0]]
        nonarch = Fraction(math.lcm(*(q.denominator for q in nz)),
                           math.gcd(*(q.numerator for q in nz)))
        exact = nonarch * max(abs(q) for q in nz)
    elif rnd % 4 == 1:
        c = _random_elem(rng, D, 9, 9)
        code, scaled = run_cli(["height", "--field", name, "--poly",
                                poly_text([_mul(x, c, D) for x in coeffs], D), "--json"])
        if code != 0:
            raise RuntimeError(f"scaled companion of {argv} exited {code}")

    def check(rep):
        res = rep["results"]
        if res["degree"] != deg:
            return "wrong degree"
        lo, hi = _widened(res["height"])
        if hi < 1 or lo > hi:
            return f"height enclosure {res['height']} impossible"
        if D is None:
            if Fraction(res["nonarch"]) != nonarch:
                return f"nonarch {res['nonarch']} != {nonarch}"
            if res["exact"] is None or Fraction(res["exact"]) != exact:
                return f"exact {res['exact']} != {exact}"
        if scaled is not None:
            sres = scaled["results"]
            slo, shi = _widened(sres["height"])
            if shi < lo or hi < slo:
                return f"height {res['height']} != scaled {sres['height']}"
            if (sres["exact"] is None) != (res["exact"] is None) or (
                    res["exact"] is not None and Fraction(res["exact"]) != Fraction(sres["exact"])):
                return f"exact {res['exact']} != scaled {sres['exact']}"
        return None

    return Item(argv, check)


# -- search ----------------------------------------------------------------------

def _octic_power_sum_abs(j: int) -> int:
    """Sum of |coefficients| of (x^4 + x^2 - 2)^j = ((y+2)(y-1))^j, y = x^2,
    from the two binomial expansions."""
    p = [math.comb(j, k) * 2 ** (j - k) for k in range(j + 1)]           # (y+2)^j
    q = [math.comb(j, k) * (-1) ** (j - k) for k in range(j + 1)]        # (y-1)^j
    return sum(abs(c) for c in _intpoly_mul(p, q))


def search_item(seed: int, i: int) -> Item:
    """The enumeration subcommands in the rotation SEARCH_SLOTS: mk over
    fields of squarefree D in [-30, 30] with cap 3-4, pell with squarefree
    d <= 200, lattice over D = -1, -3 with radius 6-12, t2 with k = 2, 3
    and cap 1.05-1.5, and ck-certify of two split bases with jmax 32-256."""
    rng = item_rng("search", seed, i)
    kind = SEARCH_SLOTS[i % len(SEARCH_SLOTS)]
    # occurrence number of this kind among items 0 .. i
    k = (i // len(SEARCH_SLOTS)) * SEARCH_SLOTS.count(kind) \
        + SEARCH_SLOTS[:i % len(SEARCH_SLOTS)].count(kind)
    if kind == "mk":
        D = rng.choice(MK_D)
        name = "Q" if D == 1 else f"Q(sqrt({D}))"
        cap = round(rng.uniform(3, 4), 2)

        def check(rep):
            lo, hi = _widened(rep["results"]["value"])
            if D in (1, -1) and not lo <= 2 <= hi:
                return f"mk value {rep['results']['value']} is not 2"
            if not (1 < hi and lo <= Fraction(cap)):
                return f"mk value {rep['results']['value']} outside (1, {cap}]"
            return None

        return Item(["mk", "--field", name, "--cap", str(cap), "--json"], check)
    if kind == "lattice":
        D, radius = cycle("search", seed, kind, LATTICE_CASES, k)

        def check(rep):
            if rep["verdicts"] != ["holds"] or rep["results"]["min_norm"] < 4:
                return f"lattice verdict {rep['verdicts']} min_norm {rep['results']['min_norm']}"
            return None

        return Item(["lattice", "--field", f"Q(sqrt({D}))", "--radius", str(radius),
                     "--json"], check)
    if kind == "t2":
        deg, cap = cycle("search", seed, kind, T2_CASES, k)

        def check(rep):
            res = rep["results"]
            # orders of roots of unity of degree <= 3: 1, 2, 3, 4, 6
            if res["w"] != 12 or not 1 < float(res["M_floor"]) <= cap:
                return f"t2 result {res}"
            return None

        return Item(["t2", "--k", str(deg), "--cap", str(cap), "--json"], check)
    if kind == "ck-certify":
        name, base, jmax = cycle("search", seed, kind, CK_CASES, k)

        def check(rep):
            certs = rep["results"]["certificates"]
            if [c["j"] for c in certs] != list(range(1, jmax + 1)):
                return "certificate indices"
            for j in ((1, jmax // 2, jmax) if name != "Q" else range(1, jmax + 1)):
                want = _octic_power_sum_abs(j) if name != "Q" else 2 ** j
                if int(certs[j - 1]["sum_abs"]) != want:
                    return f"sum_abs at j={j}"
            return None

        return Item(["ck-certify", "--field", name, "--base", base, "--jmax", str(jmax), "--json"],
                    check)
    d = rng.choice(PELL_D)

    def check(rep):
        res = rep["results"]
        b, c = int(res["b"]), int(res["c"])
        if b * b - d * c * c != 1 or res["product"] != "1":
            return f"pell d={d}: b={b} c={c} product={res['product']}"
        return None

    return Item(["pell", "--d", str(d), "--json"], check)


WORKLOADS = ("verify", "mahler", "height", "search")

# A fixed, cheap item per workload that finishes set-up (lazy caches,
# first-call imports) before timing; it is not drawn from the seed.
WARMUP = {
    "verify": ["verify", "--field", "Q(sqrt(-2))", "--poly", "2*x^3 - 3*x^2 - 3*x + 2",
               "--all", "--json"],
    "mahler": ["mahler", "--poly", "x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1",
               "--json"],
    "height": ["height", "--field", "Q(sqrt(5))", "--poly",
               "(3/7 + 2/9*sqrt(5))*x^4 - 11/12*x + (1 - sqrt(5))", "--json"],
    "search": ["lattice", "--field", "Q(sqrt(-1))", "--radius", "4", "--json"],
}


def stream(workload: str, seed: int, run_cli) -> Iterator[Item]:
    """Items 0, 1, 2, ... of a workload; run_cli(argv) -> (rc, report) is
    used by oracles that need a second, untimed CLI call."""
    i = 0
    while True:
        if workload == "verify":
            yield verify_item(seed, i)
        elif workload == "mahler":
            yield mahler_item(seed, i)
        elif workload == "height":
            yield height_item(seed, i, run_cli)
        else:
            yield search_item(seed, i)
        i += 1
