"""A grammar fuzz over the whole command line.

Arguments are drawn from the README's input grammar: fields, polynomials
with `sqrt` parts (and split ones, so that `verify` runs its checks),
every subcommand, and malformed, missing and non-finite flags.  Each argv
runs through `cli.main` in-process twice.  The exit code must be 0, 1, 2
or 3 (never 4, an internal error), a `--json` report must parse, and the
two runs must print the same bytes.  Degrees and search sizes are kept
small so that the test stays fast.
"""
import contextlib
import io
import json
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from polyheight import SplitPoly, quadratic_field, rationals
from polyheight.cli import main
from polyheight.rootfind import MAX_ISOLATION_DEGREE

GOOD_D = (-1, -2, -3, -7, -10, 2, 5, 13)
BAD_FIELDS = ("Q(sqrt(0))", "Q(sqrt(1))", "Q(sqrt(4))", "Q(sqrt(-12))", "R", "Q(sqrt(",
              "", "Q(sqrt(-1)", f"Q(sqrt({10 ** 19 + 1}))", "Q(sqrt(x))")
CHECKS = ("alphabound1", "alphabound2", "bound2", "bound1", "complexmahler", "bound3")
ODD_NUMBERS = ("inf", "-inf", "nan", "1e400", "abc", "", "1", "1.5", "3", "4", "0x10")

def rarely(n: int):
    """True about once in n draws (hypothesis favours the first choice)."""
    return st.sampled_from([False] * (n - 1) + [True])


blank = st.sampled_from(["", "", " "])
uint = st.integers(0, 10 ** 6).map(str) | st.sampled_from(["0", "00", "007"])
number = st.one_of(uint, st.tuples(uint, uint).map("/".join))
sign = st.sampled_from("+-")
# free text from the grammar's alphabet: mostly malformed
scribble = st.text(alphabet="x^+-*/()sqrt0123456789 .", max_size=10)


@st.composite
def fields(draw) -> str:
    if draw(rarely(8)):
        return draw(st.sampled_from(BAD_FIELDS))
    D = draw(st.sampled_from((None,) + GOOD_D))
    if D is None:
        return draw(st.sampled_from(["Q", " Q "]))
    return draw(st.sampled_from([f"Q(sqrt({D}))", f" Q ( sqrt ( {D} ) ) "]))


def _field_D(text: str) -> int | None:
    """The field's D; None for Q and for malformed fields."""
    for D in GOOD_D:
        if text.replace(" ", "") == f"Q(sqrt({D}))":
            return D
    return None


@st.composite
def polys(draw, D: int | None) -> str:
    """poly = [sign] term {sign term}, with small exponents; the sqrt parts
    mostly carry the field's D (2 over Q, where any sqrt is refused)."""
    D = D or 2
    root_d = draw(st.sampled_from([D] * 6 + [-D, 3]))
    root = f"sqrt({root_d})"

    def atom() -> str:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return draw(number)
        if kind == 1:
            return draw(number) + draw(st.sampled_from(["", "*"])) + root
        return root

    def coeff() -> str:
        if draw(st.booleans()):
            return draw(number)
        atoms = [draw(st.sampled_from(["", "-", "+"])) + atom()]
        atoms += [draw(sign) + atom() for _ in range(draw(st.integers(0, 2)))]
        return "(" + draw(blank).join(atoms) + ")"

    def term() -> str:
        mono = "x" + draw(st.sampled_from(["", "^0", "^1", "^2", "^3", "^5", "^6"]))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return coeff()
        if kind == 1:
            return coeff() + draw(st.sampled_from(["", "*"])) + mono
        return mono

    out = draw(st.sampled_from(["", "", "", "-", "+"])) + draw(blank) + term()
    for _ in range(draw(st.integers(0, 4))):
        out += draw(blank) + draw(sign) + draw(blank) + term()
    return out


@st.composite
def split_polys(draw, D: int | None, integral: bool = False) -> str:
    """The expanded text of a product of linear factors over the field;
    integral ones have integer roots and lead 1 (a `ck-certify` base)."""
    K = rationals() if D is None else quadratic_field(D)
    small = st.integers(-3, 3)

    def element():
        while True:
            if integral:
                x = K.element(draw(small))
            else:
                b = F(draw(small), draw(st.integers(1, 2))) if K.degree == 2 else 0
                x = K.element(F(draw(small), draw(st.integers(1, 2))), b)
            if not x.is_zero():
                return x

    roots = [element() for _ in range(draw(st.integers(1, 4)))]
    lead = K.one() if integral else element()
    return str(SplitPoly(lead, roots, K).expand())


def poly_text(draw, field: str, split: bool = False, integral: bool = False) -> str:
    D = _field_D(field)
    if draw(rarely(6)):
        return draw(scribble)
    if split and draw(st.sampled_from([True, True, False])):
        return draw(split_polys(D, integral))
    return draw(polys(D))


finite = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.floats(0.5, 4.5).map(repr), st.sampled_from(ODD_NUMBERS))


def ints(lo: int, hi: int, *odd: str):
    """Integers in [lo, hi] as text, and now and then an odd value."""
    return rarely(5).flatmap(
        lambda odd_one: st.sampled_from(("", "abc", "1.5") + odd) if odd_one
        else st.integers(lo, hi).map(str))


@st.composite
def argvs(draw) -> list[str]:
    cmd = draw(st.sampled_from(["height", "mahler", "mk", "ck-certify", "ck-interval",
                                "verify", "lattice", "pell", "t2", "bogus"]))
    field = draw(fields())
    opts: list[tuple[str, str | None]] = []   # (flag, value or None)
    if cmd in ("height", "mahler"):
        opts += [("--field", field), ("--poly", poly_text(draw, field))]
    elif cmd == "mk":
        opts += [("--field", field), ("--cap", draw(finite))]
    elif cmd == "ck-certify":
        opts += [("--field", field), ("--base", poly_text(draw, field, True, integral=True)),
                 ("--jmax", draw(ints(1, 4, "0", "-1", "100000")))]
    elif cmd == "ck-interval":
        opts += [("--field", field), ("--mk", draw(finite))]
    elif cmd == "verify":
        opts += [("--field", field), ("--poly", poly_text(draw, field, split=True))]
        opts += draw(st.sampled_from([[], [("--all", None)],
                                      [("--check", draw(st.sampled_from(CHECKS)))]]))
        if draw(st.booleans()):
            opts.append(("--mk", draw(finite)))
    elif cmd == "lattice":
        field = draw(st.sampled_from(["Q(sqrt(-1))", "Q(sqrt(-3))", field]))
        opts += [("--field", field), ("--radius", draw(ints(1, 5, "0", "-2", "47", "1000000")))]
    elif cmd == "pell":
        opts.append(("--d", draw(ints(2, 3000, "1", "-3", "4", "10000000019", str(10 ** 19)))))
    elif cmd == "t2":
        opts += [("--k", draw(ints(1, 2, "0", "-1", "7"))),
                 ("--cap", draw(st.sampled_from(["1.1", "1.3", "2", "1", "0.5", "inf", "nan"])))]
    if draw(st.booleans()):
        opts.append(("--precision", draw(ints(32, 320, "16", "4096", "8192", "nan"))))
    if draw(st.booleans()):
        opts.append(("--json", None))
    if draw(rarely(20)):
        opts.append(("--bogus", None))
    # "--flag=value" is the form that a value starting with "-" needs
    joined = draw(st.booleans())
    argv = [cmd]
    for flag, value in draw(st.permutations(opts)):
        if value is None:
            argv.append(flag)
        else:
            argv += [f"{flag}={value}"] if joined else [flag, value]
    if len(argv) > 2 and draw(rarely(10)):
        del argv[draw(st.integers(1, len(argv) - 1))]   # a missing flag or value
    return argv


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None, database=None)
@given(argvs())
@example(["mahler", "--poly", f"x^{MAX_ISOLATION_DEGREE + 1}-x-1"])   # over the budget
@example(["verify", "--poly=-x+1", "--json"])   # a value starting with "-"
@example(["height", "--poly", "+x^2"])          # a leading "+"
def test_every_argv_answers_with_an_exit_code_and_parsable_json(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    if "--json" in argv and out:
        json.loads(out)
    assert run(argv) == (code, out, err), argv
