import decimal
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from polyheight import cli, numutil, valuations
from polyheight.cli import _interval_json, _interval_text, main
from polyheight.intervals import RealInterval
from polyheight.rootfind import MAX_ISOLATION_DEGREE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_verify_counterexample(capsys):
    code, rep, _ = run_json(capsys, "verify", "--field", "Q(sqrt(-2))",
                            "--poly", "x^8+2x^6-3x^4-4x^2+4", "--all")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["results"]["height_exact"] == "4"
    assert len(rep["results"]["checks"]) == 5
    assert all(c["verdict"] == "holds" for c in rep["results"]["checks"])
    names = {c["name"] for c in rep["results"]["checks"]}
    assert names == {"alphabound1", "alphabound2", "bound1", "bound2", "complexmahler"}


def test_verify_single_check(capsys):
    code, rep, _ = run_json(capsys, "verify", "--field", "Q",
                            "--poly", "x^2-1", "--check", "bound2")
    assert code == 0
    assert [c["name"] for c in rep["results"]["checks"]] == ["bound2"]


def test_ck_certify(capsys):
    code, rep, _ = run_json(capsys, "ck-certify", "--field", "Q(sqrt(-2))",
                            "--base", "x^4+x^2-2", "--jmax", "2")
    assert code == 0
    certs = rep["results"]["certificates"]
    assert [c["sum_abs"] for c in certs] == ["4", "14"]
    assert abs(float(certs[0]["cert_value"]) - 2 / math.log(2)) < 1e-9
    assert abs(float(certs[1]["cert_value"]) - 8 / math.log(14)) < 1e-9


def test_mahler(capsys):
    code, rep, _ = run_json(capsys, "mahler", "--poly", "x^3-x-1")
    assert code == 0
    lo, hi = (float(t) for t in rep["results"]["mahler"])
    assert 1.3247 <= lo <= hi <= 1.3248


def test_height_exact_rational_serialization(capsys):
    code, rep, _ = run_json(capsys, "height", "--field", "Q(sqrt(-1))",
                            "--poly", "(1+sqrt(-1))x + 2")
    assert code == 0
    assert rep["results"]["nonarch"] == "1/2"    # exact string, not a float
    assert rep["results"]["exact"] is None


def test_mk_and_ck_interval(capsys):
    code, rep, _ = run_json(capsys, "mk", "--field", "Q(sqrt(-1))", "--cap", "3")
    assert code == 0
    assert {"minpoly": [2, -2, 1], "power": 1} in rep["results"]["witnesses"]
    code, rep, _ = run_json(capsys, "ck-interval", "--field", "Q(sqrt(-2))", "--mk", "2")
    assert code == 0
    assert abs(float(rep["results"]["upper"]) - 4 / math.log(2)) < 1e-9
    assert rep["results"]["exact"] is False


def test_lattice_and_pell(capsys):
    code, rep, _ = run_json(capsys, "lattice", "--field", "Q(sqrt(-1))", "--radius", "4")
    assert code == 0
    assert rep["results"]["min_norm"] == 4
    assert rep["results"]["unit_or_zero_hits"] == 0
    code, rep, _ = run_json(capsys, "pell", "--d", "2")
    assert code == 0
    assert rep["results"]["product"] == "1"
    assert rep["results"]["b"] == "3" and rep["results"]["c"] == "2"


def test_t2(capsys):
    code, rep, _ = run_json(capsys, "t2", "--k", "2", "--cap", "1.3")
    assert code == 0
    assert rep["results"]["w"] == 12


def test_input_errors(capsys):
    code, out, err = run_cli(capsys, "mahler", "--poly", "x^3-x-")
    assert code == 3 and "position" in err
    code, out, err = run_cli(capsys, "height", "--field", "Q(sqrt(12))", "--poly", "x")
    assert code == 3 and "squarefree" in err
    code, out, err = run_cli(capsys, "verify", "--field", "Q", "--poly", "x^2+1")
    assert code == 3 and "split" in err
    code, out, err = run_cli(capsys, "height", "--field", "Q",
                             "--poly", "sqrt(-1)x+1")
    assert code == 3
    code, out, err = run_cli(capsys, "mahler", "--poly", "x", "--precision", "0")
    assert code == 3 and "between 32 and 4096" in err


def test_deterministic_output(capsys):
    args = ("verify", "--field", "Q(sqrt(-2))", "--poly", "x^8+2x^6-3x^4-4x^2+4",
            "--all", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_golden_output(capsys):
    # verify --all --json over the five test fields, repeated roots and
    # roots of unity prints exactly the stored reports: the same verdicts,
    # enclosures and mk_used, byte for byte
    cases = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())
    assert len(cases) == 12
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_lattice_golden_output(capsys):
    # lattice text and --json reports for D = -1 and -3 at radii 1 to 12
    # print exactly the stored output: the same minimum, attaining pairs
    # (box coordinates) and hit count, byte for byte
    cases = json.loads((Path(__file__).parent / "data" / "lattice_golden.json").read_text())
    assert len(cases) == 24
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_t2_golden_output(capsys):
    # t2 text and --json reports for k = 1, 2, 3 at caps 1.05 to 2 print
    # exactly the stored output: the same w, floor, constant and
    # floor_attained, byte for byte
    cases = json.loads((Path(__file__).parent / "data" / "t2_golden.json").read_text())
    assert len(cases) == 42
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_mahler_golden_output(capsys):
    # mahler text and --json reports for dense polynomials of degree 10-32,
    # products g*h^2, the Mignotte polynomials x^n - 2(ax - 1)^2 and a
    # 2^-5000 cluster (exit 2) print exactly the stored output, and every
    # printed enclosure contains the stored measure, which was computed
    # from mpmath.polyroots at 400 digits
    cases = json.loads((Path(__file__).parent / "data" / "mahler_golden.json").read_text())
    assert len(cases) == 30
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]
        if case["reference"] is None:
            continue
        if "--json" in case["argv"]:
            lo, hi = json.loads(out)["results"]["mahler"]
        else:
            line = [t for t in out.splitlines() if t.split()[0] == "mahler"][0]
            lo, hi = line.split(None, 1)[1].strip("[]").split(", ")
        assert Fraction(lo) <= Fraction(case["reference"]) <= Fraction(hi), case["argv"]


def test_lattice_radius_over_budget_exits_3(capsys):
    # rejected from the pair count, before a box of 10^12 elements is built
    code, out, err = run_cli(capsys, "lattice", "--field", "Q(sqrt(-1))",
                             "--radius", "1000000")
    assert code == 3 and out == "" and "budget" in err


def test_text_output_contains_table(capsys):
    code, out, err = run_cli(capsys, "height", "--field", "Q", "--poly", "2x-1")
    assert code == 0
    assert "polyheight height" in out
    assert "height" in out and "nonarch" in out


def test_precision_flag(capsys):
    code, rep, _ = run_json(capsys, "mahler", "--poly", "x^3-x-1",
                            "--precision", "512")
    assert code == 0
    assert rep["precision_bits"] == 512


def test_exit_code_mapping():
    from polyheight.cli import _exit_code
    assert _exit_code([]) == 0
    assert _exit_code(["holds", "holds"]) == 0
    assert _exit_code(["holds", "inconclusive"]) == 2
    assert _exit_code(["inconclusive", "fails"]) == 1


def test_subprocess_output_matches_in_process(capsys, tmp_path):
    # the CLI result is byte-identical to the library call's serialized report
    import subprocess
    import sys
    args = ["mahler", "--poly", "x^3-x-1", "--json"]
    code, out, _ = run_cli(capsys, *args)
    proc = subprocess.run([sys.executable, "-m", "polyheight", *args],
                          capture_output=True, text=True)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_invalid_mk_rejected(capsys):
    # an mk above the field's true minimum must be an input error, not a
    # false bound-violation alarm
    code, out, err = run_cli(capsys, "verify", "--field", "Q(sqrt(5))",
                             "--poly", "x^2-x-1", "--mk", "2")
    assert code == 3 and "minimal measure" in err
    # a valid lower bound passes
    code, rep, _ = run_json(capsys, "verify", "--field", "Q(sqrt(5))",
                            "--poly", "x^2-x-1", "--mk", "1.5")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["mahler", "--poly", "x", "--precision", "-5"],
    ["mahler", "--poly", "x", "--precision", "8192"],
    ["mahler", "--poly", "x", "--precision", "abc"],
    ["mahler"],
    ["mahler", "--poly", "x", "--threads", "1"],
])
def test_malformed_flags_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and "error:" in err


def test_ck_certify_jmax_zero(capsys):
    code, out, err = run_cli(capsys, "ck-certify", "--base", "x^2-1", "--jmax", "0")
    assert code == 3 and "jmax must be at least 1" in err


def test_certification_failure_exits_2(capsys):
    # roots 2^-5000 apart cannot be separated below the 4096-bit cap
    n = 2 ** 5000
    code, out, err = run_cli(capsys, "mahler", "--poly",
                             f"x^2 - (2 + 1/{n})x + (1 + 1/{n})")
    assert code == 2 and err.startswith("error:")


def test_printed_enclosures_round_outward():
    for q in (Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3), Fraction(-2, 3),
              Fraction(10 ** 40, 3), Fraction(1, 3 * 10 ** 9), Fraction(4)):
        enc = RealInterval.from_fraction(q, 256)
        lo, hi = (Fraction(t) for t in _interval_json(enc))
        assert lo <= q <= hi
        assert hi - lo <= abs(q) / 10 ** 28
        lo, hi = (Fraction(t) for t in _interval_text(enc).strip("[]").split(", "))
        assert lo <= q <= hi
        assert hi - lo <= abs(q) / 10 ** 10
    assert _interval_json(RealInterval.from_fraction(Fraction(4))) == ["4.0", "4.0"]


def test_decimal_text_matches_mpmath_nstr():
    """The printed endpoint layout against mpmath.nstr, which made it before."""
    def nstr(d: decimal.Decimal, digits: int) -> str:
        with mpmath.workdps(digits + 10):   # d has `digits` digits: nstr keeps it exactly
            return mpmath.nstr(mpmath.mpf(str(d)), digits)

    rng = random.Random(20261021)
    for _ in range(4000):
        digits = rng.choice((12, 30))
        if rng.random() < 0.25:   # a run of 9s longer than `digits`: rounding carries
            num, den = 10 ** (digits + rng.randint(1, 3)) - rng.randint(1, 9), 1
        elif rng.random() < 0.25:   # exact, with trailing zeros dropped or kept
            num, den = rng.randint(1, 10 ** 6), rng.choice((1, 2, 4, 5, 8, 10 ** 6))
        else:
            num, den = rng.randint(1, 10 ** 40), rng.randint(1, 10 ** 40)
        e = rng.randint(-60, 60)
        num, den = rng.choice((1, -1)) * num * 10 ** max(e, 0), den * 10 ** max(-e, 0)
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            d = decimal.Context(prec=digits, rounding=rounding).divide(num, den)
            assert cli._decimal_text(d, digits) == nstr(d, digits), (d, digits)
    for d in (decimal.Decimal(0), decimal.Decimal("-0"), decimal.Decimal("0E+5")):
        assert cli._decimal_text(d, 12) == cli._decimal_text(d, 30) == nstr(d, 12) == "0.0"


@pytest.mark.parametrize("argv", [
    ["ck-certify", "--base", "1"],
    ["t2", "--k", "1", "--cap", "inf"],
    ["verify", "--poly", "x^2-1", "--mk", "inf"],
    ["ck-interval", "--field", "Q(sqrt(-2))", "--mk", "nan"],
    ["ck-interval", "--field", "Q(sqrt(-2))", "--mk", "inf"],
])
def test_non_finite_and_constant_inputs_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and "error:" in err and "Traceback" not in err
    assert out == ""


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(cli, "mahler_measure", broken)
    code, out, err = run_cli(capsys, "mahler", "--poly", "x^3-x-1")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == "" and "Traceback" in err
    assert err.endswith("\ninternal error: ZeroDivisionError: planted\n")


# nextprime(10^25) * nextprime(3 * 10^25), a 51-digit semiprime
N = 300000000000000000000001060000000000000000000000871


@pytest.fixture
def factored(monkeypatch):
    """The numbers factored during a test; any p-adic valuation fails it."""
    seen = []
    real = numutil.factorize

    def recording(n):
        seen.append(abs(n))
        return real(n)

    def no_valuation(*args):
        raise AssertionError("valuation called")

    monkeypatch.setattr(numutil, "factorize", recording)
    monkeypatch.setattr(valuations, "valuation", no_valuation)
    return seen


def test_semiprime_denominators_need_no_factoring(capsys, factored):
    # the non-archimedean parts are ideal norms: N is never factored, and
    # only the field's |D| is (by the squarefree test)
    code, rep, _ = run_json(capsys, "height", "--field", "Q", "--poly", f"x^2+1/{N}")
    assert code == 0 and rep["results"]["nonarch"] == rep["results"]["exact"] == str(N)
    code, rep, _ = run_json(capsys, "verify", "--field", "Q", "--poly", f"x-1/{N}")
    assert code == 0 and rep["verdicts"] == ["holds"] * 5
    for field, poly in (("Q(sqrt(-1))", f"x^2+(1/{N}sqrt(-1))"),
                        ("Q(sqrt(5))", f"x^3+(1/{N}+3/{N}sqrt(5))")):
        code, rep, _ = run_json(capsys, "height", "--field", field, "--poly", poly)
        assert code == 0 and rep["results"]["exact"] == str(N)
    code, rep, _ = run_json(capsys, "pell", "--d", "100003")
    assert code == 0 and rep["results"]["obstruction"] is True
    assert set(factored) <= {1, 5, 100003}


@pytest.mark.parametrize("argv, message", [
    (["ck-certify", "--base", "x^2-1", "--jmax", "100000"], "jmax * deg(base)"),
    (["ck-certify", "--base", "x+99999", "--jmax", "1000"], "4300 digits"),
    (["pell", "--d", "10000000019"], "4300 digits"),
    (["pell", "--d", str(N)], "budget of 10^18"),
    (["height", "--field", f"Q(sqrt({N}))", "--poly", "x"], "budget of 10^18"),
    (["mk", "--field", f"Q(sqrt(-{N}))"], "budget of 10^18"),
    (["mahler", "--poly", f"x^{MAX_ISOLATION_DEGREE + 1}-x-1"], "MAX_ISOLATION_DEGREE"),
])
def test_budgets_exit_3(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and message in err and out == ""


def test_verify_rejects_a_high_degree_non_split_polynomial(capsys):
    code, out, err = run_cli(capsys, "verify", "--field", "Q", "--poly", "x^3000-1")
    assert code == 3 and "does not split" in err and out == ""


@pytest.mark.parametrize("mk_args, mk_used", [([], "4"), (["--mk", "1.5"], "3/2")])
def test_verify_over_a_field_with_minimal_measure_above_3(capsys, mk_args, mk_used):
    # Q(sqrt(-10)) has no measure in (1, 3]; its minimal measure is 4
    code, rep, _ = run_json(capsys, "verify", "--field", "Q(sqrt(-10))", "--poly", "x-1",
                            *mk_args)
    assert code == 0 and rep["results"]["mk_used"] == mk_used
    assert rep["verdicts"] == ["holds"] * 5


def test_verify_computes_height_and_mk_once(capsys, monkeypatch):
    import sys
    from polyheight import heights, search
    calls = {"height": 0, "mk_search": 0}
    for owner, name in ((heights, "height"), (search, "mk_search")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        # the function and every `from .x import name` alias of it
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("polyheight") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    code, rep, _ = run_json(capsys, "verify", "--field", "Q(sqrt(-2))",
                            "--poly", "x^8+2x^6-3x^4-4x^2+4", "--all")
    assert code == 0 and len(rep["results"]["checks"]) == 5
    assert calls == {"height": 1, "mk_search": 1}


@pytest.mark.parametrize("poly, budget", [
    ("x^100000000", "MAX_EXPONENT"),
    ("x^" + "9" * 5000, "MAX_DIGITS"),
    ("1" * 5000 + "x + 1", "MAX_DIGITS"),
    ("x^2 + 1/" + "7" * 4301, "MAX_DIGITS"),
])
def test_parser_budgets_exit_3(capsys, poly, budget):
    code, out, err = run_cli(capsys, "height", "--field", "Q", "--poly", poly)
    assert code == 3 and budget in err and out == ""
    assert "Exceeds the limit" not in err


def test_parser_budgets_accept_their_bounds():
    from polyheight import rationals
    from polyheight.polyparse import MAX_DIGITS, MAX_EXPONENT, parse_poly
    assert parse_poly(f"x^{MAX_EXPONENT} - 1", rationals()).degree == MAX_EXPONENT
    big = parse_poly("9" * MAX_DIGITS + "x + 1/" + "7" * MAX_DIGITS, rationals())
    assert big.coeffs[1] == 10 ** MAX_DIGITS - 1
