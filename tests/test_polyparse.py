"""The token parser against the character-at-a-time reference parser.

Both must build the same coordinates from accepted input and refuse the
same input with the same message and position.  They differ on purpose
only where a non-decimal digit such as "²" appears: the reference reads
it as a digit and then fails in int() with no position.
"""
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import parse_poly_by_chars
from polyheight import FieldElement, fields, polyparse, quadratic_field, rationals
from polyheight.cli import main
from polyheight.polyparse import MAX_DIGITS, MAX_EXPONENT, ParseError, parse_poly
from test_cli_grammar import GOOD_D, polys, scribble


def _field(D):
    return rationals() if D is None else quadratic_field(D)


def _outcome(parse, text: str, D):
    """The (p, q, den) coordinates, or the refusal message with its position."""
    try:
        return [(c.p, c.q, c.den) for c in parse(text, _field(D)).coeffs]
    except ParseError as exc:
        return str(exc)


@st.composite
def cases(draw):
    D = draw(st.sampled_from((None,) + GOOD_D))
    return D, draw(st.one_of(polys(D), scribble))


@settings(max_examples=250, deadline=None, database=None)
@given(cases())
@example((None, f"x^{MAX_EXPONENT} - 1"))
@example((None, f"x^{MAX_EXPONENT + 1} - 1"))
@example((None, "9" * MAX_DIGITS + "x + 1/" + "7" * MAX_DIGITS))
@example((None, "9" * (MAX_DIGITS + 1) + "x + 1"))
@example((None, "x^2 + 1/" + "7" * (MAX_DIGITS + 1)))
@example((-2, " \t( 1 /2 -\n sqrt ( -2 ) ) *  x ^ 3 \t- 5 * sqrt(-2)  + x ^0 "))
@example((-5, "sqrt( - 5 )"))
@example((-5, "sqrt( - 5 ) x ^ 2 + ( - 3 * sqrt ( -5 ) )"))
@example((None, "1/0 x"))
@example((2, "sx"))
@example((2, "sqrtx"))
@example((None, "x^٢+1"))
@example((None, "+x^2"))
def test_token_parser_agrees_with_the_reference(case):
    D, text = case
    assert _outcome(parse_poly, text, D) == _outcome(parse_poly_by_chars, text, D), text


def test_leading_plus_parses_like_no_sign():
    Q = rationals()
    assert parse_poly("+x^2", Q).coeffs == parse_poly("x^2", Q).coeffs
    assert parse_poly(" + 3x - 1", Q).coeffs == parse_poly("3x - 1", Q).coeffs
    for text in ("+-x", "-+x", "++x"):
        with pytest.raises(ParseError, match="expected a term at position 1"):
            parse_poly(text, Q)


@pytest.mark.parametrize("text, message", [
    ("x^²", "expected an integer at position 2"),
    ("²x", "expected a term at position 0"),
    ("1²", "expected '+', '-' or end of input at position 1"),
])
def test_non_decimal_digit_gets_a_position(capsys, text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_poly(text, rationals())
    assert main(["height", "--poly", text]) == 3
    assert message in capsys.readouterr().err


def test_one_field_element_per_power(monkeypatch):
    n = 40
    K = quadratic_field(-2)
    text = " + ".join(f"(1/{k + 2} - {k}sqrt(-2) + 3/7)x^{k}" for k in range(n + 1))
    built = []
    reduced, init = fields._reduced, FieldElement.__init__

    def counting_reduced(*args):
        built.append(args)
        return reduced(*args)

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fields, "_reduced", counting_reduced)
    monkeypatch.setattr(polyparse, "_reduced", counting_reduced)
    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    f = parse_poly(text, K)
    assert f.degree == n and len(built) <= n + 1
    assert f.coeffs[n] == K.element(Fraction(1, n + 2) + Fraction(3, 7), -n)
