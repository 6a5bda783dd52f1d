"""Parsers for the CLI input grammar (fields and polynomials).

A polynomial is split into tokens once, by one compiled regular
expression (digit runs, "sqrt", single operator characters, and any
other non-space character as a token of its own), and a recursive
descent runs over the token list.  Each power's coefficient accumulates
as an integer triple (p, q, den) for (p + q sqrt(D)) / den, and one
field element per power is built at the end.  Token positions are
computed only for an error message.  The grammar (EBNF, also documented
in the README) is whitespace-insensitive:

    field    = "Q" | "Q(sqrt(" sint "))"
    poly     = [sign] term { sign term }
    term     = coeff [["*"] monomial] | monomial
    monomial = "x" ["^" uint]
    coeff    = number | "(" expr ")"
    expr     = [sign] atom { sign atom }
    atom     = number [["*"] root] | root
    root     = "sqrt(" sint ")"
    number   = uint ["/" uint]
    sign     = "+" | "-"
"""
from __future__ import annotations

import re

from .fields import Field, _reduced, make_field
from .polynomials import PolyOverK

# Budgets, each checked before the work it bounds.  A polynomial is
# stored densely, one coefficient per power up to its degree, so an
# exponent is checked before anything is allocated for it (parsing a
# dense polynomial of 10 001 powers takes about 30 ms).
MAX_EXPONENT = 10_000
# Python converts decimal strings of at most 4300 digits to int
# (sys.get_int_max_str_digits); every integer in the input is held to
# the same bound before it is converted.
MAX_DIGITS = 4300

# \d and \s are str.isdecimal and str.isspace, so a digit token is what
# int() reads, and a non-decimal digit such as "²" is a token of its own
_TOKEN = re.compile(r"\s*(\d+|sqrt|[-+*/^()x]|\S)")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos
        self.text = text


def _error(message: str, text: str, k: int, after: bool = False) -> ParseError:
    """A ParseError at the start of token k (or just after it); the end
    of the text when k is past the last token."""
    spans = [m.span(1) for m in _TOKEN.finditer(text)]
    return ParseError(message, spans[k][after] if k < len(spans) else len(text), text)


def parse_field(text: str) -> Field:
    try:
        return make_field(text)
    except ValueError as exc:
        raise ParseError(str(exc), 0, text) from exc


def _add(x: tuple, sign: int, y: tuple) -> tuple:
    """x + sign * y for (p, q, den) triples, not reduced."""
    (p, q, den), (p2, q2, den2) = x, y
    if den == den2:
        return p + sign * p2, q + sign * q2, den
    return p * den2 + sign * p2 * den, q * den2 + sign * q2 * den, den * den2


# Each parser below reads the token list t (ended by a "" sentinel) from
# token i and returns its value and the index of the next token.

def _uint(t: list[str], i: int, text: str) -> int:
    if not t[i].isdecimal():
        raise _error("expected an integer", text, i)
    if len(t[i]) > MAX_DIGITS:
        raise _error(f"an integer of {len(t[i])} digits exceeds the "
                     f"budget of MAX_DIGITS = {MAX_DIGITS} digits", text, i)
    return int(t[i])


def _root(t: list[str], i: int, text: str, field: Field) -> int:
    """root, which must be sqrt(D) of the field; only the index is returned."""
    for k, token in ((i, "sqrt"), (i + 1, "(")):
        if t[k] != token:
            raise _error(f"expected {token!r}", text, k)
    neg = t[i + 2] == "-"
    i += 2 + neg
    d = -_uint(t, i, text) if neg else _uint(t, i, text)
    if t[i + 1] != ")":
        raise _error("expected ')'", text, i + 1)
    if field.is_rational:
        raise _error("sqrt coefficients need a quadratic field", text, i + 1, after=True)
    if d != field.D:
        raise _error(f"sqrt({d}) does not lie in {field.descriptor()}", text, i + 1, after=True)
    return i + 2


def _atom(t: list[str], i: int, text: str, field: Field) -> tuple[tuple, int]:
    """atom as a (p, q, den) triple."""
    if t[i][:1] == "s":
        return (0, 1, 1), _root(t, i, text, field)
    num, den = _uint(t, i, text), 1
    i += 1
    if t[i] == "/":
        den = _uint(t, i + 1, text)
        if den == 0:
            raise _error("zero denominator", text, i + 1, after=True)
        i += 2
    i += t[i] == "*"
    if t[i][:1] == "s":
        return (0, num, den), _root(t, i, text, field)
    return (num, 0, den), i


def _expr(t: list[str], i: int, text: str, field: Field) -> tuple[tuple, int]:
    """expr as a (p, q, den) triple; "-+" opens it like "-"."""
    acc, sign = (0, 0, 1), 1
    if t[i] == "-":
        sign, i = -1, i + 1
    i += t[i] == "+"
    while True:
        atom, i = _atom(t, i, text, field)
        acc = _add(acc, sign, atom)
        if t[i] not in ("+", "-"):
            return acc, i
        sign, i = (1 if t[i] == "+" else -1), i + 1


def _exponent(t: list[str], i: int, text: str) -> tuple[int, int]:
    """the ["^" uint] after an "x"."""
    if t[i] != "^":
        return 1, i
    power = _uint(t, i + 1, text)
    if power > MAX_EXPONENT:
        raise _error(f"exponent {power} exceeds the budget of "
                     f"MAX_EXPONENT = {MAX_EXPONENT}", text, i, after=True)
    return power, i + 2


def parse_poly(text: str, field: Field) -> PolyOverK:
    """Parse a polynomial in x with rational or sqrt(D) coefficients."""
    t = _TOKEN.findall(text) + [""]
    terms: dict[int, tuple] = {}   # power -> (p, q, den)
    sign = -1 if t[0] == "-" else 1
    i = int(t[0] in ("+", "-"))
    while True:
        if t[i] == "(":
            coeff, i = _expr(t, i + 1, text, field)
            if t[i] != ")":
                raise _error("expected ')'", text, i)
            i += 1
        elif t[i].isdecimal() or t[i][:1] == "s":
            coeff, i = _atom(t, i, text, field)
        else:
            coeff = None
        if t[i] == "x":
            power, i = _exponent(t, i + 1, text)
        elif t[i] == "*":
            if t[i + 1] != "x":
                raise _error("expected 'x'", text, i + 1)
            power, i = _exponent(t, i + 2, text)
        elif coeff is None:
            raise _error("expected a term", text, i)
        else:
            power = 0
        terms[power] = _add(terms.get(power, (0, 0, 1)), sign, coeff or (1, 0, 1))
        if t[i] == "":
            break
        if t[i] not in ("+", "-"):
            raise _error("expected '+', '-' or end of input", text, i)
        sign, i = (1 if t[i] == "+" else -1), i + 1
    degree = max((k for k, (p, q, _) in terms.items() if p or q), default=-1)
    if degree < 0:
        raise ParseError("polynomial is identically zero", len(text), text)
    return PolyOverK([_reduced(*terms.get(k, (0, 0, 1)), field) for k in range(degree + 1)],
                     field)
