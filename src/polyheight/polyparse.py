"""Parsers for the CLI input grammar (fields and polynomials).

Whitespace-insensitive recursive descent with position-annotated errors.
Grammar (EBNF, also documented in the README):

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

from fractions import Fraction

from .fields import Field, FieldElement, make_field
from .polynomials import PolyOverK

# Budgets, each checked before the work it bounds.  A polynomial is
# stored densely, one coefficient per power up to its degree, so an
# exponent is checked before anything is allocated for it (parsing takes
# about 1.4 s per 10^6 powers).
MAX_EXPONENT = 10_000
# Python converts decimal strings of at most 4300 digits to int
# (sys.get_int_max_str_digits); every integer in the input is held to
# the same bound before it is converted.
MAX_DIGITS = 4300


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos
        self.text = text


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.eat(token):
            raise ParseError(f"expected {token!r}", self.pos, self.text)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.pos, self.text)
        if self.pos - start > MAX_DIGITS:
            raise ParseError(f"an integer of {self.pos - start} digits exceeds the "
                             f"budget of MAX_DIGITS = {MAX_DIGITS} digits", start, self.text)
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_field(text: str) -> Field:
    try:
        return make_field(text)
    except ValueError as exc:
        raise ParseError(str(exc), 0, text) from exc


def _parse_number(sc: _Scanner) -> Fraction:
    num = sc.uint()
    if sc.eat("/"):
        den = sc.uint()
        if den == 0:
            raise ParseError("zero denominator", sc.pos, sc.text)
        return Fraction(num, den)
    return Fraction(num)


def _parse_root(sc: _Scanner, field: Field) -> FieldElement:
    sc.expect("sqrt")
    sc.expect("(")
    neg = sc.eat("-")
    d = sc.uint()
    if neg:
        d = -d
    sc.expect(")")
    if field.is_rational:
        raise ParseError("sqrt coefficients need a quadratic field", sc.pos, sc.text)
    if d != field.D:
        raise ParseError(f"sqrt({d}) does not lie in {field.descriptor()}",
                         sc.pos, sc.text)
    return field.element(0, 1)


def _parse_atom(sc: _Scanner, field: Field) -> FieldElement:
    if sc.peek() == "s":
        return _parse_root(sc, field)
    q = _parse_number(sc)
    sc.eat("*")
    if sc.peek() == "s":
        return _parse_root(sc, field) * q
    return field.element(q)


def _parse_coeff_expr(sc: _Scanner, field: Field) -> FieldElement:
    acc = field.zero()
    sign = -1 if sc.eat("-") else 1
    sc.eat("+")
    while True:
        acc = acc + _parse_atom(sc, field) * sign
        if sc.eat("+"):
            sign = 1
        elif sc.eat("-"):
            sign = -1
        else:
            return acc


def _parse_exponent(sc: _Scanner) -> int:
    if not sc.eat("^"):
        return 1
    start = sc.pos
    power = sc.uint()
    if power > MAX_EXPONENT:
        raise ParseError(f"exponent {power} exceeds the budget of "
                         f"MAX_EXPONENT = {MAX_EXPONENT}", start, sc.text)
    return power


def parse_poly(text: str, field: Field) -> PolyOverK:
    """Parse a polynomial in x with rational or sqrt(D) coefficients."""
    sc = _Scanner(text)
    terms: dict[int, FieldElement] = {}
    sign = -1 if sc.eat("-") else 1
    while True:
        coeff = field.one()
        have_coeff = False
        if sc.peek() == "(":
            sc.expect("(")
            coeff = _parse_coeff_expr(sc, field)
            sc.expect(")")
            have_coeff = True
        elif sc.peek().isdigit() or sc.peek() == "s":
            coeff = _parse_atom(sc, field)
            have_coeff = True
        if sc.eat("x"):
            power = _parse_exponent(sc)
        elif sc.eat("*"):
            sc.expect("x")
            power = _parse_exponent(sc)
        else:
            if not have_coeff:
                raise ParseError("expected a term", sc.pos, sc.text)
            power = 0
        term = coeff * sign
        terms[power] = terms.get(power, field.zero()) + term
        if sc.eat("+"):
            sign = 1
        elif sc.eat("-"):
            sign = -1
        elif sc.at_end():
            break
        else:
            raise ParseError("expected '+', '-' or end of input", sc.pos, sc.text)
    if not terms:
        raise ParseError("empty polynomial", sc.pos, sc.text)
    degree = max(terms)
    coeffs = [terms.get(i, field.zero()) for i in range(degree + 1)]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        raise ParseError("polynomial is identically zero", sc.pos, sc.text)
    return PolyOverK(coeffs, field)
