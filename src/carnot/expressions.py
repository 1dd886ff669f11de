"""Tiny polynomial expression parser and JSON (de)serialization.

Coordinate variables are written ``p<i><k>`` (one digit each) or
``p<i>_<k>`` (any number of digits) for the coordinate with index ``i`` in
layer ``k``; they map to the internal label ``(k, i)``.  A digit directly
after a variable is an error (``p111`` raises rather than reading as
``p11 * 1``).  Supported syntax: ``+ - * ^``, integer and rational
constants (``3``, ``1/2``), parentheses.  A sign binds looser than ``^``:
``-p11^2`` is -(p11²), ``2*-p11^2`` is -2 p11², and ``p11^-1`` is an error.
Juxtaposition multiplies (``3p11``, ``p11 2``, ``(p11)(p21)``,
``2(p11+1)``), except that a number directly after a number is an error
(``2 3``, ``1/2 3`` and ``p11^2 3`` raise rather than multiply).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import PolyFunction

_TOKEN = re.compile(
    r"\s*(?:p(?:(?P<index>\d+)_(?P<layer>\d+)|(?P<i>\d)(?P<k>\d))"
    r"|(?P<num>\d+(?:/\d+)?)|(?P<op>[-+*^()]))"
)


def parse_rational(text):
    """``Fraction(text)``, with a zero denominator a ``ValueError``."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()!r} has a zero denominator") from None


def json_int(value, what):
    """``value`` if it is a JSON integer; a boolean or a float such as
    ``2.0`` is a ``ValueError`` naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_label(value):
    """A basis label from a JSON list of integers."""
    return tuple(json_int(x, "label index") for x in value)


def json_fraction(num, den):
    """``num / den`` from JSON integers, ``den`` nonzero."""
    if json_int(den, "den") == 0:
        raise ValueError("den must be nonzero, got 0")
    return Fraction(json_int(num, "num"), den)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        pos = m.end()
        if m.group("num"):
            if out and out[-1][0] == "num":
                raise ValueError(f"a number directly after a number at position "
                                 f"{m.start('num')} of {text!r}")
            out.append(("num", parse_rational(m.group("num"))))
        elif m.group("op"):
            out.append(("op", m.group("op")))
        else:
            if text[pos:pos + 1].isdigit():
                raise ValueError(
                    f"digit directly after a variable at: {text[m.start():].strip()!r}"
                )
            i = m.group("index") or m.group("i")
            k = m.group("layer") or m.group("k")
            out.append(("var", (int(k), int(i))))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_sum(self):
        value = self.parse_product()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self):
        value = self.parse_signed()
        while True:
            kind, tok = self.peek()
            if (kind, tok) == ("op", "*"):
                self.take()
                value = value * self.parse_signed()
            elif kind in ("var", "num") or (kind, tok) == ("op", "("):
                value = value * self.parse_power()
            else:
                return value

    def parse_signed(self):
        if self.peek() in (("op", "-"), ("op", "+")):
            return -self.parse_signed() if self.take()[1] == "-" else self.parse_signed()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, tok = self.take()
            if kind != "num" or tok.denominator != 1:
                raise ValueError("exponent must be a nonnegative integer")
            return base ** int(tok)
        return base

    def parse_atom(self):
        kind, tok = self.take()
        if kind == "var":
            return PolyFunction.variable(tok)
        if kind == "num":
            return PolyFunction.constant(tok)
        if (kind, tok) == ("op", "("):
            inner = self.parse_sum()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return inner
        raise ValueError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> PolyFunction:
    text = text.strip()
    if text.startswith("poly:"):
        text = text[len("poly:"):]
    if not text.strip():
        raise ValueError("the text is empty")
    parser = _Parser(_tokenize(text))
    value = parser.parse_sum()
    if parser.pos != len(parser.tokens):
        raise ValueError(f"trailing input in polynomial: {text!r}")
    return value


def poly_to_json(poly: PolyFunction):
    """Exponent-coefficient list form of a coordinate polynomial."""
    terms = []
    for mono, coeff in sorted(poly.terms.items(), key=lambda kv: repr(kv[0])):
        terms.append(
            {
                "mono": [[list(var), exp] for var, exp in mono],
                "num": coeff.numerator,
                "den": coeff.denominator,
            }
        )
    return terms


def poly_from_json(data) -> PolyFunction:
    """Inverse of :func:`poly_to_json`; ``ValueError`` on a malformed term."""
    pieces = []
    for term in data:
        try:
            piece = PolyFunction.constant(json_fraction(term["num"], term.get("den", 1)))
            for var, exp in term["mono"]:
                piece = piece * PolyFunction.variable(json_label(var), json_int(exp, "exponent"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polynomial term {term!r}: {exc}") from None
        pieces.append(piece)
    return PolyFunction.sum(pieces)
