import re
from fractions import Fraction

import pytest

from carnot.expressions import parse_poly
from carnot.poly import PolyFunction


def var(layer, index):
    return PolyFunction.variable((layer, index))


@pytest.mark.parametrize(
    "text,label",
    [
        ("p11", (1, 1)),
        ("p21", (1, 2)),
        ("p12", (2, 1)),
        ("p1_1", (1, 1)),
        ("p1_10", (10, 1)),
        ("p10_1", (1, 10)),
        ("p18_4", (4, 18)),
    ],
)
def test_variable_forms(text, label):
    assert parse_poly(text) == PolyFunction.variable(label)


@pytest.mark.parametrize("text", ["p111", "p1_10 + p113", "3*p12^2*p213"])
def test_digit_after_variable_rejected(text):
    with pytest.raises(ValueError, match="digit directly after a variable"):
        parse_poly(text)


def test_whitespace_separates_a_constant_factor():
    assert parse_poly("p1_2 0") == PolyFunction.zero()
    assert parse_poly("p11 2") == var(1, 1).scale(2)


def test_products_powers_and_constants():
    got = parse_poly("poly: 3p11^2 - 1/2 (p21 + p1_3)")
    want = var(1, 1) ** 2 * 3 - (var(1, 2) + var(3, 1)).scale(Fraction(1, 2))
    assert got == want



@pytest.mark.parametrize("text,want", [
    ("-p11^2", -(var(1, 1) ** 2)),
    ("-2^2", PolyFunction.constant(-4)),
    ("2*-p11^2", (var(1, 1) ** 2).scale(-2)),
    ("(-p11^2)", -(var(1, 1) ** 2)),
    ("0-p11^2", -(var(1, 1) ** 2)),
    ("--p11", var(1, 1)),
    ("+p11", var(1, 1)),
    ("(-p11)^2", var(1, 1) ** 2),
])
def test_a_leading_sign_binds_looser_than_a_power(text, want):
    assert parse_poly(text) == want


@pytest.mark.parametrize("text,want", [
    ("p11 2", var(1, 1).scale(2)),
    ("p1_2 0", PolyFunction.zero()),
    ("3p11", var(1, 1).scale(3)),
    ("(p11)(p21)", var(1, 1) * var(1, 2)),
    ("2(p11+1)", var(1, 1).scale(2) + PolyFunction.constant(2)),
    ("2 3", "position 2 of '2 3'"),
    ("12 5", "position 3 of '12 5'"),
    ("1/2 3", "position 4 of '1/2 3'"),
    ("p11^2 3", "position 6 of 'p11^2 3'"),
])
def test_juxtaposition_multiplies_except_two_numbers_in_a_row(text, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=re.escape(
                f"a number directly after a number at {want}")):
            parse_poly(text)
    else:
        assert parse_poly(text) == want


def test_an_exponent_takes_no_sign():
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
        parse_poly("p11^-1")
