"""Polynomial grammar: parse/print round trips and error positions."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from zlca import grammar
from zlca.poly import D, X, Y, ParamPoly, const, param

from test_poly import polys


def test_basic_forms():
    assert grammar.parse("d + 2*x") == D + 2 * X
    assert grammar.parse("3/2*d^2*x") == Fraction(3, 2) * D ** 2 * X
    assert grammar.parse("-d - 2*x") == -D - 2 * X
    assert grammar.parse("0") == ParamPoly.zero()
    assert grammar.parse("y^2 - s") == Y ** 2 - param("s")


def test_parentheses_and_products():
    assert grammar.parse("(d + 2*s)*(d + x)") == (D + 2 * param("s")) * (D + X)
    assert grammar.parse("-(d + x)^2") == -(D + X) ** 2


def test_precedence():
    assert grammar.parse("1 + 2*d^2") == 1 + 2 * D ** 2
    assert grammar.parse("-d^2") == -(D ** 2)
    assert grammar.parse("2 - 3 - 1") == const(-2)


def test_rational_literals():
    assert grammar.parse("1/2") == const(Fraction(1, 2))
    assert grammar.parse("-1/2*x") == Fraction(-1, 2) * X


def test_nesting_is_bounded():
    cap = grammar.MAX_NESTING
    assert grammar.parse("(" * cap + "d" + ")" * cap) == D
    assert grammar.parse("-" * cap + "d") == D
    assert grammar.parse("-(" * (cap // 2) + "d" + ")" * (cap // 2)) == D
    for text in ("(" * (cap + 1) + "d" + ")" * (cap + 1),
                 "-" * (cap + 1) + "d", "-(" * (cap // 2) + "-d" + ")" * 50):
        with pytest.raises(grammar.ParseError, match="nesting deeper"):
            grammar.parse(text)


def test_literal_length_is_bounded():
    cap = grammar.MAX_LITERAL_DIGITS
    assert grammar.parse("9" * cap) == const(int("9" * cap))
    for text in ("1" * (cap + 1), "d^" + "2" * (cap + 1),
                 "1/" + "3" * (cap + 1)):
        with pytest.raises(grammar.ParseError, match="longer than"):
            grammar.parse(text)


def test_exponent_is_bounded():
    for text in ("d^17", "d^99999999999", "s^17 + 1"):
        with pytest.raises(grammar.ParseError, match="exponent larger than 16"):
            grammar.parse(text)
    assert grammar.parse("(d + s)^16") == (D + param("s")) ** 16
    assert grammar.MAX_EXPONENT == 16


def test_product_size_is_bounded():
    cap = grammar.MAX_PRODUCT_PAIRS
    for text in ("(a+b+c+e+f+1)^12*(a+b+c+e+f+1)^12", "(a+b+c+e+f+1)^12",
                 "(a+b+c+e+f+g+h+i+j+k+l+m+1)^4*(a+b+c+e+f+g+h+i+j+k+l+m+1)^4"):
        start = time.perf_counter()
        with pytest.raises(grammar.ParseError,
                           match=f"exceeds {cap} term pairs"):
            grammar.parse(text)
        assert time.perf_counter() - start < 1, text
    assert grammar.parse("(d + x + 1)^12") == (D + X + 1) ** 12
    assert len(grammar.parse("(d + x + s + 1)^12")) == 455
    assert cap == 100_000


@pytest.mark.parametrize("text", ["d + \uff12*x", "\u0662", "d\u00b2",
                                  "s\u0301", "\u017f", "d +\u3000x",
                                  "x\u2081"])
def test_grammar_is_ascii(text):
    with pytest.raises(grammar.ParseError, match="unexpected character"):
        grammar.parse(text)


@pytest.mark.parametrize("name", ["\u017f", "s\u0661", "\uff53", "\u00e9"])
def test_parameter_names_are_ascii(name):
    with pytest.raises(ValueError, match="invalid variable name"):
        ParamPoly.variable(name)


def test_adjacency_requires_star():
    with pytest.raises(grammar.ParseError) as info:
        grammar.parse("d + 2x")
    assert info.value.column == 6


def test_error_positions():
    with pytest.raises(grammar.ParseError) as info:
        grammar.parse("d + ")
    assert info.value.column == 5
    with pytest.raises(grammar.ParseError):
        grammar.parse("d / 2")
    with pytest.raises(grammar.ParseError):
        grammar.parse("D + x")
    with pytest.raises(grammar.ParseError):
        grammar.parse("(d + x")
    with pytest.raises(grammar.ParseError):
        grammar.parse("d^x")
    with pytest.raises(grammar.ParseError):
        grammar.parse("1/0")


@settings(max_examples=80)
@given(polys())
def test_parse_after_print_is_identity(p):
    assert grammar.parse(str(p)) == p


@settings(max_examples=80)
@given(polys())
def test_print_after_parse_is_identity(p):
    text = str(p)
    assert str(grammar.parse(text)) == text


def test_canonical_strings_stay_canonical():
    for text in ("d^3 + 3/2*d^2*x - 3/2*d*x^2 - x^3",
                 "d + 2*x",
                 "-b*d + x*b - 2*s",
                 "0",
                 "d*x - 3*x^2"):
        parsed = grammar.parse(text)
        assert str(parsed) == str(grammar.parse(str(parsed)))
