"""Polynomial grammar: parse/print round trips and error positions."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zlca import cli, gd, grammar, specfile
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
    assert grammar._parse_flat(str(p)) == p


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


# -- the two parse routes -----------------------------------------------------------

def descent(text):
    """The recursive-descent route alone: its value, or its error and column."""
    try:
        return grammar._Parser(grammar._tokenize(text)).parse()
    except grammar.ParseError as exc:
        return ("error", str(exc), exc.column)


def parsed(text):
    try:
        return grammar.parse(text)
    except grammar.ParseError as exc:
        return ("error", str(exc), exc.column)


_LONG = "7" * (grammar.MAX_LITERAL_DIGITS + 1)
_CAP = "7" * grammar.MAX_LITERAL_DIGITS

#: Near-flat strings: each is one step outside the printed form, or on a bound.
NEAR_FLAT = [
    "d  + x", "d +x", "d+ x", " d", "d ", "d\t+ x", "- d", "--d", "d - -x",
    "x*x", "x^2*x^3", "d*x*d", "b*d", "x*s*d", "s*b", "y*x", "t*s*b*a",
    "x^0", "x^1", "x^01", "x^16", "x^17", "x^20", "d^99999", "2^2", "x^2^2",
    "0*x", "0", "-0", "00", "0/5", "1*d", "2/4", "-4/2*x", "3/1", "1/0",
    "1/00", "d/2", "1/d", "2*3", "2*d*3", "2/3/4", "d + d", "d - d",
    "1/2*x + 1/3*x", _LONG, "d + " + _LONG + "*x", "1/" + _LONG, "x^" + _LONG,
    _CAP + "/" + _CAP + "*d", "(d + x)", "-(d)", "2*(d)", "d*", "*d", "d +",
    "", " ", "+d", "D", "dx", "d2", "d_x^2", "d + 2x", "x2^3",
]


def short_id(text):
    return text if len(text) <= 24 else f"{text[:10]}...{len(text)}chars"


@pytest.mark.parametrize("text", NEAR_FLAT, ids=short_id)
def test_flat_route_matches_descent_on_near_flat_strings(text):
    assert parsed(text) == descent(text)


_SPACES = (" + ", " - ", " + ", " - ", "+", "-", "  + ", " +\t", " - -")
_EXPONENTS = ("", "", "", "^2", "^16", "^0", "^1", "^17", "^01")
_VARIABLES = ("d", "x", "y", "b", "s", "t", "s_2")


@st.composite
def near_flat_strings(draw):
    """Sums of monomials as printed, with some pieces moved off the form."""
    literal = draw(st.sampled_from(("0", "1", "2", "4", "12", "07", _LONG)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = [draw(st.sampled_from(_VARIABLES))
                   + draw(st.sampled_from(_EXPONENTS))
                   for _ in range(draw(st.integers(0, 3)))]
        coef = draw(st.one_of(
            st.none(), st.integers(0, 10 ** 12).map(str),
            st.tuples(st.integers(0, 99), st.integers(0, 12)).map(
                lambda nd: f"{nd[0]}/{nd[1]}"),
            st.just(literal)))
        if coef is not None or not factors:
            factors.insert(0, coef if coef is not None else literal)
        if draw(st.integers(0, 9)) == 0:
            factors.insert(draw(st.integers(0, len(factors))), literal)
        terms.append("*".join(factors))
    text = draw(st.sampled_from(("", "", "-"))) + terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from(_SPACES)) + term
    if draw(st.integers(0, 9)) == 0:
        text = f"({text})"
    return text


@settings(max_examples=400, deadline=None)
@given(near_flat_strings())
@example("-7/2*d - 3*x - 4")
@example("x*x - b*d + x^0 + 0*x + 2/4")
def test_flat_route_matches_descent(text):
    assert parsed(text) == descent(text)


def wide_polys():
    """Polynomials with big coefficients, every exponent and several names."""
    names = ("d", "x", "y", "a", "b", "s", "z9", "q_1")
    monos = st.dictionaries(st.sampled_from(names), st.integers(1, 16),
                            max_size=4)
    coefs = st.fractions(max_denominator=10 ** 6).filter(bool)
    return st.lists(st.tuples(coefs, monos), max_size=6).map(
        lambda parts: sum((const(c) * _product(m) for c, m in parts),
                          ParamPoly.zero()))


def _product(exponents):
    out = const(1)
    for name, exp in exponents.items():
        out = out * ParamPoly.variable(name) ** exp
    return out


@settings(max_examples=150, deadline=None)
@given(wide_polys())
def test_every_printed_polynomial_takes_the_flat_route(p):
    text = str(p)
    assert grammar._parse_flat(text) == p
    assert descent(text) == p


def _emit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def test_emitted_specs_take_the_flat_route(tmp_path, monkeypatch):
    # Every spec zlca writes loads without the recursive descent.
    lie = tmp_path / "sl2.json"
    lie.write_text(json.dumps({
        "generators": [{"name": n, "grade": 0} for n in "efh"],
        "brackets": [{"left": u, "right": v,
                      "terms": [{"target": w, "poly": c}]}
                     for u, v, w, c in (("h", "e", "e", "2"),
                                        ("e", "h", "e", "-2"),
                                        ("h", "f", "f", "-2"),
                                        ("f", "h", "f", "2"),
                                        ("e", "f", "h", "1"),
                                        ("f", "e", "h", "-1"))]}))
    emitted = [_emit(["family", "Cur", "--lie", str(lie)]),
               _emit(["family", "Vir"]),
               _emit(["family", "CL1", "--top=5"]),
               _emit(["family", "CL1", "--s=-2/3", "--top=5"])]
    for kind, bindings in (("V", ([], ["--s=3/7"])),
                           ("CL2", ([], ["--b=-1", "--s=-5/2"],
                                    ["--b=2/3", "--s=3/7"])),
                           ("SCL2", (["--b=1/2"], ["--b=-1/2", "--s=5/3"])),
                           ("SCL2Literal", (["--b=1"], ["--b=-1/2"]))):
        for bound in bindings:
            emitted.append(_emit(["family", kind, "--window=-5..5", *bound]))
    for structure in (gd.gd_a1("s", 5), gd.gd_a1(Fraction(-3, 4), 5),
                      gd.gd_a2("b", "s", range(-5, 6)),
                      gd.gd_a2(Fraction(1, 3), 2, range(-5, 6))):
        path = tmp_path / "gd.json"
        path.write_text(specfile.from_gd(structure).dumps())
        emitted.append(path.read_text())
        emitted.append(_emit(["gd", "to-lca", str(path)]))

    def refuse(tokens):
        raise AssertionError("a printed polynomial left the flat route")

    monkeypatch.setattr(grammar, "_Parser", refuse)
    terms = 0
    for text in emitted:
        spec = specfile.loads(text)
        for table in (spec.brackets, spec.products or {}):
            terms += sum(len(row) for row in table.values())
    assert terms > 1000


# -- the flat route's term memo -----------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(wide_polys(), max_size=6))
def test_a_shared_memo_parses_as_the_descent_does(ps):
    # one memo across many polynomials, as one spec load shares it
    memo = {}
    for p in ps:
        text = str(p)
        assert grammar.parse(text, memo) == descent(text) == p


def stored(p):
    """The stored terms of p, coefficients with their types."""
    return {mono: (type(coef), coef) for mono, coef in p.items()}


@pytest.mark.parametrize("text, want", [
    ("d + d", 2 * D), ("d - d", ParamPoly.zero()), ("0*d", ParamPoly.zero()),
    ("4/2*x", 2 * X), ("d + 0 - 2/4*x", D - Fraction(1, 2) * X),
])
def test_flat_terms_that_repeat_or_vanish_are_cleaned(text, want):
    for memo in (None, {}):
        got = grammar.parse(text, memo)
        assert got == want == descent(text)
        assert stored(got) == stored(want)


def test_memo_holds_each_term_text_once_as_int_or_reduced_fraction():
    memo = {}
    assert grammar.parse("4/2*x + 3*d", memo) == 2 * X + 3 * D
    assert grammar.parse("-2/4*y - 4/2*x", memo) == -Fraction(1, 2) * Y - 2 * X
    assert memo == {"4/2*x": ((("x", 1),), 2), "3*d": ((("d", 1),), 3),
                    "-2/4*y": ((("y", 1),), Fraction(-1, 2)),
                    "-4/2*x": ((("x", 1),), -2)}
    assert type(memo["4/2*x"][1]) is int
    assert stored(grammar.parse("4/2*x", memo)) == {(("x", 1),): (int, 2)}


def test_one_term_text_in_two_rows_with_different_neighbours():
    memo = {}
    first = grammar.parse("d*x + 2*x", memo)
    second = grammar.parse("-3 - d*x + d*x + 2*x", memo)
    assert first == D * X + 2 * X
    assert second == 2 * X - 3 == descent("-3 - d*x + d*x + 2*x")
    assert grammar.parse("2*x", memo) == 2 * X
    assert sorted(memo) == ["-3", "-d*x", "2*x", "d*x"]
    # the shared term did not carry a sum from one polynomial to the next
    assert first == descent("d*x + 2*x")


def test_no_term_outlives_its_parse():
    # a lone parse makes a fresh memo; no module-level cache keeps a term
    text = "123456789*q_7"
    assert grammar.parse(text) == 123456789 * ParamPoly.variable("q_7")
    for value in vars(grammar).values():
        assert not hasattr(value, "cache_info")
        assert not (isinstance(value, dict) and text in value)
