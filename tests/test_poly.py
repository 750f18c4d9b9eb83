"""Exact polynomial kernel: ring laws, substitution, division, degrees."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlca.poly import (D, X, Y, FORMAL_VARS, MINUS_INFINITY, NotDivisibleError,
                       Packing, ParamPoly, SubstituteParamError,
                       ZeroPolynomialError, const, gcd_in_d, mono_mul, param)

S = param("s")
B = param("b")


def rationals():
    return st.fractions(min_value=-6, max_value=6, max_denominator=4)


def polys(max_terms=5):
    gens = [D, X, Y, S, B]

    def build(parts):
        total = ParamPoly.zero()
        for coef, exps in parts:
            term = const(coef)
            for g, e in zip(gens, exps):
                term = term * g ** e
            total = total + term
        return total

    exponents = st.tuples(*(st.integers(0, 2) for _ in gens))
    return st.lists(st.tuples(rationals(), exponents), max_size=max_terms).map(build)


# -- arithmetic ---------------------------------------------------------------

def test_adding_scalar_zero_returns_the_polynomial():
    p = D + 2 * X - S
    assert p + 0 is p
    assert 0 + p is p
    assert p - 0 is p
    assert p + Fraction(0) is p
    assert p - Fraction(0) is p


@settings(max_examples=60, deadline=None)
@given(polys(), st.sampled_from([0, 1, -3, Fraction(3, 2), Fraction(-1, 3),
                                 Fraction(4, 2)]))
def test_scalar_add_and_sub_match_the_polynomial_route(p, value):
    c = const(value)
    assert p + value == p + c
    assert value + p == c + p
    assert p - value == p - c
    assert value - p == c - p
    assert p + Fraction(3, 2) == p + const(Fraction(3, 2))
    assert Fraction(3, 2) - p == const(Fraction(3, 2)) - p
    # integral constants are stored as int, whatever the operand type
    for q in (p + value, value - p):
        assert all(v.__class__ is int or v.denominator != 1
                   for _, v in q.items())


def test_additive_cancellation():
    assert (D + X) + (-X) == D


def test_zero_absorbs():
    assert (D + 2 * S) * ParamPoly.zero() == ParamPoly.zero()


def test_difference_of_squares():
    assert (D + X) * (D - X) == D ** 2 - X ** 2


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == ParamPoly.zero()


@settings(max_examples=40)
@given(polys(), polys())
def test_normal_form_congruence(p, q):
    # rebuilding the same values along another route gives identical dicts
    assert p + q - q == p
    assert (p + q) * const(2) == 2 * p + q + q


# -- substitution --------------------------------------------------------------

def test_substitute_direct_expansion():
    assert (D + 2 * X).substitute("x", -D - X) == -D - 2 * X
    assert (D + 2 * X).substitute("d", D + X) == D + 3 * X


@settings(max_examples=40)
@given(polys())
def test_substitute_identity(p):
    assert p.substitute("x", X) == p


@settings(max_examples=40)
@given(polys())
def test_skew_substitution_is_involution(p):
    q = p.substitute("x", -D - X)
    assert q.substitute("x", -D - X) == p


def test_substitute_rejects_parameters():
    with pytest.raises(SubstituteParamError):
        (D + S).substitute("s", X)


# -- degrees and leading parts ---------------------------------------------------

def test_formal_degree_ignores_parameters():
    assert (S * D + X ** 2).formal_degree() == 2
    assert ParamPoly.zero().formal_degree() == MINUS_INFINITY
    assert (D ** 3 + S ** 2 * X).formal_degree() == 3


@settings(max_examples=40)
@given(polys(), polys())
def test_degree_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).formal_degree() == p.formal_degree() + q.formal_degree()


def test_leading_homogeneous():
    assert (D ** 2 + 3 * D * X + D).leading_homogeneous() == D ** 2 + 3 * D * X
    assert (D + 2 * X + S * 5).leading_homogeneous() == D + 2 * X
    assert const(7).leading_homogeneous() == const(7)
    with pytest.raises(ZeroPolynomialError):
        ParamPoly.zero().leading_homogeneous()


@settings(max_examples=40)
@given(polys(), polys())
def test_leading_homogeneous_multiplicative(p, q):
    if not p.is_zero() and not q.is_zero():
        assert ((p * q).leading_homogeneous()
                == p.leading_homogeneous() * q.leading_homogeneous())


def test_affine_parts():
    zero = ParamPoly.zero()
    p = (1 + B) * D + 2 * B * X + 2 * S - Fraction(1, 3)
    assert p.affine_parts() == (1 + B, 2 * B, 2 * S - Fraction(1, 3))
    assert (S * D).affine_parts() == (S, zero, zero)
    assert (X + 5).affine_parts() == (zero, const(1), const(5))
    assert zero.affine_parts() == (zero, zero, zero)
    for bad in (D ** 2, D * X, X ** 2, Y, D + Y, S * X ** 2 + D):
        assert bad.affine_parts() is None, bad


@given(polys())
def test_affine_parts_rebuild_the_polynomial(p):
    parts = p.affine_parts()
    if parts is None:
        assert p.formal_degree() > 1 or "y" in p.variables()
    else:
        a, b, c = parts
        assert not (a.variables() | b.variables() | c.variables()) & set(FORMAL_VARS)
        assert a * D + b * X + c == p


# -- division --------------------------------------------------------------------

def test_exact_divide_constructed_product():
    product = (D + 2 * S) * (D + X)
    assert product.exact_divide(D + 2 * S) == D + X


def test_exact_divide_failure_carries_remainder():
    with pytest.raises(NotDivisibleError) as info:
        (D + X).exact_divide(D + 2 * S)
    assert not info.value.remainder.is_zero()


def test_zero_dividend():
    assert ParamPoly.zero().exact_divide(D + 2 * S) == ParamPoly.zero()


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        (D + X).exact_divide(ParamPoly.zero())


@settings(max_examples=60)
@given(polys(), polys())
def test_divide_inverts_multiplication(p, q):
    if not q.is_zero():
        assert (p * q).exact_divide(q) == p


# -- gcd in d ----------------------------------------------------------------------

def d_polys(max_degree=3):
    """Polynomials in d alone, the zero polynomial included."""
    return st.lists(rationals(), max_size=max_degree + 1).map(
        lambda coeffs: sum((c * D ** e for e, c in enumerate(coeffs)),
                           ParamPoly.zero()))


def test_gcd_in_d_examples():
    assert gcd_in_d((D + 1) * (D - 2), 3 * (D - 2) * (D + 5)) == D - 2
    assert gcd_in_d(2 * D + 4, ParamPoly.zero()) == D + 2
    assert gcd_in_d(ParamPoly.zero(), const(Fraction(-1, 3))) == const(1)
    assert gcd_in_d(D ** 2 + 1, D + 1) == const(1)


@settings(max_examples=100, deadline=None)
@given(d_polys(), d_polys(), d_polys(2))
def test_gcd_in_d_is_monic_and_matches_sympy(a, b, common):
    sympy = pytest.importorskip("sympy")
    a, b = a * common, b * common
    if a.is_zero() and b.is_zero():
        return
    got = gcd_in_d(a, b)
    assert got.leading_coefficient() == 1
    assert got.divides(a) and got.divides(b)
    d = sympy.Symbol("d")

    def to_sympy(p):
        return sympy.sympify(str(p).replace("^", "**"))

    want = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), d,
                      domain="QQ").monic()
    assert sympy.expand(to_sympy(got) - want.as_expr()) == 0


def test_gcd_in_d_refuses_other_variables():
    for other in (X, Y, S, D * S + 1):
        with pytest.raises(ValueError, match="not a rational constant"):
            gcd_in_d(D + 1, D + other)
        with pytest.raises(ValueError, match="not a rational constant"):
            gcd_in_d(other, D)


def test_gcd_in_d_of_two_zeros_is_refused():
    with pytest.raises(ZeroPolynomialError):
        gcd_in_d(ParamPoly.zero(), ParamPoly.zero())


# -- instantiation ----------------------------------------------------------------

def test_instantiate_zero_binding():
    p = D + 2 * X + S * 3
    assert p.instantiate({"s": 0}) == D + 2 * X


def test_instantiate_family_entry():
    # (i+b)d + (i+j+2b)x at i=0, j=2, b=1
    i, j = 0, 2
    p = (i + B) * D + (i + j + 2 * B) * X
    assert p.instantiate({"b": 1}) == D + 4 * X


def test_instantiate_empty_is_identity():
    p = D * S + X ** 2
    assert p.instantiate({}) == p


def test_instantiate_partial():
    p = S * B * D
    assert p.instantiate({"s": Fraction(1, 2)}) == Fraction(1, 2) * B * D
    assert p.instantiate({"s": 2, "b": 3}) == 6 * D


def test_instantiate_rejects_formal_vars():
    with pytest.raises(SubstituteParamError):
        (D + X).instantiate({"x": 1})


# -- ordering and printing ----------------------------------------------------------

def test_leading_monomial_order():
    p = X * D + X ** 2 + D ** 2 + const(7) + S * X
    assert str(p) == "d^2 + d*x + x^2 + x*s + 7"
    assert p.leading_coefficient() == 1


def test_monic_normalization():
    p = 3 * D + 6 * X
    assert p.monic() == D + 2 * X


def test_parameter_only_ordering():
    t = param("t")
    assert str(S ** 2 + S + t) == "s^2 + s + t"


# -- the arithmetic core: storage, monomial merge, powers ----------------------------

#: Variables in canonical rank order.  The parameters are a trap for any order
#: other than plain string comparison: "b" < "b2" < "b_1" < "s" < "t".
RANKED = ("d", "x", "y", "b", "b2", "b_1", "s", "t")


def _reference_mono_mul(a, b):
    """The product monomial by dict and sort on the canonical variable rank."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda it: RANKED.index(it[0])))


def monos():
    return st.lists(st.integers(0, 3), min_size=len(RANKED),
                    max_size=len(RANKED)).map(
        lambda exps: tuple((v, e) for v, e in zip(RANKED, exps) if e))


@settings(max_examples=200)
@given(monos(), monos())
def test_mono_mul_matches_dict_and_sort(a, b):
    assert mono_mul(a, b) == _reference_mono_mul(a, b)


def test_mono_mul_parameter_order():
    assert mono_mul((("b_1", 1),), (("x", 2), ("b2", 1))) == (
        ("x", 2), ("b2", 1), ("b_1", 1))
    assert str(param("b_1") * param("b2") * param("b") * Y) == "y*b*b2*b_1"


@pytest.mark.parametrize("coef", [Fraction(3), Fraction(-5, 2)])
def test_api_returns_fractions(coef):
    p = coef * D * X + coef * S + coef
    assert all(type(c) is Fraction for _, c in p.terms())
    assert type(p.coefficient(((("d", 1), ("x", 1))))) is Fraction
    assert type(p.coefficient((("y", 7),))) is Fraction
    assert type(p.leading_coefficient()) is Fraction
    assert p.leading_coefficient() == coef
    assert type(const(coef).as_fraction()) is Fraction
    assert type(ParamPoly.zero().as_fraction()) is Fraction


@settings(max_examples=60)
@given(polys())
def test_storage_is_int_when_integral(p):
    for c in (p * p + p)._terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=25, deadline=None)
@given(polys(max_terms=3))
def test_power_by_squaring_matches_repeated_product(p):
    product = const(1)
    for n in range(14):
        assert p ** n == product
        product = product * p


def test_power_of_a_variable_is_one_monomial():
    # Squaring takes about 37 products; a loop per unit would never end.
    big = D ** 10 ** 11
    assert big._terms == {(("d", 10 ** 11),): 1}


def test_monic_and_divide_give_exact_fractions():
    p = 2 * D + 3 * X + 1
    monic = p.monic()
    assert monic == D + Fraction(3, 2) * X + Fraction(1, 2)
    assert all(type(c) is Fraction for _, c in monic.terms())
    assert not any(isinstance(c, float) for c in monic._terms.values())
    quotient = (3 * D * X + X).exact_divide(2 * D + const(Fraction(2, 3)))
    assert quotient == Fraction(3, 2) * X
    assert type(quotient.coefficient((("x", 1),))) is Fraction
    assert not any(isinstance(c, float) for c in quotient._terms.values())
    assert (7 * D).exact_divide(const(2)) == Fraction(7, 2) * D


# -- packed monomials ----------------------------------------------------------------

def _assert_stored_canonically(p):
    for c in p._terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def linear_replacements():
    """(var, sign, variables): var -> sign * (sum of variables)."""
    return st.tuples(st.sampled_from(FORMAL_VARS), st.sampled_from((1, -1)),
                     st.lists(st.sampled_from(FORMAL_VARS), min_size=1,
                              max_size=3).map(tuple))


@settings(max_examples=80)
@given(polys(max_terms=6), linear_replacements())
def test_packed_substitute_matches_substitute(p, replacement):
    var, sign, variables = replacement
    packing = Packing([p])
    packed = packing.substitute(packing.pack(p), var, sign, variables)
    # A product with the packed 1 puts the numerators over den**2.
    product = {}
    Packing.mul_add(product, packed, packing.pack(const(1)))
    result = packing.unpack(product)
    expected = p.substitute(
        var, sign * sum((ParamPoly.variable(v) for v in variables),
                        ParamPoly.zero()))
    assert result == expected
    _assert_stored_canonically(result)


@settings(max_examples=60)
@given(polys(), polys())
def test_packed_product_matches_product(p, q):
    packing = Packing([p, q])
    product = {}
    Packing.mul_add(product, packing.pack(p), packing.pack(q))
    result = packing.unpack(product)
    assert result == p * q
    _assert_stored_canonically(result)


def test_packing_layout():
    p = Fraction(1, 6) * D ** 3 * param("t") + Fraction(3, 4) * param("b") * X
    packing = Packing([p, const(Fraction(2, 5))])
    assert packing.variables == ("d", "x", "y", "b", "t")
    assert packing.width == 4  # 2 * total degree 4 = 8 needs 4 bits
    assert packing.den == 60
    assert Packing([]).width == Packing([const(3)]).width == 1
