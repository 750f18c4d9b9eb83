"""Family constructors: formulas, axioms, and the SCL2 oracle equivalence."""

from fractions import Fraction

import pytest

from zlca import families, specfile
from zlca.conformal import (ConformalAlgebra, GeneratorId, check_jacobi,
                            check_skew, classify_support, spectral_data)
from zlca.families import NotALieAlgebraError
from zlca.poly import D, X, as_poly, const, param

S = param("s")
B = param("b")

SL2 = {
    ("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
    ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
    ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
}


# -- Vir and Cur -----------------------------------------------------------------

def test_vir_axioms_and_spectral():
    vir = families.make_vir()
    assert check_skew(vir).ok
    assert check_jacobi(vir).ok
    line = spectral_data(vir).lines[0]
    assert (line.scale, line.weight, line.shift) == (const(1), 2, 0)
    support = classify_support(vir)
    assert not (support.degree0 | support.degree1 | support.degree2)


def test_current_sl2():
    alg = families.make_current(["e", "f", "h"], SL2)
    assert check_skew(alg).ok
    assert check_jacobi(alg).ok


def test_current_abelian_zero_table():
    alg = families.make_current(["a", "b"], {})
    assert list(alg.table_items()) == []
    assert check_jacobi(alg).ok


def test_current_rejects_non_lie_constants():
    with pytest.raises(NotALieAlgebraError):
        families.make_current(["p", "q"], {("p", "q"): {"p": 1},
                                           ("q", "p"): {"p": 1}})


# -- V(s) -------------------------------------------------------------------------

def test_v_at_s0_is_uniform():
    alg = families.make_v(0, range(-3, 4))
    for i in range(-3, 4):
        for j in range(-3, 4):
            if i + j in alg.window:
                assert alg.graded_entry(i, j) == D + 2 * X


def test_v_symbolic_axioms():
    alg = families.make_v("s", range(-4, 5))
    assert check_skew(alg).ok
    assert check_jacobi(alg).ok


def test_v_spectral():
    alg = families.make_v("s", range(-3, 4))
    data = spectral_data(alg.instantiate({"s": 1}))
    for j in range(-3, 4):
        assert data.lines[j].weight == 2
        assert data.lines[j].shift == -j
    assert data.uniform_scale


# -- CL1 and CL2 --------------------------------------------------------------------

def test_cl1_formula_and_truncation():
    alg = families.make_cl1("s", 5)
    assert alg.graded_entry(2, 1) == 3 * D + 5 * X - S
    bottom = alg.single_generator(-1)
    import zlca.conformal as conformal
    with pytest.raises(conformal.OutOfWindowError):
        alg.structure(bottom, bottom)
    assert check_skew(alg).ok
    assert check_jacobi(alg).ok


def test_cl2_formula():
    alg = families.make_cl2(Fraction(1, 2), 0, range(-2, 3))
    assert alg.graded_entry(0, 0) == Fraction(1, 2) * (D + 2 * X)
    sym = families.make_cl2("b", "s", range(-2, 3))
    assert sym.graded_entry(1, -1) == (1 + B) * D + 2 * B * X + 2 * S


def test_cl2_spectral():
    alg = families.make_cl2("b", "s", range(-3, 4))
    data = spectral_data(alg.instantiate({"b": 1, "s": 1}))
    for j in range(-3, 4):
        assert data.lines[j].scale == const(1)
        assert data.lines[j].weight == j + 2
        assert data.lines[j].shift == -j


# -- SCL2: oracle construction ----------------------------------------------------------

def test_scl2_bracket_examples_b1():
    alg = families.make_scl2(Fraction(1), "s", range(-6, 7))
    m = alg.single_generator(-2)
    assert m.name == "M"
    zero = alg.single_generator(0)
    one = alg.single_generator(1)
    assert alg.structure(zero, m)[m] == D + X + 2 * S
    assert (alg.structure(one, m)[alg.single_generator(-1)]
            == (D + X + 2 * S) * (2 * D + X + 3 * S))
    minus3 = alg.single_generator(-3)
    assert alg.structure(one, minus3)[m] == const(2)


def test_scl2_literal_entries():
    alg = families.make_scl2_literal(Fraction(1), "s", range(-6, 7))
    m = alg.single_generator(-2)
    zero = alg.single_generator(0)
    assert alg.structure(zero, m)[m] == D + X + 2 * S
    low = alg.single_generator(-4)
    assert (alg.structure(m, m)[low]
            == -(-X + 2 * S) * (D + X + 2 * S) * (D + 2 * X))


def test_scl2_literal_half():
    alg = families.make_scl2_literal(Fraction(1, 2), "s", range(-6, 7))
    m = alg.single_generator(-1)
    one = alg.single_generator(1)
    minus2 = alg.single_generator(-2)
    assert alg.structure(one, minus2)[m] == const(Fraction(3, 2))


@pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(3, 2),
                               Fraction(-1)])
def test_scl2_oracle_equals_literal(b):
    oracle = families.make_scl2(b, "s", range(-6, 7))
    literal = families.make_scl2_literal(b, "s", range(-6, 7))
    assert oracle == literal


def test_scl2_window_validation():
    with pytest.raises(ValueError):
        families.make_scl2(Fraction(1), "s", range(-3, 3))  # misses -4
    with pytest.raises(ValueError):
        families.make_scl2(Fraction(1, 3), "s", range(-6, 7))  # 2b not integral
    with pytest.raises(ValueError):
        families.make_scl2(Fraction(0), "s", range(-6, 7))


# -- family-wide invariants ---------------------------------------------------------------

def all_families():
    return [
        ("Vir", families.make_vir()),
        ("V", families.make_v("s", range(-4, 5))),
        ("CL1", families.make_cl1("s", 4)),
        ("CL2", families.make_cl2("b", "s", range(-4, 5))),
        ("SCL2", families.make_scl2(Fraction(1), "s", range(-4, 5))),
    ]


@pytest.mark.parametrize("name,alg", all_families())
def test_family_axioms(name, alg):
    assert check_skew(alg).ok
    assert check_jacobi(alg).ok


@pytest.mark.parametrize("name,alg", all_families())
def test_family_grade0_action_nowhere_zero(name, alg):
    zero = alg.single_generator(0)
    for grade in sorted(alg.window):
        gen = alg.single_generator(grade)
        assert alg.structure(zero, gen).get(gen), (name, grade)


@pytest.mark.parametrize("name,alg,bindings", [
    ("Vir", families.make_vir(), {}),
    ("V", families.make_v("s", range(-3, 4)), {"s": Fraction(2)}),
    ("CL1", families.make_cl1("s", 4), {"s": Fraction(1, 2)}),
    ("CL2", families.make_cl2("b", "s", range(-3, 4)),
     {"b": Fraction(1, 3), "s": Fraction(1)}),
    ("SCL2", families.make_scl2(Fraction(1), "s", range(-4, 5)),
     {"s": Fraction(1)}),
])
def test_family_uniform_scale(name, alg, bindings):
    assert spectral_data(alg.instantiate(bindings)).uniform_scale


def test_scl2_support_matches_pairing_bound():
    # exactly one positive grade pairs with degree 0 or 2 against its opposite
    for b in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(-1)):
        alg = families.make_scl2(b, "s", range(-6, 7))
        support = classify_support(alg.instantiate({"s": 1}))
        special = support.degree0 | support.degree2
        assert special == {abs(int(2 * b))}


def test_make_family_dispatch():
    alg = families.make_family("V", s=Fraction(0), window=(-2, 2))
    assert alg.graded_entry(0, 0) == D + 2 * X
    with pytest.raises(ValueError):
        families.make_family("SCL2", b="b", window=(-6, 6))
    with pytest.raises(ValueError):
        families.make_family("nope")


# -- the grade-formula constructors against explicit loops ---------------------------
#
# V, CL1 and CL2 are built from one formula each by conformal.graded_table, and
# CL1 as CL2(1, -s).  The references below are the constructors written out as
# double loops over the window, one per family, CL1 from its own formula.

def _reference_coeff(value):
    return param(value) if isinstance(value, str) else as_poly(value)


def _reference_gens(window):
    return {i: GeneratorId(i, f"L{i}") for i in sorted(set(window))}


def reference_make_v(s, window):
    s = _reference_coeff(s)
    gens = _reference_gens(window)
    table = {}
    for i in gens:
        for j in gens:
            if i + j in gens:
                table[(gens[i], gens[j])] = {gens[i + j]: D + 2 * X + s * (i - j)}
    return ConformalAlgebra(gens.values(), table)


def reference_make_cl1(s, top):
    if top < -1:
        raise ValueError("window top must be at least -1")
    s = _reference_coeff(s)
    gens = _reference_gens(range(-1, top + 1))
    table = {}
    for i in gens:
        for j in gens:
            if i + j in gens:
                poly = (i + 1) * D + (i + j + 2) * X + s * (j - i)
                table[(gens[i], gens[j])] = {gens[i + j]: poly}
    return ConformalAlgebra(gens.values(), table)


def reference_make_cl2(b, s, window):
    b, s = _reference_coeff(b), _reference_coeff(s)
    gens = _reference_gens(window)
    table = {}
    for i in gens:
        for j in gens:
            if i + j in gens:
                poly = (i + b) * D + (i + j + 2 * b) * X + s * (i - j)
                table[(gens[i], gens[j])] = {gens[i + j]: poly}
    return ConformalAlgebra(gens.values(), table)


WINDOWS = [range(-3, 4), range(0, 4), range(-5, 1), (-2, 0, 1, 3), (0,), ()]
S_VALUES = ["s", S + 1, Fraction(-2, 3), 0, Fraction(5, 7)]


def assert_same_algebra(got, want):
    assert got == want
    assert (specfile.from_algebra(got).dumps()
            == specfile.from_algebra(want).dumps())


@pytest.mark.parametrize("s", S_VALUES)
def test_make_v_matches_the_reference(s):
    for window in WINDOWS:
        assert_same_algebra(families.make_v(s, window),
                            reference_make_v(s, window))


@pytest.mark.parametrize("s", S_VALUES)
def test_make_cl1_matches_the_reference(s):
    for top in (-1, 0, 1, 2, 5, 8):
        assert_same_algebra(families.make_cl1(s, top),
                            reference_make_cl1(s, top))
    with pytest.raises(ValueError):
        families.make_cl1(s, -2)


# b = 1 makes the (L-1, L-1) entry vanish; s = 0 the antisymmetric part.
@pytest.mark.parametrize("b,s", [("b", "s"), (1, "s"), (1, 0), ("b", 0),
                                 (Fraction(1, 2), Fraction(-2, 3)),
                                 (Fraction(-1, 3), Fraction(5, 7)),
                                 (B - 1, S + 1)])
def test_make_cl2_matches_the_reference(b, s):
    for window in WINDOWS + [range(-1, 6)]:
        assert_same_algebra(families.make_cl2(b, s, window),
                            reference_make_cl2(b, s, window))


def test_zero_entry_family_equals_its_spec_round_trip():
    # CL2(1, s) brackets L-1 with itself to zero: the family stores the pair
    # with a zero value, the spec writes no row, and both read as the same
    # algebra (inside the window an absent row is the zero bracket).
    alg = families.make_cl2(1, "s", range(-3, 4))
    low = alg.single_generator(-1)
    assert alg.structure(low, low) == {}
    spec = specfile.from_algebra(alg)
    assert ("L-1", "L-1") not in {(left, right) for left, right, _ in spec.brackets}
    assert specfile.loads(spec.dumps()).algebra() == alg
