"""Conformal core: brackets, axiom checks, spectral diagnostics."""

import itertools
import random
from fractions import Fraction

import pytest

from zlca import conformal, families, gd, grammar
from zlca.conformal import (ConformalAlgebra, Element, GeneratorId,
                            NotAffineError, OutOfWindowError,
                            OutOfWindowTripleError, ZeroActionError, bracket,
                            check_jacobi, check_skew, classify_support,
                            degree_relation_check, jacobi_residual,
                            spectral_data)
from zlca.poly import DEL, LAM, D, X, Y, ParamPoly, const, param

L = GeneratorId(0, "L")
VIR = ConformalAlgebra([L], {(L, L): {L: D + 2 * X}})


def lam(alg, a, b):
    return bracket(alg, a, b)


# -- bracket and sesquilinearity ---------------------------------------------

def test_vir_bracket():
    value = lam(VIR, Element.generator(L), Element.generator(L))
    assert value == {L: D + 2 * X}


def test_vir_bracket_left_derivative():
    value = lam(VIR, Element({L: D}), Element.generator(L))
    assert value == {L: -X * (D + 2 * X)}


def test_vir_bracket_right_derivative():
    value = lam(VIR, Element.generator(L), Element({L: D}))
    assert value == {L: (D + X) * (D + 2 * X)}


def test_bracket_sesquilinear_on_random_elements():
    rng = random.Random(7)
    alg = families.make_v("s", range(-2, 3))
    gens = alg.generators

    def random_element():
        coeffs = {}
        for g in rng.sample(gens, 2):
            coeffs[g] = (const(rng.randint(-3, 3))
                         + rng.randint(-2, 2) * D
                         + rng.randint(0, 2) * D ** 2)
        return Element(coeffs)

    for _ in range(10):
        a, b = random_element(), random_element()
        try:
            base = lam(alg, a, b)
            left = lam(alg, Element({g: D * f for g, f in a.coeffs.items()}), b)
            right = lam(alg, a, Element({g: D * f for g, f in b.coeffs.items()}))
        except OutOfWindowError:
            continue
        assert left == {g: -X * p for g, p in base.items()}
        assert right == {g: (D + X) * p for g, p in base.items()}


def test_bracket_out_of_window():
    alg = families.make_v(0, range(-1, 2))
    top = alg.single_generator(1)
    with pytest.raises(OutOfWindowError):
        lam(alg, Element.generator(top), Element.generator(top))


def test_element_coefficient_validation():
    with pytest.raises(ValueError):
        Element({L: D + X})  # bracket variable in a module coefficient
    with pytest.raises(ValueError):
        Element({L: D + Y})
    assert Element({L: const(0)}).is_zero()


# -- structure-table rules ----------------------------------------------------

A = GeneratorId(0, "A")
B1 = GeneratorId(1, "B")


@pytest.mark.parametrize("cls", [ConformalAlgebra, gd.NovikovAlgebra,
                                 gd.LieStructure])
def test_table_rejects_bad_names_pairs_and_targets(cls):
    with pytest.raises(ValueError, match="names must be unique"):
        cls([A, GeneratorId(1, "A")], {})
    with pytest.raises(ValueError, match="undeclared"):
        cls([A], {(A, B1): {}})
    with pytest.raises(ValueError, match="undeclared"):
        cls([A], {(B1, A): {}})
    with pytest.raises(ValueError, match="undeclared"):
        cls([A], {(A, A): {GeneratorId(0, "Q"): const(1)}})
    assert cls([A], {(A, A): {A: const(1)}}) == cls([A], {(A, A): {A: 1}})


def test_conformal_table_rejects_a_wrong_target_grade_and_y():
    with pytest.raises(ValueError, match="targets B of grade 1, expected 0"):
        ConformalAlgebra([A, B1], {(A, A): {B1: D}})
    with pytest.raises(ValueError, match="may not use y"):
        ConformalAlgebra([A], {(A, A): {A: D + Y}})


@pytest.mark.parametrize("cls", [gd.NovikovAlgebra, gd.LieStructure])
def test_gd_table_rejects_formal_variables(cls):
    for poly in (D, X, Y, D * param("s")):
        with pytest.raises(ValueError, match="must be free of d, x, y"):
            cls([A], {(A, A): {A: poly}})


# -- skew-symmetry -------------------------------------------------------------

def test_vir_skew_clean():
    report = check_skew(VIR)
    assert report.ok and report.checked == 1 and report.skipped == 0


def test_cl1_skew_clean_symbolically():
    assert check_skew(families.make_cl1("s", 5)).ok


def test_skew_violation_residual():
    bad = ConformalAlgebra([L], {(L, L): {L: D + 3 * X}})
    report = check_skew(bad)
    assert len(report.violations) == 1
    assert report.violations[0].residual == -D


# -- Jacobi ----------------------------------------------------------------------

def test_vir_jacobi():
    assert jacobi_residual(VIR, L, L, L) == {}
    report = check_jacobi(VIR)
    assert report.ok and report.checked == 1 and report.skipped == 0


def test_v_family_jacobi_symbolic():
    alg = families.make_v("s", range(-3, 4))
    gens = {g.grade: g for g in alg.generators}
    for triple in [(0, 1, -1), (1, 1, -2), (-3, 1, 2), (2, -2, 0)]:
        res = jacobi_residual(alg, *(gens[i] for i in triple))
        assert res == {}


def test_cl2_jacobi_symbolic_window():
    alg = families.make_cl2("b", "s", range(-4, 5))
    report = check_jacobi(alg)
    assert report.ok and report.skew_ok


def perturbed_v0():
    alg = families.make_v(0, range(-3, 4))
    table = {}
    for u, v, w, poly in alg.table_items():
        table.setdefault((u, v), {})[w] = poly
    one = alg.single_generator(1)
    two = alg.single_generator(2)
    table[(one, one)][two] = table[(one, one)][two] + X ** 2
    return ConformalAlgebra(alg.generators, table)


def test_perturbed_v0_jacobi_residual_nonzero():
    alg = perturbed_v0()
    gens = {g.grade: g for g in alg.generators}
    res = jacobi_residual(alg, gens[-1], gens[1], gens[1])
    assert res != {}


def test_perturbed_v0_check_jacobi_reports():
    report = check_jacobi(perturbed_v0())
    assert not report.skew_ok  # the perturbation also breaks skew
    assert len(report.violations) >= 1


def test_jacobi_residual_vanishing_is_permutation_invariant():
    alg = families.make_cl2(Fraction(1, 3), Fraction(2), range(-3, 4))
    gens = {g.grade: g for g in alg.generators}
    for triple in [(0, 1, -1), (1, 1, 1), (-2, 1, 0)]:
        vanishing = {jacobi_residual(alg, *(gens[i] for i in perm)) == {}
                     for perm in itertools.permutations(triple)}
        assert vanishing == {True}


def test_jacobi_triple_out_of_window():
    alg = families.make_cl1("s", 4)
    gens = {g.grade: g for g in alg.generators}
    with pytest.raises(OutOfWindowTripleError):
        jacobi_residual(alg, gens[-1], gens[-1], gens[2])
    report = check_jacobi(alg)
    assert report.ok and report.skipped > 0


# -- the packed kernel against the ParamPoly expansion ----------------------------

def reference_jacobi_residual(alg, u, v, w, count=None):
    """The Jacobi residual expanded in ``ParamPoly`` arithmetic, uncached.

    The same sums as ``jacobi_residual``, with every substitution and product
    done on ``ParamPoly`` values, and the same undecidable points.  It takes
    the pair count ``check_jacobi`` passes and spends none of it.
    """
    acc = {}

    def accumulate(inner_sub, first, second, outer_sub, outer_pair):
        try:
            for t, left in alg.structure(first, second).items():
                left = inner_sub(left)
                for r, right in alg.structure(*outer_pair(t)).items():
                    acc[r] = acc.get(r, ParamPoly.zero()) + left * outer_sub(right)
        except OutOfWindowError:
            raise OutOfWindowTripleError((u, v, w)) from None

    accumulate(lambda p: p.substitute(LAM, Y).substitute(DEL, D + X), v, w,
               lambda p: p, lambda t: (u, t))
    accumulate(lambda p: -p.substitute(DEL, -X - Y), u, v,
               lambda p: p.substitute(LAM, X + Y), lambda t: (t, w))
    accumulate(lambda p: -p.substitute(DEL, D + Y), u, w,
               lambda p: p.substitute(LAM, Y), lambda t: (v, t))
    return {r: poly for r, poly in acc.items() if poly}


def _outcome(residual, alg, triple):
    try:
        return residual(alg, *triple)
    except OutOfWindowTripleError:
        return "undecidable"


def assert_matches_reference(alg, monkeypatch):
    """Every ordered triple and the whole report agree with the reference."""
    for triple in itertools.product(alg.generators, repeat=3):
        assert (_outcome(jacobi_residual, alg, triple)
                == _outcome(reference_jacobi_residual, alg, triple)), triple
    report = check_jacobi(alg)
    with monkeypatch.context() as patch:
        patch.setattr(conformal, "jacobi_residual", reference_jacobi_residual)
        assert report == check_jacobi(alg)
    return report


THIRD, MINUS_TWO_THIRDS, MINUS_HALF = (Fraction(1, 3), Fraction(-2, 3),
                                       Fraction(-1, 2))


@pytest.mark.parametrize("build", [
    lambda: families.make_v("s", range(-3, 4)),
    lambda: families.make_v(MINUS_TWO_THIRDS, range(-3, 4)),
    lambda: families.make_cl1("s", 4),
    lambda: families.make_cl1(MINUS_TWO_THIRDS, 4),
    lambda: families.make_cl2("b", "s", range(-3, 4)),
    lambda: families.make_cl2(THIRD, MINUS_TWO_THIRDS, range(-3, 4)),
    lambda: families.make_scl2(MINUS_HALF, "s", range(-3, 4)),
    lambda: families.make_scl2(MINUS_HALF, MINUS_TWO_THIRDS, range(-3, 4)),
], ids=["V", "V-bound", "CL1", "CL1-bound", "CL2", "CL2-bound", "SCL2",
        "SCL2-bound"])
def test_families_match_reference(build, monkeypatch):
    report = assert_matches_reference(build(), monkeypatch)
    assert report.ok and report.checked > 0 and report.skipped > 0


def _with_entry(alg, pair, target, poly):
    """The algebra with ``poly`` added to one table entry."""
    table = {}
    for u, v, w, entry in alg.table_items():
        table.setdefault((u, v), {})[w] = entry
    row = table.setdefault(pair, {})
    row[target] = row.get(target, ParamPoly.zero()) + poly
    return ConformalAlgebra(alg.generators, table, alg.params)


def test_random_mutants_match_reference(monkeypatch):
    rng = random.Random(6)
    bases = [families.make_cl2("b", "s", range(-2, 3)),
             families.make_scl2(MINUS_HALF, "s", range(-2, 3)),
             families.make_v(THIRD, range(-2, 3))]
    failing = 0
    for trial in range(12):
        alg = bases[trial % len(bases)]
        gens = alg.generators
        u, v = rng.choice([(a, b) for a in gens for b in gens
                           if a.grade + b.grade in alg.window])
        target = rng.choice(alg.generators_of_grade(u.grade + v.grade))
        coef = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((2, 3, 5)))
        delta = (const(coef) * D ** rng.randrange(3) * X ** rng.randrange(3)
                 * param(rng.choice("bst")) ** rng.randrange(1, 3))
        report = assert_matches_reference(
            _with_entry(alg, (u, v), target, delta), monkeypatch)
        failing += not report.ok
    assert failing >= 6


def test_entries_at_the_spec_caps_match_reference(monkeypatch):
    # Formal degree 12 and a parameter exponent of 16: total degree 28, so
    # the fields are 6 bits wide and products reach s^32.
    cap = grammar.parse("1/3*s^16*x^12 + 2/5*d^12*t^16 - 1/2*s^16*d^6*x^6")
    alg = families.make_v("s", range(-1, 2))
    zero, one = alg.single_generator(0), alg.single_generator(1)
    alg = _with_entry(alg, (zero, zero), zero, cap)
    alg = _with_entry(alg, (zero, one), one, cap * param("t"))
    assert conformal._packing(alg).width == 6
    report = assert_matches_reference(alg, monkeypatch)
    assert not report.ok


def test_jacobi_pair_budget(monkeypatch):
    # One check_jacobi spends one count: its term pairs are the sum over the
    # triples it decides, and a budget one pair short of that ends it.
    alg = families.make_cl2("b", "s", range(-2, 3))
    count = conformal.PairCount()
    for triple in itertools.combinations_with_replacement(alg.generators, 3):
        try:
            jacobi_residual(alg, *triple, count)
        except OutOfWindowTripleError:
            pass
    assert count.pairs == 1108
    monkeypatch.setattr(conformal, "MAX_JACOBI_PAIRS", count.pairs)
    assert check_jacobi(alg).ok
    monkeypatch.setattr(conformal, "MAX_JACOBI_PAIRS", count.pairs - 1)
    with pytest.raises(conformal.JacobiBudgetError):
        check_jacobi(alg)


def test_jacobi_cache_is_per_algebra():
    alg = families.make_cl2("b", "s", range(-2, 3))
    assert alg._packing is None and not alg._jacobi_forms
    check_jacobi(alg)
    assert alg._packing.den == 1 and alg._jacobi_forms
    assert not families.make_cl2("b", "s", range(-2, 3))._jacobi_forms


# -- the rank-one table p_{i,j} ----------------------------------------------------

def test_graded_entry():
    one = GeneratorId(1, "A")
    alg = ConformalAlgebra([L, one], {(L, L): {L: D + 2 * X}})
    assert alg.graded_entry(0, 0) == D + 2 * X
    assert alg.graded_entry(0, 1) == ParamPoly.zero()   # no row, in window
    assert alg.graded_entry(1, 0) == ParamPoly.zero()
    with pytest.raises(OutOfWindowError):
        alg.graded_entry(1, 1)                           # grade 2 is missing
    with pytest.raises(ValueError):
        alg.graded_entry(3, -3)                          # no generator at 3
    cl2 = families.make_cl2("b", "s", range(-2, 3))
    with pytest.raises(OutOfWindowError):
        cl2.graded_entry(2, 1)
    cur = families.make_current(
        ["e", "f", "h"],
        {("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
         ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
         ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}})
    with pytest.raises(ValueError, match="3 generators"):
        cur.graded_entry(0, 0)


@pytest.mark.parametrize("alg", [
    families.make_cl2("b", "s", range(-4, 5)),
    families.make_cl2(Fraction(1, 2), 0, range(-3, 4)),
    families.make_scl2(Fraction(1), "s", range(-5, 6)),
    families.make_scl2(Fraction(-3, 2), Fraction(2, 3), range(-7, 8)),
])
def test_graded_entry_is_the_structure_entry(alg):
    decided = 0
    for i in sorted(alg.window):
        for j in sorted(alg.window):
            u, v = alg.single_generator(i), alg.single_generator(j)
            if i + j not in alg.window:
                with pytest.raises(OutOfWindowError):
                    alg.graded_entry(i, j)
                continue
            target = alg.single_generator(i + j)
            assert alg.graded_entry(i, j) == \
                alg.structure(u, v).get(target, ParamPoly.zero())
            decided += 1
    assert decided > len(alg.window)


# -- spectral data ----------------------------------------------------------------

def test_vir_spectral():
    data = spectral_data(VIR)
    line = data.lines[0]
    assert (line.scale, line.weight, line.shift) == (const(1), 2, 0)
    assert data.uniform_scale


def test_cl1_spectral_at_s1():
    alg = families.make_cl1("s", 4)
    data = spectral_data(alg.instantiate({"s": 1}))
    for j in range(-1, 5):
        line = data.lines[j]
        assert line.scale == const(1)
        assert line.weight == j + 2
        assert line.shift == j
    assert data.uniform_scale


def test_cl2_spectral_at_b1_s0():
    alg = families.make_cl2("b", "s", range(-3, 4))
    data = spectral_data(alg.instantiate({"b": 1, "s": 0}))
    for j in range(-3, 4):
        assert data.lines[j].weight == j + 2
        assert data.lines[j].shift == 0
        assert data.lines[j].scale == const(1)


def test_spectral_requires_one_generator_per_grade():
    alg = families.make_current(
        ["e", "f", "h"],
        {("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
         ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
         ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}})
    with pytest.raises(ValueError):
        spectral_data(alg)


def test_spectral_zero_action():
    one = GeneratorId(1, "A")
    alg = ConformalAlgebra([L, one], {(L, L): {L: D + 2 * X}})
    with pytest.raises(ZeroActionError):
        spectral_data(alg)


def test_spectral_not_affine():
    one = GeneratorId(1, "A")
    table = {(L, L): {L: D + 2 * X},
             (L, one): {one: D + X ** 2}}
    alg = ConformalAlgebra([L, one], table)
    with pytest.raises(NotAffineError):
        spectral_data(alg)


# -- degree relations ---------------------------------------------------------------

def test_cl1_degree_relations():
    alg = families.make_cl1("s", 4).instantiate({"s": 1})
    data = spectral_data(alg)
    assert degree_relation_check(alg, data) == []


def test_scl2_degree_relations_and_pair_values():
    alg = families.make_scl2(Fraction(1), "s", range(-6, 7))
    bound = alg.instantiate({"s": 1})
    data = spectral_data(bound)
    assert data.lines[-2].weight == 1
    assert data.lines[-2].shift == 2
    assert degree_relation_check(bound, data) == []
    # constant pairing at the special target grade
    one = alg.single_generator(1)
    minus3 = alg.single_generator(-3)
    entry = alg.structure(one, minus3)
    assert entry[alg.single_generator(-2)] == const(2)


def test_degree_relation_violation_hand_built():
    a1 = GeneratorId(1, "A")
    a2 = GeneratorId(2, "B")
    table = {
        (L, L): {L: D + 2 * X},
        (L, a1): {a1: D + 3 * X},
        (L, a2): {a2: D + 5 * X},  # weight 5 breaks the (1,1) bookkeeping
        (a1, a1): {a2: D + 2 * X},
    }
    alg = ConformalAlgebra([L, a1, a2], table)
    data = spectral_data(alg)
    violations = degree_relation_check(alg, data)
    assert any(v.left_grade == 1 and v.right_grade == 1 and
               v.relation == "weight" for v in violations)


def test_degree_relations_refuse_free_parameters():
    # The degrees of a symbolic table need not be those at a binding, so
    # bound spectral data cannot be checked against the symbolic algebra.
    alg = families.make_cl1("s", 4)
    data = spectral_data(alg.instantiate({"s": 1}))
    with pytest.raises(ValueError, match=r"free parameters: \['s'\]"):
        degree_relation_check(alg, data)
    declared = ConformalAlgebra([L], {(L, L): {L: D + 2 * X}}, params=["t"])
    with pytest.raises(ValueError, match="instantiated"):
        degree_relation_check(declared, spectral_data(declared))


# -- support classification ------------------------------------------------------------

def test_v1_support_all_degree1():
    alg = families.make_v(1, range(-5, 6))
    support = classify_support(alg)
    assert support.degree1 == frozenset({1, 2, 3, 4, 5})
    assert support.degree0 == support.degree2 == frozenset()


def test_scl2_support_has_one_degree2():
    alg = families.make_scl2(Fraction(1), "s", range(-6, 7))
    support = classify_support(alg.instantiate({"s": 1}))
    assert support.degree2 == frozenset({2})
    assert support.degree1 == frozenset({1, 3, 4, 5, 6})
    assert support.degree0 == frozenset()


def test_vir_support_empty():
    support = classify_support(VIR)
    assert not (support.degree0 | support.degree1 | support.degree2
                | support.unclassified)


def test_cl1_support_unclassified_pairs():
    alg = families.make_cl1("s", 6)
    support = classify_support(alg.instantiate({"s": 1}))
    assert support.degree1 == frozenset({1})
    assert support.unclassified == frozenset({2, 3, 4, 5, 6})
