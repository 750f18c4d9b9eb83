"""Conformal core: brackets, axiom checks, spectral diagnostics."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlca import conformal, families, feq, gd, grammar, ideals, specfile
from zlca.conformal import (ConformalAlgebra, Element, GeneratorId,
                            NotAffineError, OutOfWindowError,
                            OutOfWindowTripleError, ZeroActionError, bracket,
                            check_jacobi, check_skew, classify_support,
                            degree_relation_check, jacobi_residual,
                            spectral_data)
from zlca.poly import DEL, LAM, D, X, Y, ParamPoly, const, param

L = GeneratorId(0, "L")
VIR = ConformalAlgebra([L], {(L, L): {L: D + 2 * X}})
#: The current algebra of sl2: three generators at grade 0.
SL2_CURRENT = families.make_current(
    ["e", "f", "h"],
    {("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
     ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
     ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}})


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
    top = alg.graded[1]
    with pytest.raises(OutOfWindowError):
        lam(alg, Element.generator(top), Element.generator(top))


def test_element_coefficient_validation():
    with pytest.raises(ValueError):
        Element({L: D + X})  # bracket variable in a module coefficient
    with pytest.raises(ValueError):
        Element({L: D + Y})
    assert Element({L: const(0)}).coeffs == {}


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


def test_coefficient_rules_refuse_what_a_spec_load_builds():
    # the rules read the variable names collected in one walk per coefficient
    def spec(poly, gd_mode=None):
        """L with one entry poly; in GD mode poly sits in the table gd_mode
        names and the other table holds 1."""
        def rows(p):
            return [{"left": "L", "right": "L",
                     "terms": [{"target": "L", "poly": p}]}]
        out = {"params": ["s"], "generators": [{"name": "L", "grade": 0}],
               "brackets": rows(poly)}
        if gd_mode is not None:
            out["products"] = rows(poly)
            out[{"brackets": "products", "products": "brackets"}[gd_mode]] = \
                rows("1")
        return json.dumps(out)

    for poly in ("y", "d + s*y", "x^2*y^3 - 1"):
        with pytest.raises(ValueError, match="may not use y"):
            specfile.loads(spec(poly)).algebra()
    assert specfile.loads(spec("d + s*x")).algebra().params == {"s"}
    for key in ("brackets", "products"):
        for poly in ("d", "2*s*x", "s + y^2"):
            with pytest.raises(ValueError, match="must be free of d, x, y"):
                specfile.loads(spec(poly, key)).gd_algebra()
        assert specfile.loads(spec("2*s + 1", key)).gd_algebra().params == {"s"}


@pytest.mark.parametrize("cls, poly", [
    (ConformalAlgebra, D + param("s") * X + param("t_2") * param("b")),
    (gd.NovikovAlgebra, param("s") + param("t_2") * param("b")),
    (gd.LieStructure, 3 * param("t_2") ** 2 * param("b")),
])
def test_params_are_the_declared_and_the_used(cls, poly):
    used = poly.params()
    for declared in ((), ("a",), ("s", "z9")):
        table = cls([A], {(A, A): {A: poly}}, declared)
        assert table.params == used | set(declared)
        # a zero coefficient uses no parameter; formal names are never params
        zero = cls([A], {(A, A): {A: 0 * poly}}, declared)
        assert zero.params == set(declared)
        assert not table.params & {"d", "x", "y"}
    assert cls([A], {(A, A): {A: poly}}).instantiate(
        {"b": 2}).params == used - {"b"}


@pytest.mark.parametrize("owner, name", [
    (ConformalAlgebra, "table_items"), (ParamPoly, "leading_homogeneous"),
    (feq, "factor_check"), (feq, "FactorCheckError"), (gd, "_a1_window"),
    (ConformalAlgebra, "single_generator"),
    (ConformalAlgebra, "generators_of_grade"),
    (ConformalAlgebra, "one_generator_per_grade"),
    (gd, "make_a1"), (gd, "make_a2"), (gd, "s_bracket"),
    (feq.SolutionBasis, "contains"), (ideals.GradedSubmodule, "full_on"),
    (ideals.GradedSubmodule, "is_zero"), (ideals.ProbeReport, "proper_seeds"),
    (Element, "is_zero"), (ParamPoly, "coefficient"),
    (ParamPoly, "leading_coefficient"), (ParamPoly, "divides"),
    (ParamPoly, "terms")])
def test_test_only_helpers_stay_deleted(owner, name):
    # tests read tables through pairs/entry, terms through items, generators
    # by grade through ``graded``, and A1/A2 through gd_a1/gd_a2; they divide
    # with exact_divide, test span membership by rank with linalg.rref, and
    # read the proper seeds off the probe findings
    assert not hasattr(owner, name)


@pytest.mark.parametrize("cls, field", [(feq.SolutionBasis, "pivots"),
                                        (ideals.ProbeReport, "core")])
def test_test_only_fields_stay_deleted(cls, field):
    assert field not in {f.name for f in dataclasses.fields(cls)}


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
    assert report.violations[0].residual == ((L, -D),)


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
    assert report.ok and report.skew.ok


def perturbed_v0():
    alg = families.make_v(0, range(-3, 4))
    table = {pair: alg.entry(*pair) for pair in alg.pairs()}
    one = alg.graded[1]
    two = alg.graded[2]
    table[(one, one)][two] = table[(one, one)][two] + X ** 2
    return ConformalAlgebra(alg.generators, table)


def test_perturbed_v0_jacobi_residual_nonzero():
    alg = perturbed_v0()
    gens = {g.grade: g for g in alg.generators}
    res = jacobi_residual(alg, gens[-1], gens[1], gens[1])
    assert res != {}


def test_perturbed_v0_check_jacobi_reports():
    report = check_jacobi(perturbed_v0())
    assert not report.skew.ok  # the perturbation also breaks skew
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
    # The inner bracket (L-1, L2) and its outer one are decidable, but
    # (L-1, L-1) is not: the triple is refused before any product is made.
    count = conformal.PairCount("the Jacobi check")
    with pytest.raises(OutOfWindowTripleError):
        jacobi_residual(alg, gens[-1], gens[-1], gens[2], count)
    assert count.pairs == 0
    report = check_jacobi(alg)
    assert report.ok and report.skipped > 0


@pytest.mark.parametrize("grades, missing", [
    ((-1, 3, 2), [(3, 2)]), ((3, -1, 2), [(3, 2)]), ((2, 2, 1), [])],
    ids=["only-vw", "only-uw", "total-grade"])
def test_jacobi_triple_refusals(grades, missing):
    # Each inner row of (u, v, w) missing alone, and every inner row stored
    # and nonzero with the total grade 5 outside -1..4: each triple is
    # refused before any product is made.
    alg = families.make_cl1("s", 4)
    gens = {g.grade: g for g in alg.generators}
    u, v, w = (gens[i] for i in grades)
    inner = [(v, w), (u, v), (u, w)]
    assert [(p.grade, q.grade) for p, q in inner
            if alg.entry(p, q) is None] == missing
    assert all(alg.entry(p, q) for p, q in inner
               if (p.grade, q.grade) not in missing)
    count = conformal.PairCount("the Jacobi check")
    with pytest.raises(OutOfWindowTripleError):
        jacobi_residual(alg, u, v, w, count)
    assert count.pairs == 0


# -- the packed kernel against the ParamPoly expansion ----------------------------

def reference_check_skew(alg):
    """Skew-symmetry checked in ``ParamPoly`` arithmetic, unpacked."""
    flip = -(ParamPoly.variable(DEL) + ParamPoly.variable(LAM))
    checked = skipped = 0
    violations = []
    gens = alg.generators
    for i, u in enumerate(gens):
        for v in gens[i:]:
            if u.grade + v.grade not in alg.window:
                skipped += 1
                continue
            checked += 1
            forward = alg.entry(u, v)
            backward = alg.entry(v, u)
            residual = []
            for w in sorted(set(forward) | set(backward)):
                poly = (forward.get(w, ParamPoly.zero())
                        + backward.get(w, ParamPoly.zero())
                        .substitute({LAM: flip}))
                if poly:
                    residual.append((w, poly))
            if residual:
                violations.append(conformal.LawViolation("skew", (u, v),
                                                         tuple(residual)))
    return conformal.LawReport(checked, skipped, tuple(violations))


def reference_jacobi_residual(alg, u, v, w, count=None):
    """The Jacobi residual expanded in ``ParamPoly`` arithmetic, uncached.

    The same sums as ``jacobi_residual``, with every substitution and product
    done on ``ParamPoly`` values, and the same undecidable points.  It takes
    the pair count ``check_jacobi`` passes and spends none of it.
    """
    acc = {}

    def row(*pair):
        got = alg.entry(*pair)
        if got is None:
            raise OutOfWindowTripleError((u, v, w))
        return got

    def accumulate(inner_sub, first, second, outer_sub, outer_pair):
        for t, left in row(first, second).items():
            left = inner_sub(left)
            for r, right in row(*outer_pair(t)).items():
                acc[r] = acc.get(r, ParamPoly.zero()) + left * outer_sub(right)

    accumulate(lambda p: p.substitute({LAM: Y}).substitute({DEL: D + X}), v, w,
               lambda p: p, lambda t: (u, t))
    accumulate(lambda p: -p.substitute({DEL: -X - Y}), u, v,
               lambda p: p.substitute({LAM: X + Y}), lambda t: (t, w))
    accumulate(lambda p: -p.substitute({DEL: D + Y}), u, w,
               lambda p: p.substitute({LAM: Y}), lambda t: (v, t))
    return {r: poly for r, poly in acc.items() if poly}


def reference_check_jacobi(alg):
    """The Jacobi check as a scan of every triple it may need, each through
    ``reference_jacobi_residual``: an undecidable one is skipped when the
    reference refuses it."""
    skew = reference_check_skew(alg)
    gens = alg.generators
    triples = (itertools.combinations_with_replacement(gens, 3) if skew.ok
               else itertools.product(gens, repeat=3))
    checked = skipped = 0
    violations = []
    for triple in triples:
        try:
            residual = reference_jacobi_residual(alg, *triple)
        except OutOfWindowTripleError:
            skipped += 1
            continue
        checked += 1
        if residual:
            violations.append(conformal.LawViolation(
                "jacobi", triple, tuple(sorted(residual.items()))))
    return conformal.JacobiReport(checked, skipped, tuple(violations), skew)


def _outcome(residual, alg, triple):
    try:
        return residual(alg, *triple)
    except OutOfWindowTripleError:
        return "undecidable"


def assert_matches_reference(alg, monkeypatch):
    """Every ordered triple, the skew report and the whole report agree with
    the references: the report is the dense scan's, and check_jacobi gives
    it again with the reference residual and skew check in place."""
    for triple in itertools.product(alg.generators, repeat=3):
        assert (_outcome(jacobi_residual, alg, triple)
                == _outcome(reference_jacobi_residual, alg, triple)), triple
    report = check_jacobi(alg)
    assert report == reference_check_jacobi(alg)
    with monkeypatch.context() as patch:
        patch.setattr(conformal, "jacobi_residual", reference_jacobi_residual)
        patch.setattr(conformal, "check_skew", reference_check_skew)
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
    table = {uv: alg.entry(*uv) for uv in alg.pairs()}
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
        target = rng.choice([g for g in gens
                             if g.grade == u.grade + v.grade])
        coef = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((2, 3, 5)))
        delta = (const(coef) * D ** rng.randrange(3) * X ** rng.randrange(3)
                 * param(rng.choice("bst")) ** rng.randrange(1, 3))
        report = assert_matches_reference(
            _with_entry(alg, (u, v), target, delta), monkeypatch)
        failing += not report.ok
    assert failing >= 6


def test_fractional_skew_violation_matches_reference(monkeypatch):
    # V(1/3) has entries over 3 and the change is over 7, so den = 21 and
    # the skew residual, a sum of two single entries, is a fraction.
    alg = families.make_v(THIRD, range(-2, 3))
    zero, one = alg.graded[0], alg.graded[1]
    alg = _with_entry(alg, (one, zero), one, const(Fraction(3, 7)) * X)
    assert conformal._packing(alg).den == 21
    report = assert_matches_reference(alg, monkeypatch)
    assert [(v.law, v.elements, v.residual)
            for v in report.skew.violations] == [
        ("skew", (zero, one), ((one, const(Fraction(-3, 7)) * (D + X)),))]


def test_entries_at_the_spec_caps_match_reference(monkeypatch):
    # Formal degree 12 and a parameter exponent of 16: total degree 28, so
    # the fields are 6 bits wide and products reach s^32.
    cap = grammar.parse("1/3*s^16*x^12 + 2/5*d^12*t^16 - 1/2*s^16*d^6*x^6")
    alg = families.make_v("s", range(-1, 2))
    zero, one = alg.graded[0], alg.graded[1]
    alg = _with_entry(alg, (zero, zero), zero, cap)
    alg = _with_entry(alg, (zero, one), one, cap * param("t"))
    assert conformal._packing(alg).width == 6
    report = assert_matches_reference(alg, monkeypatch)
    assert not report.ok


#: Coefficients of the drawn tables, in d, x and s.
_DRAWN_COEFFICIENTS = (D, X, const(1), D + 2 * X, param("s") * X,
                       const(Fraction(1, 2)) * D - param("s"), D * X)


@st.composite
def drawn_algebras(draw):
    """An algebra with one or two generators at each of two to four grades
    in -2..2, whose rows are drawn at random.

    The pairs whose sum grade is missing have no row.  The others are empty
    or list one or two targets at the sum grade.  Half the tables are made
    skew-symmetric, (v, u) from (u, v), so that ``check_jacobi`` scans the
    triples u <= v <= w as well as all ordered triples.
    """
    grades = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=4,
                           unique=True))
    gens = [GeneratorId(g, f"G{g + 2}{k}") for g in grades
            for k in range(draw(st.integers(1, 2)))]
    skew = draw(st.booleans())
    flip = -(D + X)
    table = {}
    for u in gens:
        for v in gens:
            targets = [w for w in gens if w.grade == u.grade + v.grade]
            if not targets or (skew and (v, u) in table):
                continue
            chosen = draw(st.lists(st.sampled_from(targets), max_size=2,
                                   unique=True))
            if skew and u == v:
                row = {w: draw(st.sampled_from((1, -2))) * (D + 2 * X)
                       for w in chosen}
            else:
                row = {w: draw(st.sampled_from(_DRAWN_COEFFICIENTS))
                       for w in chosen}
            table[(u, v)] = row
            if skew:
                table[(v, u)] = {w: -p.substitute({LAM: flip})
                                 for w, p in row.items()}
    return ConformalAlgebra(gens, table)


@settings(max_examples=40, deadline=None)
@given(drawn_algebras())
def test_drawn_algebras_match_reference(alg):
    # check_jacobi enumerates only the decidable triples; the references
    # expand every ordered triple in ParamPoly arithmetic.
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_reference(alg, monkeypatch)


def test_jacobi_pair_budget(monkeypatch):
    # One check_jacobi spends one count: its term pairs are the sum over the
    # triples it decides (jacobi_residual refuses an undecidable triple
    # before it multiplies anything), and a budget one pair short of that
    # ends it.
    alg = families.make_cl2("b", "s", range(-2, 3))
    count = conformal.PairCount("the Jacobi check")
    for triple in itertools.combinations_with_replacement(alg.generators, 3):
        try:
            jacobi_residual(alg, *triple, count)
        except OutOfWindowTripleError:
            pass
    assert count.pairs == 1013
    monkeypatch.setattr(conformal, "MAX_PAIRS", count.pairs)
    assert check_jacobi(alg).ok
    monkeypatch.setattr(conformal, "MAX_PAIRS", count.pairs - 1)
    with pytest.raises(conformal.PairBudgetError):
        check_jacobi(alg)


def test_jacobi_cache_is_per_algebra():
    alg = families.make_cl2("b", "s", range(-2, 3))
    assert alg._packing is None and not alg._jacobi_forms
    check_jacobi(alg)
    assert alg._packing.den == 1 and alg._jacobi_forms
    assert not families.make_cl2("b", "s", range(-2, 3))._jacobi_forms


def test_jacobi_packs_each_stored_row_once(monkeypatch):
    # The seven forms of a stored row share one packing of it, so a whole
    # check packs at most one coefficient per stored pair of this rank-one
    # table: a form that packed the row again would double the count.
    alg = families.make_cl2("b", "s", range(-5, 6))
    calls = []
    pack = conformal.Packing.pack

    def counted(self, poly):
        calls.append(poly)
        return pack(self, poly)

    monkeypatch.setattr(conformal.Packing, "pack", counted)
    assert check_jacobi(alg).ok
    assert 0 < len(calls) <= len(alg.pairs())


# -- the Jacobi identity expanded by sympy ------------------------------------------

def sympy_jacobi_residual(alg, u, v, w):
    """[u_x [v_y w]] - [[u_x v]_{x+y} w] - [v_y [u_x w]] expanded by sympy.

    Every bracket is the sesquilinear one, [f(d) a_z g(d) b] = f(-z) g(d+z)
    [a_z b], on the table read back from its printed polynomials, so no zlca
    arithmetic takes part.  All four grades the triple reaches must lie in
    the window.
    """
    sympy = pytest.importorskip("sympy")
    d, x, y = sympy.symbols("d x y")
    names = {name: sympy.Symbol(name) for name in alg.params}
    names.update(d=d, x=x, y=y)

    def to_sympy(poly):
        return sympy.sympify(str(poly).replace("^", "**"), locals=names)

    table = {(a, b, t): to_sympy(p) for a, b in alg.pairs()
             for t, p in alg.entry(a, b).items()}

    def lam(f, g, z):
        out = {}
        for a, fa in f.items():
            for b, gb in g.items():
                scale = fa.subs(d, -z) * gb.subs(d, d + z)
                for t in (g for g in alg.generators
                          if g.grade == a.grade + b.grade):
                    p = table.get((a, b, t), sympy.Integer(0))
                    out[t] = out.get(t, 0) + scale * p.subs(x, z)
        return out

    one = sympy.Integer(1)
    terms = [(1, lam({u: one}, lam({v: one}, {w: one}, y), x)),
             (-1, lam(lam({u: one}, {v: one}, x), {w: one}, x + y)),
             (-1, lam({v: one}, lam({u: one}, {w: one}, x), y))]
    residual = {}
    for sign, term in terms:
        for r, value in term.items():
            residual[r] = residual.get(r, 0) + sign * value
    return ({r: sympy.expand(value) for r, value in residual.items()},
            to_sympy)


def _one_monomial_mutant(alg, i, j, monomial):
    """The algebra with ``monomial`` added to p_{i,j}."""
    return _with_entry(alg, (alg.graded[i], alg.graded[j]),
                       alg.graded[i + j], monomial)


@pytest.mark.parametrize("build, broken", [
    (lambda: families.make_cl2("b", "s", range(-2, 3)), False),
    (lambda: families.make_scl2(MINUS_HALF, "s", range(-2, 3)), False),
    (lambda: _one_monomial_mutant(families.make_cl2("b", "s", range(-2, 3)),
                                  1, 0, param("s") * D * X), True),
    (lambda: _one_monomial_mutant(
        families.make_scl2(MINUS_HALF, "s", range(-2, 3)),
        0, 0, const(THIRD) * X ** 2), True),
], ids=["CL2", "SCL2", "CL2-mutant", "SCL2-mutant"])
def test_jacobi_residual_matches_sympy(build, broken):
    alg = build()
    inside = [t for t in itertools.product(alg.generators, repeat=3)
              if all(sum(g.grade for g in part) in alg.window
                     for part in (t[:2], t[1:], t[::2], t))]
    nonzero = 0
    for triple in random.Random(15).sample(inside, 12):
        expected, to_sympy = sympy_jacobi_residual(alg, *triple)
        got = jacobi_residual(alg, *triple)
        nonzero += bool(got)
        for r in set(expected) | set(got):
            assert (expected.get(r, 0)
                    - to_sympy(got.get(r, ParamPoly.zero()))).expand() == 0
    assert (nonzero > 0) == broken


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
    with pytest.raises(ValueError, match="exactly one generator per grade"):
        SL2_CURRENT.graded_entry(0, 0)


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
            u, v = alg.graded[i], alg.graded[j]
            if i + j not in alg.window:
                with pytest.raises(OutOfWindowError):
                    alg.graded_entry(i, j)
                continue
            target = alg.graded[i + j]
            assert alg.graded_entry(i, j) == \
                alg.entry(u, v).get(target, ParamPoly.zero())
            decided += 1
    assert decided > len(alg.window)


# -- one decidability rule for every table ------------------------------------------

def _cl2_spec_window():
    """CL2(1, s) on -3..3 loaded from a spec that writes no row for its zero
    pair (L-1, L-1) and an empty row for the out-of-window pair (L3, L3)."""
    raw = specfile.from_algebra(families.make_cl2(1, "s", range(-3, 4))
                                ).to_json_dict()
    raw["brackets"].append({"left": "L3", "right": "L3", "terms": []})
    return specfile.loads(json.dumps(raw)).algebra()


#: name -> (algebra, the in-window pairs whose bracket is zero).
ONE_RULE_ALGEBRAS = {
    "V": (families.make_v("s", range(-3, 4)), set()),
    "CL1": (families.make_cl1("s", 4), set()),
    "CL2": (families.make_cl2(1, "s", range(-3, 4)), {("L-1", "L-1")}),
    "SCL2": (families.make_scl2(Fraction(1), "s", range(-4, 5)),
             {("L-1", "L-1")}),
    "Vir": (families.make_vir(), set()),
    "Cur": (families.make_current(["a", "b"], {}),
            {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}),
    "CL2 spec": (_cl2_spec_window(), {("L-1", "L-1")}),
}


@pytest.mark.parametrize("name", sorted(ONE_RULE_ALGEBRAS))
def test_entry_is_none_exactly_where_the_window_cannot_decide(name):
    alg, zeros = ONE_RULE_ALGEBRAS[name]
    spec = specfile.from_algebra(alg)
    found = set()
    for u, v in itertools.product(alg.generators, repeat=2):
        row = alg.entry(u, v)
        if u.grade + v.grade not in alg.window:
            assert row is None, (u, v)
            with pytest.raises(OutOfWindowError):
                bracket(alg, Element.generator(u), Element.generator(v))
            if alg.graded is not None:
                with pytest.raises(OutOfWindowError):
                    alg.graded_entry(u.grade, v.grade)
            continue
        assert row == dict(spec.brackets.get((u, v), {})), (u, v)
        if row == {}:
            found.add((u.name, v.name))
        assert bracket(alg, Element.generator(u), Element.generator(v)) == row
        if alg.graded is not None:
            target = alg.graded[u.grade + v.grade]
            assert alg.graded_entry(u.grade, v.grade) == \
                row.get(target, ParamPoly.zero())
    assert found == zeros
    assert alg.pairs() == sorted(
        (u, v) for u, v in itertools.product(alg.generators, repeat=2)
        if u.grade + v.grade in alg.window)
    text = spec.dumps()
    assert specfile.from_algebra(specfile.loads(text).algebra()).dumps() == text


#: What each consumer of the rank-one table names when it refuses an algebra
#: with two generators at some grade -> a call of that consumer.
RANK_ONE_CONSUMERS = {
    "spectral data": spectral_data,
    "the degree relation check": lambda alg: degree_relation_check(alg, None),
    "support classification": classify_support,
    "ideal check": lambda alg: ideals.is_graded_ideal(
        alg, ideals.GradedSubmodule({})),
    "closure": lambda alg: ideals.ideal_generated_by(
        alg, Element.generator(alg.generators[0])),
    "simplicity probe": lambda alg: ideals.simplicity_probe(alg, [0]),
}


@pytest.mark.parametrize("what", sorted(RANK_ONE_CONSUMERS))
def test_rank_one_consumers_refuse_a_grade_with_two_generators(what):
    algebras = [alg for alg, _ in ONE_RULE_ALGEBRAS.values()]
    for alg in [*algebras, SL2_CURRENT]:
        grades = [g.grade for g in alg.generators]
        assert (alg.graded is None) == (len(set(grades)) < len(grades))
        if alg.graded is not None:
            assert alg.graded == {g.grade: g for g in alg.generators}
            continue
        with pytest.raises(ValueError, match=f"^{what} requires exactly one "
                                             "generator per grade$"):
            RANK_ONE_CONSUMERS[what](alg)


def test_the_spec_window_dumps_as_its_family():
    family = families.make_cl2(1, "s", range(-3, 4))
    assert _cl2_spec_window() == family
    assert specfile.from_algebra(_cl2_spec_window()).dumps() == \
        specfile.from_algebra(family).dumps()


@pytest.mark.parametrize("g, zeros", [
    (gd.gd_a1("s", 3),
     ({("L0", "L-1"), ("L1", "L-1"), ("L2", "L-1"), ("L3", "L-1")},
      {("L0", "L0"), ("L1", "L1")})),
    (gd.gd_a2(1, "s", range(-3, 4)),
     ({(f"L{i}", "L-1") for i in range(-2, 4)},
      {("L-1", "L-1"), ("L0", "L0"), ("L1", "L1")})),
], ids=["A1", "A2"])
def test_gd_entry_is_none_exactly_where_the_row_is_missing(g, zeros):
    spec = specfile.from_gd(g)
    window = {b.grade for b in g.basis}
    for table, rows, zero in ((g.nov, spec.products, zeros[0]),
                              (g.lie, spec.brackets, zeros[1])):
        found = set()
        for u, v in itertools.product(g.basis, repeat=2):
            row = table.entry(u, v)
            assert (row is None) == ((u, v) not in rows), (u, v)
            assert (row is None) == (u.grade + v.grade not in window), (u, v)
            if row is not None:
                assert row == dict(rows[u, v])
                if row == {}:
                    found.add((u.name, v.name))
        assert found == zero
    text = spec.dumps()
    assert specfile.loads(text).gd_algebra() == g
    assert specfile.from_gd(specfile.loads(text).gd_algebra()).dumps() == text


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
    with pytest.raises(ValueError):
        spectral_data(SL2_CURRENT)


def test_spectral_diagnostics_refuse_a_window_without_grade_zero():
    # one generator per grade, but no grade-0 action to read
    alg = ConformalAlgebra([GeneratorId(1, "A"), GeneratorId(2, "B")], {})
    assert alg.graded is not None and not alg.has_grade_zero
    assert VIR.has_grade_zero and not SL2_CURRENT.has_grade_zero
    for what, check in (("spectral data", spectral_data),
                        ("support classification", classify_support)):
        with pytest.raises(ValueError,
                           match=f"^{what} requires a grade-0 generator$"):
            check(alg)
    assert VIR.grade_zero("spectral data") == {0: L}


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
    one = alg.graded[1]
    minus3 = alg.graded[-3]
    entry = alg.entry(one, minus3)
    assert entry[alg.graded[-2]] == const(2)


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
