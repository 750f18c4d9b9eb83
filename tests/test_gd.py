"""Novikov / Gel'fand-Dorfman structures and the quadratic correspondence."""

import json
import random
from fractions import Fraction

import pytest

from zlca import families, gd, specfile
from zlca.conformal import GeneratorId, check_jacobi, check_skew
from zlca.poly import D, X, ParamPoly, as_poly, const, param

S = param("s")
B = param("b")


def gen_of(structure, name):
    return next(g for g in structure.basis if g.name == name)


# -- constructors ------------------------------------------------------------------

def test_a1_entries():
    nov = gd.make_a1(3)
    two, one, three = (gen_of(nov, n) for n in ("L2", "L1", "L3"))
    assert nov.product(two, one) == {three: const(2)}
    minus = gen_of(nov, "L-1")
    assert nov.product(two, minus) == {gen_of(nov, "L1"): const(0)} or \
        nov.product(two, minus) == {}


def test_a2_entries():
    nov = gd.make_a2("b", range(-2, 3))
    one = gen_of(nov, "L1")
    minus = gen_of(nov, "L-1")
    zero = gen_of(nov, "L0")
    assert nov.product(one, minus) == {zero: B - 1}


def test_a3_entries():
    nov = gd.make_a3("b", range(-1, 2), 2)
    u = gen_of(nov, "L0_1")
    v = gen_of(nov, "L1_1")
    assert nov.product(u, v) == {gen_of(nov, "L1_2"): 1 + B,
                                 gen_of(nov, "L1_1"): const(1)}
    # depth truncation: product needing index 3 is undecidable
    w = gen_of(nov, "L0_2")
    assert nov.product(w, v) is None


# -- law checks --------------------------------------------------------------------

def test_a1_novikov_clean():
    assert gd.check_novikov(gd.make_a1(4)).ok


def test_a2_novikov_clean_symbolic():
    assert gd.check_novikov(gd.make_a2("b", range(-3, 4))).ok


def test_a3_novikov_clean_symbolic():
    assert gd.check_novikov(gd.make_a3("b", range(-1, 2), 3)).ok


def test_novikov_violation_localized():
    nov = gd.make_a1(2)
    zero = gen_of(nov, "L0")
    one = gen_of(nov, "L1")
    table = {pair: nov.entry(*pair) for pair in nov.pairs()}
    table[(zero, zero)] = {zero: const(2)}
    broken = gd.NovikovAlgebra(nov.basis, table)
    report = gd.check_novikov(broken)
    assert not report.ok
    assert any(v.law == "right-commutativity"
               and v.elements == (zero, zero, one) for v in report.violations)


def test_s_bracket_lie_clean():
    nov = gd.make_a2("b", range(-3, 4))
    assert gd.check_lie(gd.s_bracket(nov.basis, "s")).ok


def test_zero_bracket_lie_clean():
    nov = gd.make_a1(3)
    lie = gd.s_bracket(nov.basis, 0)
    assert gd.check_lie(lie).ok


def test_lie_antisymmetry_violation():
    a = GeneratorId(0, "a")
    b = GeneratorId(0, "b")
    good = {(a, b): {a: const(1)}, (b, a): {a: const(-1)},
            (a, a): {}, (b, b): {}}
    assert gd.check_lie(gd.LieStructure([a, b], good)).ok
    bad = dict(good)
    bad[(b, a)] = {a: const(1)}
    report = gd.check_lie(gd.LieStructure([a, b], bad))
    assert any(v.law == "antisymmetry" for v in report.violations)


def test_gd_compatibility_families():
    assert gd.check_gd(gd.gd_a1("s", 4)).ok
    assert gd.check_gd(gd.gd_a2("b", "s", range(-3, 4))).ok


def test_gd_group_algebra_novikov():
    grades = range(-2, 3)
    gens = {i: GeneratorId(i, f"L{i}") for i in grades}
    table = {(gens[i], gens[j]): {gens[i + j]: const(1)}
             for i in grades for j in grades if i + j in gens}
    nov = gd.NovikovAlgebra(gens.values(), table)
    assert gd.check_novikov(nov).ok
    assert gd.check_gd(gd.GDAlgebra(nov, gd.s_bracket(nov.basis, "s"))).ok


# -- the correspondence -----------------------------------------------------------------

def test_quadratic_from_gd_is_cl1():
    assert gd.quadratic_from_gd(gd.gd_a1("s", 4)) == families.make_cl1("s", 4)


def test_quadratic_from_gd_is_cl2_with_negated_s():
    produced = gd.quadratic_from_gd(gd.gd_a2("b", "s", range(-3, 4)))
    assert produced == families.make_cl2("b", -S, range(-3, 4))


def test_quadratic_from_gd_reverified_axioms():
    alg = gd.quadratic_from_gd(gd.gd_a2("b", "s", range(-3, 4)))
    assert check_skew(alg).ok
    assert check_jacobi(alg).ok


def test_zero_gd_gives_zero_brackets():
    a = GeneratorId(0, "a")
    empty = {(a, a): {}}
    g = gd.GDAlgebra(gd.NovikovAlgebra([a], empty), gd.LieStructure([a], empty))
    alg = gd.quadratic_from_gd(g)
    assert list(alg.table_items()) == []


def test_quadratic_from_gd_rejects_broken_input():
    nov = gd.make_a1(2)
    zero = gen_of(nov, "L0")
    table = {pair: nov.entry(*pair) for pair in nov.pairs()}
    table[(zero, zero)] = {zero: const(2)}
    broken = gd.GDAlgebra(gd.NovikovAlgebra(nov.basis, table),
                          gd.s_bracket(nov.basis, "s"))
    with pytest.raises(gd.NotGDError):
        gd.quadratic_from_gd(broken)


def test_gd_from_quadratic_inverts_cl1():
    recovered = gd.gd_from_quadratic(families.make_cl1("s", 4))
    expected = gd.gd_a1("s", 4)
    assert recovered.nov == expected.nov
    assert recovered.lie == expected.lie


def test_gd_from_quadratic_on_vir():
    vir = families.make_vir()
    g = gd.gd_from_quadratic(vir)
    L = vir.generators[0]
    assert g.nov.product(L, L) == {L: const(1)}
    assert g.lie.bracket(L, L) == {}


def test_gd_from_quadratic_rejects_scl2():
    alg = families.make_scl2(Fraction(1), "s", range(-6, 7))
    with pytest.raises(gd.NotQuadraticError) as info:
        gd.gd_from_quadratic(alg)
    assert info.value.poly.formal_degree() >= 2


def test_gd_from_quadratic_star_consistency():
    L = GeneratorId(0, "L")
    from zlca.conformal import ConformalAlgebra
    alg = ConformalAlgebra([L], {(L, L): {L: D + 3 * X}})
    with pytest.raises(gd.InconsistentStarError):
        gd.gd_from_quadratic(alg)


def test_round_trip_both_ways():
    g = gd.gd_a2("b", "s", range(-2, 3))
    again = gd.gd_from_quadratic(gd.quadratic_from_gd(g))
    assert again.nov == g.nov and again.lie == g.lie

    alg = families.make_cl2(Fraction(1, 2), Fraction(3), range(-2, 3))
    assert gd.quadratic_from_gd(gd.gd_from_quadratic(alg)) == alg


def test_round_trip_on_current_algebra():
    alg = families.make_current(
        ["e", "f", "h"],
        {("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
         ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
         ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}})
    assert gd.quadratic_from_gd(gd.gd_from_quadratic(alg)) == alg


# -- perturbation rejection ---------------------------------------------------------------

def test_random_a2_perturbations_always_caught():
    rng = random.Random(20240817)
    base = gd.make_a2(Fraction(1, 3), range(-3, 4))
    lie = gd.s_bracket(base.basis, Fraction(2))
    interior = [pair for pair in base.pairs()
                if abs(pair[0].grade + pair[1].grade) <= 2]
    for trial in range(20):
        pair = interior[rng.randrange(len(interior))]
        delta = Fraction(rng.choice([1, -1, 2, -2, 3]),
                         rng.choice([1, 2, 3]))
        table = {p: base.entry(*p) for p in base.pairs()}
        target = GeneratorId(pair[0].grade + pair[1].grade,
                             f"L{pair[0].grade + pair[1].grade}")
        entry = dict(table[pair])
        entry[target] = entry.get(target, ParamPoly.zero()) + delta
        table[pair] = entry
        broken = gd.NovikovAlgebra(base.basis, table)
        caught = (not gd.check_novikov(broken).ok
                  or not gd.check_gd(gd.GDAlgebra(broken, lie)).ok)
        assert caught, f"perturbation {trial} on {pair} accepted silently"


# -- equivalence with the direct law checks ---------------------------------------------
#
# The reference below is the straightforward form of the three law checks:
# every law recomputes each of its products from the tables, with no memo and
# no positional index.  The module's checks must agree with it on the counts
# and on every violation, including the order of the violations and their
# residuals.

def _reference_add(a, b, sign=1):
    if a is None or b is None:
        return None
    out = dict(a)
    for g, coef in b.items():
        out[g] = out.get(g, ParamPoly.zero()) + sign * coef
    return {g: c for g, c in out.items() if c}


def _reference_extend_left(table, a, combo):
    if combo is None:
        return None
    acc = {}
    for t, coef in combo.items():
        got = table.entry(a, t)
        if got is None:
            return None
        for w, k in got.items():
            acc[w] = acc.get(w, ParamPoly.zero()) + coef * k
    return {g: c for g, c in acc.items() if c}


def _reference_extend_right(table, combo, c):
    if combo is None:
        return None
    acc = {}
    for t, coef in combo.items():
        got = table.entry(t, c)
        if got is None:
            return None
        for w, k in got.items():
            acc[w] = acc.get(w, ParamPoly.zero()) + coef * k
    return {g: c_ for g, c_ in acc.items() if c_}


def _reference_scan(laws):
    checked = skipped = 0
    violations = []
    for elements, law, residual_fn in laws:
        residual = residual_fn()
        if residual is None:
            skipped += 1
            continue
        checked += 1
        if residual:
            violations.append(gd.LawViolation(
                law, elements, tuple(sorted(residual.items()))))
    return gd.LawReport(checked, skipped, tuple(violations))


def reference_check_novikov(nov):
    add, left, right = (_reference_add, _reference_extend_left,
                        _reference_extend_right)

    def left_symmetry(a, b, c):
        return add(add(right(nov, nov.product(a, b), c),
                       left(nov, a, nov.product(b, c)), -1),
                   add(right(nov, nov.product(b, a), c),
                       left(nov, b, nov.product(a, c)), -1),
                   -1)

    def right_commutativity(a, b, c):
        return add(right(nov, nov.product(a, b), c),
                   right(nov, nov.product(a, c), b), -1)

    laws = []
    for a in nov.basis:
        for b in nov.basis:
            for c in nov.basis:
                laws.append(((a, b, c), "left-symmetry",
                             lambda a=a, b=b, c=c: left_symmetry(a, b, c)))
                laws.append(((a, b, c), "right-commutativity",
                             lambda a=a, b=b, c=c: right_commutativity(a, b, c)))
    return _reference_scan(laws)


def reference_check_lie(lie):
    add, right = _reference_add, _reference_extend_right

    def antisymmetry(a, b):
        return add(lie.bracket(a, b), lie.bracket(b, a))

    def jacobi(a, b, c):
        return add(add(right(lie, lie.bracket(a, b), c),
                       right(lie, lie.bracket(b, c), a)),
                   right(lie, lie.bracket(c, a), b))

    laws = []
    for a in lie.basis:
        for b in lie.basis:
            laws.append(((a, b), "antisymmetry",
                         lambda a=a, b=b: antisymmetry(a, b)))
    for a in lie.basis:
        for b in lie.basis:
            for c in lie.basis:
                laws.append(((a, b, c), "jacobi",
                             lambda a=a, b=b, c=c: jacobi(a, b, c)))
    return _reference_scan(laws)


def reference_check_gd(g):
    add, left, right = (_reference_add, _reference_extend_left,
                        _reference_extend_right)
    nov, lie = g.nov, g.lie

    def compatibility(a, b, c):
        total = add(right(lie, nov.product(a, b), c),
                    right(lie, nov.product(a, c), b), -1)
        total = add(total, right(nov, lie.bracket(a, b), c))
        total = add(total, right(nov, lie.bracket(a, c), b), -1)
        return add(total, left(nov, a, lie.bracket(b, c)), -1)

    laws = [((a, b, c), "compatibility",
             lambda a=a, b=b, c=c: compatibility(a, b, c))
            for a in g.basis for b in g.basis for c in g.basis]
    return _reference_scan(laws)


def _a3_gd():
    """A3(b) with two indices and the bracket s (i - j) L_(i+j, m+n)."""
    nov = gd.make_a3("b", range(-1, 2), 1)
    by_name = {g.name: g for g in nov.basis}
    table = {}
    for u in nov.basis:
        for v in nov.basis:
            (i, m), (j, n) = (tuple(map(int, g.name[1:].split("_")))
                              for g in (u, v))
            target = by_name.get(f"L{i + j}_{m + n}")
            if target is not None:
                table[(u, v)] = {target: S * (i - j)}
    return gd.GDAlgebra(nov, gd.LieStructure(nov.basis, table))


def _current_gd():
    """The grade-0 GD algebra of the current algebra of sl2."""
    return gd.gd_from_quadratic(families.make_current(
        ["e", "f", "h"],
        {("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
         ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
         ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}}))


EQUIVALENCE_CASES = {
    "a1": lambda: gd.gd_a1("s", 3),
    "a2_symbolic": lambda: gd.gd_a2("b", "s", range(-2, 3)),
    "a2_bound": lambda: gd.gd_a2(Fraction(1, 3), Fraction(2), range(-2, 3)),
    "a3": _a3_gd,
    "current": _current_gd,
}


def _mutants(g, rng, count):
    """g itself, then copies with changed, added or deleted table entries."""
    yield g
    deltas = [const(1), const(-2), const(Fraction(1, 2)), B, S - 1]
    for _ in range(count):
        tables = [{p: g.nov.entry(*p) for p in g.nov.pairs()},
                  {p: g.lie.entry(*p) for p in g.lie.pairs()}]
        for _ in range(rng.randint(1, 3)):
            table = rng.choice(tables)
            pair = rng.choice(sorted(table))
            if rng.random() < 0.3:
                del table[pair]       # the entry becomes undecidable
                continue
            entry = dict(table[pair])
            target = rng.choice(g.basis)
            entry[target] = (entry.get(target, ParamPoly.zero())
                             + rng.choice(deltas))
            table[pair] = entry
        yield gd.GDAlgebra(gd.NovikovAlgebra(g.basis, tables[0]),
                           gd.LieStructure(g.basis, tables[1]))


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_law_checks_match_the_reference(case):
    rng = random.Random(f"gd-equivalence-{case}")
    violations = 0
    for g in _mutants(EQUIVALENCE_CASES[case](), rng, 10):
        for check, reference, arg in (
                (gd.check_novikov, reference_check_novikov, g.nov),
                (gd.check_lie, reference_check_lie, g.lie),
                (gd.check_gd, reference_check_gd, g)):
            got, want = check(arg), reference(arg)
            assert (got.checked, got.skipped) == (want.checked, want.skipped)
            assert got.violations == want.violations
            violations += len(want.violations)
    assert violations > 0


# -- the grade-formula constructors against explicit loops ---------------------------
#
# A2 and s_bracket are built from one formula each by conformal.graded_table,
# and A1 as A2(1).  The references below write them out as double loops, A1
# from its own formula.

def reference_make_a1(top):
    gens = {i: GeneratorId(i, f"L{i}") for i in range(-1, top + 1)}
    table = {}
    for i in gens:
        for j in gens:
            if i + j in gens:
                table[(gens[i], gens[j])] = {gens[i + j]: as_poly(j + 1)}
    return gd.NovikovAlgebra(gens.values(), table)


def reference_make_a2(b, window):
    b = param(b) if isinstance(b, str) else as_poly(b)
    gens = {i: GeneratorId(i, f"L{i}") for i in sorted(set(window))}
    table = {}
    for i in gens:
        for j in gens:
            if i + j in gens:
                table[(gens[i], gens[j])] = {gens[i + j]: j + b}
    return gd.NovikovAlgebra(gens.values(), table)


def reference_s_bracket(basis, s):
    s = param(s) if isinstance(s, str) else as_poly(s)
    gens = {g.grade: g for g in basis}
    table = {}
    for i in gens:
        for j in gens:
            if i + j in gens:
                table[(gens[i], gens[j])] = {gens[i + j]: s * (i - j)}
    return gd.LieStructure(gens.values(), table)


def assert_same_gd(got, want):
    assert got == want
    assert specfile.from_gd(got).dumps() == specfile.from_gd(want).dumps()


GD_S_VALUES = ["s", S + 1, Fraction(-2, 3), 0, Fraction(5, 7)]


@pytest.mark.parametrize("s", GD_S_VALUES)
def test_gd_a1_matches_the_reference(s):
    for top in (-1, 0, 1, 3, 8):
        nov = reference_make_a1(top)
        assert gd.make_a1(top) == nov
        assert_same_gd(gd.gd_a1(s, top),
                       gd.GDAlgebra(nov, reference_s_bracket(nov.basis, s)))


def test_a1_rejects_a_top_below_minus_one():
    # As families.make_cl1 does: grade -1 is the lowest grade of A1.
    for top in (-2, -5):
        with pytest.raises(ValueError, match="window top must be at least -1"):
            gd.make_a1(top)
        with pytest.raises(ValueError, match="window top must be at least -1"):
            gd.gd_a1("s", top)


# b = 1 makes every product by L-1 vanish; b = -2 those by L2.
@pytest.mark.parametrize("b", ["b", 1, -2, Fraction(1, 3), B + S])
def test_gd_a2_matches_the_reference(b):
    for window in (range(-3, 4), range(-1, 5), (-2, 0, 1, 3), (0,), ()):
        nov = reference_make_a2(b, window)
        assert gd.make_a2(b, window) == nov
        for s in GD_S_VALUES:
            assert_same_gd(gd.gd_a2(b, s, window),
                           gd.GDAlgebra(nov, reference_s_bracket(nov.basis, s)))


def test_s_bracket_matches_the_reference_on_any_names():
    basis = [GeneratorId(2, "c"), GeneratorId(-1, "a"), GeneratorId(0, "b"),
             GeneratorId(1, "z"), GeneratorId(3, "y")]
    for s in GD_S_VALUES:
        assert gd.s_bracket(basis, s) == reference_s_bracket(basis, s)


# -- table presence in GD mode ---------------------------------------------------------

def one_generator_gd(products, brackets):
    return specfile.loads(json.dumps({
        "generators": [{"name": "A", "grade": 0}],
        "products": products, "brackets": brackets})).gd_algebra()


def test_gd_row_with_empty_terms_is_checked_and_missing_row_skipped():
    empty = [{"left": "A", "right": "A", "terms": []}]
    present = one_generator_gd(empty, [])
    assert present.nov.entry(*present.basis * 2) == {}
    assert present.lie.entry(*present.basis * 2) is None
    novikov = gd.check_novikov(present.nov)
    assert (novikov.checked, novikov.skipped) == (2, 0)
    lie = gd.check_lie(present.lie)
    assert (lie.checked, lie.skipped) == (0, 2)
    lie = gd.check_lie(one_generator_gd([], empty).lie)
    assert (lie.checked, lie.skipped) == (2, 0)
