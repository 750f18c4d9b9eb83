"""Functional equation solver: nullspaces, tables, factorization."""

from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlca import families, feq, linalg
from zlca.conformal import spectral_data
from zlca.grammar import parse
from zlca.poly import (DEL, LAM, D, X, Y, NotDivisibleError, ParamPoly,
                       mono_formal_degree, mono_sort_key)


def triple(*values) -> feq.SpectralTriple:
    return feq.SpectralTriple(*[F(v) for v in values])


# -- the unknowns ---------------------------------------------------------------

def test_monomials_are_built_in_canonical_order():
    # The solvers emit their unknowns in order, with no sort: every d^a x^b
    # of degree <= n, and the degree-n slice alone for the top solve.
    for n in range(feq.MAX_FULL_DEGREE + 1):
        every = [tuple(p for p in ((DEL, a), (LAM, b)) if p[1])
                 for a in range(n + 1) for b in range(n + 1 - a)]
        assert feq._monomials_up_to(n) == sorted(every, key=mono_sort_key)
        assert feq._homogeneous(n) == sorted(
            [m for m in every if mono_formal_degree(m) == n],
            key=mono_sort_key)


# -- full mode ----------------------------------------------------------------

def test_self_consistent_weight2_line():
    sols = feq.solve_feq(triple(2, 0, 2, 0, 2, 0), 1)
    assert sols.dimension == 1
    assert sols.basis[0] == D + 2 * X


def test_degree_zero_window_is_empty():
    assert feq.solve_feq(triple(2, 0, 2, 0, 2, 0), 0).dimension == 0


@pytest.mark.parametrize("shifts", [(0, 0, 1), (1, 1, 3), (2, -1, 0)])
def test_shift_mismatch_kills_solutions(shifts):
    sl, sr, so = shifts
    assert sl + sr != so
    t = triple(2, sl, 2, sr, 2, so)
    assert feq.solve_feq(t, 3).dimension == 0


def homogeneous(p, degree):
    """The formal-degree ``degree`` component of p."""
    return ParamPoly({m: c for m, c in p.items()
                      if mono_formal_degree(m) == degree})


def in_span(sols, poly):
    """Exact membership of poly in the solution space, by rank: adding its
    coordinates to the echelon rows must not raise the rank.  A monomial
    outside the coordinates (a parameter, too high a degree) is not in it."""
    column = {m: j for j, m in enumerate(sols.monomials)}
    if any(m not in column for m, _ in poly.items()):
        return False
    rows = [{j: v for j, v in enumerate(row) if v} for row in sols.echelon]
    rows.append({column[m]: c for m, c in poly.items()})
    reduced, _ = linalg.rref(rows, len(sols.monomials))
    return len(reduced) == sols.dimension


def test_top_residual_is_the_top_component_of_the_full_residual():
    polys = [D + 2 * X, D * D * X - 3 * X ** 3 + F(1, 2) * D, ParamPoly({(): 1}),
             D * X + X - 4]
    shifts = ((1, -2, F(1, 2)), (F(-3, 4), 0, 5), (0, 0, 1))
    for p in polys:
        n = p.formal_degree()
        p_top = homogeneous(p, n)
        for wl, wr, wo in ((2, 2, 2), (F(1, 3), 0, -1), (1, F(5, 2), 0)):
            top = feq.top_residual(p, F(wl), F(wr), F(wo))
            # the shifts and p's lower parts reach degree n at most, so the
            # residual's degree-(n + 1) part is the top equation at p's top
            for sl, sr, so in shifts:
                full = feq.feq_residual(p, triple(wl, sl, wr, sr, wo, so))
                assert homogeneous(full, n + 1) == feq.top_residual(
                    p_top, F(wl), F(wr), F(wo))
            # ((wl - 1) x - y) p(d, x+y) - p(d+x, y)(d + wo x)
            #     + (d + y + wr x) p(d, y), written out
            p_sum = p.substitute({"x": X + Y})
            p_shift = p.substitute({"x": Y}).substitute({"d": D + X})
            assert top == (((F(wl) - 1) * X - Y) * p_sum
                           - p_shift * (D + F(wo) * X)
                           + (D + Y + F(wr) * X) * p.substitute({"x": Y}))


def test_degree_guard():
    with pytest.raises(feq.DegreeGuardError):
        feq.solve_feq(triple(2, 0, 2, 0, 2, 0), 13)
    with pytest.raises(feq.DegreeGuardError):
        feq.solve_feq_top(F(2), F(2), F(2), 7)


def test_solution_degrees_match_weight_bookkeeping():
    cases = [triple(2, 0, 2, 0, 2, 0), triple(3, 0, 1, 0, 0, 0),
             triple(2, 1, 1, 1, 0, 2), triple(3, 1, 1, -1, 0, 0)]
    for t in cases:
        expected = t.weight_left + t.weight_right - t.weight_out - 1
        sols = feq.solve_feq(t, int(expected) + 1)
        assert sols.dimension >= 1
        for sol in sols.basis:
            assert sol.formal_degree() == expected


def test_leading_parts_lie_in_top_space():
    for t in (triple(2, 0, 2, 0, 2, 0), triple(3, 1, 1, -1, 0, 0),
              triple(2, 1, 1, 1, 0, 2)):
        degree = int(t.weight_left + t.weight_right - t.weight_out - 1)
        full = feq.solve_feq(t, degree)
        top = feq.solve_feq_top(t.weight_left, t.weight_right, t.weight_out,
                                degree)
        for sol in full.basis:
            assert in_span(top, homogeneous(sol, sol.formal_degree()))


def test_shift_rescaling_preserves_dimension():
    base = [(2, 1, 2, -1, 2, 0), (3, 1, 1, -1, 0, 0), (2, 1, 1, 1, 0, 2)]
    for values in base:
        wl, sl, wr, sr, wo, so = [F(v) for v in values]
        dim = feq.solve_feq(triple(wl, sl, wr, sr, wo, so), 4).dimension
        for scale in (F(2), F(-3), F(1, 2)):
            rescaled = triple(wl, sl * scale, wr, sr * scale, wo, so * scale)
            assert feq.solve_feq(rescaled, 4).dimension == dim


# -- the closed-form integer rows against the polynomial residual ----------------

#: Zero, negative and mixed-denominator weights and shifts.  (1, 0, 1, 0, 1, 0)
#: zeroes the (wl - 1) x term; at (2, 1, 3, 1, 4, 2), wl - 1 + wr = wo and
#: sl + sr = so, so the d^a y^b entry of every residual vanishes.
KERNEL_TRIPLES = [
    (2, 0, 2, 0, 2, 0),
    (0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 1, 0),
    (2, 1, 3, 1, 4, 2),
    (F(-3, 2), F(5, 7), F(1, 3), F(-2, 9), F(-5, 4), F(7, 6)),
    (F(7, 2), F(-9, 10), 5, F(-9, 5), F(13, 2), F(-27, 10)),
    (-1, F(1, 1000003), F(-6, 5), 0, F(2, 3), -4),
]

#: Weights of the top-degree equation (all shifts 0).
KERNEL_TOP_WEIGHTS = [
    (F(5, 3), F(5, 3), F(-2, 3)),
    (1, F(7, 4), F(-1, 4)),
    (0, 0, 0),
    (F(-1, 2), 3, F(2, 5)),
]


def kernel_residuals(monomials, constants):
    """Each column of ``integer_system`` as a polynomial, divided by L."""
    scale = lcm(*(F(c).denominator for c in constants))
    equations = feq.integer_system(monomials, triple(*constants))
    columns = [{} for _ in monomials]
    for exps, row in equations.items():
        mono = tuple((v, e) for v, e in zip("dxy", exps) if e)
        for j, value in row.items():
            assert value.__class__ is int and value != 0
            columns[j][mono] = F(value, scale)
    return [ParamPoly(col) for col in columns]


def unit(mono):
    return ParamPoly({mono: 1})


def assert_rows_are_the_residual(values, degree):
    monos = feq._monomials_up_to(degree)
    t = triple(*values)
    for mono, got in zip(monos, kernel_residuals(monos, values)):
        assert got == feq.feq_residual(unit(mono), t), mono


@pytest.mark.parametrize("values", KERNEL_TRIPLES)
def test_integer_rows_are_the_residual(values):
    assert_rows_are_the_residual(values, feq.MAX_FULL_DEGREE)


@pytest.mark.parametrize("weights", KERNEL_TOP_WEIGHTS)
def test_integer_rows_are_the_top_residual(weights):
    wl, wr, wo = weights
    monos = feq._monomials_up_to(feq.MAX_FULL_DEGREE)
    got = kernel_residuals(monos, (wl, 0, wr, 0, wo, 0))
    for mono, column in zip(monos, got):
        assert column == feq.top_residual(unit(mono), F(wl), F(wr), F(wo))


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[small_rationals] * 6))
def test_integer_rows_property(values):
    assert_rows_are_the_residual(values, 5)


def reference_solve_feq(t, degree):
    """The system built from polynomial residuals of the unit monomials."""
    monos = feq._monomials_up_to(degree)
    equations = {}
    for j, mono in enumerate(monos):
        for eq, coef in feq.feq_residual(unit(mono), t).items():
            equations.setdefault(eq, {})[j] = coef
    kernel = linalg.nullspace(list(equations.values()), len(monos))
    echelon, _ = linalg.rref(
        [{c: v for c, v in enumerate(vec) if v} for vec in kernel], len(monos))
    return feq.SolutionBasis(tuple(monos), echelon)


# Two more with solutions: a factorizing triple, and one of dimension 2.
@pytest.mark.parametrize("values", KERNEL_TRIPLES + [(3, 1, 1, -1, 0, 0),
                                                     (1, 2, 1, -1, 0, 1)])
def test_solution_space_matches_the_polynomial_route(values):
    t = triple(*values)
    assert feq.solve_feq(t, 6) == reference_solve_feq(t, 6)


# -- top mode ------------------------------------------------------------------

def test_top_degree3_case():
    sols = feq.solve_feq_top(F(5, 3), F(5, 3), F(-2, 3), 3)
    assert sols.dimension == 1
    assert sols.basis[0] == parse("d^3 + 3/2*d^2*x - 3/2*d*x^2 - x^3")


def test_top_weight1_linear_case():
    sols = feq.solve_feq_top(F(1), F(2), F(1), 1)
    assert sols.dimension == 1
    assert sols.basis[0] == X


def test_top_zero_out_degree3():
    sols = feq.solve_feq_top(F(3), F(1), F(0), 3)
    assert sols.dimension == 1
    assert sols.basis[0] == parse("d^3 + 3/2*d^2*x + 1/2*d*x^2")


# -- the printed solution tables --------------------------------------------------

def test_tables_reproduce():
    results = feq.reproduce_tables()
    failed = [r.case.label for r in results if not r.passed]
    assert not failed, failed
    positives = [r for r in results if r.case.expected is not None]
    assert len(positives) == 14
    assert all(r.dimension == 1 for r in positives)


def test_tables_split():
    results = feq.reproduce_tables()
    nonzero = [r for r in results if r.case.weight_out != 0]
    zero = [r for r in results if r.case.weight_out == 0]
    assert (len(nonzero), len(zero)) == (12, 8)
    assert all(r.passed for r in nonzero)
    assert all(r.passed for r in zero)


def test_table_weight_out_honors_the_degree_relation():
    for case in feq.TABLE_CASES:
        assert case.weight_out == (case.weight_left + case.weight_right
                                   - case.degree - 1)
        assert type(case.weight_out) is F


def test_table_strings_are_canonical_monic():
    # reproduce_tables compares printed solutions with these strings, which
    # equals comparing polynomials only because each string is its own
    # canonical monic form
    for case in feq.TABLE_CASES:
        if case.expected is not None:
            assert str(parse(case.expected).monic()) == case.expected


# -- factorization at weight_out = 0 ------------------------------------------------

FACTOR_TRIPLES = [
    (3, 0, 1, 0, 0, 0),
    (1, 0, 3, 0, 0, 0),
    (3, 1, 1, -1, 0, 0),
    (1, 1, 2, 1, 0, 2),
    (2, 1, 1, 1, 0, 2),
    (2, 0, 0, 1, 0, 1),
    (2, -1, 0, 3, 0, 2),
    (3, 2, 0, -2, 0, 0),
]


@pytest.mark.parametrize("values", FACTOR_TRIPLES)
def test_factorization_property(values):
    t = triple(*values)
    degree = int(t.weight_left + t.weight_right - 1)
    sols = feq.solve_feq(t, degree)
    assert sols.dimension >= 1, values
    for sol in sols.basis:
        assert sol.formal_degree() >= 1
        quotient = sol.exact_divide(D + t.shift_out)
        assert not feq.feq_residual(quotient, replace(t, weight_out=F(1)))
        assert quotient * (D + t.shift_out) == sol


def test_double_weight1_breaks_factorization():
    # at weights (1, 1, 0) the solution space gains an affine solution that
    # the shift factor does not divide; the check reports it faithfully
    t = triple(1, 2, 1, -1, 0, 1)
    sols = feq.solve_feq(t, 1)
    assert sols.dimension == 2
    strays = []
    for sol in sols.basis:
        try:
            sol.exact_divide(D + t.shift_out)
        except NotDivisibleError as exc:
            assert "not divisible" in str(exc)
            strays.append(sol)
    assert len(strays) == 1


# -- solution-space plumbing ----------------------------------------------------------

def test_contains_rejects_foreign_polynomials():
    sols = feq.solve_feq(triple(2, 0, 2, 0, 2, 0), 1)
    assert in_span(sols, D + 2 * X)
    assert in_span(sols, 2 * D + 4 * X)
    assert not in_span(sols, D + X)
    assert not in_span(sols, D ** 5)
    assert not in_span(sols, ParamPoly.variable("s"))


def test_echelon_hash_is_reproducible():
    a = feq.solve_feq(triple(2, 0, 2, 0, 2, 0), 3)
    b = feq.solve_feq(triple(2, 0, 2, 0, 2, 0), 3)
    assert a.echelon_hash() == b.echelon_hash()
    c = feq.solve_feq(triple(2, 0, 2, 0, 2, 1), 3)
    assert a.echelon_hash() != c.echelon_hash()


# -- cross-module: family structure polynomials solve their own equation ----------------

@pytest.mark.parametrize("name,alg,bindings", [
    ("Vir", families.make_vir(), {}),
    ("V", families.make_v("s", range(-3, 4)), {"s": F(1)}),
    ("CL1", families.make_cl1("s", 3), {"s": F(1)}),
    ("CL2", families.make_cl2("b", "s", range(-3, 4)),
     {"b": F(1, 2), "s": F(1)}),
    ("SCL2", families.make_scl2(F(1), "s", range(-4, 5)), {"s": F(1)}),
])
def test_family_entries_solve_their_equation(name, alg, bindings):
    inst = alg.instantiate(bindings)
    data = spectral_data(inst)
    grades = sorted(inst.window)
    checked = 0
    for i in grades:
        for j in grades:
            if i + j not in inst.window:
                continue
            u = inst.graded[i]
            v = inst.graded[j]
            poly = inst.entry(u, v).get(inst.graded[i + j])
            if poly is None:
                continue
            li, lj, lo = data.lines[i], data.lines[j], data.lines[i + j]
            t = feq.SpectralTriple(li.weight, li.shift, lj.weight, lj.shift,
                                   lo.weight, lo.shift)
            degree = int(poly.formal_degree())
            assert in_span(feq.solve_feq(t, degree), poly), (name, i, j)
            checked += 1
    assert checked > 0
