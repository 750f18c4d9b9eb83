"""Sparse exact elimination against a dense reference and against sympy."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlca import feq, linalg
from zlca.poly import ParamPoly


def reference_rref(dense, ncols):
    """Textbook Gauss-Jordan over Fraction on a dense copy of the matrix."""
    rows = [[F(v) for v in row] for row in dense]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def reference_nullspace(dense, ncols):
    reduced, pivots = reference_rref(dense, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [F(0)] * ncols
            vec[f] = F(1)
            for row, p in zip(reduced, pivots):
                vec[p] = -row[f]
            basis.append(tuple(vec))
    return basis


def sparse(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def check_against_reference(dense, ncols):
    rows = sparse(dense)
    assert linalg.rref(rows, ncols) == reference_rref(dense, ncols)
    kernel = linalg.nullspace(rows, ncols)
    assert kernel == reference_nullspace(dense, ncols)
    for vec in kernel:
        for row in dense:
            assert sum(a * b for a, b in zip(row, vec)) == 0


entries = st.one_of(
    st.just(F(0)), st.just(F(0)), st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-40, 40), st.integers(1, 12)))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(0, 7))
    nrows = draw(st.integers(0, 9))
    dense = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    # Rank deficiency: some rows are combinations or copies of earlier ones.
    for i in range(1, nrows):
        if draw(st.booleans()):
            j = draw(st.integers(0, i - 1))
            k = draw(st.integers(0, i - 1))
            a, b = draw(entries), draw(entries)
            dense[i] = [a * x + b * y for x, y in zip(dense[j], dense[k])]
    return dense, ncols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_and_nullspace_match_dense_reference(case):
    check_against_reference(*case)


@pytest.mark.parametrize("dense, ncols", [
    ([], 0),
    ([], 3),
    ([[F(0)] * 4] * 3, 4),
    ([[], [], []], 0),
    ([[F(1), F(2)], [F(3), F(4)], [F(5), F(6)], [F(7), F(9)]], 2),
    ([[F(2), F(-4), F(6)], [F(2), F(-4), F(6)], [F(-1), F(2), F(-3)]], 3),
    ([[F(1, 2), F(-3, 4), F(0), F(5, 6)], [F(0), F(0), F(-7, 3), F(1, 9)],
      [F(1, 2), F(-3, 4), F(-7, 3), F(17, 18)]], 4),
    ([[F(0), F(0), F(-5)], [F(0), F(3, 7), F(1)]], 3),
])
def test_edge_cases(dense, ncols):
    check_against_reference(dense, ncols)


def test_zero_matrix_has_full_kernel():
    assert linalg.rref([{}, {}], 3) == ((), ())
    assert linalg.nullspace([{}, {}], 3) == [
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]


def test_integer_and_fraction_values_agree():
    ints = [{0: 2, 2: -4}, {1: 3, 2: 6}]
    fracs = [{c: F(v) for c, v in row.items()} for row in ints]
    assert linalg.rref(ints, 3) == linalg.rref(fracs, 3)
    assert linalg.rref(ints, 3) == (((F(1), F(0), F(-2)),
                                     (F(0), F(1), F(2))), (0, 1))


def test_row_order_does_not_matter():
    rows = [{0: F(1), 3: F(2)}, {1: F(-1, 2), 2: F(4)}, {0: F(3), 1: F(1)},
            {2: F(5), 3: F(-7, 3)}]
    assert linalg.rref(rows, 4) == linalg.rref(rows[::-1], 4)


# -- sympy cross-check on the degree-12 functional-equation systems ------------

TRIPLES = {
    # weight_out = 0: the solutions carry the factor d + shift_out
    "zero-out": feq.SpectralTriple(3, 1, 1, -1, 0, 0),
    # the CL2 family pair with b = 1/3, s = 1/2 at grades 1 and 2
    "family": feq.SpectralTriple(5, F(-3, 2), 8, -3, 11, F(-9, 2)),
    "generic": feq.SpectralTriple(F(7, 3), F(1, 5), F(-2, 9), F(3, 4),
                                  F(5, 2), F(-1, 6)),
}


def feq_system(triple, degree):
    monomials = feq._monomials_up_to(degree)
    equations = {}
    for j, mono in enumerate(monomials):
        residual = feq.feq_residual(ParamPoly({mono: 1}), triple)
        for eq, coef in residual.items():
            equations.setdefault(eq, {})[j] = coef
    return list(equations.values()), len(monomials)


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_degree12_systems_match_sympy(name):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows, ncols = feq_system(TRIPLES[name], 12)
    assert ncols == 91 and len(rows) > 400
    matrix = DomainMatrix(
        {i: {c: QQ(v.numerator, v.denominator) for c, v in row.items()}
         for i, row in enumerate(rows)}, (len(rows), ncols), QQ)
    expected, expected_pivots = matrix.rref()
    dense = expected.to_Matrix()
    reduced, pivots = linalg.rref(rows, ncols)
    assert pivots == tuple(expected_pivots)
    assert [[F(int(v.p), int(v.q)) for v in dense.row(i)]
            for i in range(len(pivots))] == [list(r) for r in reduced]
    assert expected.rank() == len(pivots)
    kernel = linalg.nullspace(rows, ncols)
    assert len(kernel) == ncols - len(pivots)
    assert len(kernel) == feq.solve_feq(TRIPLES[name], 12).dimension


# -- the peel of one-entry rows --------------------------------------------------


def dense_of(rows, ncols):
    return [[F(row.get(c, 0)) for c in range(ncols)] for row in rows]


def check_peel(rows, ncols, peeled):
    """The matrix matches the reference, and the peel settles ``peeled``."""
    check_against_reference(dense_of(rows, ncols), ncols)
    columns, survivors = linalg._peel(rows, ncols)
    assert columns == set(peeled)
    assert all(len(row) > 1 and not set(row) & columns for row in survivors)


@pytest.mark.parametrize("rows, ncols, peeled", [
    # a chain: each deletion leaves the next row with one entry
    ([{3: F(1, 2), 4: 7}, {1: -1, 2: 5}, {0: 2, 1: 3}, {0: 1},
      {2: 4, 3: F(-1, 3)}, {4: 1, 5: 1, 6: -2}], 7, [0, 1, 2, 3, 4]),
    # a row that the peel empties, beside two that survive
    ([{0: 1}, {1: -3}, {0: 3, 1: -2}, {2: 1, 3: 1}, {2: 2, 3: 5}], 4,
     [0, 1]),
    # every column peeled: the RREF is the identity
    ([{0: 2, 1: 1, 2: 1}, {0: 1, 1: F(1, 2)}, {0: -4}], 3, [0, 1, 2]),
    # no one-entry row at all: elimination alone
    ([{0: 1, 1: 2}, {1: 1, 2: 1}, {0: 1, 2: 1}, {2: 3, 3: -1}], 4, []),
    # peeled unit rows at 1 and 3 between the survivors' pivots at 0 and 2
    ([{1: 5}, {3: F(-1, 2)}, {0: 1, 1: 2, 2: 3, 4: 1},
      {0: 2, 2: 1, 3: 4, 4: -1}, {2: 1, 1: 9, 4: 1, 5: 2}], 6, [1, 3]),
], ids=["chain", "emptied", "all-peeled", "no-unit-row", "interleaved"])
def test_peel_cases(rows, ncols, peeled):
    check_peel(rows, ncols, peeled)


def test_rref_leaves_the_callers_rows_unchanged():
    rows = [{0: 1}, {0: F(2, 3), 1: 3}, {1: -1, 2: 5, 3: 1}, {2: 4, 3: 4}]
    before = [dict(row) for row in rows]
    linalg.rref(rows, 4)
    linalg.nullspace(rows, 4)
    assert rows == before


@pytest.mark.parametrize("rows", [[{0: 0}, {1: 1}], [{0: F(0), 1: 2}]],
                         ids=["one-entry", "fraction"])
def test_a_stored_zero_is_refused(rows):
    # A stored zero is no entry: peeled as one, {0: 0} would force column 0
    # to zero, and the kernel e_0 would be lost.
    for solve in (linalg.rref, linalg.nullspace):
        with pytest.raises(ValueError, match="zero value"):
            solve(rows, 2)


@pytest.mark.parametrize("rows", [[{3: 1}], [{-1: 1}], [{0: 1, -1: 2}]],
                         ids=["past-the-end", "negative", "negative-pair"])
def test_a_column_outside_the_matrix_is_refused(rows):
    # A negative column would index the dense rows from the end.
    for solve in (linalg.rref, linalg.nullspace):
        with pytest.raises(ValueError, match="column outside 0..2"):
            solve(rows, 3)


nonzero = st.one_of(st.integers(-9, 9).filter(bool),
                    st.builds(F, st.integers(1, 40), st.integers(1, 12)),
                    st.builds(F, st.integers(-40, -1), st.integers(1, 12)))


@st.composite
def short_rows(draw):
    """Sparse matrices of mostly one- and two-entry rows, which the peel
    settles in chains, with now and then a longer row."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        size = draw(st.sampled_from((1, 1, 2, 2, 2, 3, 4)))
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1,
                             max_size=size, unique=True))
        rows.append({c: draw(nonzero) for c in cols})
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(short_rows())
def test_peel_heavy_matrices_match_dense_reference(case):
    rows, ncols = case
    check_against_reference(dense_of(rows, ncols), ncols)
