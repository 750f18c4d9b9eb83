"""Exact linear algebra over Q: a peel of the unit rows, then sparse integer
Gauss-Jordan elimination.

A matrix is a sequence of sparse rows, each a mapping from column index to a
nonzero rational value (``int`` or ``Fraction``); absent columns are zero.  A
row that stores a zero value, or a column outside 0..ncols-1, is refused with
``ValueError``.  The systems this package solves are large and almost empty (a
degree-12 functional equation gives about 500 x 91 equations with some 3 % of
the entries nonzero), so elimination only ever touches the nonzero entries.

The peel comes first and needs no arithmetic.  A row with one entry, at
column c, is a multiple of the unit row e_c, so column c is 0 in every kernel
vector: c becomes a pivot column with the unit row as its pivot row, and c is
dropped from every row that holds it.  A column-to-rows index finds those
rows and a count of the entries each row has left goes down; a row left with
one entry goes on a stack to be peeled in turn.  The caller's rows are not
changed.  On the functional-equation systems the peel settles almost every
column (85 to 91 of the 91 at degree 12).

What is left, the rows still nonempty less their peeled columns, goes to
one elimination pass; after the peel these systems are tiny (at most 21
rows by 7 columns on the functional-equation systems, and often none).  Each
survivor is scaled to a primitive integer row: denominators are cleared and
the content gcd is divided out.  It is reduced by the pivot rows found so
far, each combined with it over the integers (and made primitive again)
where it has an entry in that row's pivot column.  A row left nonempty
becomes a pivot row at its first column, and every earlier pivot row with
an entry there is back-reduced by it the same way.  The pivot rows stay zero
at each other's pivot columns and zero before their own.  Only at the end is
each pivot row divided by its pivot, which is the one step that forms
``Fraction`` values.

The reduced row echelon form of a matrix is unique: its pivot columns are
those that are not linear combinations of the columns before them, and each
row is fixed by having 1 at its own pivot and 0 at every other.  So the result
depends neither on the row order nor on the choice of pivot rows, and it is
the same as that of any other exact elimination.  The peel keeps it so.  A
peeled row less its entries at the columns peeled before it is a multiple of
e_c, so each e_c is in the row space; any other row less its entries at
peeled columns is a survivor (or empty).  So the row space is the direct sum
of span{e_c : c peeled} and the survivors' row space, and the survivors have
no entry in a peeled column.  A row of the survivors' reduced form is
therefore 0 at every peeled column, and a unit row is 0 at every other pivot
column: together, sorted by pivot column, they span the row space with 1 at
their own pivot and 0 at every other, which is the unique reduced form.
Nullspace bases come from the standard free-column parametrization of the
RREF.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

Value = Union[int, Fraction]
Matrix = Sequence[Mapping[int, Value]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries (an empty row stays empty)."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _integer_row(row: Mapping[int, Value]) -> dict[int, int]:
    """The row times the lcm of its denominators, made primitive."""
    scale = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (scale // v.denominator)
                       for c, v in row.items()})


def _eliminate(row: dict[int, int], pivot_row: dict[int, int],
               col: int) -> dict[int, int]:
    """An integer multiple of row minus one of pivot_row, zero at col."""
    a, b = pivot_row[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            del out[c]
    return _primitive(out)


def _peel(matrix: Matrix, ncols: int
          ) -> tuple[set[int], list[dict[int, Value]]]:
    """The columns that one-entry rows force to zero, and the rows that are
    nonempty without them; each of those has two entries or more."""
    holders: defaultdict[int, list[int]] = defaultdict(list)  # col -> rows
    size = []  # entries left in each row
    for i, row in enumerate(matrix):
        if 0 in row.values():
            raise ValueError("a sparse row stores a zero value")
        for c in row:
            holders[c].append(i)
        size.append(len(row))
    if holders and not (0 <= min(holders) and max(holders) < ncols):
        raise ValueError(f"a sparse row has a column outside 0..{ncols - 1}")
    stack = [i for i, n in enumerate(size) if n == 1]
    peeled: set[int] = set()
    while stack:
        i = stack.pop()
        if size[i] != 1:  # emptied since it was stacked
            continue
        col = next(c for c in matrix[i] if c not in peeled)
        peeled.add(col)
        for j in holders.pop(col):
            n = size[j] - 1
            size[j] = n
            if n == 1:
                stack.append(j)
    survivors = [{c: v for c, v in row.items() if c not in peeled}
                 for row, n in zip(matrix, size) if n]
    return peeled, survivors


def rref(matrix: Matrix, ncols: int
         ) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over Q: dense rows and pivot columns."""
    peeled, survivors = _peel(matrix, ncols)
    pivot_rows: list[tuple[int, dict[int, int]]] = []  # (pivot column, row)
    for row in survivors:
        row = _integer_row(row)
        for col, prow in pivot_rows:
            if col in row:
                row = _eliminate(row, prow, col)
        if row:
            col = min(row)
            pivot_rows = [(c, _eliminate(prow, row, col) if col in prow
                           else prow) for c, prow in pivot_rows]
            pivot_rows.append((col, row))
    echelon: dict[int, tuple[Fraction, ...]] = {}  # pivot column -> row
    for col in peeled:
        dense = [_ZERO] * ncols
        dense[col] = _ONE
        echelon[col] = tuple(dense)
    for col, prow in pivot_rows:
        lead = prow[col]
        dense = [_ZERO] * ncols
        for c, v in prow.items():
            dense[c] = Fraction(v, lead)
        echelon[col] = tuple(dense)
    pivots = sorted(echelon)
    return tuple(echelon[col] for col in pivots), tuple(pivots)


def nullspace(matrix: Matrix, ncols: int) -> list[tuple[Fraction, ...]]:
    """A basis of {v : M v = 0}, one vector per free column of the RREF."""
    reduced, pivots = rref(matrix, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis
