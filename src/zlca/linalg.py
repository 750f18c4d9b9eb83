"""Exact linear algebra over Q: sparse integer Gauss-Jordan elimination.

A matrix is a sequence of sparse rows, each a mapping from column index to a
nonzero rational value (``int`` or ``Fraction``); absent columns are zero.
The systems this package solves are large and almost empty (a degree-12
functional equation gives about 500 x 91 equations with some 3 % of the
entries nonzero), so elimination only ever touches the nonzero entries.

Each row is scaled to a primitive integer row: denominators are cleared and
the content gcd is divided out.  Pivot columns are taken left to right.  The
rows that lead in the current column are the candidates; the shortest one
becomes the pivot row, every other candidate is combined with it over the
integers (and made primitive again), and every earlier pivot row with an entry
in the column is back-reduced the same way.  Rows with no entry in the column
are not touched.  Only at the end is each pivot row divided by its pivot,
which is the one step that forms ``Fraction`` values.

The reduced row echelon form of a matrix is unique: its pivot columns are
those that are not linear combinations of the columns before them, and each
row is fixed by having 1 at its own pivot and 0 at every other.  So the result
depends neither on the row order nor on the choice of pivot rows, and it is
the same as that of any other exact elimination.  Nullspace bases come from
the standard free-column parametrization of the RREF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

Value = Union[int, Fraction]
Matrix = Sequence[Mapping[int, Value]]

_ZERO = Fraction(0)


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


def rref(matrix: Matrix, ncols: int
         ) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over Q: dense rows and pivot columns."""
    leading: dict[int, list[dict[int, int]]] = {}
    for row in matrix:
        row = _integer_row(row)
        if row:
            leading.setdefault(min(row), []).append(row)
    pivot_rows: list[dict[int, int]] = []
    for col in range(ncols):
        candidates = leading.pop(col, None)
        if candidates is None:
            continue
        pivot = min(candidates, key=len)
        for row in candidates:
            if row is not pivot:
                row = _eliminate(row, pivot, col)
                if row:
                    leading.setdefault(min(row), []).append(row)
        pivot_rows = [_eliminate(prow, pivot, col) if col in prow else prow
                      for prow in pivot_rows]
        pivot_rows.append(pivot)
    echelon = []
    pivots = []
    for prow in pivot_rows:
        col = min(prow)
        lead = prow[col]
        dense = [_ZERO] * ncols
        for c, v in prow.items():
            dense[c] = Fraction(v, lead)
        echelon.append(tuple(dense))
        pivots.append(col)
    return tuple(echelon), tuple(pivots)


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
