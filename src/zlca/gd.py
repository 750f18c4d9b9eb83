"""Novikov algebras, Lie structures and Gel'fand-Dorfman algebras.

Both structures share one finite basis of named (graded) elements and a
binary table mapping ``(u, v)`` to a finite combination of basis elements
with coefficients in Q[params] (no formal variables).  Both are
``conformal.StructureTable``, the table type of the conformal side, and add
only that coefficient rule.  Table presence is explicit: a stored key is a
decidable product (possibly zero, stored as an empty combination), a missing
key is undecidable at this truncation.  The family constructors store exactly
the pairs whose target grade lies in the window, matching the window
semantics of the conformal side so the quadratic-algebra correspondence
round-trips on the nose.  ``gd_a2`` builds the product of A2(b) and its
bracket s (i - j) as one formula each in the grades, handed to
``conformal.graded_table`` on one set of generators; A1 is not written
separately, since A1 = A2(1) on the grades >= -1, and ``gd_a1`` builds it so.

The law checks run on the law engine of ``conformal``, each with one
``poly.Packing`` (``check_gd`` one for both tables) and one ``PairCount``,
and return its ``LawReport`` of ``LawViolation``s (``LawViolation`` is
importable from here too).
A law is a signed sum of composites such as (x o y) o z, each memoised by
its position triple for one check call, so a composite shared by several
laws is computed once.  Only the laws whose every composite is decidable
are handed to ``_decide``, each with its ``_signed_sum`` residual; the
others are counted as skipped and cost no arithmetic.

The correspondence with quadratic Lie conformal algebras:

    [a_x b] = d (b o a) + [b, a] + x (a o b + b o a)

``quadratic_from_gd`` expands the right side into a structure table (after
verifying the Novikov, Lie and compatibility laws) and ``gd_from_quadratic``
inverts it, reading the product off the d-coefficients and the bracket off
the constant terms while checking the x-coefficients for consistency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable, Mapping

from .conformal import (ConformalAlgebra, GeneratorId, LawReport,
                        LawViolation, PairCount, StructureTable, _bits,
                        _decidable, _decide, _extend, _flat, _packing,
                        _signed_sum, graded_generators, graded_table,
                        half_line)
from .poly import (FORMAL_VARS, D, X, Packed, Packing, ParamPoly, Scalar,
                   as_poly, param)

Combination = dict[GeneratorId, ParamPoly]


class NotGDError(ValueError):
    """The input fails the Novikov, Lie or compatibility laws."""


class NotQuadraticError(ValueError):
    """A structure polynomial is not affine in d and x."""

    def __init__(self, pair: tuple[GeneratorId, GeneratorId], poly: ParamPoly):
        super().__init__(f"bracket ({pair[0].name}, {pair[1].name}) is not "
                         f"affine: {poly}")
        self.pair = pair
        self.poly = poly


class InconsistentStarError(ValueError):
    """An x-coefficient disagrees with the symmetrized product."""

    def __init__(self, pair: tuple[GeneratorId, GeneratorId]):
        super().__init__(f"x-coefficient of ({pair[0].name}, {pair[1].name}) "
                         f"does not match the symmetrized product")
        self.pair = pair


def _structure_constant(table: StructureTable, u: GeneratorId,
                        v: GeneratorId, w: GeneratorId,
                        names: frozenset[str]) -> None:
    """The GD coefficient rule: a scalar in the parameters only."""
    if not names.isdisjoint(FORMAL_VARS):
        raise ValueError("structure constants must be free of d, x, y")


class NovikovAlgebra(StructureTable):
    """A bilinear product intended to satisfy the Novikov laws."""

    _check = _structure_constant
    product = StructureTable.entry


class LieStructure(StructureTable):
    """A bilinear bracket intended to satisfy antisymmetry and Jacobi."""

    _check = _structure_constant
    bracket = StructureTable.entry


@dataclass(frozen=True)
class GDAlgebra:
    """A Novikov product and a Lie bracket on one shared basis."""

    nov: NovikovAlgebra
    lie: LieStructure

    def __post_init__(self):
        if self.nov.basis != self.lie.basis:
            raise ValueError("product and bracket must share one basis")

    @property
    def basis(self) -> tuple[GeneratorId, ...]:
        return self.nov.basis

    @property
    def params(self) -> frozenset[str]:
        return self.nov.params | self.lie.params

    def instantiate(self, values: Mapping[str, Scalar]) -> "GDAlgebra":
        """Both tables with parameters bound to rationals."""
        return GDAlgebra(self.nov.instantiate(values),
                         self.lie.instantiate(values))


# -- combination arithmetic ---------------------------------------------------

def _add(a: Combination, b: Combination) -> Combination:
    out = dict(a)
    for g, coef in b.items():
        out[g] = out.get(g, ParamPoly.zero()) + coef
    return {g: c for g, c in out.items() if c}


def _positions(table: StructureTable, packing: Packing
               ) -> list[list[Packed | None]]:
    """The table as rows[i][j], i and j positions in the sorted basis, each
    entry one flat packed dict (``conformal._flat``, numerators over
    ``packing.den``) and None where the table stores no row."""
    index = table._position
    n = len(index)
    pack = packing.pack
    rows: list[list[Packed | None]] = [[None] * n for _ in index]
    for (u, v), combo in table._table.items():
        rows[index[u]][index[v]] = _flat(((index[w], pack(c))
                                          for w, c in combo.items()), n)
    return rows


def _composites(inner: list[list[Packed | None]],
                outer: list[list[Packed | None]], count: PairCount):
    """outer(inner(x, y), z) and outer(x, inner(y, z)), memoised by positions.

    The memo lives as long as the two functions, that is one check call, and
    their products spend term pairs from ``count``.  They compute only
    decidable composites (``conformal._decidable``).
    """
    n = len(inner)
    columns = list(zip(*outer))

    @cache
    def right(x: int, y: int, z: int) -> Packed:
        return _extend(inner[x][y], columns[z], n, count)

    @cache
    def left(x: int, y: int, z: int) -> Packed:
        return _extend(inner[y][z], outer[x], n, count)

    return right, left


# -- law checks ----------------------------------------------------------------
#
# Each check walks its laws in the order of the triples, and yields a law only
# when every composite in it is decidable, by the masks of
# ``conformal._decidable`` (bit z of right[x][y] for outer(inner(x, y), z),
# bit x of left[y][z] for outer(x, inner(y, z))).  A law it does not yield is
# skipped with no arithmetic spent on it.

def check_novikov(nov: NovikovAlgebra) -> LawReport:
    """Left-symmetry and right-commutativity over all decidable triples.

        (a o b) o c - a o (b o c) = (b o a) o c - b o (a o c)
        (a o b) o c = (a o c) o b

    Each law is a signed sum of the memoised composites (x o y) o z and
    x o (y o z), so every triple's two composites are computed once.
    """
    packing = _packing(nov)
    rows = _positions(nov, packing)
    n = len(rows)
    right, left = _composites(rows, rows, PairCount("the Novikov check"))
    is_right, is_left = _decidable(nov, nov)
    residual = partial(_signed_sum, nov.basis, packing)

    def laws():
        for a, b in itertools.product(range(n), repeat=2):
            for c in _bits(is_right[a][b]):
                if (is_left[b][c] >> a & 1 and is_right[b][a] >> c & 1
                        and is_left[a][c] >> b & 1):
                    yield (a, b, c), "left-symmetry", residual((
                        (1, right(a, b, c)), (-1, left(a, b, c)),
                        (-1, right(b, a, c)), (1, left(b, a, c))))
                if is_right[a][c] >> b & 1:
                    yield (a, b, c), "right-commutativity", residual((
                        (1, right(a, b, c)), (-1, right(a, c, b))))

    return _decide(laws(), 2 * n ** 3, nov.basis)


def check_lie(lie: LieStructure) -> LawReport:
    """Antisymmetry on pairs and the Jacobi identity on triples.

    The three cyclic terms [[a, b], c] of a Jacobi law are one memoised
    composite read at three rotations of the triple.  Antisymmetry sums
    single entries, whose numerators are over ``den``; its weight ``den``
    brings them over ``den**2`` like the composites.
    """
    packing = _packing(lie)
    rows = _positions(lie, packing)
    n = len(rows)
    right, _ = _composites(rows, rows, PairCount("the Lie check"))
    is_right, _ = _decidable(lie, lie)
    den = packing.den
    residual = partial(_signed_sum, lie.basis, packing)

    def laws():
        for a, b in itertools.product(range(n), repeat=2):
            if rows[a][b] is not None and rows[b][a] is not None:
                yield (a, b), "antisymmetry", residual(((den, rows[a][b]),
                                                        (den, rows[b][a])))
        for a, b in itertools.product(range(n), repeat=2):
            for c in _bits(is_right[a][b]):
                if is_right[b][c] >> a & 1 and is_right[c][a] >> b & 1:
                    yield (a, b, c), "jacobi", residual((
                        (1, right(a, b, c)), (1, right(b, c, a)),
                        (1, right(c, a, b))))

    return _decide(laws(), n ** 2 + n ** 3, lie.basis)


def check_gd(g: GDAlgebra) -> LawReport:
    """The five-term compatibility between the product and the bracket:

        [a o b, c] - [a o c, b] + [a, b] o c - [a, c] o b - a o [b, c] = 0

    The terms come from three memoised composites: [x o y, z], [x, y] o z
    and x o [y, z].  Both tables share one packing, so the composites of
    either order have one key layout and one ``den``.
    """
    packing = _packing(g.nov, g.lie)
    nov, lie = _positions(g.nov, packing), _positions(g.lie, packing)
    n = len(nov)
    count = PairCount("the compatibility check")
    bracket_of_product, _ = _composites(nov, lie, count)
    product_of_bracket, product_by_bracket = _composites(lie, nov, count)
    is_bp, _ = _decidable(g.nov, g.lie)
    is_pb, is_pxb = _decidable(g.lie, g.nov)
    residual = partial(_signed_sum, g.basis, packing)

    def laws():
        for a, b in itertools.product(range(n), repeat=2):
            for c in _bits(is_bp[a][b]):
                if (is_bp[a][c] >> b & 1 and is_pb[a][b] >> c & 1
                        and is_pb[a][c] >> b & 1 and is_pxb[b][c] >> a & 1):
                    yield (a, b, c), "compatibility", residual((
                        (1, bracket_of_product(a, b, c)),
                        (-1, bracket_of_product(a, c, b)),
                        (1, product_of_bracket(a, b, c)),
                        (-1, product_of_bracket(a, c, b)),
                        (-1, product_by_bracket(a, b, c))))

    return _decide(laws(), n ** 3, g.basis)


# -- truncated families ---------------------------------------------------------

def gd_a1(s, top: int) -> GDAlgebra:
    """A1 with the bracket s (i - j), that is gd_a2(1, s) on grades >= -1."""
    return gd_a2(1, s, half_line(top))


def gd_a2(b, s, window: Iterable[int]) -> GDAlgebra:
    """Truncation of L_i o L_j = (j + b) L_{i+j} with the bracket
    [L_i, L_j] = s (i - j) L_{i+j}, on the integer grades of ``window``."""
    b, s = (param(c) if isinstance(c, str) else as_poly(c) for c in (b, s))
    gens = graded_generators(window)
    return GDAlgebra(
        NovikovAlgebra(gens.values(), graded_table(gens, lambda i, j: j + b)),
        LieStructure(gens.values(),
                     graded_table(gens, lambda i, j: s * (i - j))))


# -- the quadratic correspondence ------------------------------------------------

def quadratic_from_gd(g: GDAlgebra) -> ConformalAlgebra:
    """The quadratic Lie conformal algebra of a Gel'fand-Dorfman algebra.

    The laws are enforced first (NotGDError on any decidable violation); the
    expansion then guarantees a Lie conformal algebra, which the test suite
    re-verifies rather than assumes.
    """
    for report, what in ((check_novikov(g.nov), "Novikov laws"),
                         (check_lie(g.lie), "Lie laws"),
                         (check_gd(g), "compatibility")):
        if report.violations:
            first = report.violations[0]
            names = ", ".join(e.name for e in first.elements)
            raise NotGDError(f"{what} fail ({first.law}) on ({names})")
    window = frozenset(b.grade for b in g.basis)
    table = {}
    for u in g.basis:
        for v in g.basis:
            if u.grade + v.grade not in window:
                continue
            vu = g.nov.product(v, u)
            uv = g.nov.product(u, v)
            bracket = g.lie.bracket(v, u)
            if vu is None or uv is None or bracket is None:
                raise ValueError(
                    f"pair ({u.name}, {v.name}) lands in the window but the "
                    f"product or bracket is undecidable")
            entry: Combination = {}
            for w in set(vu) | set(uv) | set(bracket):
                alpha = vu.get(w, ParamPoly.zero())
                beta = uv.get(w, ParamPoly.zero()) + alpha
                gamma = bracket.get(w, ParamPoly.zero())
                poly = alpha * D + beta * X + gamma
                if poly:
                    entry[w] = poly
            table[(u, v)] = entry
    return ConformalAlgebra(g.basis, table)


def gd_from_quadratic(alg: ConformalAlgebra) -> GDAlgebra:
    """Recover the Gel'fand-Dorfman algebra of a quadratic conformal algebra.

    Every structure polynomial must be affine, u*d + v*x + w with scalar
    coefficients per target; the d-coefficients give the (transposed) product,
    the constant terms the (transposed) bracket, and the x-coefficients are
    checked against the symmetrized product (InconsistentStarError).
    """
    # decidable pair -> its (d, x, constant) parts per target; every pair is
    # split (NotQuadraticError) before any star consistency is checked.
    split: dict[tuple[GeneratorId, GeneratorId],
                tuple[Combination, Combination, Combination]] = {}
    for u, v in alg.pairs():
        combos: tuple[Combination, Combination, Combination] = ({}, {}, {})
        for w, poly in sorted(alg.entry(u, v).items()):
            parts = poly.affine_parts()
            if parts is None:
                raise NotQuadraticError((u, v), poly)
            for combo, part in zip(combos, parts):
                if part:
                    combo[w] = part
        split[(u, v)] = combos
    circ = {}
    lie = {}
    for (u, v), (alpha, beta, gamma) in split.items():
        # [u_x v] = d (v o u) + ...: the pair's d-part defines (v o u).
        circ[(v, u)] = alpha
        lie[(v, u)] = gamma
        if beta != _add(alpha, split[(v, u)][0]):
            raise InconsistentStarError((u, v))
    return GDAlgebra(NovikovAlgebra(alg.generators, circ),
                     LieStructure(alg.generators, lie))
