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
round-trips on the nose.  A2(b) and the bracket of ``s_bracket`` are each one
formula in the grades, handed to ``conformal.graded_table``; A1 is not
written separately, since A1 = A2(1) on the grades >= -1, and ``make_a1``
builds it so.

The law checks work over basis positions.  Each check numbers the sorted
basis once and reads a table as ``rows[i][j]``: a tuple of (position,
coefficient) pairs, or None where undecidable.  A law is a signed sum of
composites such as (x o y) o z, each memoised by its position triple for the
length of one check call, so a composite shared by several laws is computed
once.  A law is skipped at its first undecidable part, before any arithmetic,
and positions become basis elements again only in a reported violation.

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
from functools import cache
from typing import Iterable, Optional, Sequence

from .conformal import (ConformalAlgebra, GeneratorId, StructureTable,
                        graded_generators, graded_table)
from .poly import DEL, LAM, D, X, Mono, ParamPoly, as_poly, param

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
                        v: GeneratorId, w: GeneratorId, coef: ParamPoly) -> None:
    """The GD coefficient rule: a scalar in the parameters only."""
    if not coef.is_formal_constant():
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


# -- combination arithmetic ---------------------------------------------------

def _add(a: Combination, b: Combination, sign: int = 1) -> Combination:
    out = dict(a)
    for g, coef in b.items():
        out[g] = out.get(g, ParamPoly.zero()) + (coef if sign > 0 else -coef)
    return {g: c for g, c in out.items() if c}


#: A table entry over basis positions: (position, coefficient) pairs, or None
#: when the entry is undecidable.
Entry = Optional[tuple[tuple[int, ParamPoly], ...]]


def _positions(table: StructureTable) -> list[list[Entry]]:
    """The table as rows[i][j], i and j positions in the sorted basis."""
    index = {g: k for k, g in enumerate(table.basis)}
    rows: list[list[Entry]] = [[None] * len(index) for _ in index]
    for (u, v), combo in table._table.items():
        rows[index[u]][index[v]] = tuple((index[w], c)
                                         for w, c in combo.items())
    return rows


def _extend(combo: Entry, line: Sequence[Entry]) -> Entry:
    """Sum of coef * line[t] over a combination; None when a needed entry is.

    ``line`` is a row of a table (a fixed left factor) or a column (a fixed
    right factor), so one helper extends a product on either side.
    """
    if combo is None:
        return None
    acc: dict[int, ParamPoly] = {}
    for t, coef in combo:
        got = line[t]
        if got is None:
            return None
        for w, k in got:
            acc[w] = acc[w] + coef * k if w in acc else coef * k
    return tuple((w, c) for w, c in acc.items() if c)


def _composites(inner: list[list[Entry]], outer: list[list[Entry]]):
    """outer(inner(x, y), z) and outer(x, inner(y, z)), memoised by positions.

    The memo lives as long as the two functions, that is one check call.
    """
    columns = list(zip(*outer))

    @cache
    def right(x: int, y: int, z: int) -> Entry:
        return _extend(inner[x][y], columns[z])

    @cache
    def left(x: int, y: int, z: int) -> Entry:
        return _extend(inner[y][z], outer[x])

    return right, left


# -- law checks ----------------------------------------------------------------

@dataclass(frozen=True)
class LawViolation:
    law: str
    elements: tuple[GeneratorId, ...]
    residual: tuple[tuple[GeneratorId, ParamPoly], ...]


@dataclass(frozen=True)
class LawReport:
    checked: int
    skipped: int
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _signed_sum(parts) -> Optional[dict[int, ParamPoly]]:
    """The sum of sign * part(*positions) over the parts of one law.

    None at the first undecidable part, before any arithmetic is done.
    """
    values = []
    for sign, part, positions in parts:
        value = part(*positions)
        if value is None:
            return None
        values.append((sign, value))
    acc: dict[int, ParamPoly] = {}
    for sign, value in values:
        for w, coef in value:
            coef = coef if sign > 0 else -coef
            acc[w] = acc[w] + coef if w in acc else coef
    return {w: c for w, c in acc.items() if c}


def _scan(basis: tuple[GeneratorId, ...], laws) -> LawReport:
    """Tally ``(positions, law, parts)`` laws; see ``_signed_sum``."""
    checked = skipped = 0
    violations: list[LawViolation] = []
    for positions, law, parts in laws:
        residual = _signed_sum(parts)
        if residual is None:
            skipped += 1
            continue
        checked += 1
        if residual:
            violations.append(LawViolation(
                law, tuple(basis[p] for p in positions),
                tuple((basis[w], c) for w, c in sorted(residual.items()))))
    return LawReport(checked, skipped, tuple(violations))


def check_novikov(nov: NovikovAlgebra) -> LawReport:
    """Left-symmetry and right-commutativity over all decidable triples.

        (a o b) o c - a o (b o c) = (b o a) o c - b o (a o c)
        (a o b) o c = (a o c) o b

    Each law is a signed sum of the memoised composites (x o y) o z and
    x o (y o z), so every triple's two composites are computed once.
    """
    rows = _positions(nov)
    right, left = _composites(rows, rows)

    def laws():
        for a, b, c in itertools.product(range(len(rows)), repeat=3):
            abc, bac = (a, b, c), (b, a, c)
            yield abc, "left-symmetry", ((1, right, abc), (-1, left, abc),
                                         (-1, right, bac), (1, left, bac))
            yield abc, "right-commutativity", ((1, right, abc),
                                               (-1, right, (a, c, b)))

    return _scan(nov.basis, laws())


def check_lie(lie: LieStructure) -> LawReport:
    """Antisymmetry on pairs and the Jacobi identity on triples.

    The three cyclic terms [[a, b], c] of a Jacobi law are one memoised
    composite read at three rotations of the triple.
    """
    rows = _positions(lie)
    right, _ = _composites(rows, rows)

    def entry(x: int, y: int) -> Entry:
        return rows[x][y]

    def laws():
        for a, b in itertools.product(range(len(rows)), repeat=2):
            yield (a, b), "antisymmetry", ((1, entry, (a, b)),
                                           (1, entry, (b, a)))
        for a, b, c in itertools.product(range(len(rows)), repeat=3):
            yield (a, b, c), "jacobi", ((1, right, (a, b, c)),
                                        (1, right, (b, c, a)),
                                        (1, right, (c, a, b)))

    return _scan(lie.basis, laws())


def check_gd(g: GDAlgebra) -> LawReport:
    """The five-term compatibility between the product and the bracket:

        [a o b, c] - [a o c, b] + [a, b] o c - [a, c] o b - a o [b, c] = 0

    The terms come from three memoised composites: [x o y, z], [x, y] o z
    and x o [y, z].
    """
    nov, lie = _positions(g.nov), _positions(g.lie)
    bracket_of_product, _ = _composites(nov, lie)
    product_of_bracket, product_by_bracket = _composites(lie, nov)

    def laws():
        for a, b, c in itertools.product(range(len(nov)), repeat=3):
            abc, acb = (a, b, c), (a, c, b)
            yield abc, "compatibility", (
                (1, bracket_of_product, abc), (-1, bracket_of_product, acb),
                (1, product_of_bracket, abc), (-1, product_of_bracket, acb),
                (-1, product_by_bracket, abc))

    return _scan(g.basis, laws())


# -- truncated families ---------------------------------------------------------

def _a1_window(top: int) -> range:
    """The grades -1..top of A1."""
    if top < -1:
        raise ValueError("window top must be at least -1")
    return range(-1, top + 1)


def make_a1(top: int) -> NovikovAlgebra:
    """Truncation of the Novikov algebra L_i o L_j = (j+1) L_{i+j}, i, j >= -1."""
    return make_a2(1, _a1_window(top))


def make_a2(b, window: Iterable[int]) -> NovikovAlgebra:
    """Truncation of L_i o L_j = (j + b) L_{i+j} on integer grades."""
    b = param(b) if isinstance(b, str) else as_poly(b)
    gens = graded_generators(window)
    return NovikovAlgebra(gens.values(), graded_table(gens, lambda i, j: j + b))


def make_a3(b, window: Iterable[int], depth: int) -> NovikovAlgebra:
    """Truncation of the two-index family on grades x {0..depth}:

        L_(i,m) o L_(j,n) = (j + b) L_(i+j, m+n) + n L_(i+j, m+n-1)
    """
    b = param(b) if isinstance(b, str) else as_poly(b)
    grades = sorted(set(window))
    basis = {(i, m): GeneratorId(i, f"L{i}_{m}")
             for i in grades for m in range(depth + 1)}
    table = {}
    for (i, m), u in basis.items():
        for (j, n), v in basis.items():
            if i + j not in grades:
                continue
            combo: Combination = {}
            ok = True
            first = j + b
            if first:
                if (i + j, m + n) not in basis:
                    ok = False
                else:
                    combo[basis[(i + j, m + n)]] = first
            if ok and n:
                combo[basis[(i + j, m + n - 1)]] = as_poly(n)
            if ok:
                table[(u, v)] = combo
    return NovikovAlgebra(basis.values(), table)


def s_bracket(basis: Iterable[GeneratorId], s) -> LieStructure:
    """The bracket [L_i, L_j] = s (i - j) L_{i+j} on a one-per-grade basis."""
    s = param(s) if isinstance(s, str) else as_poly(s)
    elements = tuple(basis)
    gens = {g.grade: g for g in elements}
    if len(gens) != len(elements):
        raise ValueError("s_bracket requires one basis element per grade")
    return LieStructure(gens.values(),
                        graded_table(gens, lambda i, j: s * (i - j)))


def gd_a1(s, top: int) -> GDAlgebra:
    """A1 with the bracket of s_bracket, that is gd_a2(1, s) on grades >= -1."""
    return gd_a2(1, s, _a1_window(top))


def gd_a2(b, s, window: Iterable[int]) -> GDAlgebra:
    nov = make_a2(b, window)
    return GDAlgebra(nov, s_bracket(nov.basis, s))


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
    d_mono: Mono = ((DEL, 1),)
    x_mono: Mono = ((LAM, 1),)
    alphas: dict[tuple[GeneratorId, GeneratorId], Combination] = {}
    betas: dict[tuple[GeneratorId, GeneratorId], Combination] = {}
    gammas: dict[tuple[GeneratorId, GeneratorId], Combination] = {}
    for u in alg.generators:
        for v in alg.generators:
            if u.grade + v.grade not in alg.window:
                continue
            alpha: Combination = {}
            beta: Combination = {}
            gamma: Combination = {}
            for w, poly in sorted(alg.structure(u, v).items()):
                parts = poly.formal_coefficients()
                if set(parts) - {(), d_mono, x_mono}:
                    raise NotQuadraticError((u, v), poly)
                if parts.get(d_mono):
                    alpha[w] = parts[d_mono]
                if parts.get(x_mono):
                    beta[w] = parts[x_mono]
                if parts.get(()):
                    gamma[w] = parts[()]
            alphas[(u, v)] = alpha
            betas[(u, v)] = beta
            gammas[(u, v)] = gamma
    circ = {}
    lie = {}
    for (u, v), alpha in alphas.items():
        # [u_x v] = d (v o u) + ...: the pair's d-part defines (v o u).
        circ[(v, u)] = alpha
        lie[(v, u)] = gammas[(u, v)]
        expected = _add(alpha, alphas[(v, u)])
        if _add(betas[(u, v)], expected, -1):
            raise InconsistentStarError((u, v))
    return GDAlgebra(NovikovAlgebra(alg.generators, circ),
                     LieStructure(alg.generators, lie))
