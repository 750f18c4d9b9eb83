"""Z-graded Lie conformal algebras with finitely many free generators.

An algebra is a list of generators (each a free rank-one direct summand at
its grade) and a structure table sending a pair of generators ``(u, v)`` to a
finite sum ``sum_w p^w_{u,v}(d, x) w`` over generators of grade
``u.grade + v.grade``.  Its window is the set of the generators' grades.
Brackets of arbitrary elements follow by sesquilinearity:

    [f(d)u_x g(d)v] = f(-x) g(d+x) [u_x v]

An ``Element`` has coefficients in d; ``bracket`` returns its value as
``{target: nonzero polynomial in d, x}``, the shape ``entry`` gives a
decidable generator pair.  It is the general route, and the tests' reference
for the ideal closure, which reads the rank-one table below instead.

Window semantics: the infinite families are truncated to a window.  A pair
whose target grade lies outside it is undecidable (absence of the grade
carries no information); a pair whose target grade lies inside it is
decidable, and the zero bracket when the input gives it no row.  Axiom
checks skip and count undecidable pairs and triples rather than failing them.

``StructureTable`` is the one validated table type; ``ConformalAlgebra``
and the Gel'fand-Dorfman structures of ``gd`` each add only a coefficient
rule (here a target at the sum grade and no ``y``; in ``gd`` no formal
variable).  One rule decides every pair of every table: a stored row is
decidable (an empty row is zero) and a missing row is not, and ``entry`` is
the one pair reader.  ``ConformalAlgebra`` applies the window semantics once,
when it is built: it stores a row, empty where the input has none, for
exactly the pairs whose target grade is in its window.

With one generator per grade (every family here) the table is the rank-one
table ``p_{i,j}(d, x)``, the coefficient of the grade-(i + j) generator in
the bracket of the grade-i and grade-j ones.  ``ConformalAlgebra.graded``
maps each grade to its one generator, and is None when some grade has more;
``rank_one(what)`` returns the map or raises the one ValueError, "<what>
requires exactly one generator per grade".  The spectral diagnostics also
read the grade-0 action: ``has_grade_zero`` states their one rule, rank one
with a grade-0 generator, which ``verify`` reads to skip its spectral
section, and ``grade_zero(what)`` returns the map or raises by it.
``graded_entry(i, j)`` is the one reader of the table: the spectral, degree
and support diagnostics and the ideal check, closure and probe of
``ideals`` take ``p_{i,j}`` from it and their generators from ``graded``
alone.  The diagnostics take no parameter values: bind first, with
``instantiate``.

Every law check, skew and Jacobi here and the Novikov, Lie and
compatibility laws of ``gd``, runs on one engine, whose work grows with the
laws it decides, not with the triples it scans:

- ``_decidable`` reads off the stored rows alone, with no arithmetic, which
  composites outer(inner(x, y), z) and outer(x, inner(y, z)) are decidable;
  each check walks its laws in order and hands on only those whose every
  part is, so a skipped law costs no arithmetic;
- a table entry, read by basis position on one ``poly.Packing``, is one
  flat packed dict keyed by ``monomial_key * n + target_position``
  (``_flat``), and so is a composite: ``_extend``, the one product loop,
  adds a composite with a sign into an accumulator, a fresh dict unless
  the caller hands one on, and its products spend one ``PairCount`` per
  check;
- a law of ``gd`` or skew is the ``_signed_sum`` of weighted parts, and
  ``_decide`` counts the laws not handed on as skipped and splits by
  target and unpacks only a failing residual; ``jacobi_residual`` extends
  its three composites into one accumulator, with no ``_signed_sum``, and
  says why splitting and unpacking only a nonzero residual is exact.

These checks and the ideal check of ``ideals`` return one ``LawReport``:
counts, and a ``LawViolation`` per failing case.
"""

from __future__ import annotations

import itertools
from operator import getitem
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

from .poly import (DEL, FORMAL_VARS, LAM, MU, Packed, Packing, ParamPoly,
                   Scalar, as_poly)

Table = Mapping[tuple["GeneratorId", "GeneratorId"],
                Mapping["GeneratorId", ParamPoly]]


class OutOfWindowError(LookupError):
    """A needed bracket's target grade is missing from the window."""

    def __init__(self, left: "GeneratorId", right: "GeneratorId"):
        super().__init__(f"bracket ({left.name}, {right.name}) lands at grade "
                         f"{left.grade + right.grade}, outside the window")
        self.left = left
        self.right = right


class OutOfWindowTripleError(LookupError):
    """A Jacobi triple cannot be decided at this truncation."""

    def __init__(self, triple: tuple["GeneratorId", ...]):
        names = ", ".join(g.name for g in triple)
        super().__init__(f"triple ({names}) is undecidable in this window")
        self.triple = triple


class NotAffineError(ValueError):
    """The grade-0 action on some grade is not of the form c*(d + a*x + b)."""

    def __init__(self, grade: int, poly: ParamPoly):
        super().__init__(f"action on grade {grade} is not affine: {poly}")
        self.grade = grade
        self.poly = poly


class ZeroActionError(ValueError):
    """The grade-0 generator acts by zero on some grade (ideal obstruction)."""

    def __init__(self, grade: int):
        super().__init__(f"grade-0 generator acts by zero on grade {grade}")
        self.grade = grade


class GeneratorId(NamedTuple):
    """A free generator: its grade and a name unique within the algebra."""

    grade: int
    name: str

    def __str__(self) -> str:
        return self.name


def graded_generators(window: Iterable[int]) -> dict[int, GeneratorId]:
    """One generator ``L<i>`` per grade i of the window, in grade order."""
    return {i: GeneratorId(i, f"L{i}") for i in sorted(set(window))}


def half_line(top: int) -> range:
    """The grades -1..top of a family on the half-line i >= -1."""
    if top < -1:
        raise ValueError("window top must be at least -1")
    return range(-1, top + 1)


def graded_table(gens: Mapping[int, GeneratorId],
                 entry: Callable[[int, int], ParamPoly]
                 ) -> dict[tuple[GeneratorId, GeneratorId],
                           dict[GeneratorId, ParamPoly]]:
    """The table of a one-generator-per-grade family written as a formula.

    ``gens`` maps each grade to its generator and ``entry(i, j)`` is the
    coefficient of the grade-(i + j) generator in the product of the grade-i
    and grade-j ones.  Exactly the pairs whose sum grade carries a generator
    are stored (a zero value included), so the window's boundary pairs stay
    undecidable, as the window semantics above require.
    """
    return {(gens[i], gens[j]): {gens[i + j]: entry(i, j)}
            for i in gens for j in gens if i + j in gens}


@dataclass(frozen=True)
class Element:
    """A finite sum  sum_u f_u(d) u  with polynomial coefficients in d."""

    coeffs: Mapping[GeneratorId, ParamPoly]

    def __init__(self, coeffs: Mapping[GeneratorId, ParamPoly]):
        clean: dict[GeneratorId, ParamPoly] = {}
        for gen, poly in coeffs.items():
            poly = as_poly(poly)
            bad = [v for v in poly.variables() if v in (LAM, MU)]
            if bad:
                raise ValueError(f"element coefficient on {gen.name} uses {bad}")
            if poly:
                clean[gen] = poly
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def generator(cls, gen: GeneratorId) -> "Element":
        return cls({gen: as_poly(1)})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and dict(self.coeffs) == dict(other.coeffs)


class StructureTable:
    """A finite basis and a validated binary structure table.

    The table maps a pair ``(u, v)`` of basis elements to a finite sum of
    basis elements with polynomial coefficients.  Names are unique, every
    pair and target is declared, coefficients are coerced and zeros dropped,
    and ``params`` is the declared parameters together with those the
    coefficients use.  A stored row is decidable (an empty row is zero), a
    missing row undecidable; ``entry`` reads a pair by that rule.  A subclass
    states its coefficient rule in ``_check``, which sees every listed target
    (a zero coefficient too) and the names of the variables its coefficient
    uses, collected in one walk over the monomials.
    """

    def __init__(self, basis: Iterable[GeneratorId], table: Table,
                 params: Iterable[str] = ()):
        self.basis = tuple(sorted(basis))
        if len({g.name for g in self.basis}) != len(self.basis):
            raise ValueError("basis names must be unique")
        known = set(self.basis)
        used = set(params)
        clean: dict[tuple[GeneratorId, GeneratorId], dict[GeneratorId, ParamPoly]] = {}
        for (u, v), row in dict(table).items():
            if u not in known or v not in known:
                raise ValueError(f"table pair ({u.name}, {v.name}) uses an "
                                 f"undeclared element")
            entry: dict[GeneratorId, ParamPoly] = {}
            for w, coef in dict(row).items():
                if w not in known:
                    raise ValueError(f"target {w.name} is undeclared")
                coef = as_poly(coef)
                names = coef.variables()
                self._check(u, v, w, names)
                if coef:
                    used |= names.difference(FORMAL_VARS)
                    entry[w] = coef
            clean[(u, v)] = entry
        self.params = frozenset(used)
        self._table = clean
        self._position = {g: k for k, g in enumerate(self.basis)}

    def _check(self, u: GeneratorId, v: GeneratorId, w: GeneratorId,
               names: frozenset[str]) -> None:
        """Raise ValueError when a coefficient in the variables ``names``
        may not be the (u, v) entry at w."""
        raise NotImplementedError

    def entry(self, u: GeneratorId, v: GeneratorId
              ) -> dict[GeneratorId, ParamPoly] | None:
        """The stored row of a pair; None when the table has none."""
        got = self._table.get((u, v))
        return dict(got) if got is not None else None

    def pairs(self) -> list[tuple[GeneratorId, GeneratorId]]:
        return sorted(self._table)

    def instantiate(self, values: Mapping[str, Scalar]):
        """The same table with parameters bound to rationals."""
        table = {pair: {w: coef.substitute(values)
                        for w, coef in row.items()}
                 for pair, row in self._table.items()}
        return type(self)(self.basis, table, self.params - set(values))

    def __eq__(self, other: object) -> bool:
        return (type(self) is type(other)
                and self.basis == other.basis
                and self._table == other._table)


class ConformalAlgebra(StructureTable):
    """Immutable structure-table model of a Z-graded Lie conformal algebra.

    The generators are the basis and the window is the set of their grades.
    The stored rows are the decidable pairs: every pair whose target grade
    is in the window, with an empty row where the input has none, and no
    pair outside it, so ``entry`` is None exactly where the window cannot
    decide the bracket.
    """

    def __init__(self, generators: Iterable[GeneratorId], table: Table,
                 params: Iterable[str] = ()):
        super().__init__(generators, table, params)
        self.generators = self.basis
        self.window = frozenset(g.grade for g in self.basis)
        self._table = {(u, v): self._table.get((u, v), {})
                       for u in self.basis for v in self.basis
                       if u.grade + v.grade in self.window}
        graded = {g.grade: g for g in self.basis}
        #: Grade -> its generator when every grade has exactly one, else
        #: None; read-only, as the model is.
        self.graded = (MappingProxyType(graded)
                       if len(graded) == len(self.basis) else None)
        #: Whether the table is rank one with a grade-0 generator, whose
        #: action p_{0,j} the spectral diagnostics read.
        self.has_grade_zero = self.graded is not None and 0 in self.window
        # The packing, the packed rows and the packed, substituted table
        # entries of the axiom checks, made on first use by ``_lines``.
        self._packing: Packing | None = None
        self._jacobi_forms: dict[str, list[_Line]] = {}

    def _check(self, u: GeneratorId, v: GeneratorId, w: GeneratorId,
               names: frozenset[str]) -> None:
        if w.grade != u.grade + v.grade:
            raise ValueError(
                f"bracket ({u.name}, {v.name}) targets {w.name} of "
                f"grade {w.grade}, expected {u.grade + v.grade}")
        if MU in names:
            raise ValueError("structure polynomials may not use y")

    # -- the rank-one table ---------------------------------------------------

    def rank_one(self, what: str) -> Mapping[int, GeneratorId]:
        """The grade map ``graded``; ValueError naming ``what`` when the
        algebra has a grade with more than one generator."""
        if self.graded is None:
            raise ValueError(f"{what} requires exactly one generator per grade")
        return self.graded

    def grade_zero(self, what: str) -> Mapping[int, GeneratorId]:
        """``rank_one(what)`` of an algebra with a grade-0 generator, whose
        action p_{0,j} the spectral diagnostics read; ValueError naming
        ``what`` when the window has no grade 0."""
        graded = self.rank_one(what)
        if not self.has_grade_zero:
            raise ValueError(f"{what} requires a grade-0 generator")
        return graded

    def graded_entry(self, i: int, j: int) -> ParamPoly:
        """p_{i,j}: the coefficient of L_{i+j} in [L_i x L_j], zero if absent.

        Raises OutOfWindowError where ``entry`` is None, and ValueError when
        the algebra has no grade map or i or j is not a grade of the window.
        """
        gens = self.graded
        if gens is None or i not in gens or j not in gens:
            self.rank_one("the rank-one table")
            raise ValueError(f"grades {i} and {j} are not both in the window")
        left, right = gens[i], gens[j]
        row = self._table.get((left, right))
        if row is None:
            raise OutOfWindowError(left, right)
        return row.get(gens[i + j], ParamPoly.zero())


# -- bracket evaluation ------------------------------------------------------

def bracket(alg: ConformalAlgebra, a: Element, b: Element
            ) -> dict[GeneratorId, ParamPoly]:
    """Bilinear extension of the structure table by sesquilinearity.

    The value maps each target to its nonzero coefficient in d and x, as
    ``entry`` does for a generator pair; OutOfWindowError where ``entry`` is
    None.
    """
    acc: dict[GeneratorId, ParamPoly] = {}
    minus_x = -ParamPoly.variable(LAM)
    shift = ParamPoly.variable(DEL) + ParamPoly.variable(LAM)
    for u, f in a.coeffs.items():
        f_left = f.substitute({DEL: minus_x})
        for v, g in b.coeffs.items():
            g_right = g.substitute({DEL: shift})
            scale = f_left * g_right
            row = alg.entry(u, v)
            if row is None:
                raise OutOfWindowError(u, v)
            for w, poly in row.items():
                acc[w] = acc.get(w, ParamPoly.zero()) + scale * poly
    return {w: poly for w, poly in acc.items() if poly}


# -- the law engine ---------------------------------------------------------

#: Term pairs one law check may multiply, so that a hostile table ends in
#: PairBudgetError within seconds instead of running for minutes.  The tests
#: and reports reach at most about 0.1 M per check; the widest window
#: ``family`` emits, CL2(b, s) on -50..50, needs 8.3 M for its Jacobi check.
MAX_PAIRS = 16_000_000


class PairBudgetError(ValueError):
    """A law check would multiply more than MAX_PAIRS term pairs."""


@dataclass
class PairCount:
    """The term pairs one law check, named ``check``, has multiplied."""

    check: str
    pairs: int = 0


def _packing(*tables: StructureTable) -> Packing:
    """One packed format for every coefficient of the tables."""
    return Packing(c for table in tables for row in table._table.values()
                   for c in row.values())


def _flat(parts: Iterable[tuple[int, Packed]], n: int) -> Packed:
    """The (target position, packed coefficient) parts of one table entry as
    one packed dict keyed by ``monomial_key * n + target_position``."""
    return {k * n + w: num for w, packed in parts for k, num in packed.items()}


def _by_target(packed: Packed, n: int) -> dict[int, Packed]:
    """A flat packed dict split by target position, zeros dropped."""
    out: dict[int, Packed] = {}
    for k, num in packed.items():
        if num:
            monomial, w = divmod(k, n)
            out.setdefault(w, {})[monomial] = num
    return out


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _decidable(inner: StructureTable, outer: StructureTable
               ) -> tuple[list[list[int]], list[list[int]]]:
    """The decidable composites of two tables on one basis, as bit masks.

    Both masks are read at the positions of an inner pair.  ``right[x][y]``
    has bit z set when outer(inner(x, y), z) is decidable: row inner[x][y]
    is stored, and so is outer[t][z] for each target t of that row.
    ``left[y][z]`` has bit x set when outer(x, inner(y, z)) is: row
    inner[y][z] is stored, and so is outer[x][t] for each of its targets.
    Both are 0 where the inner row is missing.  They come from the stored
    rows alone, with no arithmetic.
    """
    index = inner._position
    n = len(index)
    stored_right = [0] * n      # t -> the z with outer[t][z] stored
    stored_left = [0] * n       # t -> the x with outer[x][t] stored
    for u, v in outer._table:
        stored_right[index[u]] |= 1 << index[v]
        stored_left[index[v]] |= 1 << index[u]
    right = [[0] * n for _ in range(n)]
    left = [[0] * n for _ in range(n)]
    for (u, v), row in inner._table.items():
        r = l = (1 << n) - 1
        for t in row:
            r &= stored_right[index[t]]
            l &= stored_left[index[t]]
        right[index[u]][index[v]], left[index[u]][index[v]] = r, l
    return right, left


def _extend(combo: Packed, line: Sequence[Packed] | Mapping[int, Packed],
            n: int, count: PairCount, acc: Packed | None = None,
            sign: int = 1) -> Packed:
    """Add sign * coef * line[t] over a flat combination into ``acc`` (a
    fresh dict when None), and return it.

    ``line`` is a row of a table or a column, by basis position, so one
    helper extends a product on either side.  The caller extends only a
    decidable composite, so every ``line[t]`` it reads is stored.  A key
    ``m1 * n + t`` of ``combo`` times a key ``m2 * n + w`` of ``line[t]`` is
    the key ``k1 - t + k2`` of the product monomial at target w.  Each term
    of ``combo`` spends its term pairs from ``count`` before it is
    multiplied.  The numerators of the result are over ``den**2``; zeros
    may remain.
    """
    if acc is None:
        acc = {}
    get = acc.get
    pairs = count.pairs
    for k1, n1 in combo.items():
        t = k1 % n
        other = line[t]
        pairs += len(other)
        if pairs > MAX_PAIRS:
            raise PairBudgetError(f"{count.check} needs more than "
                                  f"{MAX_PAIRS} term pairs")
        base = k1 - t
        n1 *= sign
        for k2, n2 in other.items():
            k = base + k2
            acc[k] = get(k, 0) + n1 * n2
    count.pairs = pairs
    return acc


def _signed_sum(parts) -> Packed:
    """The sum of weight * part(*args) over the parts of one decidable law.

    The weights are signed integers that bring every part to numerators
    over ``den**2``; the flat sum is returned packed, zeros included.
    """
    acc: Packed = {}
    get = acc.get
    for weight, part, args in parts:
        for k, num in part(*args).items():
            acc[k] = get(k, 0) + weight * num
    return acc


@dataclass(frozen=True)
class LawViolation:
    """A law failing on ``elements``: its nonzero (target, poly) residuals."""

    law: str
    elements: tuple[GeneratorId, ...]
    residual: tuple[tuple[GeneratorId, ParamPoly], ...]


@dataclass(frozen=True)
class LawReport:
    """The laws one check decided and skipped, and the ones that failed."""

    checked: int
    skipped: int
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _decide(laws, total: int, basis: tuple[GeneratorId, ...],
            packing: Packing) -> LawReport:
    """Decide ``(positions, name, parts)`` laws by ``_signed_sum``.

    The caller yields, in its order, only the laws whose every part is
    decidable, out of ``total`` laws; the rest are skipped, with no
    arithmetic spent on them.  Only the residual of a failing law is split
    by target and unpacked, into its LawViolation.
    """
    n = len(basis)
    checked = 0
    found: list[LawViolation] = []
    for positions, name, parts in laws:
        checked += 1
        residual = _signed_sum(parts)
        if any(residual.values()):
            by_target = _by_target(residual, n)
            found.append(LawViolation(
                name, tuple(basis[p] for p in positions),
                tuple((basis[w], packing.unpack(by_target[w]))
                      for w in sorted(by_target))))
    return LawReport(checked, total - checked, tuple(found))


# -- axiom checks -------------------------------------------------------------

#: The substitutions the axiom checks apply to table entries, as data:
#: form -> chain.  Each step ``(var, s, variables)`` of a chain replaces
#: ``var`` by ``s * (sum of variables)``; the steps run in order.  The
#: checks read every form by rows but ``tw``, which they read by columns.
_JACOBI_FORMS = {
    "plain": (),
    "flip": ((LAM, -1, (DEL, LAM)),),
    "vw": ((LAM, 1, (MU,)), (DEL, 1, (DEL, LAM))),
    "uv": ((DEL, -1, (LAM, MU)),),
    "tw": ((LAM, 1, (LAM, MU)),),
    "uw": ((DEL, 1, (DEL, MU)),),
    "vt": ((LAM, 1, (MU,)),),
}


class _Line(dict):
    """Row ``k`` of the table under one form (column ``k`` for ``tw``), by
    basis position.  An entry is substituted and flattened (``_flat``) on
    first read and kept; the checks read only stored rows.  A stored pair's
    coefficients are packed once, on the first read of any form, into the
    packed rows the seven forms share, and each form substitutes that
    packing.  A line holds the parts of the algebra it reads, not the
    algebra, which holds its lines: no reference cycle."""

    def __init__(self, parts: tuple, form: str, k: int):
        super().__init__()
        self.parts, self.form, self.k = parts, form, k

    def __missing__(self, t: int) -> Packed:
        gens, table, position, packing, packed_rows = self.parts
        u, v = gens[self.k], gens[t]
        if self.form == "tw":
            u, v = v, u
        row = packed_rows.get((u, v))
        if row is None:
            row = packed_rows[(u, v)] = [
                (position[target], packing.pack(poly))
                for target, poly in table[(u, v)].items()]
        chain = _JACOBI_FORMS[self.form]
        parts = []
        for w, packed in row:
            for var, s, variables in chain:
                packed = packing.substitute(packed, var, s, variables)
            parts.append((w, packed))
        entry = self[t] = _flat(parts, len(gens))
        return entry


def _lines(alg: ConformalAlgebra) -> dict[str, list[_Line]]:
    """Form -> the lines of the table under it, with the algebra's packing
    made from its table on first use and kept on the algebra, as are the
    packed rows its lines share."""
    if alg._packing is None:
        alg._packing = _packing(alg)
        parts = (alg.generators, alg._table, alg._position, alg._packing, {})
        alg._jacobi_forms = {form: [_Line(parts, form, k)
                                    for k in range(len(alg.generators))]
                             for form in _JACOBI_FORMS}
    return alg._jacobi_forms


def check_skew(alg: ConformalAlgebra) -> LawReport:
    """Skew-symmetry in coefficients: p_{u,v}(d, x) + p_{v,u}(d, -d-x) = 0.

    Antisymmetry with the ``flip`` form on the second entry, decided where
    both rows are stored: both entries are single, over ``den``, so each
    has the weight ``den``.
    """
    lines = _lines(alg)
    den = alg._packing.den
    gens, rows = alg.generators, alg._table
    n = len(gens)
    laws = (((i, j), "skew", ((den, getitem, (lines["plain"][i], j)),
                              (den, getitem, (lines["flip"][j], i))))
            for i, j in itertools.combinations_with_replacement(range(n), 2)
            if (gens[i], gens[j]) in rows and (gens[j], gens[i]) in rows)
    return _decide(laws, n * (n + 1) // 2, gens, alg._packing)


def jacobi_residual(alg: ConformalAlgebra, u: GeneratorId, v: GeneratorId,
                    w: GeneratorId, count: PairCount | None = None
                    ) -> dict[GeneratorId, ParamPoly]:
    """Defect of the Jacobi identity on one generator triple.

    Expanding [u_x [v_y w]] - [[u_x v]_{x+y} w] - [v_y [u_x w]] over the
    structure table gives, per target generator r,

        sum_t p^t_{v,w}(d+x, y) p^r_{u,t}(d, x)
      - sum_t p^t_{u,v}(-x-y, x) p^r_{t,w}(d, x+y)
      - sum_t p^t_{u,w}(d+y, x) p^r_{v,t}(d, y)

    An all-zero map means the identity holds on this triple; otherwise the
    map holds the nonzero residuals only.  Raises OutOfWindowTripleError,
    before any arithmetic, when an inner bracket's grade is missing, or when
    some inner bracket is nonzero and the total grade is missing: the rule
    of ``_decidable`` for one triple.

    The residual is one packed accumulator: ``_extend`` multiplies each of
    the three composites, from the flat entries ``_lines`` caches, straight
    into it with its sign.  It is exact:

    - the substitutions are linear and homogeneous with integer
      coefficients, so they keep the total degree of every monomial and the
      denominator ``den``;
    - every exponent of a product is at most twice the largest total degree
      of a table entry, which is below ``2**width``, so no field carries into
      the next;
    - a flat key is ``m * n + t`` with the target position ``0 <= t < n``,
      so ``divmod(key, n)`` gives back (m, t), and the product key
      ``k1 - t + k2`` is ``(m1 + m2) * n + w`` with ``m1 + m2`` the packed
      product monomial: the target digit never carries into the monomial,
      and two (monomial, target) pairs never share a key;
    - each residual is a sum of numerators over ``den**2``, so it is zero
      exactly when every integer numerator is zero: an all-zero one
      returns ``{}``, and only a nonzero residual is split by target and
      unpacked.

    The products spend term pairs from ``count`` (a fresh one when None).
    """
    rows = alg._table
    # Each composite's inner pair, and its outer pair with None where each
    # target t of the inner row goes.
    for inner, x, z in (((v, w), u, None), ((u, v), None, w),
                        ((u, w), v, None)):
        row = rows.get(inner)
        if row is None:
            raise OutOfWindowTripleError((u, v, w))
        for t in row:
            if (t if x is None else x, t if z is None else z) not in rows:
                raise OutOfWindowTripleError((u, v, w))
    a, b, c = (alg._position[g] for g in (u, v, w))
    lines = _lines(alg)
    n = len(alg.generators)
    if count is None:
        count = PairCount("the Jacobi check")
    # [u_x [v_y w]]: inner polynomial evaluated at (d+x, y).
    residual = _extend(lines["vw"][b][c], lines["plain"][a], n, count)
    # [[u_x v]_{x+y} w]: inner coefficient at (-x-y, x), outer at (d, x+y).
    _extend(lines["uv"][a][b], lines["tw"][c], n, count, residual, -1)
    # [v_y [u_x w]]: inner polynomial at (d+y, x), outer at (d, y).
    _extend(lines["uw"][a][c], lines["vt"][b], n, count, residual, -1)
    if not any(residual.values()):
        return {}
    return {alg.generators[r]: alg._packing.unpack(packed)
            for r, packed in _by_target(residual, n).items()}


@dataclass(frozen=True)
class JacobiReport(LawReport):
    """The Jacobi laws, and the skew report that chose the triples."""

    skew: LawReport


def check_jacobi(alg: ConformalAlgebra) -> JacobiReport:
    """Jacobi identity over all decidable triples.

    When skew-symmetry holds, ordered triples u <= v <= w suffice; a broken
    skew check forfeits that reduction, so all ordered triples are scanned
    instead (the algebra is then never certified on the cheap path).  The
    masks of ``_decidable`` pick the decidable triples, in that order, and
    ``jacobi_residual`` runs once on each; the others are skipped with no
    arithmetic.  All triples share one PairCount, so MAX_PAIRS bounds the
    whole check.
    """
    skew = check_skew(alg)
    gens = alg.generators
    n = len(gens)
    right, left = _decidable(alg, alg)
    if skew.ok:
        pairs = itertools.combinations_with_replacement(range(n), 2)
        total = n * (n + 1) * (n + 2) // 6
    else:
        pairs, total = itertools.product(range(n), repeat=2), n ** 3
    checked = 0
    violations: list[LawViolation] = []
    count = PairCount("the Jacobi check")
    for a, b in pairs:
        low = b if skew.ok else 0
        # (u v) w, then u (v w) and v (u w): the three composites.
        for c in _bits(right[a][b] >> low << low):
            if not (left[b][c] >> a & 1 and left[a][c] >> b & 1):
                continue
            triple = (gens[a], gens[b], gens[c])
            residual = jacobi_residual(alg, *triple, count)
            checked += 1
            if residual:
                violations.append(LawViolation(
                    "jacobi", triple, tuple(sorted(residual.items()))))
    return JacobiReport(checked, total - checked, tuple(violations), skew)


# -- structure diagnostics -----------------------------------------------------

@dataclass(frozen=True)
class SpectralLine:
    """The grade-0 action on one grade: p = scale * (d + weight*x + shift)."""

    scale: ParamPoly
    weight: Fraction
    shift: Fraction


@dataclass(frozen=True)
class SpectralData:
    lines: Mapping[int, SpectralLine]
    uniform_scale: bool


def spectral_data(alg: ConformalAlgebra) -> SpectralData:
    """Read (scale, weight, shift) off the grade-0 action p_{0,j} per grade.

    Requires exactly one generator per grade; bind first (``instantiate``)
    to read the data at parameter values.  Raises ZeroActionError when the
    action on some grade vanishes (that grade spans a proper ideal), and
    NotAffineError when the action is not scale*(d + weight*x + shift) with
    rational weight and shift.
    """
    alg.grade_zero("spectral data")
    lines: dict[int, SpectralLine] = {}
    for grade in sorted(alg.window):
        poly = alg.graded_entry(0, grade)
        if poly.is_zero():
            raise ZeroActionError(grade)
        parts = poly.affine_parts()
        if parts is None or parts[0].is_zero():
            raise NotAffineError(grade, poly)
        scale, x_part, constant = parts
        try:
            lines[grade] = SpectralLine(
                scale, x_part.exact_divide(scale).as_fraction(),
                constant.exact_divide(scale).as_fraction())
        except (ArithmeticError, ValueError):
            raise NotAffineError(grade, poly) from None
    scales = {line.scale for line in lines.values()}
    return SpectralData(lines, len(scales) <= 1)


@dataclass(frozen=True)
class DegreeRelationViolation:
    left_grade: int
    right_grade: int
    relation: str
    detail: str


def degree_relation_check(alg: ConformalAlgebra, spectral: SpectralData
                          ) -> list[DegreeRelationViolation]:
    """Check the weight/shift bookkeeping of nonzero structure polynomials.

    For every pair of grades (i, j) with a nonzero p_{i,j} landing in the
    window, the weights must satisfy
        weight_i + weight_j = weight_{i+j} + deg p_{i,j} + 1
    and the shifts must be additive: shift_i + shift_j = shift_{i+j}.
    Bind first: an algebra with free parameters is a ValueError, since its
    degrees need not be those at any binding.
    """
    if alg.params:
        raise ValueError("degree relations require an instantiated algebra "
                         f"(free parameters: {sorted(alg.params)})")
    alg.rank_one("the degree relation check")
    violations: list[DegreeRelationViolation] = []
    for u, v in alg.pairs():
        i, j = u.grade, v.grade
        poly = alg.graded_entry(i, j)
        if poly.is_zero():
            continue
        deg = poly.formal_degree()
        li, lj, lt = spectral.lines[i], spectral.lines[j], spectral.lines[i + j]
        if li.weight + lj.weight != lt.weight + deg + 1:
            violations.append(DegreeRelationViolation(
                i, j, "weight",
                f"{li.weight} + {lj.weight} != {lt.weight} + {deg} + 1"))
        if li.shift + lj.shift != lt.shift:
            violations.append(DegreeRelationViolation(
                i, j, "shift", f"{li.shift} + {lj.shift} != {lt.shift}"))
    return violations


@dataclass(frozen=True)
class SupportClassification:
    """Positive grades k with nonzero p_{k,-k}, split by its degree."""

    degree0: frozenset[int]
    degree1: frozenset[int]
    degree2: frozenset[int]
    unclassified: frozenset[int]


def classify_support(alg: ConformalAlgebra) -> SupportClassification:
    """Classify each positive grade k by the degree of p_{k,-k}.

    A grade whose opposite is missing from the window, or whose pairing
    polynomial has degree above 2, lands in ``unclassified``.  Bind first
    (``instantiate``) to classify at parameter values.
    """
    alg.grade_zero("support classification")
    buckets: dict[int, set[int]] = {0: set(), 1: set(), 2: set()}
    unclassified: set[int] = set()
    for k in sorted(g for g in alg.window if g > 0):
        if -k not in alg.window:
            unclassified.add(k)
            continue
        poly = alg.graded_entry(k, -k)
        if poly.is_zero():
            continue
        deg = poly.formal_degree()
        if deg in buckets:
            buckets[deg].add(k)
        else:
            unclassified.add(k)
    return SupportClassification(frozenset(buckets[0]), frozenset(buckets[1]),
                                 frozenset(buckets[2]), frozenset(unclassified))
