"""Z-graded Lie conformal algebras with finitely many free generators.

An algebra is a list of generators (each a free rank-one direct summand at
its grade) and a structure table sending a pair of generators ``(u, v)`` to a
finite sum ``sum_w p^w_{u,v}(d, x) w`` over generators of grade
``u.grade + v.grade``.  Its window is the set of the generators' grades.
Brackets of arbitrary elements follow by sesquilinearity:

    [f(d)u_x g(d)v] = f(-x) g(d+x) [u_x v]

An ``Element`` has coefficients in d; ``bracket`` returns its value as
``{target: nonzero polynomial in d, x}``, the shape ``structure`` gives a
generator pair.  It is the general route, and the tests' reference for the
ideal closure, which reads the rank-one table below instead.

Window semantics: a pair whose target grade lies *outside* the window is
undecidable (the infinite families are truncated, so absence of the grade
carries no information), while an absent table entry whose target grade is
*inside* the window is the zero bracket.  Axiom checks skip and count
undecidable pairs and triples rather than failing them.

``StructureTable`` is the one validated table type; ``ConformalAlgebra``
and the Gel'fand-Dorfman structures of ``gd`` each add only a coefficient
rule (here a target at the sum grade and no ``y``; in ``gd`` no formal
variable).  Its presence rule: a stored row is decidable and a missing row
is not.  ``ConformalAlgebra`` drops empty rows, since inside its window
absence already means zero.

With one generator per grade (every family here) the table is the rank-one
table ``p_{i,j}(d, x)``, the coefficient of the grade-(i + j) generator in
the bracket of the grade-i and grade-j ones.  ``graded_entry(i, j)`` is the
one reader of it: the spectral, degree and support diagnostics and the
ideal check and closure of ``ideals`` take ``p_{i,j}`` from it alone.  The
diagnostics take no parameter values: bind first, with ``instantiate``.

The Jacobi check, the costly one, expands each triple on the algebra's
``poly.Packing`` (integer exponent keys, integer numerators over one common
denominator) and converts back to ``ParamPoly`` only the residuals that are
nonzero; ``jacobi_residual`` says why that is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .poly import DEL, LAM, MU, Packed, Packing, ParamPoly, Scalar, as_poly

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and dict(self.coeffs) == dict(other.coeffs)


class StructureTable:
    """A finite basis and a validated binary structure table.

    The table maps a pair ``(u, v)`` of basis elements to a finite sum of
    basis elements with polynomial coefficients.  Names are unique, every
    pair and target is declared, coefficients are coerced and zeros dropped,
    and ``params`` is the declared parameters together with those the
    coefficients use.  A stored row is decidable (an empty row is zero), a
    missing row undecidable.  A subclass states its coefficient rule in
    ``_check``.
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
                if coef:
                    self._check(u, v, w, coef)
                    used |= coef.params()
                    entry[w] = coef
            clean[(u, v)] = entry
        self.params = frozenset(used)
        self._table = clean

    def _check(self, u: GeneratorId, v: GeneratorId, w: GeneratorId,
               coef: ParamPoly) -> None:
        """Raise ValueError when ``coef`` may not be the (u, v) entry at w."""
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
        table = {pair: {w: coef.instantiate(values)
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
    """

    def __init__(self, generators: Iterable[GeneratorId], table: Table,
                 params: Iterable[str] = ()):
        super().__init__(generators, table, params)
        # Inside the window an absent row already means zero.  Deleting the
        # few empty rows spares rehashing every pair of a rebuilt dict.
        for pair in [pair for pair, row in self._table.items() if not row]:
            del self._table[pair]
        self.generators = self.basis
        self.window = frozenset(g.grade for g in self.basis)
        self._by_grade: dict[int, tuple[GeneratorId, ...]] = {}
        # Packed, substituted table entries for jacobi_residual, filled on
        # demand: (form, left, right) -> {target: packed poly}.
        self._packing: Packing | None = None
        self._jacobi_forms: dict[tuple[str, GeneratorId, GeneratorId],
                                 dict[GeneratorId, Packed]] = {}
        for g in self.basis:
            self._by_grade.setdefault(g.grade, ())
            self._by_grade[g.grade] += (g,)

    def _check(self, u: GeneratorId, v: GeneratorId, w: GeneratorId,
               coef: ParamPoly) -> None:
        if w.grade != u.grade + v.grade:
            raise ValueError(
                f"bracket ({u.name}, {v.name}) targets {w.name} of "
                f"grade {w.grade}, expected {u.grade + v.grade}")
        if MU in coef.variables():
            raise ValueError("structure polynomials may not use y")

    # -- lookup -------------------------------------------------------------

    def generators_of_grade(self, grade: int) -> tuple[GeneratorId, ...]:
        return self._by_grade.get(grade, ())

    def one_generator_per_grade(self) -> bool:
        return all(len(self._by_grade.get(i, ())) == 1 for i in self.window)

    def single_generator(self, grade: int) -> GeneratorId:
        gens = self.generators_of_grade(grade)
        if len(gens) != 1:
            raise ValueError(f"grade {grade} has {len(gens)} generators, "
                             f"expected exactly one")
        return gens[0]

    def structure(self, left: GeneratorId, right: GeneratorId
                  ) -> dict[GeneratorId, ParamPoly]:
        """Table entry for a generator pair; {} means the zero bracket."""
        if left.grade + right.grade not in self.window:
            raise OutOfWindowError(left, right)
        return dict(self._table.get((left, right), {}))

    def graded_entry(self, i: int, j: int) -> ParamPoly:
        """p_{i,j}: the coefficient of L_{i+j} in [L_i x L_j], zero if absent.

        Raises OutOfWindowError as ``structure`` does, and ValueError when a
        grade it reads has other than one generator.
        """
        left = self.single_generator(i)
        right = self.single_generator(j)
        if i + j not in self.window:
            raise OutOfWindowError(left, right)
        row = self._table.get((left, right), {})
        return row.get(self.single_generator(i + j), ParamPoly.zero())

    def table_items(self) -> Iterator[tuple[GeneratorId, GeneratorId,
                                            GeneratorId, ParamPoly]]:
        """All nonzero table entries, canonically ordered."""
        for (u, v) in sorted(self._table):
            entry = self._table[(u, v)]
            for w in sorted(entry):
                yield u, v, w, entry[w]


# -- bracket evaluation ------------------------------------------------------

def bracket(alg: ConformalAlgebra, a: Element, b: Element
            ) -> dict[GeneratorId, ParamPoly]:
    """Bilinear extension of the structure table by sesquilinearity.

    The value maps each target to its nonzero coefficient in d and x, as
    ``structure`` does for a generator pair.
    """
    acc: dict[GeneratorId, ParamPoly] = {}
    minus_x = -ParamPoly.variable(LAM)
    shift = ParamPoly.variable(DEL) + ParamPoly.variable(LAM)
    for u, f in a.coeffs.items():
        f_left = f.substitute(DEL, minus_x)
        for v, g in b.coeffs.items():
            g_right = g.substitute(DEL, shift)
            scale = f_left * g_right
            for w, poly in alg.structure(u, v).items():
                acc[w] = acc.get(w, ParamPoly.zero()) + scale * poly
    return {w: poly for w, poly in acc.items() if poly}


# -- axiom checks -------------------------------------------------------------

@dataclass(frozen=True)
class SkewViolation:
    left: GeneratorId
    right: GeneratorId
    target: GeneratorId
    residual: ParamPoly


@dataclass(frozen=True)
class SkewReport:
    checked: int
    skipped: int
    violations: tuple[SkewViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_skew(alg: ConformalAlgebra) -> SkewReport:
    """Skew-symmetry in coefficients: p_{u,v}(d, x) + p_{v,u}(d, -d-x) = 0."""
    flip = -(ParamPoly.variable(DEL) + ParamPoly.variable(LAM))
    checked = skipped = 0
    violations: list[SkewViolation] = []
    gens = alg.generators
    for i, u in enumerate(gens):
        for v in gens[i:]:
            if u.grade + v.grade not in alg.window:
                skipped += 1
                continue
            checked += 1
            forward = alg.structure(u, v)
            backward = alg.structure(v, u)
            for w in sorted(set(forward) | set(backward)):
                residual = (forward.get(w, ParamPoly.zero())
                            + backward.get(w, ParamPoly.zero())
                            .substitute(LAM, flip))
                if residual:
                    violations.append(SkewViolation(u, v, w, residual))
    return SkewReport(checked, skipped, tuple(violations))


#: The substitutions the Jacobi expansion applies to table entries, as data:
#: form -> (sign, chain).  Each step ``(var, s, variables)`` of a chain
#: replaces ``var`` by ``s * (sum of variables)``; the steps run in order.
#: The inner forms of the two subtracted terms carry their minus sign.
_JACOBI_FORMS = {
    "plain": (1, ()),
    "inner_vw": (1, ((LAM, 1, (MU,)), (DEL, 1, (DEL, LAM)))),
    "inner_uv": (-1, ((DEL, -1, (LAM, MU)),)),
    "outer_tw": (1, ((LAM, 1, (LAM, MU)),)),
    "inner_uw": (-1, ((DEL, 1, (DEL, MU)),)),
    "outer_vt": (1, ((LAM, 1, (MU,)),)),
}


def _packing(alg: ConformalAlgebra) -> Packing:
    """The algebra's packed format, built from its table on first use."""
    if alg._packing is None:
        alg._packing = Packing(p for entry in alg._table.values()
                               for p in entry.values())
    return alg._packing


def _jacobi_form(alg: ConformalAlgebra, form: str, left: GeneratorId,
                 right: GeneratorId) -> dict[GeneratorId, Packed]:
    """One packed table entry under one Jacobi form, cached on the algebra.

    Raises OutOfWindowError exactly as ``structure`` does; only in-window
    entries are cached.
    """
    key = (form, left, right)
    entry = alg._jacobi_forms.get(key)
    if entry is None:
        packing = _packing(alg)
        sign, chain = _JACOBI_FORMS[form]
        entry = {}
        for t, poly in alg.structure(left, right).items():
            packed = packing.pack(poly)
            for var, s, variables in chain:
                packed = packing.substitute(packed, var, s, variables)
            entry[t] = (packed if sign > 0
                        else {k: -n for k, n in packed.items()})
        alg._jacobi_forms[key] = entry
    return entry


#: Term pairs one ``check_jacobi`` may multiply, so that a hostile table ends
#: in JacobiBudgetError within seconds instead of running for minutes.  The
#: tests and reports reach at most about 0.1 M, and the widest window
#: ``family`` emits, CL2(b, s) on -50..50, 8.3 M (about 5 s).
MAX_JACOBI_PAIRS = 16_000_000


class JacobiBudgetError(ValueError):
    """The Jacobi check would multiply more than MAX_JACOBI_PAIRS term pairs."""


@dataclass
class PairCount:
    """Term pairs that one run of the Jacobi check has multiplied so far."""

    pairs: int = 0


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
    map holds the nonzero residuals only.  Raises OutOfWindowTripleError when
    an inner bracket's grade is missing, or when some inner bracket is
    nonzero and the total grade is missing.

    The sums run on the algebra's ``Packing``: packed monomials with integer
    numerators over one common denominator ``den``, each substituted entry
    computed once per algebra by ``_jacobi_form``.  The result is exact:

    - the substitutions are linear and homogeneous with integer
      coefficients, so they keep the total degree of every monomial and the
      denominator ``den``;
    - every exponent of a product is at most twice the largest total degree
      of a table entry, which is below ``2**width``, so no field carries into
      the next;
    - each residual is a sum of numerators over ``den**2``, so it is zero
      exactly when every integer numerator is zero, and only nonzero
      residuals are unpacked.

    Each product adds its term pairs to ``count`` (a fresh one when None)
    before it runs, and JacobiBudgetError ends the run once the count passes
    MAX_JACOBI_PAIRS.
    """
    acc: dict[GeneratorId, Packed] = {}
    mul_add = Packing.mul_add
    if count is None:
        count = PairCount()

    def accumulate(inner_form: str, first: GeneratorId, second: GeneratorId,
                   outer_form: str, outer_pair) -> None:
        try:
            inner = _jacobi_form(alg, inner_form, first, second)
            for t, left in inner.items():
                outer = _jacobi_form(alg, outer_form, *outer_pair(t))
                for r, right in outer.items():
                    count.pairs += len(left) * len(right)
                    if count.pairs > MAX_JACOBI_PAIRS:
                        raise JacobiBudgetError(f"the Jacobi check needs "
                                                f"more than {MAX_JACOBI_PAIRS} "
                                                f"term pairs")
                    target = acc.get(r)
                    if target is None:
                        target = acc[r] = {}
                    mul_add(target, left, right)
        except OutOfWindowError:
            raise OutOfWindowTripleError((u, v, w)) from None

    # [u_x [v_y w]]: inner polynomial evaluated at (d+x, y).
    accumulate("inner_vw", v, w, "plain", lambda t: (u, t))
    # [[u_x v]_{x+y} w]: inner coefficient at (-x-y, x), outer at (d, x+y).
    accumulate("inner_uv", u, v, "outer_tw", lambda t: (t, w))
    # [v_y [u_x w]]: inner polynomial at (d+y, x), outer at (d, y).
    accumulate("inner_uw", u, w, "outer_vt", lambda t: (v, t))
    return {r: alg._packing.unpack(packed) for r, packed in acc.items()
            if any(packed.values())}


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple[GeneratorId, GeneratorId, GeneratorId]
    target: GeneratorId
    residual: ParamPoly


@dataclass(frozen=True)
class JacobiReport:
    checked: int
    skipped: int
    violations: tuple[JacobiViolation, ...]
    skew: SkewReport

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def skew_ok(self) -> bool:
        """Whether skew held, so that ordered triples u <= v <= w sufficed."""
        return self.skew.ok


def check_jacobi(alg: ConformalAlgebra) -> JacobiReport:
    """Jacobi identity over all decidable triples.

    When skew-symmetry holds, ordered triples u <= v <= w suffice; a broken
    skew check forfeits that reduction, so all ordered triples are scanned
    instead (the algebra is then never certified on the cheap path).  All
    triples share one PairCount, so MAX_JACOBI_PAIRS bounds the whole check.
    """
    skew = check_skew(alg)
    gens = alg.generators
    if skew.ok:
        triples: Iterable[tuple[GeneratorId, GeneratorId, GeneratorId]] = (
            (gens[i], gens[j], gens[k])
            for i in range(len(gens))
            for j in range(i, len(gens))
            for k in range(j, len(gens)))
    else:
        triples = ((a, b, c) for a in gens for b in gens for c in gens)
    checked = skipped = 0
    violations: list[JacobiViolation] = []
    count = PairCount()
    for (a, b, c) in triples:
        try:
            residual = jacobi_residual(alg, a, b, c, count)
        except OutOfWindowTripleError:
            skipped += 1
            continue
        checked += 1
        for target in sorted(residual):
            violations.append(JacobiViolation((a, b, c), target,
                                              residual[target]))
    return JacobiReport(checked, skipped, tuple(violations), skew)


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
    if not alg.one_generator_per_grade():
        raise ValueError("spectral data requires exactly one generator per grade")
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
    if not alg.one_generator_per_grade():
        raise ValueError("degree relations require exactly one generator per grade")
    violations: list[DegreeRelationViolation] = []
    grades = sorted(alg.window)
    for i in grades:
        for j in grades:
            if i + j not in alg.window:
                continue
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
                    i, j, "shift",
                    f"{li.shift} + {lj.shift} != {lt.shift}"))
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
    if not alg.one_generator_per_grade():
        raise ValueError("support classification requires one generator per grade")
    alg.single_generator(0)
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
