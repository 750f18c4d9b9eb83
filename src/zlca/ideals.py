"""Graded submodules, ideal closure and the simplicity probe.

A graded submodule assigns each window grade one of three components: the
full rank-one module, the zero module, or a principal piece generated by a
monic polynomial q(d) times the grade's generator.  A principal component
with constant generator normalizes to full, so components are stored as a
map grade -> monic generator with q = 1 meaning full and a missing grade
meaning zero.

Every bracket is one landing formula on the rank-one table: a component
q(d) L_j bracketed with L_i lands as p_{i,j}(d, x) q(d+x) L_{i+j}, with
p_{i,j} from ``graded_entry`` and q shifted once per use, not once per pair
(``conformal.bracket``, the general sesquilinear route, is the tests'
reference).  The value lies in the target component exactly when that
component's generator divides it as a polynomial in d (the bracket variable
and any parameters ride along as transparent coefficients), which is what
the canonical-order division computes when the divisor is monic in d.

``ideal_generated_by`` is a worklist fixpoint.  It keeps the grades whose
component changed since they were last bracketed, brackets only those against
the window generators, and accumulates at each landing grade the gcd in d
(``poly.gcd_in_d``) of all coefficient polynomials (split by powers of the
bracket variable).  A pair whose landing grade is already full is skipped:
the gcd with 1 is 1.  Brackets escaping the window are counted; any escape
makes the result a lower bound of the true ideal, which the simplicity probe
therefore reports as evidence at truncation, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .conformal import ConformalAlgebra, Element, GeneratorId
from .poly import DEL, LAM, MU, D, X, ParamPoly, as_poly, gcd_in_d

FULL = ParamPoly.const(1)


def _validate_component(q: ParamPoly) -> ParamPoly:
    q = as_poly(q)
    if q.is_zero():
        raise ValueError("use absence, not a zero generator, for zero components")
    if LAM in q.variables() or MU in q.variables():
        raise ValueError("component generators live in d and parameters only")
    lead = q.coefficients_in(DEL).get(q.degree_in(DEL), ParamPoly.zero())
    if lead != as_poly(1):
        raise ValueError(f"component generator must be monic in d: {q}")
    if q.degree_in(DEL) == 0:
        return FULL
    return q


class GradedSubmodule:
    """Per-grade components: monic generator in d; 1 = full, absent = zero."""

    def __init__(self, components: Mapping[int, ParamPoly]):
        self.components = {grade: _validate_component(q)
                           for grade, q in dict(components).items()}

    @classmethod
    def full_on(cls, grades: Iterable[int]) -> "GradedSubmodule":
        return cls({g: FULL for g in grades})

    def generator(self, grade: int) -> Optional[ParamPoly]:
        """The monic component generator, or None for the zero component."""
        return self.components.get(grade)

    def is_full(self, grade: int) -> bool:
        return self.components.get(grade) == FULL

    def is_zero(self, grade: int) -> bool:
        return grade not in self.components

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted(self.components))

    def describe(self, grade: int) -> str:
        q = self.components.get(grade)
        if q is None:
            return "zero"
        if q == FULL:
            return "full"
        return str(q)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedSubmodule)
                and self.components == other.components)

    def __repr__(self) -> str:
        body = ", ".join(f"{g}: {self.describe(g)}"
                         for g in sorted(self.components))
        return f"GradedSubmodule({{{body}}})"


@dataclass(frozen=True)
class IdealWitness:
    ambient: GeneratorId
    submodule_grade: int
    target_grade: int
    residual: ParamPoly


@dataclass(frozen=True)
class IdealReport:
    closed: bool
    witnesses: tuple[IdealWitness, ...]
    checked: int
    skipped: int


def is_graded_ideal(alg: ConformalAlgebra, sub: GradedSubmodule) -> IdealReport:
    """Check closure of a graded submodule under bracketing with the algebra.

    Every window generator is bracketed against every nonzero submodule
    component; the value must land in the target component (exact divisibility
    by its monic generator, or vanishing for a zero component).  Pairs whose
    target grade escapes the window are skipped and counted.  The bracket
    value is p_{i,j} from ``graded_entry``; free parameters ride along as
    coefficients, so bind first (``instantiate``) to check at values.
    """
    if not alg.one_generator_per_grade():
        raise ValueError("ideal check requires exactly one generator per grade")
    for grade in sub.grades():
        if grade not in alg.window:
            raise ValueError(f"submodule grade {grade} is outside the window")
    shifted = {grade: sub.generator(grade).substitute(DEL, D + X)
               for grade in sub.grades()}
    checked = skipped = 0
    witnesses: list[IdealWitness] = []
    for u_grade in sorted(alg.window):
        u = alg.single_generator(u_grade)
        for v_grade, q_v in shifted.items():
            target_grade = u_grade + v_grade
            if target_grade not in alg.window:
                skipped += 1
                continue
            checked += 1
            value = alg.graded_entry(u_grade, v_grade) * q_v
            if value.is_zero():
                continue
            q_w = sub.generator(target_grade)
            if q_w is None:
                witnesses.append(IdealWitness(u, v_grade, target_grade, value))
            elif q_w != FULL:
                try:
                    value.exact_divide(q_w)
                except ArithmeticError as exc:
                    witnesses.append(IdealWitness(u, v_grade, target_grade,
                                                  exc.remainder))
    return IdealReport(not witnesses, tuple(witnesses), checked, skipped)


# -- closure --------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureResult:
    submodule: GradedSubmodule
    converged: bool
    iterations: int
    boundary_skips: int

    @property
    def window_truncated(self) -> bool:
        """True when some bracket escaped the window (result is a lower bound)."""
        return self.boundary_skips > 0


def ideal_generated_by(alg: ConformalAlgebra, seed: Element,
                       max_iterations: int = 64) -> ClosureResult:
    """Least window-closed graded submodule containing the seed.

    Requires a parameter-free algebra and seed (instantiate first).  Each
    pass walks the nonzero grades in sorted order and brackets every window
    generator against those whose component changed since they were last
    bracketed, accumulating per grade the gcd in d of all landed coefficients
    (split by powers of the bracket variable).  Pairs landing outside the
    window are counted as boundary skips; pairs landing on a full grade are
    skipped.  The result converges when a pass changes nothing, or stops at
    the iteration guard.

    Skipping loses nothing: a component only ever shrinks to a divisor of
    itself, so a value absorbed once stays divisible by its landing
    component, and re-bracketing an unchanged component adds nothing.  Every
    pass therefore leaves the same state as a pass over all grades would,
    and the least closed submodule is the same.  Every grade is bracketed in
    the pass after it first becomes nonzero, so ``window_truncated`` is the
    same too; only the ``boundary_skips`` count falls.
    """
    if alg.params:
        raise ValueError("closure requires an instantiated algebra "
                         f"(free parameters: {sorted(alg.params)})")
    if not alg.one_generator_per_grade():
        raise ValueError("closure requires exactly one generator per grade")
    state: dict[int, ParamPoly] = {}

    def absorb(grade: int, poly: ParamPoly) -> bool:
        """Fold a landed value into the grade's gcd; True if the ideal grew."""
        grew = False
        for coef in poly.coefficients_in(LAM).values():
            if coef.params():
                raise ValueError("closure requires an instantiated seed")
            current = state.get(grade)
            new = coef.monic() if current is None else gcd_in_d(current, coef)
            if new != current:
                state[grade] = new
                grew = True
        return grew

    for gen, coef in seed.coeffs.items():
        absorb(gen.grade, coef)

    pending = set(state)
    boundary_skips = 0
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        changed = False
        for v_grade in sorted(state):
            if v_grade not in pending:
                continue
            pending.discard(v_grade)
            q_v = state[v_grade].substitute(DEL, D + X)
            for u_grade in sorted(alg.window):
                target_grade = u_grade + v_grade
                if target_grade not in alg.window:
                    boundary_skips += 1
                    continue
                if state.get(target_grade) == FULL:
                    continue
                if absorb(target_grade,
                          alg.graded_entry(u_grade, v_grade) * q_v):
                    pending.add(target_grade)
                    changed = True
        if not changed:
            converged = True
            break
    return ClosureResult(GradedSubmodule(state), converged, iterations,
                         boundary_skips)


# -- simplicity probe -------------------------------------------------------------

@dataclass(frozen=True)
class ProbeFinding:
    seed_grade: int
    proper: bool
    components: tuple[tuple[int, str], ...]  # (grade, "full"|"zero"|poly) on core
    window_truncated: bool
    converged: bool  # False: the iteration guard cut the closure short


@dataclass(frozen=True)
class ProbeReport:
    core: tuple[int, ...]
    findings: tuple[ProbeFinding, ...]
    note: str = ("evidence at truncation only: a proper closure witnesses a "
                 "proper graded ideal candidate, absence of one proves nothing")

    @property
    def proper_seeds(self) -> tuple[int, ...]:
        return tuple(f.seed_grade for f in self.findings if f.proper)


def simplicity_probe(alg: ConformalAlgebra, core: Iterable[int]
                     ) -> ProbeReport:
    """Closure of each single-generator seed over a core of grades.

    A seed whose closure is not full at every core grade is evidence of a
    proper graded ideal.  The core should sit well inside the window so that
    boundary truncation does not starve the closure.  Bind first: the
    closure requires a parameter-free algebra (``instantiate``).
    """
    core_grades = tuple(sorted(set(core)))
    for grade in core_grades:
        if grade not in alg.window:
            raise ValueError(f"core grade {grade} is outside the window")
    findings = []
    for seed_grade in core_grades:
        seed = Element.generator(alg.single_generator(seed_grade))
        closure = ideal_generated_by(alg, seed)
        components = tuple((g, closure.submodule.describe(g))
                           for g in core_grades)
        proper = not all(closure.submodule.is_full(g) for g in core_grades)
        findings.append(ProbeFinding(seed_grade, proper, components,
                                     closure.window_truncated,
                                     closure.converged))
    return ProbeReport(core_grades, tuple(findings))
