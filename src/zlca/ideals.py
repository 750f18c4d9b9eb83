"""Graded submodules, ideal closure and the simplicity probe.

A graded submodule assigns each window grade one of three components: the
full rank-one module, the zero module, or a principal piece generated by a
monic polynomial q(d) times the grade's generator.  Components are stored
as a map grade -> monic generator, with q = 1 meaning full and a missing
grade meaning zero.  A generator must be monic in d: any other constant, such
as 2 or s, is refused, not normalized to full.  A refused component's
ValueError names its grade: "submodule component at <grade>: <reason>".

Every bracket is one landing formula on the rank-one table: a component
q(d) L_j bracketed with L_i lands as p_{i,j}(d, x) q(d+x) L_{i+j}, with
p_{i,j} from ``graded_entry``, L_j from the grade map of ``rank_one``, and
q shifted once per use, not once per pair (``conformal.bracket``, the
general sesquilinear route, is the tests' reference).  A full component (q = 1) lands p_{i,j} itself, with no shift
and no product.  The value lies in the target component exactly when that
component's generator divides it as a polynomial in d (the bracket variable
and any parameters ride along as transparent coefficients), which is what
``poly``'s one canonical-order division decides when the divisor is monic in
d; a violation reports its unique remainder.
``is_graded_ideal`` reports as the law checks of ``conformal`` do, in one
``LawReport`` with a ``LawViolation`` per bracket that leaves the submodule.

``ideal_generated_by`` is a worklist fixpoint.  It keeps the grades whose
component changed since they were last bracketed, brackets only those against
the window generators, and accumulates at each landing grade the gcd in d
(``poly.gcd_in_d``) of all coefficient polynomials (split by powers of the
bracket variable).  A pair whose landing grade is already full is skipped:
the gcd with 1 is 1, which ``gcd_in_d`` returns with no division for any
constant.  Brackets escaping the window are counted; any escape makes the
result a lower bound of the true ideal, which the simplicity probe therefore
reports as evidence at truncation, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .conformal import ConformalAlgebra, Element, LawReport, LawViolation
from .poly import (DEL, LAM, MU, D, X, NotDivisibleError, ParamPoly, as_poly,
                   gcd_in_d)

FULL = ParamPoly.const(1)


def _validate_component(q: ParamPoly) -> ParamPoly:
    q = as_poly(q)
    if q == FULL:
        return FULL
    if q.is_zero():
        raise ValueError("use absence, not a zero generator, for zero components")
    if LAM in q.variables() or MU in q.variables():
        raise ValueError("component generators live in d and parameters only")
    by_power = q.coefficients_in(DEL)
    if by_power[max(by_power)] != as_poly(1):
        raise ValueError(f"component generator must be monic in d: {q}")
    return q


class GradedSubmodule:
    """Per-grade components: monic generator in d; 1 = full, absent = zero."""

    def __init__(self, components: Mapping[int, ParamPoly]):
        self.components: dict[int, ParamPoly] = {}
        for grade, q in dict(components).items():
            try:
                self.components[grade] = _validate_component(q)
            except ValueError as exc:
                raise ValueError(f"submodule component at {grade}: {exc}"
                                 ) from None

    def generator(self, grade: int) -> Optional[ParamPoly]:
        """The monic component generator, or None for the zero component."""
        return self.components.get(grade)

    def is_full(self, grade: int) -> bool:
        return self.components.get(grade) == FULL

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


def _shift(q: ParamPoly) -> ParamPoly:
    """q(d + x), as a component lands; a full component stays 1."""
    return q if q == FULL else q.substitute({DEL: D + X})


def _land(alg: ConformalAlgebra, i: int, j: int, q: ParamPoly) -> ParamPoly:
    """p_{i,j}(d, x) times a shifted component q: no product when q is 1."""
    entry = alg.graded_entry(i, j)
    return entry if q == FULL else entry * q


def is_graded_ideal(alg: ConformalAlgebra, sub: GradedSubmodule) -> LawReport:
    """Check closure of a graded submodule under bracketing with the algebra.

    Every window generator is bracketed against every nonzero submodule
    component; the value must land in the target component (exact divisibility
    by its monic generator, or vanishing for a zero component).  Pairs whose
    target grade escapes the window are skipped and counted.  A failing pair
    is ``LawViolation("ideal", (ambient, generator at the submodule grade),
    ((target, value or remainder),))``.  The bracket value is p_{i,j} from
    ``graded_entry``; free parameters ride along as coefficients, so bind
    first (``instantiate``) to check at values.  A pair landing on a full
    grade is checked with no product, as is one from a full component.
    """
    gens = alg.rank_one("ideal check")
    for grade in sub.grades():
        if grade not in alg.window:
            raise ValueError(f"submodule grade {grade} is outside the window")
    shifted = {grade: _shift(sub.generator(grade)) for grade in sub.grades()}
    checked = skipped = 0
    violations: list[LawViolation] = []
    for u in alg.generators:
        for v_grade, q_v in shifted.items():
            target_grade = u.grade + v_grade
            if target_grade not in alg.window:
                skipped += 1
                continue
            checked += 1
            q_w = sub.generator(target_grade)
            if q_w == FULL:
                continue
            value = _land(alg, u.grade, v_grade, q_v)
            if value.is_zero():
                continue
            if q_w is not None:
                try:
                    value.exact_divide(q_w)
                    continue
                except NotDivisibleError as exc:
                    value = exc.remainder
            violations.append(LawViolation(
                "ideal", (u, gens[v_grade]), ((gens[target_grade], value),)))
    return LawReport(checked, skipped, tuple(violations))


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
    skipped, and a full component is neither shifted nor multiplied.  The
    result converges when a pass changes nothing, or stops at the iteration
    guard.

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
    alg.rank_one("closure")
    state: dict[int, ParamPoly] = {}

    def absorb(grade: int, poly: ParamPoly) -> bool:
        """Fold a landed value into the grade's gcd; True if the ideal grew."""
        grew = False
        for coef in poly.coefficients_in(LAM).values():
            if coef.params():
                raise ValueError("closure requires an instantiated seed")
            new = gcd_in_d(state.get(grade, ParamPoly.zero()), coef)
            if new != state.get(grade):
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
            q_v = _shift(state[v_grade])
            for u_grade in sorted(alg.window):
                target_grade = u_grade + v_grade
                if target_grade not in alg.window:
                    boundary_skips += 1
                    continue
                if state.get(target_grade) == FULL:
                    continue
                if absorb(target_grade, _land(alg, u_grade, v_grade, q_v)):
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
    findings: tuple[ProbeFinding, ...]
    note: str = ("evidence at truncation only: a proper closure witnesses a "
                 "proper graded ideal candidate, absence of one proves nothing")


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
    gens = alg.rank_one("simplicity probe")
    findings = []
    for seed_grade in core_grades:
        seed = Element.generator(gens[seed_grade])
        closure = ideal_generated_by(alg, seed)
        components = tuple((g, closure.submodule.describe(g))
                           for g in core_grades)
        proper = not all(closure.submodule.is_full(g) for g in core_grades)
        findings.append(ProbeFinding(seed_grade, proper, components,
                                     closure.window_truncated,
                                     closure.converged))
    return ProbeReport(tuple(findings))
