"""Exact polynomial solutions of the grade-action functional equation.

For a pair of grades with affine grade-0 actions, scale*(d + w*x + shift) on
the left grade, the right grade and their sum, a structure polynomial
p(d, x) must satisfy the consistency equation obtained from the Jacobi
identity against the grade-0 generator:

    (-x - y + wl*x + sl) p(d, x+y)
        = p(d+x, y) (d + wo*x + so) - (d + y + wr*x + sr) p(d, y)

Solving is exact linear algebra: the coefficients of the unknown polynomial
(all monomials d^a x^b up to a degree bound, or one homogeneous slice) are
unknowns, and both sides are expanded over monomials in d, x, y.  The
residual is linear in p, so column j of the system is the residual of the
j-th unit monomial, and for p = d^a x^b it has a closed form by the binomial
theorem:

    ((wl - 1) x - y + sl) d^a sum_k C(b,k) x^k y^(b-k)
        - sum_k C(a,k) d^(a-k) x^k y^b (d + wo*x + so)
        + (d + y + wr*x + sr) d^a y^b

``integer_system`` collects like terms and writes them straight into sparse
rows, one per exponent triple (e_d, e_x, e_y) that occurs.  It works in
integers: the six constants are scaled by the lcm L of their denominators and
each literal 1 becomes L.  The system is homogeneous, so scaling every row by
L changes no primitive row and no solution.  ``linalg.rref`` solves the
system.  Most equations hold one or two unknowns, so its peel of the
one-entry rows settles almost every column (85 to 91 of the 91 at degree 12),
and its integer Gauss-Jordan elimination reduces the few rows left (at most 7
rows by 6 columns at degree 12).  The reduced row echelon form is unique, so
the kernel does not depend on the order of the equations or on the
elimination path.  ``feq_residual`` is the same residual computed by
polynomial substitution and products, the independent route the closed form
is tested against.

The homogeneous top-degree variant drops the shifts:

    ((wl - 1) x - y) p(d, x+y) = p(d+x, y) (d + wo*x) - (d + y + wr*x) p(d, y)

which is the top-degree component of the full equation and pins down the
leading homogeneous part of any solution.

Solution spaces are returned echelonized: basis polynomials have canonical
leading coefficient 1 and the reduced row echelon form over the monomial
coordinates is kept for reproducible hashing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

from . import linalg
from .poly import DEL, LAM, D, X, Y, Mono, ParamPoly

MAX_FULL_DEGREE = 12
MAX_TOP_DEGREE = 6


class DegreeGuardError(ValueError):
    """Requested degree exceeds the system-size guard."""


@dataclass(frozen=True)
class SpectralTriple:
    """The six affine-action constants entering the functional equation."""

    weight_left: Fraction
    shift_left: Fraction
    weight_right: Fraction
    shift_right: Fraction
    weight_out: Fraction
    shift_out: Fraction

    def __post_init__(self):
        for name in ("weight_left", "shift_left", "weight_right",
                     "shift_right", "weight_out", "shift_out"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


def feq_residual(p: ParamPoly, t: SpectralTriple) -> ParamPoly:
    """Left side minus right side of the functional equation at p: the one
    residual formula.  ``p_shift`` is p(d + x, y), by one simultaneous
    substitution."""
    p_sum = p.substitute({LAM: X + Y})
    p_shift = p.substitute({LAM: Y, DEL: D + X})
    p_mu = p.substitute({LAM: Y})
    return (((t.weight_left - 1) * X - Y + t.shift_left) * p_sum
            - p_shift * (D + t.weight_out * X + t.shift_out)
            + (D + Y + t.weight_right * X + t.shift_right) * p_mu)


def top_residual(p: ParamPoly, weight_left: Fraction, weight_right: Fraction,
                 weight_out: Fraction) -> ParamPoly:
    """Residual of the homogeneous top-degree equation at p: all shifts 0."""
    return feq_residual(p, SpectralTriple(weight_left, 0, weight_right, 0,
                                          weight_out, 0))


@dataclass(frozen=True)
class SolutionBasis:
    """An echelonized basis of a polynomial solution space.

    ``monomials`` fixes the coordinate system (canonical decreasing order);
    ``echelon`` is the reduced row echelon form of the solution vectors, so
    each basis polynomial has canonical leading coefficient 1 and the whole
    object is byte-reproducible.
    """

    monomials: tuple[Mono, ...]
    echelon: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.echelon)

    @property
    def basis(self) -> tuple[ParamPoly, ...]:
        return tuple(ParamPoly(dict(zip(self.monomials, row)))
                     for row in self.echelon)

    def echelon_hash(self) -> str:
        payload = ";".join(
            ",".join(str(v) for v in row) for row in self.echelon)
        monos = "|".join("*".join(f"{v}^{e}" for v, e in m) or "1"
                         for m in self.monomials)
        return hashlib.sha256(f"{monos};;{payload}".encode()).hexdigest()


#: An equation of the system: the exponents (e_d, e_x, e_y) of its monomial.
Equation = tuple[int, int, int]


def integer_system(monomials: Sequence[Mono], t: SpectralTriple
                   ) -> dict[Equation, dict[int, int]]:
    """The residuals of the unit monomials as sparse integer rows.

    Row (e_d, e_x, e_y) maps column j to L times the coefficient of
    d^e_d x^e_x y^e_y in the residual of ``monomials[j]``, where L is the lcm
    of the denominators of the six constants; zero entries are left out.
    """
    constants = (t.weight_left, t.shift_left, t.weight_right, t.shift_right,
                 t.weight_out, t.shift_out)
    scale = lcm(*(c.denominator for c in constants))
    wl, sl, wr, sr, wo, so = (c.numerator * (scale // c.denominator)
                              for c in constants)
    equations: dict[Equation, dict[int, int]] = {}
    for j, mono in enumerate(monomials):
        exps = dict(mono)
        a, b = exps.get(DEL, 0), exps.get(LAM, 0)
        # The closed form with like terms collected: d^(a+1) y^b and
        # d^a y^(b+1) cancel, d^a x y^b and d^a y^b take a term from each
        # of the three products, the x- and y-terms of the first product
        # pair up, and so do the d- and x-terms of the second.  No two
        # entries below share a monomial.
        terms = [((a, 1, b), wl - scale + wr - wo - (a + b) * scale),
                 ((a, 0, b), sl + sr - so)]
        for k in range(1, b + 1):
            c = comb(b, k)
            terms += (((a, k + 1, b - k),
                       (wl - scale) * c - scale * comb(b, k + 1)),
                      ((a, k, b - k), sl * c))
        for k in range(1, a + 1):
            c = comb(a, k)
            terms += (((a - k, k + 1, b), -wo * c - scale * comb(a, k + 1)),
                      ((a - k, k, b), -so * c))
        for eq, v in terms:
            if v:
                equations.setdefault(eq, {})[j] = v
    return equations


def _solve(monomials: Sequence[Mono], t: SpectralTriple) -> SolutionBasis:
    ncols = len(monomials)
    equations = integer_system(monomials, t)
    kernel = linalg.nullspace(list(equations.values()), ncols)
    if not kernel:
        return SolutionBasis(tuple(monomials), ())
    echelon, _ = linalg.rref(
        [{c: v for c, v in enumerate(vec) if v} for vec in kernel], ncols)
    return SolutionBasis(tuple(monomials), echelon)


def _homogeneous(degree: int) -> list[Mono]:
    """d^degree, d^(degree-1) x, ..., x^degree: canonical decreasing order."""
    return [tuple(p for p in ((DEL, degree - b), (LAM, b)) if p[1])
            for b in range(degree + 1)]


def _monomials_up_to(degree: int) -> list[Mono]:
    """Every d^a x^b of degree <= ``degree``, in canonical decreasing order:
    degree down, then the exponent of d down."""
    return [m for n in range(degree, -1, -1) for m in _homogeneous(n)]


def solve_feq(triple: SpectralTriple, max_degree: int) -> SolutionBasis:
    """All polynomial solutions of total degree <= max_degree, exactly."""
    if max_degree > MAX_FULL_DEGREE:
        raise DegreeGuardError(f"degree bound {max_degree} exceeds "
                               f"{MAX_FULL_DEGREE}")
    return _solve(_monomials_up_to(max_degree), triple)


def solve_feq_top(weight_left: Fraction, weight_right: Fraction,
                  weight_out: Fraction, degree: int) -> SolutionBasis:
    """Homogeneous degree-``degree`` solutions of the top-degree equation."""
    if degree > MAX_TOP_DEGREE:
        raise DegreeGuardError(f"homogeneous degree {degree} exceeds "
                               f"{MAX_TOP_DEGREE}")
    return _solve(_homogeneous(degree),
                  SpectralTriple(weight_left, 0, weight_right, 0, weight_out, 0))


# -- reproduction of the two homogeneous solution tables -----------------------

@dataclass(frozen=True)
class TableCase:
    """One homogeneous case: weights, degree, and the printed solution.

    ``expected`` is the canonical string of the unique solution up to scalar,
    or None for off-table weight choices whose solution space must be empty.
    The out-weight always honors  wl + wr = wo + degree + 1; ``weight_out``
    is computed from the other fields once, when the case is made.
    """

    label: str
    weight_left: Fraction
    weight_right: Fraction
    degree: int
    expected: Optional[str]
    weight_out: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "weight_out",
                           Fraction(self.weight_left)
                           + Fraction(self.weight_right) - self.degree - 1)


#: The two printed tables: the eight cases with weight_out != 0, then the
#: six with weight_out = 0, each table followed by its off-table probes.
TABLE_CASES = (
    TableCase("generic/deg0", Fraction(3), Fraction(0), 0, "1"),
    TableCase("generic/deg1", Fraction(2), Fraction(2), 1, "d + 2*x"),
    TableCase("generic/deg2", Fraction(3), Fraction(1), 2,
              "d^2 + 3/2*d*x + 1/2*x^2"),
    TableCase("generic/deg3", Fraction(5, 3), Fraction(5, 3), 3,
              "d^3 + 3/2*d^2*x - 3/2*d*x^2 - x^3"),
    TableCase("weight1/deg0", Fraction(1), Fraction(3), 0, "1"),
    TableCase("weight1/deg1", Fraction(1), Fraction(2), 1, "x"),
    TableCase("weight1/deg2", Fraction(1), Fraction(5), 2, "d*x - 3*x^2"),
    TableCase("weight1/deg3", Fraction(1), Fraction(1), 3,
              "d^2*x + 3*d*x^2 + 2*x^3"),
    TableCase("off-table/deg2", Fraction(3), Fraction(2), 2, None),
    TableCase("off-table/deg3", Fraction(2), Fraction(3), 3, None),
    TableCase("off-table/weight1-deg3", Fraction(1), Fraction(2), 3, None),
    TableCase("off-table/deg4", Fraction(3), Fraction(3), 4, None),
    TableCase("zero-out/deg0", Fraction(3), Fraction(-2), 0, "1"),
    TableCase("zero-out/deg1", Fraction(3), Fraction(-1), 1, "d"),
    TableCase("zero-out/deg2", Fraction(3), Fraction(0), 2, "d^2 + 1/2*d*x"),
    TableCase("zero-out/weight1-deg2", Fraction(1), Fraction(2), 2, "d*x"),
    TableCase("zero-out/weight1-deg3", Fraction(1), Fraction(3), 3,
              "d^2*x - d*x^2"),
    TableCase("zero-out/weight3-deg3", Fraction(3), Fraction(1), 3,
              "d^3 + 3/2*d^2*x + 1/2*d*x^2"),
    TableCase("zero-out/off-table-deg3", Fraction(2), Fraction(2), 3, None),
    TableCase("zero-out/off-table-deg4", Fraction(5, 2), Fraction(5, 2), 4,
              None),
)


@dataclass(frozen=True)
class TableCaseResult:
    """A case and the homogeneous solutions ``solve_feq_top`` finds for it."""

    case: TableCase
    dimension: int
    basis: tuple[str, ...]
    passed: bool


def reproduce_tables() -> tuple[TableCaseResult, ...]:
    """Solve every case of TABLE_CASES: a table case passes when its solution
    space is the line of ``expected``, an off-table probe when it is empty.
    The basis is monic and each ``expected`` is printed monic, so comparing
    the printed forms compares the polynomials."""
    results = []
    for case in TABLE_CASES:
        solutions = solve_feq_top(case.weight_left, case.weight_right,
                                  case.weight_out, case.degree)
        basis = tuple(str(p) for p in solutions.basis)
        expected = () if case.expected is None else (case.expected,)
        results.append(TableCaseResult(case, solutions.dimension, basis,
                                       basis == expected))
    return tuple(results)
