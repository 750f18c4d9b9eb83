"""Constructors for the classified graded Lie conformal algebra families.

All of Vir, the current algebra of a Lie algebra, V(s), CL1(s), CL2(b, s) and
SCL2(b, s) are built here on an explicit finite window of grades.  V, CL2 and
SCL2 are each one bracket formula in the grades i and j, handed to
``conformal.graded_table``; CL1 is not written separately, since
CL1(s) = CL2(1, -s) on the grades >= -1, and ``make_cl1`` builds it so.  SCL2
is built two independent ways:

* ``make_scl2`` embeds it as the graded ideal of CL2(b, s) spanned by the
  ordinary generators away from grade -2b together with M = (d + 2s) L_{-2b},
  rewriting every bracket in that basis (the oracle construction);
* ``make_scl2_literal`` transcribes the five closed bracket formulas directly.

The two must agree entry by entry; their equality is a desk-scale check of
the printed formulas and is enforced by the acceptance suite.

Parameters ``s`` and ``b`` may be left symbolic wherever the construction
allows (SCL2 needs a concrete rational b because the grading depends on it).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Union

from . import gd
from .conformal import (ConformalAlgebra, GeneratorId, graded_generators,
                        graded_table, half_line)
from .poly import D, X, ParamPoly, as_poly, param

Coefficientish = Union[int, Fraction, str, ParamPoly]
LieConstants = Mapping[tuple[str, str], Mapping[str, Coefficientish]]
SPECIAL_NAME = "M"


class NotALieAlgebraError(ValueError):
    """Current-algebra constants fail antisymmetry or the Lie Jacobi identity."""

    def __init__(self, detail: str):
        super().__init__(detail)


class RewriteFailedError(ArithmeticError):
    """A bracket landing on the rescaled generator is not divisible as required.

    This would falsify the graded-ideal embedding and must never occur for
    genuine inputs; it is surfaced rather than patched.
    """


def _coeff(value: Coefficientish) -> ParamPoly:
    if isinstance(value, str):
        return param(value)
    return as_poly(value)


def make_vir() -> ConformalAlgebra:
    """The Virasoro conformal algebra: one grade-0 generator, [L_x L] = (d+2x)L."""
    gen = GeneratorId(0, "L")
    return ConformalAlgebra([gen], {(gen, gen): {gen: D + 2 * X}})


def make_current(names: Iterable[str], constants: LieConstants
                 ) -> ConformalAlgebra:
    """Current conformal algebra of a finite-dimensional Lie algebra.

    ``constants[(a, b)][c]`` is the coefficient of basis element c in [a, b];
    missing pairs mean zero.  The constants are validated (antisymmetry and
    the Lie Jacobi identity) before the algebra is built; all generators sit
    at grade 0 and the brackets are the constant polynomials.
    """
    basis = tuple(GeneratorId(0, n) for n in names)
    by_name = {g.name: g for g in basis}
    for (left, right), terms in constants.items():
        for name in (left, right, *terms):
            if name not in by_name:
                raise ValueError(f"structure constants use undeclared "
                                 f"basis element {name!r}")
    table: dict[tuple[GeneratorId, GeneratorId], dict[GeneratorId, ParamPoly]] = {}
    for pair in [(u, v) for u in basis for v in basis]:
        terms = constants.get((pair[0].name, pair[1].name), {})
        table[pair] = {by_name[c]: _coeff(val) for c, val in terms.items()}
    lie = gd.LieStructure(basis, table)
    report = gd.check_lie(lie)
    if report.violations:
        first = report.violations[0]
        raise NotALieAlgebraError(
            f"{first.law} fails on ({', '.join(g.name for g in first.elements)})")
    return ConformalAlgebra(basis, table)


def make_v(s: Coefficientish, window: Iterable[int]) -> ConformalAlgebra:
    """The family [L_i x L_j] = (d + 2x + s(i-j)) L_{i+j}."""
    s = _coeff(s)
    gens = graded_generators(window)
    table = graded_table(gens, lambda i, j: D + 2 * X + s * (i - j))
    return ConformalAlgebra(gens.values(), table)


def make_cl1(s: Coefficientish, top: int) -> ConformalAlgebra:
    """The family on grades -1..top: [L_i x L_j] = ((i+1)d + (i+j+2)x + s(j-i)) L_{i+j}."""
    return make_cl2(1, -_coeff(s), half_line(top))


def cl2_entry(b: ParamPoly, s: ParamPoly, i: int, j: int) -> ParamPoly:
    """Structure polynomial of CL2(b, s): (i+b)d + (i+j+2b)x + s(i-j)."""
    return (i + b) * D + (i + j + 2 * b) * X + s * (i - j)


def make_cl2(b: Coefficientish, s: Coefficientish,
             window: Iterable[int]) -> ConformalAlgebra:
    """The family [L_i x L_j] = ((i+b)d + (i+j+2b)x + s(i-j)) L_{i+j}."""
    b, s = _coeff(b), _coeff(s)
    gens = graded_generators(window)
    table = graded_table(gens, lambda i, j: cl2_entry(b, s, i, j))
    return ConformalAlgebra(gens.values(), table)


def _scl2_validate(b: Fraction, window: Iterable[int]
                   ) -> tuple[Fraction, dict[int, GeneratorId], int]:
    """b as a Fraction, the generators (M at grade -2b) and the grade -2b."""
    b = Fraction(b)
    if b == 0 or (2 * b).denominator != 1:
        raise ValueError("SCL2 requires a nonzero rational b with 2b an integer")
    special = int(-2 * b)
    low = int(-4 * b)
    gens = graded_generators(window)
    if special not in gens or low not in gens:
        raise ValueError(f"window must contain grades {special} and {low}")
    gens[special] = GeneratorId(special, SPECIAL_NAME)
    return b, gens, special


def make_scl2(b: Fraction, s: Coefficientish,
              window: Iterable[int]) -> ConformalAlgebra:
    """SCL2(b, s) through its embedding as a graded ideal of CL2(b, s).

    Basis: the CL2 generators L_i away from grade -2b, plus M = (d + 2s)
    L_{-2b}.  Each bracket is evaluated inside CL2 by sesquilinearity (M on
    the left contributes (-x + 2s), M on the right (d + x + 2s)) and, when it
    lands on grade -2b, rewritten as a multiple of M by exact division by
    (d + 2s).  A failed division would falsify the ideal claim and raises
    RewriteFailedError.
    """
    sp = _coeff(s)
    b, gens, special = _scl2_validate(b, window)
    divisor = D + 2 * sp
    left_factor = -X + 2 * sp
    right_factor = D + X + 2 * sp

    def entry(i: int, j: int) -> ParamPoly:
        raw = cl2_entry(_coeff(b), sp, i, j)
        if i == special:
            raw = raw * left_factor
        if j == special:
            raw = raw * right_factor
        if i + j != special:
            return raw
        try:
            return raw.exact_divide(divisor)
        except ArithmeticError as exc:
            raise RewriteFailedError(
                f"bracket ({i}, {j}) is not divisible by {divisor}") from exc

    return ConformalAlgebra(gens.values(), graded_table(gens, entry))


def make_scl2_literal(b: Fraction, s: Coefficientish,
                      window: Iterable[int]) -> ConformalAlgebra:
    """SCL2(b, s) transcribed from its five closed bracket formulas.

    With M the grade -2b generator and L_i the others:

        [L_0 x M]   = b (d + x + 2s) M
        [M x M]     = -b (-x + 2s)(d + x + 2s)(d + 2x) L_{-4b}
        [L_i x M]   = (d + x + 2s)((i+b)d + i x + s(i+2b)) L_{i-2b},  i != 0
        [L_i x L_j] = ((i+b)d + (i+j+2b)x + s(i-j)) L_{i+j},  i+j != -2b
        [L_i x L_j] = (i-j)/2 M,  i+j = -2b

    The general L_i-against-M formula is applied only for i not in {0, -2b};
    at i = 0 the explicit first formula governs (the target is the rescaled
    generator).  Pairs with M on the left are completed by skew-symmetry.
    """
    sp = _coeff(s)
    b, gens, special = _scl2_validate(b, window)
    flip = -(D + X)

    def entry(i: int, j: int) -> ParamPoly:
        if i == special and j == special:
            return -b * (-X + 2 * sp) * (D + X + 2 * sp) * (D + 2 * X)
        if j == special:
            if i == 0:
                return b * (D + X + 2 * sp)
            return (D + X + 2 * sp) * ((i + b) * D + i * X + sp * (i + 2 * b))
        if i == special:
            # [M x L_j] = -[L_j_{-d-x} M], filled from the line above.
            return -entry(j, i).substitute({"x": flip})
        if i + j == special:
            return as_poly(Fraction(i - j, 2))
        return cl2_entry(_coeff(b), sp, i, j)

    return ConformalAlgebra(gens.values(), graded_table(gens, entry))


#: The arguments each family kind reads; ``make_family`` refuses the others,
#: and the ``family`` command offers exactly these kinds.
FAMILY_ARGS = {"Vir": (), "Cur": ("lie",), "V": ("s", "window"),
               "CL1": ("s", "top"), "CL2": ("s", "b", "window"),
               "SCL2": ("s", "b", "window"),
               "SCL2Literal": ("s", "b", "window")}


def make_family(kind: str, *, s: Optional[Coefficientish] = None,
                b: Optional[Coefficientish] = None,
                window: Optional[tuple[int, int]] = None,
                top: Optional[int] = None,
                lie: Optional[Callable[[], ConformalAlgebra]] = None
                ) -> ConformalAlgebra:
    """The family ``kind`` (a key of FAMILY_ARGS) as the command line
    requests it: ``s`` and ``b`` default to symbolic, and the kind requires
    the rest of what it reads (``window``, an inclusive (low, high) pair;
    CL1's ``top`` grade; Cur's ``lie``, a function that builds the current
    algebra, called once the arguments are checked)."""
    if kind not in FAMILY_ARGS:
        raise ValueError(f"unknown family kind {kind!r}")
    given = {"s": s, "b": b, "window": window, "top": top, "lie": lie}
    refused = [f"--{name}" for name, value in given.items()
               if value is not None and name not in FAMILY_ARGS[kind]]
    if refused:
        raise ValueError(f"{kind} does not read {', '.join(refused)}")
    for name in FAMILY_ARGS[kind]:
        if name not in ("s", "b") and given[name] is None:
            raise ValueError(f"{kind} requires --{name}")
    s = s if s is not None else "s"
    b = b if b is not None else "b"
    if kind == "Vir":
        return make_vir()
    if kind == "Cur":
        return lie()
    if kind == "CL1":
        return make_cl1(s, top)
    grades = range(window[0], window[1] + 1)
    if kind == "V":
        return make_v(s, grades)
    if kind == "CL2":
        return make_cl2(b, s, grades)
    if isinstance(b, str):
        raise ValueError("SCL2 requires a rational b")
    maker = make_scl2 if kind == "SCL2" else make_scl2_literal
    return maker(Fraction(b), s, grades)
