"""Exact sparse polynomial arithmetic over Q in formal variables and parameters.

A polynomial lives in Q[d, x, y, s, t, ...] where `d`, `x`, `y` are the three
*formal* variables of the lambda-bracket calculus (the module operator and the
two bracket parameters) and every other lowercase identifier is a free
*parameter* (weight zero).  The representation is a dict mapping monomials to
nonzero rational coefficients, so two polynomials are equal exactly when their
dicts are equal: the dict *is* the canonical normal form.

Storage contract: a coefficient is stored as an ``int`` when it is integral
and as a ``fractions.Fraction`` otherwise.  ``int`` n and ``Fraction(n)``
compare and hash equal, so the normal form is unaffected, and integer
arithmetic skips the gcd work of ``Fraction``.  Every method that hands a
coefficient to a caller (``terms``, ``coefficient``, ``as_fraction``,
``leading_coefficient``) returns a ``Fraction``; only ``items`` hands out the
stored values.  Quotients are formed with ``Fraction``, never with ``/`` on
two ints.  There is deliberately no process-wide cache (of monomial products
or anything else): it would grow with every polynomial a long-running process
ever saw.

A monomial is a tuple of ``(variable, exponent)`` pairs, sorted by the
canonical variable precedence

    d > x > y > parameters alphabetically

with no zero exponents.  The canonical monomial order is graded lexicographic:
first by *formal* degree (parameters do not count), then lexicographically by
exponents along the precedence above.  The same order drives printing, leading
terms, and exact division.

``Packing`` is a second format for one hot loop, the Jacobi residual: each
monomial is one ``int`` whose bit fields hold the exponents, each coefficient
an ``int`` numerator over a denominator shared by a whole set of polynomials.
It converts from and back to ``ParamPoly`` and exposes nothing else.

``gcd_in_d`` is the one polynomial gcd: the monic gcd of two polynomials in
d alone, with which the ideal closure accumulates its components.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

DEL = "d"  # the module operator acting on generators
LAM = "x"  # the bracket parameter
MU = "y"   # the auxiliary bracket parameter (nested brackets)
FORMAL_VARS = (DEL, LAM, MU)

#: Formal degree of the zero polynomial.
MINUS_INFINITY = float("-inf")

Mono = tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]
Coefficient = Union[int, Fraction, "ParamPoly"]

ONE_MONO: Mono = ()
_D_MONO: Mono = ((DEL, 1),)
_X_MONO: Mono = ((LAM, 1),)
_AFFINE_MONOS = frozenset((ONE_MONO, _D_MONO, _X_MONO))

#: Parameter names are ASCII: a lowercase letter, then lowercase letters,
#: digits and underscores.
_PARAM_NAME = re.compile(r"[a-z][a-z0-9_]*")

_FORMAL_RANK = {DEL: (0, ""), LAM: (1, ""), MU: (2, "")}
# Sentinel ranking above every real variable; makes a monomial that is a
# proper "prefix" of another sort after it (the longer one has the larger
# exponent at the first extra variable).
_END = ((3, "\x7f"), 0)


class SubstituteParamError(ValueError):
    """Raised when substitute() targets a parameter instead of d, x or y."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


class NotDivisibleError(ArithmeticError):
    """Raised by exact_divide when no exact quotient exists."""

    def __init__(self, dividend: "ParamPoly", divisor: "ParamPoly",
                 remainder: "ParamPoly"):
        super().__init__(f"({dividend}) is not divisible by ({divisor}); "
                         f"remainder {remainder}")
        self.dividend = dividend
        self.divisor = divisor
        self.remainder = remainder


def _var_rank(var: str) -> tuple[int, str]:
    return _FORMAL_RANK.get(var, (3, var))


def mono_formal_degree(mono: Mono) -> int:
    return sum(e for v, e in mono if v in _FORMAL_RANK)


def mono_total_degree(mono: Mono) -> int:
    return sum(e for _, e in mono)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """The product monomial: a linear merge of two canonically sorted tuples.

    Formal variables rank before parameters and d < x < y as strings, so the
    ``_var_rank`` order is: formal first, then plain string order.
    """
    if not a:
        return b
    if not b:
        return a
    formal = _FORMAL_RANK
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif ((va < vb) if (va in formal) is (vb in formal)
              else va in formal):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    if i < na:
        out.extend(a[i:])
    elif j < nb:
        out.extend(b[j:])
    return tuple(out)


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when monomial a divides monomial b."""
    be = dict(b)
    return all(be.get(v, 0) >= e for v, e in a)


def mono_div(b: Mono, a: Mono) -> Mono:
    """The quotient monomial b / a; caller guarantees divisibility."""
    exps = dict(a)
    return tuple((v, e - exps.get(v, 0)) for v, e in b
                 if e != exps.get(v, 0))


def mono_sort_key(mono: Mono):
    """Sort key putting the canonically largest monomial first.

    ``sorted(monos, key=mono_sort_key)`` lists monomials in decreasing
    canonical (graded lexicographic) order.
    """
    return (-mono_formal_degree(mono),
            tuple((_var_rank(v), -e) for v, e in mono) + (_END,))


def _mono_str(mono: Mono) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


def _without(mono: Mono, var: str) -> tuple[int, Mono]:
    """The exponent of var in mono and the monomial with var removed."""
    for k, (v, e) in enumerate(mono):
        if v == var:
            return e, mono[:k] + mono[k + 1:]
    return 0, mono


def _clean(terms: dict[Mono, Scalar]) -> dict[Mono, Scalar]:
    """Drop zero coefficients and store integral ones as int."""
    return {m: (c if c.__class__ is int or c.denominator != 1
                else c.numerator)
            for m, c in terms.items() if c}


class ParamPoly:
    """Immutable multivariate polynomial over Q in normal form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] = ()):
        object.__setattr__(self, "_terms", _clean(
            {mono: Fraction(coef) for mono, coef in dict(terms).items()}))

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return _ZERO

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        return cls({ONE_MONO: value})

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        if name in _FORMAL_RANK:
            return cls({((name, 1),): 1})
        if not _PARAM_NAME.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        return cls({((name, 1),): 1})

    @staticmethod
    def _wrap(terms: dict[Mono, Scalar]) -> "ParamPoly":
        """A polynomial from raw terms, cleaned (see ``_clean``)."""
        return ParamPoly._adopt(_clean(terms))

    @staticmethod
    def _adopt(terms: dict[Mono, Scalar]) -> "ParamPoly":
        """A polynomial owning an already clean terms dict."""
        poly = ParamPoly.__new__(ParamPoly)
        object.__setattr__(poly, "_terms", terms)
        return poly

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        """True when the polynomial involves no variable at all."""
        return not self._terms or self._terms.keys() == {ONE_MONO}

    def is_formal_constant(self) -> bool:
        """True when no formal variable (d, x, y) occurs."""
        return all(mono_formal_degree(m) == 0 for m in self._terms)

    def as_fraction(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self._terms[ONE_MONO])

    def variables(self) -> frozenset[str]:
        return frozenset(v for m in self._terms for v, _ in m)

    def params(self) -> frozenset[str]:
        return frozenset(v for v in self.variables() if v not in _FORMAL_RANK)

    def terms(self) -> Iterator[tuple[Mono, Fraction]]:
        """Terms in decreasing canonical order."""
        for mono in sorted(self._terms, key=mono_sort_key):
            yield mono, Fraction(self._terms[mono])

    def items(self) -> Iterator[tuple[Mono, Scalar]]:
        """Terms in storage order, coefficients as stored (int or Fraction).

        For callers that need neither the canonical order nor ``Fraction``
        values, such as one that builds a sparse linear system.
        """
        return iter(self._terms.items())

    def coefficient(self, mono: Mono) -> Fraction:
        return Fraction(self._terms.get(mono, 0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParamPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == ParamPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: Coefficient) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return ParamPoly.const(value)
        raise TypeError(f"cannot treat {value!r} as a polynomial")

    def __add__(self, other: Coefficient) -> "ParamPoly":
        other = self._coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        get = out.get
        for mono, coef in other._terms.items():
            c = get(mono, 0) + coef
            if not c:
                del out[mono]
            elif c.__class__ is int or c.denominator != 1:
                out[mono] = c
            else:
                out[mono] = c.numerator
        return self._adopt(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return self._adopt({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Coefficient) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Coefficient) -> "ParamPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Coefficient) -> "ParamPoly":
        other = self._coerce(other)
        if not self._terms or not other._terms:
            return _ZERO
        out: dict[Mono, Scalar] = {}
        get = out.get
        right = other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in right:
                mono = mono_mul(m1, m2)
                out[mono] = get(mono, 0) + c1 * c2
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ParamPoly":
        """Exponentiation by repeated squaring."""
        if exponent < 0:
            raise ValueError("negative exponent")
        result = ParamPoly.const(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    # -- structure ---------------------------------------------------------

    def formal_degree(self) -> Union[int, float]:
        """Max total degree in d, x, y; MINUS_INFINITY for the zero poly."""
        if not self._terms:
            return MINUS_INFINITY
        return max(mono_formal_degree(m) for m in self._terms)

    def leading_homogeneous(self) -> "ParamPoly":
        """The sum of terms of maximal formal degree."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading part")
        top = self.formal_degree()
        return self._wrap({m: c for m, c in self._terms.items()
                           if mono_formal_degree(m) == top})

    def leading_monomial(self) -> Mono:
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading monomial")
        return min(self._terms, key=mono_sort_key)

    def leading_coefficient(self) -> Fraction:
        return Fraction(self._terms[self.leading_monomial()])

    def monic(self) -> "ParamPoly":
        """Rescale so the canonical leading coefficient is 1."""
        if not self._terms:
            return self
        lc = self._terms[self.leading_monomial()]
        if lc == 1:
            return self
        return self._wrap({m: Fraction(c, lc) for m, c in self._terms.items()})

    def degree_in(self, var: str) -> int:
        """Max exponent of one variable; -1 on the zero polynomial."""
        if not self._terms:
            return -1
        return max((dict(m).get(var, 0) for m in self._terms), default=0)

    def coefficients_in(self, var: str) -> dict[int, "ParamPoly"]:
        """Split as a polynomial in one variable: exponent -> coefficient."""
        buckets: dict[int, dict[Mono, Scalar]] = {}
        for mono, coef in self._terms.items():
            e, rest = _without(mono, var)
            buckets.setdefault(e, {})[rest] = coef
        return {e: self._adopt(terms) for e, terms in buckets.items()}

    def formal_coefficients(self) -> dict[Mono, "ParamPoly"]:
        """Group terms by their formal-variable part.

        Returns a map from pure {d,x,y} monomials to coefficients in the
        parameters alone.
        """
        buckets: dict[Mono, dict[Mono, Scalar]] = {}
        for mono, coef in self._terms.items():
            formal = tuple((v, e) for v, e in mono if v in _FORMAL_RANK)
            rest = tuple((v, e) for v, e in mono if v not in _FORMAL_RANK)
            buckets.setdefault(formal, {})[rest] = coef
        return {f: self._adopt(terms) for f, terms in buckets.items()}

    def affine_parts(self) -> "tuple[ParamPoly, ParamPoly, ParamPoly] | None":
        """Split as a*d + b*x + c with a, b, c free of d, x and y.

        Returns (a, b, c), or None when some term is not of that form.
        """
        parts = self.formal_coefficients()
        if set(parts) - _AFFINE_MONOS:
            return None
        return (parts.get(_D_MONO, _ZERO), parts.get(_X_MONO, _ZERO),
                parts.get(ONE_MONO, _ZERO))

    # -- substitution ------------------------------------------------------

    def substitute(self, var: str, replacement: "ParamPoly") -> "ParamPoly":
        """Replace every occurrence of a formal variable, renormalizing.

        Only d, x, y may be substituted; parameters are bound through
        instantiate() instead.
        """
        if var not in _FORMAL_RANK:
            raise SubstituteParamError(
                f"cannot substitute parameter {var!r}; use instantiate()")
        replacement = self._coerce(replacement)
        out: dict[Mono, Scalar] = {}
        get = out.get
        powers: dict[int, dict[Mono, Scalar]] = {0: {ONE_MONO: 1}}
        for mono, coef in self._terms.items():
            e, rest = _without(mono, var)
            if e not in powers:
                powers[e] = (replacement ** e)._terms
            for m2, c2 in powers[e].items():
                m = mono_mul(rest, m2)
                out[m] = get(m, 0) + coef * c2
        return self._wrap(out)

    def instantiate(self, bindings: Mapping[str, Scalar]) -> "ParamPoly":
        """Bind parameters to rational values; unbound parameters remain."""
        for name in bindings:
            if name in _FORMAL_RANK:
                raise SubstituteParamError(
                    f"{name!r} is a formal variable, not a parameter")
        if not bindings:
            return self
        out: dict[Mono, Scalar] = {}
        for mono, coef in self._terms.items():
            value = coef
            kept: list[tuple[str, int]] = []
            for v, e in mono:
                if v in bindings:
                    value *= Fraction(bindings[v]) ** e
                else:
                    kept.append((v, e))
            rest = tuple(kept)
            out[rest] = out.get(rest, 0) + value
        return self._wrap(out)

    # -- division ----------------------------------------------------------

    def exact_divide(self, divisor: "ParamPoly") -> "ParamPoly":
        """Exact quotient self / divisor under the canonical monomial order.

        Raises NotDivisibleError (carrying the division remainder) when no
        exact quotient exists; raises ZeroPolynomialError on a zero divisor.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroPolynomialError("division by the zero polynomial")
        quotient: dict[Mono, Scalar] = {}
        remainder: dict[Mono, Scalar] = {}
        lead_mono = divisor.leading_monomial()
        lead_coef = divisor._terms[lead_mono]
        rest = self
        while rest._terms:
            mono = rest.leading_monomial()
            coef = rest._terms[mono]
            if mono_divides(lead_mono, mono):
                t_mono = mono_div(mono, lead_mono)
                t_coef = Fraction(coef, lead_coef)
                quotient[t_mono] = quotient.get(t_mono, 0) + t_coef
                rest = rest - self._wrap({t_mono: t_coef}) * divisor
            else:
                remainder[mono] = coef
                rest = rest - self._wrap({mono: coef})
        if remainder:
            raise NotDivisibleError(self, divisor, self._wrap(remainder))
        return self._wrap(quotient)

    def divides(self, other: "ParamPoly") -> bool:
        try:
            other.exact_divide(self)
            return True
        except NotDivisibleError:
            return False

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono in sorted(self._terms, key=mono_sort_key):
            coef = self._terms[mono]
            mag = abs(coef)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = _mono_str(mono)
            else:
                body = f"{mag}*{_mono_str(mono)}"
            if not chunks:
                chunks.append(f"-{body}" if coef < 0 else body)
            else:
                chunks.append(f"- {body}" if coef < 0 else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


_ZERO = ParamPoly()

#: The three formal variables as polynomials, for building tables in code.
D = ParamPoly.variable(DEL)
X = ParamPoly.variable(LAM)
Y = ParamPoly.variable(MU)


def param(name: str) -> ParamPoly:
    """The named parameter as a polynomial."""
    if name in _FORMAL_RANK:
        raise ValueError(f"{name!r} is a formal variable, not a parameter")
    return ParamPoly.variable(name)


def const(value: Scalar) -> ParamPoly:
    return ParamPoly.const(value)


def as_poly(value: Coefficient) -> ParamPoly:
    return ParamPoly._coerce(value)


def gcd_in_d(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic gcd of two rational polynomials in d alone (Euclid on their
    coefficient lists).  Raises ValueError when x, y or a parameter occurs,
    and ZeroPolynomialError when both are zero."""
    def coeffs(p: ParamPoly) -> list[Fraction]:
        split = p.coefficients_in(DEL)
        deg = max(split) if split else 0
        return [split.get(i, _ZERO).as_fraction() for i in range(deg + 1)]

    fa, fb = coeffs(a), coeffs(b)

    def normalize(c: list[Fraction]) -> list[Fraction]:
        while c and not c[-1]:
            c.pop()
        return c

    fa, fb = normalize(fa), normalize(fb)
    if not fa and not fb:
        raise ZeroPolynomialError("the gcd of two zero polynomials")
    while fb:
        # remainder of fa by fb
        while len(fa) >= len(fb) and fa:
            factor = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, cb in enumerate(fb):
                fa[i + shift] -= factor * cb
            fa = normalize(fa)
        fa, fb = fb, fa
    lead = fa[-1]
    return ParamPoly({((DEL, e),) if e else (): c / lead
                      for e, c in enumerate(fa) if c})


# -- packed monomials with integer numerators -----------------------------------

Packed = dict[int, int]


class Packing:
    """Packed exponent vectors over one common denominator, for one set of
    polynomials (Monagan and Pearce, CASC 2007).

    The variables are d, x, y and then the parameters of the polynomials in
    sorted order, which is the canonical precedence.  Variable ``i`` owns the
    bit field ``[i*width, (i+1)*width)`` of an ``int`` key, so the product of
    two monomials is the sum of their keys.  A packed polynomial maps keys to
    ``int`` numerators over ``den``, the lcm of every coefficient denominator
    of the polynomials the packing was built from.

    ``width`` is the bit length of twice the largest total degree among those
    polynomials, so a field holds any exponent of a product of two of them
    (or of their images under ``substitute``) without carrying into the next
    field.  A product of two packed polynomials has its numerators over
    ``den**2``, which is what ``unpack`` divides by.
    """

    __slots__ = ("variables", "width", "den", "_shift", "_mask")

    def __init__(self, polys: Iterable[ParamPoly]):
        params: set[str] = set()
        degree = 0
        den = 1
        for poly in polys:
            params |= poly.params()
            for mono, coef in poly._terms.items():
                degree = max(degree, mono_total_degree(mono))
                if coef.__class__ is not int:
                    den = math.lcm(den, coef.denominator)
        self.variables = FORMAL_VARS + tuple(sorted(params))
        self.width = max(1, (2 * degree).bit_length())
        self.den = den
        self._shift = {v: i * self.width for i, v in enumerate(self.variables)}
        self._mask = (1 << self.width) - 1

    def pack(self, poly: ParamPoly) -> Packed:
        """Key -> numerator over ``den`` for every term of ``poly``."""
        shift, den = self._shift, self.den
        out: Packed = {}
        for mono, coef in poly._terms.items():
            key = 0
            for v, e in mono:
                key += e << shift[v]
            out[key] = (coef * den if coef.__class__ is int
                        else coef.numerator * (den // coef.denominator))
        return out

    def substitute(self, packed: Packed, var: str, sign: int,
                   variables: tuple[str, ...]) -> Packed:
        """Replace ``var`` by ``sign * (sum of variables)``.

        Each power of the replacement is expanded once per call; its
        coefficients are integers, so the numerators stay over ``den``.
        """
        shift, mask = self._shift[var], self._mask
        linear: Packed = {}
        for v in variables:
            key = 1 << self._shift[v]
            linear[key] = linear.get(key, 0) + sign
        powers: list[Packed] = [{0: 1}]
        out: Packed = {}
        get = out.get
        for key, num in packed.items():
            e = (key >> shift) & mask
            rest = key - (e << shift)
            while len(powers) <= e:
                last: Packed = {}
                self.mul_add(last, powers[-1], linear)
                powers.append(last)
            for k, c in powers[e].items():
                k += rest
                out[k] = get(k, 0) + num * c
        return {k: n for k, n in out.items() if n}

    @staticmethod
    def mul_add(acc: Packed, left: Packed, right: Packed) -> None:
        """Add the product ``left * right`` into ``acc``; zeros may remain."""
        get = acc.get
        right_items = right.items()
        for k1, n1 in left.items():
            for k2, n2 in right_items:
                k = k1 + k2
                acc[k] = get(k, 0) + n1 * n2

    def unpack(self, packed: Packed) -> ParamPoly:
        """The polynomial whose numerators over ``den**2`` are ``packed``."""
        den2 = self.den * self.den
        fields = tuple((v, self._shift[v]) for v in self.variables)
        mask = self._mask
        terms: dict[Mono, Scalar] = {}
        for key, num in packed.items():
            if not num:
                continue
            mono = []
            for v, s in fields:
                e = (key >> s) & mask
                if e:
                    mono.append((v, e))
            terms[tuple(mono)] = (num // den2 if num % den2 == 0
                                  else Fraction(num, den2))
        return ParamPoly._adopt(terms)
