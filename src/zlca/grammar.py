"""Text grammar for polynomials: parser for the canonical printed form.

Grammar (whitespace insignificant):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := atom ('^' INT)?
    atom    := INT ('/' INT)? | IDENT | '(' expr ')'

`d`, `x`, `y` are the formal variables; any other identifier matching
[a-z][a-z0-9_]* is a parameter.  `/` exists only inside rational literals
(e.g. ``3/2``), and multiplication is always explicit: ``2x`` is an error.

The grammar is ASCII: INT is [0-9]+ and whitespace is space, tab or a line
break, so a full-width digit or letter is an error, not a number or a name.
Input is bounded: an integer literal has at most MAX_LITERAL_DIGITS digits,
an exponent is at most MAX_EXPONENT, parentheses and unary minus signs nest
at most MAX_NESTING deep, and one product (a '*' or a squaring step of a
'^') pairs at most MAX_PRODUCT_PAIRS terms, checked before it is multiplied
out.  Each bound ends in a ParseError, never in a recursion or conversion
error or in an expansion that does not finish.

``parse`` and ``ParamPoly.__str__`` are mutually inverse: parsing a canonical
string and reprinting reproduces it byte for byte, and printing any
polynomial and reparsing gives an equal polynomial.

``parse`` reads a string by one of two routes; both accept the grammar above
and give the same polynomial, and only the second reports errors.

- The flat route reads a sum of monomials as ``ParamPoly.__str__`` prints
  it, in one pass: terms joined by exactly `` + `` or `` - `` (the first one
  may start with ``-``), each an optional literal ``n`` or ``n/m`` with m > 0
  and a ``*``-product of identifiers with optional exponents from 2 to
  MAX_EXPONENT; a term that is only a literal is a constant.  One regular
  expression checks the whole string, including the digit bound, so every
  string it admits is valid.  Each distinct term text is read once per
  memo, a dict from the text of a signed term to its monomial and its
  coefficient (an ``int``, or a reduced ``Fraction`` when not integral).
  ``parse`` takes the memo of one load, which the spec loader shares among
  all the polynomials of one file; without one, each call makes a fresh
  memo.  There is no module-level cache, so no term outlives its load.
  Every spec zlca writes takes this route.
- The recursive descent reads everything else: parentheses, ``^`` on a
  number or an exponent below 2, ``*`` between numbers, other spacing, and
  every string that breaks a bound or is not in the grammar, so it alone
  raises ParseError and sets the column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .poly import FORMAL_VARS, ONE_MONO, Mono, ParamPoly, Scalar, mono_mul

MAX_LITERAL_DIGITS = 1000
MAX_NESTING = 100
MAX_EXPONENT = 16
MAX_PRODUCT_PAIRS = 100_000

_DIGITS = frozenset("0123456789")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")
_IDENT_CHARS = _DIGITS | _LOWER | {"_"}
_SPACE = frozenset(" \t\n\r\f\v")


class ParseError(ValueError):
    """Syntax error in a polynomial string; column is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


_INT = "int"
_IDENT = "ident"
_OP = "op"
_EOF = "eof"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SPACE:
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i - start > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal longer than "
                                 f"{MAX_LITERAL_DIGITS} digits", start + 1)
            tokens.append((_INT, text[start:i], start + 1))
            continue
        if ch in _LOWER:
            start = i
            while i < n and text[i] in _IDENT_CHARS:
                i += 1
            tokens.append((_IDENT, text[start:i], start + 1))
            continue
        if ch in "+-*^/()":
            tokens.append((_OP, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append((_EOF, "", n + 1))
    return tokens


def _product(left: ParamPoly, right: ParamPoly, col: int) -> ParamPoly:
    pairs = len(left) * len(right)
    if pairs > MAX_PRODUCT_PAIRS:
        raise ParseError(f"product of {len(left)} by {len(right)} terms "
                         f"exceeds {MAX_PRODUCT_PAIRS} term pairs", col)
    return left * right


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nest(self, col: int) -> None:
        """Enter one level of parentheses or unary minus."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", col)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, text, col = self.peek()
        if kind != _OP or text != symbol:
            raise ParseError(f"expected {symbol!r}", col)
        self.advance()

    def parse(self) -> ParamPoly:
        value = self.expr()
        kind, text, col = self.peek()
        if kind != _EOF:
            raise ParseError(f"unexpected {text!r}", col)
        return value

    def expr(self) -> ParamPoly:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _OP and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> ParamPoly:
        value = self.factor()
        while True:
            kind, text, col = self.peek()
            if kind == _OP and text == "*":
                self.advance()
                value = _product(value, self.factor(), col)
            else:
                return value

    def factor(self) -> ParamPoly:
        kind, text, col = self.peek()
        if kind == _OP and text == "-":
            self.advance()
            self.nest(col)
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> ParamPoly:
        base = self.atom()
        kind, text, col = self.peek()
        if kind == _OP and text == "^":
            self.advance()
            ekind, etext, ecol = self.peek()
            if ekind != _INT:
                raise ParseError("exponent must be a nonnegative integer", ecol)
            self.advance()
            exponent = int(etext)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", ecol)
            # Repeated squaring, each product checked like a '*'.
            result = ParamPoly.const(1)
            while exponent:
                if exponent & 1:
                    result = _product(result, base, col)
                exponent >>= 1
                if exponent:
                    base = _product(base, base, col)
            return result
        return base

    def atom(self) -> ParamPoly:
        kind, text, col = self.advance()
        if kind == _INT:
            nkind, ntext, _ = self.peek()
            if nkind == _OP and ntext == "/":
                self.advance()
                dkind, dtext, dcol = self.peek()
                if dkind != _INT:
                    raise ParseError("expected integer denominator", dcol)
                self.advance()
                if int(dtext) == 0:
                    raise ParseError("zero denominator", dcol)
                return ParamPoly.const(Fraction(int(text), int(dtext)))
            return ParamPoly.const(int(text))
        if kind == _IDENT:
            return ParamPoly.variable(text)
        if kind == _OP and text == "(":
            self.nest(col)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        if kind == _EOF:
            raise ParseError("unexpected end of input", col)
        raise ParseError(f"unexpected {text!r}", col)


# The flat route's sublanguage: what ``ParamPoly.__str__`` prints.  Its bounds
# are part of the pattern (a literal of at most MAX_LITERAL_DIGITS digits, a
# nonzero denominator, an exponent from 2 to MAX_EXPONENT), so a string that
# matches is one the recursive descent accepts with the same value.
_FACTOR = (r"[a-z][a-z0-9_]*(?:\^(?:"
           + "|".join(str(e) for e in range(2, MAX_EXPONENT + 1)) + "))?")
_TERM = (rf"(?:[0-9]{{1,{MAX_LITERAL_DIGITS}}}"
         rf"(?:/[1-9][0-9]{{0,{MAX_LITERAL_DIGITS - 1}}})?|{_FACTOR})"
         rf"(?:\*{_FACTOR})*")
_FLAT = re.compile(rf"-?{_TERM}(?: [+-] {_TERM})*")


#: One load's parsed terms: the text of a signed term, as the flat route
#: splits it, mapped to its monomial and its coefficient (an int, or a
#: reduced Fraction when not integral).
Memo = dict[str, tuple[Mono, Scalar]]


def _flat_term(term: str) -> tuple[Mono, Scalar]:
    """The monomial and coefficient of one signed term of a flat string."""
    sign = 1
    if term[0] == "-":
        sign = -1
        term = term[1:]
    factors = term.split("*")
    coef: Scalar = sign
    if term[0] in _DIGITS:
        n, _, d = factors.pop(0).partition("/")
        coef = sign * int(n)
        if d:
            q = Fraction(coef, int(d))
            coef = q.numerator if q.denominator == 1 else q
    mono = ONE_MONO
    for factor in factors:
        var, _, exp = factor.partition("^")
        mono = mono_mul(mono, ((var, int(exp) if exp else 1),))
    return mono, coef


def _parse_flat(text: str, memo: Optional[Memo] = None) -> Optional[ParamPoly]:
    """A sum of monomials read in one pass, each distinct term text once
    per ``memo``; None when text is not one."""
    if _FLAT.fullmatch(text) is None:
        return None
    if memo is None:
        memo = {}
    parts = text.replace(" - ", " + -").split(" + ")
    terms: dict[Mono, Scalar] = {}
    for term in parts:
        read = memo.get(term)
        if read is None:
            read = memo[term] = _flat_term(term)
        mono, coef = read
        terms[mono] = terms[mono] + coef if mono in terms else coef
    # The memo's coefficients are clean; a sum or a zero needs _clean.
    if len(terms) == len(parts) and 0 not in terms.values():
        return ParamPoly._adopt(terms)
    return ParamPoly._wrap(terms)


def parse(text: str, memo: Optional[Memo] = None) -> ParamPoly:
    """Parse a polynomial string in the canonical grammar.

    ``memo`` is the flat route's term memo of one load, shared by the
    polynomials it reads; without it each call uses a fresh one.
    """
    flat = _parse_flat(text, memo)
    if flat is not None:
        return flat
    return _Parser(_tokenize(text)).parse()


__all__ = ["Memo", "ParseError", "parse", "FORMAL_VARS"]
