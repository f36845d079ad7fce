"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace ignored everywhere):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := integer
            | variable ('^' positive-integer)?
            | '(' expr ')' ('^' positive-integer)?

Integers and variable names are ASCII.  Integer literals of any size are
reduced mod p, so equations over the integers can be pasted directly.
Juxtaposition is NOT multiplication: 'xy' is an error unless 'xy' is a
declared variable name.
This is the wire format used by the CLI and the catalog file.

Two bounds keep hostile input from exhausting the interpreter: groups
nest at most MAX_DEPTH deep, and all products and powers of one parse
together multiply at most MAX_PRODUCT_WORK pairs of terms.  Either
overflow is a ParseError, and so is a power or product in which some
variable's exponent reaches MAX_EXPONENT.
"""

from __future__ import annotations

import re
from operator import add
from typing import Dict, List, Optional, Tuple

from .errors import UsageError
from .poly import _NAME, MAX_EXPONENT, Mono, Polynomial, Ring, product_terms

#: Deepest accepted nesting of parenthesised groups.
MAX_DEPTH = 100
#: Term pairs that the products and powers of one parse may multiply.
MAX_PRODUCT_WORK = 2 * 10 ** 5

#: One token: ASCII digits, a variable name, any other non-space character,
#: or "" at the end of the text.  finditer steps over whitespace.
_TOKEN = re.compile(rf"(?P<int>[0-9]+)|(?P<name>{_NAME.pattern})|\S|\Z")


class ParseError(UsageError):
    """Syntax or lookup error, with the character offset where it happened."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"parse error at position {position}: {message}")


def _degrees(terms: Dict[Mono, int], p: int) -> Optional[List[int]]:
    """The degree of terms in each variable, over the coefficients that are
    nonzero mod p; None when every coefficient is."""
    live = [m for m, c in terms.items() if c % p]
    return [max(e) for e in zip(*live)] if live else None


class _Parser:
    """Reads _TOKEN one token ahead: `tok` is the token's text, `pos` its
    offset and `kind` its group, "int", "name" or None."""

    def __init__(self, src: str, ring: Ring):
        self.ring = ring
        self.tokens = _TOKEN.finditer(src)
        self.depth = self.work = 0
        self._next()

    def _next(self):
        m = next(self.tokens)
        self.tok, self.pos, self.kind = m.group(), m.start(), m.lastgroup

    def _integer(self) -> int:
        """The integer literal at `tok` reduced mod p, read in chunks because
        int() refuses strings of more than a few thousand digits."""
        digits = self.tok
        self._next()
        p = self.ring.p
        value = 0
        for k in range(0, len(digits), 1000):
            chunk = digits[k:k + 1000]
            value = (value * pow(10, len(chunk), p) + int(chunk)) % p
        return value

    # Terms are carried around as {monomial: coeff} dicts and only packed
    # into a Polynomial at the very end.

    def expr(self) -> Dict[Mono, int]:
        acc = self.term()
        while self.tok == "+" or self.tok == "-":
            sign = 1 if self.tok == "+" else -1
            self._next()
            for m, c in self.term().items():
                acc[m] = acc.get(m, 0) + sign * c
        return acc

    def _product(self, a: Dict[Mono, int], b: Dict[Mono, int], at: int) -> Dict[Mono, int]:
        self.work += len(a) * len(b)
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError(at, f"expansion too large: products exceed {MAX_PRODUCT_WORK} term pairs")
        p = self.ring.p
        da, db = _degrees(a, p), _degrees(b, p)
        if da and db:
            # A product's degree in each variable is the sum of its factors'.
            top = max(map(add, da, db))
            if top >= MAX_EXPONENT:
                raise ParseError(at, f"exponent overflow: {top} >= {MAX_EXPONENT}")
        return product_terms(a.items(), b.items(), p)

    def term(self) -> Dict[Mono, int]:
        acc = self.factor()
        while self.tok == "*":
            at = self.pos
            self._next()
            acc = self._product(acc, self.factor(), at)
        return acc

    def _exponent(self) -> Tuple[int, int]:
        """The optional '^' positive-integer after a factor: (position, e)."""
        if self.tok != "^":
            return self.pos, 1
        epos = self.pos + 1
        self._next()
        if self.kind != "int":
            raise ParseError(epos, "malformed exponent: expected a positive integer")
        if len(self.tok) > 9:
            raise ParseError(epos, f"exponent overflow: {len(self.tok)}-digit exponent")
        e = int(self.tok)
        if e < 1:
            raise ParseError(epos, "malformed exponent: must be >= 1")
        self._next()
        return epos, e

    def _power(self, base: Dict[Mono, int], e: int, at: int) -> Dict[Mono, int]:
        degs = _degrees(base, self.ring.p)
        top = max(degs) if degs else 0
        if top == 0:  # a constant
            return {m: pow(c, e, self.ring.p) for m, c in base.items()}
        if top * e >= MAX_EXPONENT:
            raise ParseError(at, f"exponent overflow: {top * e} >= {MAX_EXPONENT}")
        acc = base
        for _ in range(e - 1):
            acc = self._product(acc, base, at)
        return acc

    def factor(self) -> Dict[Mono, int]:
        ch, at, kind = self.tok, self.pos, self.kind
        if kind == "int":
            return {(0,) * self.ring.nvars: self._integer()}
        if ch == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(at, f"parentheses nested deeper than {MAX_DEPTH}")
            self.depth += 1
            self._next()
            inner = self.expr()
            if self.tok != ")":
                raise ParseError(self.pos, "unbalanced parentheses: expected ')'")
            self._next()
            self.depth -= 1
            epos, e = self._exponent()
            return inner if e == 1 else self._power(inner, e, epos)
        if kind == "name":
            try:
                idx = self.ring.names.index(ch)
            except ValueError:
                hint = ""
                if len(ch) > 1 and all(c in self.ring.names for c in ch):
                    hint = " (juxtaposition is not multiplication; write explicit '*')"
                raise ParseError(at, f"unknown variable {ch!r}{hint}") from None
            self._next()
            epos, e = self._exponent()
            if e >= MAX_EXPONENT:
                raise ParseError(epos, f"exponent overflow: {e} >= {MAX_EXPONENT}")
            exps = [0] * self.ring.nvars
            exps[idx] = e
            return {tuple(exps): 1}
        raise ParseError(at, f"unexpected character {ch!r}" if ch else "unexpected end of input")


def parse_poly(src: str, ring: Ring) -> Polynomial:
    """Parse src into a polynomial of the given ambient ring.

    Every failure raises ParseError carrying the offending character offset;
    the parser never crashes on malformed text.
    """
    if not isinstance(src, str) or not src.strip():
        raise ParseError(0, "empty input")
    parser = _Parser(src, ring)
    acc = parser.expr()
    if parser.tok:
        raise ParseError(parser.pos, f"unexpected trailing input {src[parser.pos:]!r}")
    return ring.poly(acc)
