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
from typing import Dict, Tuple

from .errors import UsageError
from .poly import _NAME, MAX_EXPONENT, Polynomial, Ring, _from_keyed, _lcm, product_terms

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

    # Terms are carried around as {key: coeff} dicts over packed monomial
    # keys (`Ring.key`), and only packed into a Polynomial at the very end.

    def expr(self) -> Dict[int, int]:
        acc = self.term()
        while self.tok == "+" or self.tok == "-":
            sign = 1 if self.tok == "+" else -1
            self._next()
            for k, c in self.term().items():
                acc[k] = acc.get(k, 0) + sign * c
        return acc

    def _product(self, a: Dict[int, int], b: Dict[int, int], at: int) -> Dict[int, int]:
        self.work += len(a) * len(b)
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError(at, f"expansion too large: products exceed {MAX_PRODUCT_WORK} term pairs")
        try:
            return product_terms(self.ring, a, b)
        except UsageError as exc:  # an exponent overflow
            raise ParseError(at, str(exc)) from None

    def term(self) -> Dict[int, int]:
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

    def _power(self, base: Dict[int, int], e: int, at: int) -> Dict[int, int]:
        lcm = _lcm(self.ring, base)
        if not lcm:  # a constant
            return {k: pow(c, e, self.ring.p) for k, c in base.items()}
        top = max(self.ring.mono(-lcm))  # the largest exponent; -lcm is a key of record lcm
        if top * e >= MAX_EXPONENT:
            raise ParseError(at, f"exponent overflow: {top * e} >= {MAX_EXPONENT}")
        acc = base
        for _ in range(e - 1):
            acc = self._product(acc, base, at)
        return acc

    def factor(self) -> Dict[int, int]:
        ch, at, kind = self.tok, self.pos, self.kind
        if kind == "int":
            return {0: self._integer()}  # key(1) = 0
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
            return {e * self.ring.weights[idx]: 1}  # the key of x_idx^e
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
    p = ring.p
    return _from_keyed(ring, {k: c % p for k, c in acc.items() if c % p})
