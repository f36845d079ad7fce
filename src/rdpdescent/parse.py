"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace ignored everywhere):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := integer
            | variable ('^' positive-integer)?
            | '(' expr ')' ('^' positive-integer)?

Integer literals of any size are accepted and reduced mod p, so equations
written over the integers can be pasted directly.  Juxtaposition is NOT
multiplication: 'xy' is an error unless 'xy' is a declared variable name.
This is the wire format used by the CLI and the catalog file.

Two bounds keep hostile input from exhausting the interpreter: groups
nest at most MAX_DEPTH deep, and all products and powers of one parse
together multiply at most MAX_PRODUCT_WORK pairs of terms.  Either
overflow is a ParseError.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import UsageError
from .poly import MAX_EXPONENT, Mono, Polynomial, Ring, product_terms

#: Deepest accepted nesting of parenthesised groups.
MAX_DEPTH = 100
#: Term pairs that the products and powers of one parse may multiply.
MAX_PRODUCT_WORK = 2 * 10 ** 5


class ParseError(UsageError):
    """Syntax or lookup error, with the byte offset where it happened."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"parse error at position {position}: {message}")


class _Parser:
    def __init__(self, src: str, ring: Ring):
        self.src = src
        self.ring = ring
        self.n = len(src)
        self.pos = 0
        self.depth = 0
        self.work = 0

    def _skip_ws(self):
        while self.pos < self.n and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < self.n else ""

    def _digits(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < self.n and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "expected an integer")
        return self.src[start:self.pos]

    def _integer(self) -> int:
        """An integer literal reduced mod p, read in chunks because int()
        refuses strings of more than a few thousand digits."""
        digits = self._digits()
        p = self.ring.p
        value = 0
        for k in range(0, len(digits), 1000):
            chunk = digits[k:k + 1000]
            value = (value * pow(10, len(chunk), p) + int(chunk)) % p
        return value

    def _identifier(self) -> Tuple[int, str]:
        self._skip_ws()
        start = self.pos
        while self.pos < self.n and (self.src[self.pos].isalnum() or self.src[self.pos] == "_"):
            self.pos += 1
        return start, self.src[start:self.pos]

    # Terms are carried around as {monomial: coeff} dicts and only packed
    # into a Polynomial at the very end.

    def expr(self) -> Dict[Mono, int]:
        acc = self.term()
        while True:
            ch = self._peek()
            if ch != "+" and ch != "-":
                return acc
            self.pos += 1
            rhs = self.term()
            sign = 1 if ch == "+" else -1
            for m, c in rhs.items():
                acc[m] = acc.get(m, 0) + sign * c

    def _product(self, a: Dict[Mono, int], b: Dict[Mono, int], at: int) -> Dict[Mono, int]:
        self.work += len(a) * len(b)
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError(at, f"expansion too large: products exceed {MAX_PRODUCT_WORK} term pairs")
        return product_terms(a.items(), b.items(), self.ring.p)

    def term(self) -> Dict[Mono, int]:
        acc = self.factor()
        while self._peek() == "*":
            at = self.pos
            self.pos += 1
            acc = self._product(acc, self.factor(), at)
        return acc

    def _exponent(self) -> Tuple[int, int]:
        """The optional '^' positive-integer after a factor: (position, e)."""
        if self._peek() != "^":
            return self.pos, 1
        self.pos += 1
        epos = self.pos
        self._skip_ws()
        if self.pos >= self.n or not self.src[self.pos].isdigit():
            raise ParseError(epos, "malformed exponent: expected a positive integer")
        digits = self._digits()
        if len(digits) > 9:
            raise ParseError(epos, f"exponent overflow: {len(digits)}-digit exponent")
        e = int(digits)
        if e < 1:
            raise ParseError(epos, "malformed exponent: must be >= 1")
        return epos, e

    def _power(self, base: Dict[Mono, int], e: int, at: int) -> Dict[Mono, int]:
        top = max((max(m) for m, c in base.items() if c), default=0)
        if top == 0:  # a constant
            return {m: pow(c, e, self.ring.p) for m, c in base.items()}
        if top * e >= MAX_EXPONENT:
            raise ParseError(at, f"exponent overflow: {top * e} >= {MAX_EXPONENT}")
        acc = base
        for _ in range(e - 1):
            acc = self._product(acc, base, at)
        return acc

    def factor(self) -> Dict[Mono, int]:
        ch = self._peek()
        if ch == "":
            raise ParseError(self.pos, "unexpected end of input")
        unit: Mono = (0,) * self.ring.nvars
        if ch.isdigit():
            return {unit: self._integer()}
        if ch == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(self.pos, f"parentheses nested deeper than {MAX_DEPTH}")
            self.depth += 1
            self.pos += 1
            inner = self.expr()
            if self._peek() != ")":
                raise ParseError(self.pos, "unbalanced parentheses: expected ')'")
            self.pos += 1
            self.depth -= 1
            epos, e = self._exponent()
            return inner if e == 1 else self._power(inner, e, epos)
        if ch.isalpha() or ch == "_":
            start, name = self._identifier()
            try:
                idx = self.ring.names.index(name)
            except ValueError:
                hint = ""
                if len(name) > 1 and all(c in self.ring.names for c in name):
                    hint = " (juxtaposition is not multiplication; write explicit '*')"
                raise ParseError(start, f"unknown variable {name!r}{hint}") from None
            _, e = self._exponent()
            exps = [0] * self.ring.nvars
            exps[idx] = e
            return {tuple(exps): 1}
        raise ParseError(self.pos, f"unexpected character {ch!r}")


def parse_poly(src: str, ring: Ring) -> Polynomial:
    """Parse src into a polynomial of the given ambient ring.

    Every failure raises ParseError carrying the offending byte offset;
    the parser never crashes on malformed text.
    """
    if not isinstance(src, str) or not src.strip():
        raise ParseError(0, "empty input")
    parser = _Parser(src, ring)
    acc = parser.expr()
    parser._skip_ws()
    if parser.pos != parser.n:
        raise ParseError(parser.pos, f"unexpected trailing input {src[parser.pos:]!r}")
    return ring.poly(acc)
