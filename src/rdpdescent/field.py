"""The prime field F_p for small primes p: the checked characteristic and
the modular inverse.

Field elements are raw ints, kept canonically in [0, p) by the callers.
The characteristic is capped at 97: everything in the catalog lives in
p = 2, 3, 5, and the cap keeps all arithmetic in native word size.
"""

from __future__ import annotations

from .errors import UsageError

_PRIMES = frozenset(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
     53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
)

MAX_CHAR = 97


class PrimeChar:
    """A prime characteristic p with 2 <= p <= 97, checked at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p not in _PRIMES:
            raise UsageError(f"characteristic must be a prime with 2 <= p <= {MAX_CHAR}, got {p!r}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeChar) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeChar", self.p))

    def __repr__(self) -> str:
        return f"PrimeChar({self.p})"


def inv_mod(value: int, p: int) -> int:
    """Inverse of a nonzero residue modulo a prime, on raw ints."""
    value %= p
    if value == 0:
        raise ZeroDivisionError(f"0 has no inverse in F_{p}")
    return pow(value, p - 2, p)
