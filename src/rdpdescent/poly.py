"""Sparse multivariate polynomials over F_p.

The ring owns the characteristic: a prime p with 2 <= p <= 97, checked
when the Ring is built.  Everything in the catalog lives in p = 2, 3, 5,
and the cap keeps all coefficient arithmetic in native word size.

A polynomial keeps its terms in strictly decreasing order under the
ambient ring's monomial ordering, with no zero coefficients, as two
parallel lists: the packed keys of its monomials (`keys`, below) and
their coefficients (`coeffs`), raw canonical residues in [0, p); the zero
polynomial has empty lists.  At the API, monomials are exponent tuples
and `terms` is the tuple of (monomial, coefficient) pairs in the same
order.  The test suite checks the arithmetic against sympy's GF(p).

Two orderings are supported:

* GLOBAL_DEGREVLEX -- degree reverse lexicographic, a well-ordering.
* LOCAL_NEG_DEGREVLEX -- negative degree reverse lexicographic; 1 is the
  largest monomial, so leading terms pick out the lowest degree.  Under
  this ordering the ring of fractions with invertible leading terms is
  exactly the localization at the origin.

Packed keys.  A monomial is one int, `Ring.key(m)`, that is both its
ordering key and its exponent record.  In n variables,

    key(m) = +-deg(m) * 2^(32n) - (e_1 + e_2 * 2^32 + ... + e_n * 2^(32(n-1))),

with + under the global ordering and - under the local one.  The
subtracted sum is the exponent record E(m): n fields of 32 bits
(_WIDTH), e_1 at the bottom.  It lies in [0, 2^(32n)), so integer order
compares the (signed) degree first; with the degree fixed, a smaller e_n
gives a larger key, and with that fixed a smaller e_(n-1), and so on: the
reverse lexicographic tie-break.  The key is a linear form, key(m) = w . m, so
key(a*b) = key(a) + key(b) and key(m^q) = q * key(m).

The exponents read back off the key.  The record is
E = (-key) & (2^(32n) - 1), the degree is |(-key) >> 32n|, and the fields
are 32 bits wide so that C decodes a record in one call
(`struct.unpack` of its little-endian bytes, `Ring.mono`).  No exponent
reaches MAX_EXPONENT = 2^16 (`_check_mono`, `_check_product`,
`frobenius` and the parser enforce it), so bit 16 of every field is clear
and serves as a guard bit.  With G the guard bits of all fields, a | b
exactly when ((E(b) | G) - E(a)) & G == G (`Ring.record_divides`),
because each field of the difference keeps its guard bit just when
e_i(a) <= e_i(b) and never borrows from the field above.  The same
guards select the larger field of two records, which gives the lcm
(`Ring.record_lcm`), and E % (2^32 - 1) is the degree of a bare record.
So the reduction loop and the pair bookkeeping of `gbasis` multiply,
divide and take lcms on ints and build no exponent tuple.

A Polynomial carries only keys and coefficients, from the parser to the
engine: `terms` is decoded from the keys each time a reader asks for it,
and nothing decoded is kept.  Of its readers only `terms`, `lm` and
`render` decode keys; `Ring.poly`, `coeff` and `term_mul` encode the
exponent tuples they are given, and the rest reads keys.  The parser
carries {key: coefficient} dicts, and `product_terms`, the one product of
the parser and of `Polynomial.__mul__`, adds keys and reads its exponent
bound off the lcms of its factors; `partial` shifts the keys it keeps, as
division by a variable keeps the term order.  Addition and subtraction
sum the terms in a dict keyed by the keys, as the reduction loop of
`gbasis` sums its working polynomial, and `_from_keyed`, the one builder
from such a dict, sorts it back into a Polynomial; `term_mul` shifts the
keys by one addition per term, `gbasis._cut_at` slices them, and the
reduction loop shifts the kept prefix of a reducer's keys where they lie,
without a copy.  The keys and coefficients are lists that nothing
mutates, not tuples: CPython keeps a dead tuple shorter than 20 on a free
list for its length, up to 2000 of them, and as tuples the keys raised
the peak resident memory of a round of the `coords` benchmark workload by
0.7 MB (CPython 3.11 on Linux).
"""

from __future__ import annotations

import enum
import re
import struct
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .errors import UsageError

Mono = Tuple[int, ...]

MAX_EXPONENT = 1 << 16
#: The bits of one exponent field of a packed key (module docstring), and
#: the largest value a field holds.
_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1

_PRIMES = frozenset(q for q in range(2, 98) if all(q % d for d in range(2, q)))


def _check_char(p) -> None:
    """The rule for a characteristic (module docstring)."""
    if not isinstance(p, int) or p not in _PRIMES:
        raise UsageError(f"characteristic must be a prime with 2 <= p <= 97, got {p!r}")


def inv_mod(value: int, p: int) -> int:
    """Inverse of a nonzero residue modulo a prime, on raw ints."""
    value %= p
    if value == 0:
        raise ZeroDivisionError(f"0 has no inverse in F_{p}")
    return pow(value, p - 2, p)


class OrderingTag(enum.Enum):
    GLOBAL_DEGREVLEX = "global"
    LOCAL_NEG_DEGREVLEX = "local"


def mono_deg(m: Mono) -> int:
    return sum(m)


#: A variable name: an ASCII letter or '_', then ASCII letters, digits and
#: '_'.  The parser scans names with the same pattern.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Ring:
    """Ambient polynomial ring descriptor: the prime characteristic p,
    variable names, and the monomial ordering."""

    __slots__ = ("p", "names", "ordering", "weights", "shift", "top", "mask", "guards", "_unpack")

    def __init__(self, p: int, names: Sequence[str],
                 ordering: OrderingTag = OrderingTag.GLOBAL_DEGREVLEX):
        _check_char(p)
        names = tuple(names)
        if not names:
            raise UsageError("a ring needs at least one variable")
        for nm in names:
            if not isinstance(nm, str) or not _NAME.fullmatch(nm):
                raise UsageError(f"bad variable name {nm!r}")
        if len(set(names)) != len(names):
            raise UsageError(f"variable names must be distinct: {names}")
        if not isinstance(ordering, OrderingTag):
            raise UsageError(f"unknown ordering {ordering!r}")
        self.p = p
        self.names = names
        self.ordering = ordering
        # The packed key (module docstring): the degree field at bit
        # shift = 32n, signed by the ordering, minus the exponent record.
        n = len(names)
        self.shift = _WIDTH * n
        self.top = -1 << self.shift if ordering is OrderingTag.LOCAL_NEG_DEGREVLEX else 1 << self.shift
        self.weights = tuple(self.top - (1 << (_WIDTH * i)) for i in range(n))
        self.mask = (1 << self.shift) - 1
        self.guards = sum(1 << (_WIDTH * i + 16) for i in range(n))
        self._unpack = struct.Struct(f"<{n}I").unpack  # I: an unsigned field of _WIDTH bits

    def key(self, m: Mono) -> int:
        """The packed ordering key of a monomial (module docstring)."""
        return sum(map(mul, m, self.weights))

    def record(self, k: int) -> int:
        """The exponent record of a key."""
        return -k & self.mask

    def mono(self, k: int) -> Mono:
        """The exponent tuple of a key."""
        return self._unpack((-k & self.mask).to_bytes(self.shift >> 3, "little"))

    def deg(self, k: int) -> int:
        """The degree of the monomial of a key."""
        return abs(-k >> self.shift)

    @staticmethod
    def record_deg(e: int) -> int:
        """The degree of an exponent record: 2^32 is 1 modulo 2^32 - 1, and
        no degree reaches 2^32 - 1."""
        return e % _FIELD

    def record_key(self, e: int) -> int:
        """The key of an exponent record."""
        return self.top * self.record_deg(e) - e

    def record_divides(self, a: int, b: int) -> bool:
        """Whether the monomial of record a divides that of record b: the
        guard test (module docstring)."""
        g = self.guards
        return ((b | g) - a) & g == g

    def record_lcm(self, a: int, b: int) -> int:
        """The lcm of two exponent records: each field the larger one."""
        g = self.guards
        ge = ((a | g) - b) & g  # the guard bit of each field where a's is >= b's
        ge -= ge >> 16  # ... widened to the 16 bits of that field
        return (a & ge) | (b & ~ge)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def with_ordering(self, ordering: OrderingTag) -> "Ring":
        if ordering == self.ordering:
            return self
        return Ring(self.p, self.names, ordering)

    def zero(self) -> "Polynomial":
        return Polynomial(self, [], [])

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, [0], [c])  # key(1) = 0

    def poly(self, terms: Dict[Mono, int]) -> "Polynomial":
        if not isinstance(terms, dict):
            raise UsageError(f"Ring.poly takes a {{monomial: coefficient}} dict, got {type(terms).__name__}")
        return _from_dict(self, terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ring) and self.p == other.p
                and self.names == other.names and self.ordering == other.ordering)

    def __hash__(self) -> int:
        return hash((self.p, self.names, self.ordering))

    def __repr__(self) -> str:
        return f"Ring(p={self.p}, vars={','.join(self.names)}, {self.ordering.value})"


def _check_mono(ring: Ring, m: Mono) -> Mono:
    m = tuple(m)
    if len(m) != ring.nvars:
        raise UsageError(f"monomial {m} has wrong arity for {ring!r}")
    for e in m:
        if not isinstance(e, int) or e < 0:
            raise UsageError(f"bad exponent in monomial {m}")
        if e >= MAX_EXPONENT:
            raise UsageError(f"exponent overflow: {e} >= {MAX_EXPONENT}")
    return m


def _check_product(ring: Ring, keys: Sequence[int], stop: int, shift: int) -> None:
    """Raise the exponent overflow of the first of keys[:stop] whose product
    with the monomial of key shift has an exponent >= MAX_EXPONENT.  Keys
    run by degree, so the ends of the prefix bound its degrees, and
    usually settle the check without a decode.  A 32-bit field holds the
    sum of two exponents below 2^16 exactly, so the product's key decodes
    to the exponents that overflow."""
    deg = ring.deg
    if not stop or deg(shift) + max(deg(keys[0]), deg(keys[stop - 1])) < MAX_EXPONENT:
        return
    for k in keys[:stop]:
        e = max(ring.mono(k + shift))
        if e >= MAX_EXPONENT:
            raise UsageError(f"exponent overflow: {e} >= {MAX_EXPONENT}")


def _lcm(ring: Ring, terms: Dict[int, int]) -> int:
    """The lcm of the monomials of a {key: coefficient} dict as an exponent
    record, over the coefficients that are nonzero mod p; 0 for none."""
    lcm, p = 0, ring.p
    for k, c in terms.items():
        if c % p:
            lcm = ring.record_lcm(lcm, ring.record(k))
    return lcm


def product_terms(ring: Ring, a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """The product of two {key: coefficient} dicts as {key: residue mod p},
    zeros kept: the key is additive.  Its exponents in each variable are
    the sums of the factors' largest ones over the terms nonzero mod p,
    as the top terms in a variable multiply to a nonzero term: the fields
    of the sum of the factors' lcms.  They are below 2^17, so none
    carries, and one reaches MAX_EXPONENT just when its guard bit is set."""
    e = _lcm(ring, a) + _lcm(ring, b)
    if e & ring.guards:  # -e is a key whose record is e
        raise UsageError(f"exponent overflow: {max(ring.mono(-e))} >= {MAX_EXPONENT}")
    p, acc = ring.p, {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = (acc.get(k, 0) + ca * cb) % p
    return acc


def _from_dict(ring: Ring, d: Dict[Mono, int]) -> "Polynomial":
    p = ring.p
    acc = {}
    for m, c in d.items():
        c %= p
        if c:
            acc[ring.key(_check_mono(ring, m))] = c
    return _from_keyed(ring, acc)


def _from_keyed(ring: Ring, acc: Dict[int, int]) -> "Polynomial":
    """The polynomial of a {key: coefficient} dict whose coefficients are
    nonzero residues: the one builder from a keyed dict."""
    keys = sorted(acc, reverse=True)
    return Polynomial(ring, keys, list(map(acc.__getitem__, keys)))


class Polynomial:
    """Immutable sparse polynomial; see module docstring for the invariants.

    Construct through Ring.poly / Ring.constant / parse_poly rather than
    directly: the keys are trusted to be canonical and the coefficients
    to match them.  The terms are decoded from the keys at each read.
    """

    __slots__ = ("ring", "keys", "coeffs")

    def __init__(self, ring: Ring, keys: List[int], coeffs: List[int]):
        self.ring = ring
        self.keys = keys
        self.coeffs = coeffs

    @property
    def terms(self) -> Tuple[Tuple[Mono, int], ...]:
        """The (monomial, coefficient) pairs, decoded from the keys."""
        return tuple(zip(map(self.ring.mono, self.keys), self.coeffs))

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.keys

    def lm(self) -> Mono:
        if not self.keys:
            raise UsageError("zero polynomial has no leading monomial")
        return self.ring.mono(self.keys[0])

    def lc(self) -> int:
        if not self.keys:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.coeffs[0]

    # Both orderings compare the total degree first, so the terms run by
    # decreasing degree (global) or increasing degree (local), and the
    # extreme degrees sit at the two ends of the key list.

    def degree(self) -> int:
        """Maximal total degree of a term (-1 for the zero polynomial)."""
        if not self.keys:
            return -1
        last = self.ring.ordering is OrderingTag.LOCAL_NEG_DEGREVLEX
        return self.ring.deg(self.keys[-1 if last else 0])

    def order(self) -> int:
        """Minimal total degree of a term (-1 for the zero polynomial)."""
        if not self.keys:
            return -1
        last = self.ring.ordering is OrderingTag.GLOBAL_DEGREVLEX
        return self.ring.deg(self.keys[-1 if last else 0])

    def ecart(self) -> int:
        return self.degree() - self.ring.deg(self.keys[0])

    def constant_coeff(self) -> int:
        # key(1) = 0 is the smallest key under the global ordering and the
        # largest under the local one.
        if not self.keys:
            return 0
        i = -1 if self.ring.ordering is OrderingTag.GLOBAL_DEGREVLEX else 0
        return self.coeffs[i] if self.keys[i] == 0 else 0

    def coeff(self, m: Mono) -> int:
        """The coefficient of the monomial m, checked as in `term_mul`."""
        k = self.ring.key(_check_mono(self.ring, m))
        return self.coeffs[self.keys.index(k)] if k in self.keys else 0

    def _check_ring(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise UsageError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise UsageError(f"ambient ring mismatch: {self.ring!r} vs {other.ring!r}")

    # -- arithmetic -------------------------------------------------------

    def _plus(self, other: "Polynomial", c: int) -> "Polynomial":
        """self + c*other for c = +-1, summed in a {key: coefficient} dict
        like the reduction loop of `gbasis`."""
        self._check_ring(other)
        p = self.ring.p
        acc = dict(zip(self.keys, self.coeffs))
        for k, cb in zip(other.keys, other.coeffs):
            cb = (acc.get(k, 0) + cb * c) % p
            if cb:
                acc[k] = cb
            else:
                del acc[k]  # a new key has the nonzero coefficient c*cb
        return _from_keyed(self.ring, acc)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial(self.ring, self.keys, [cc * c % p for cc in self.coeffs])

    def term_mul(self, c: int, m: Mono) -> "Polynomial":
        """Multiply by the single term c*m; preserves term order because the
        ordering is compatible with multiplication.  m is checked as a
        monomial of the ring: a key of a wrong arity or a negative exponent
        would stand for another monomial."""
        c %= self.ring.p
        if c == 0 or not self.keys:
            return self.ring.zero()
        shift = self.ring.key(_check_mono(self.ring, m))  # the key is additive
        _check_product(self.ring, self.keys, len(self.keys), shift)
        p = self.ring.p
        return Polynomial(self.ring, [k + shift for k in self.keys],
                          [cc * c % p for cc in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        acc = product_terms(self.ring, dict(zip(self.keys, self.coeffs)),
                            dict(zip(other.keys, other.coeffs)))
        return _from_keyed(self.ring, {k: c for k, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        """Square and multiply: e & 1 picks the squares self^(2^i) that go
        into the product, and a square is formed only if a higher bit
        needs it, so no factor exceeds the power itself."""
        if e < 0:
            raise UsageError("negative polynomial powers are not defined")
        result, square = self.ring.one(), self
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def monic(self) -> "Polynomial":
        if not self.keys:
            return self
        lc = self.lc()
        if lc == 1:
            return self
        return self.scale(inv_mod(lc, self.ring.p))

    # -- calculus and characteristic-p structure ---------------------------

    def partial(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to the var-th variable."""
        if not 0 <= var < self.ring.nvars:
            raise UsageError(f"variable index {var} out of range")
        ring = self.ring
        p, at, w = ring.p, _WIDTH * var, ring.weights[var]
        keys, coeffs = [], []
        for k, c in zip(self.keys, self.coeffs):
            c = c * ((-k >> at) & _FIELD) % p  # times the exponent of the variable
            if c:  # so the exponent is positive, and the key of m / x_var is k - w
                keys.append(k - w)
                coeffs.append(c)
        # dividing by x_var keeps the term order, so the keys stay sorted
        return Polynomial(ring, keys, coeffs)

    def frobenius(self, e: int = 1) -> "Polynomial":
        """Return self**(p**e), computed term-wise.

        Valid by Frobenius additivity: raising to the p-th power is a ring
        homomorphism in characteristic p, and residues satisfy c**p = c,
        so the coefficients stay and the keys, linear, are multiplied.
        """
        if e < 1:
            raise UsageError("frobenius exponent must be >= 1")
        if self.degree() < 1:
            return self  # c^p = c for a residue c
        p = self.ring.p
        # p^16 >= MAX_EXPONENT, so p^e is formed only below that
        q = p ** e if e < 16 else MAX_EXPONENT
        if q * self.degree() >= MAX_EXPONENT:  # the degree bounds every exponent
            for m, _ in self.terms:
                for x in m:
                    if x * q >= MAX_EXPONENT:
                        shown = x * q if e < 16 else f"{x} * {p}^{e}"
                        raise UsageError(f"exponent overflow: {shown} >= {MAX_EXPONENT}")
        return Polynomial(self.ring, [k * q for k in self.keys], self.coeffs)

    # -- hashing, equality, rendering --------------------------------------
    # Keys stand for monomials one to one, so these read them, not terms.

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.keys == other.keys and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring, tuple(self.keys), tuple(self.coeffs)))

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<{render(self)} over {self.ring!r}>"


def render(f: Polynomial) -> str:
    """Canonical text form: terms in decreasing ordering, '^' for powers,
    '*' between factors, coefficients printed only when != 1."""
    if f.is_zero:
        return "0"
    names = f.ring.names
    parts = []
    for m, c in f.terms:
        factors = []
        if c != 1 or mono_deg(m) == 0:
            factors.append(str(c))
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return "+".join(parts)
