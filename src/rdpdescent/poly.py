"""Sparse multivariate polynomials over F_p.

The ring owns the characteristic: a prime p with 2 <= p <= 97, checked
when the Ring is built.  Everything in the catalog lives in p = 2, 3, 5,
and the cap keeps all coefficient arithmetic in native word size.

Monomials are plain exponent tuples.  A polynomial keeps its terms as a
tuple of (monomial, coefficient) pairs sorted in strictly decreasing order
under the ambient ring's monomial ordering, with no zero coefficients;
the zero polynomial has an empty term tuple.  Coefficients are stored as
raw canonical residues in [0, p); the test suite checks this arithmetic
against sympy's GF(p).

Two orderings are supported:

* GLOBAL_DEGREVLEX -- degree reverse lexicographic, a well-ordering.
* LOCAL_NEG_DEGREVLEX -- negative degree reverse lexicographic; 1 is the
  largest monomial, so leading terms pick out the lowest degree.  Under
  this ordering the ring of fractions with invertible leading terms is
  exactly the localization at the origin.

Packed keys.  The ordering is one int per monomial, `Ring.key(m)`, and
m > m' exactly when key(m) > key(m').  In n variables the key packs n
fields of `(MAX_EXPONENT * n).bit_length()` bits each.  The top field
holds deg(m) under the global ordering and -deg(m) under the local one;
below it come the partial sums S_(n-1), ..., S_1, where S_k is
e_1 + ... + e_k.  With the degree fixed, a larger S_(n-1) means a smaller
last exponent, and with that fixed as well, a larger S_(n-2) means a
smaller next-to-last one, and so on: this is the reverse lexicographic
tie-break.  A field never exceeds n * (MAX_EXPONENT - 1), so every field
of a monomial with exponents below MAX_EXPONENT fits in its width, and
integer order is field-by-field order.  That holds also when the top
field is negative: the fields below it add a value in [0, 2^s) to a
multiple of 2^s, s the top field's shift.  Each field is linear in the
exponents, so the key is a linear form, key(m) = w . m, with
key(a*b) = key(a) + key(b) and key(m^q) = q * key(m).

A Polynomial carries the keys of its terms in `keys`, computed once when
it is built from monomials.  Addition and subtraction merge by comparing
these ints, `term_mul` shifts them by one addition per term, `tail` and
truncation slice them.  The keys are a list that nothing mutates, not a
tuple: CPython keeps a dead tuple shorter than 20 on a free list for its
length, up to 2000 of them, and as tuples the keys raised the peak
resident memory of a round of the `coords` benchmark workload by 0.7 MB
(CPython 3.11 on Linux).  The keys are never part of equality or
hashing, and monomials stay exponent tuples at the API: divisibility,
lcm, the parser and the truncation oracle's rows all need the exponents,
which a key does not expose.
"""

from __future__ import annotations

import enum
import re
from operator import add, le, mul, sub
from typing import Collection, Dict, Iterable, List, Sequence, Tuple

from .errors import UsageError

Mono = Tuple[int, ...]

MAX_EXPONENT = 1 << 16

_PRIMES = frozenset(q for q in range(2, 98) if all(q % d for d in range(2, q)))


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


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_quot(a: Mono, b: Mono) -> Mono:
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def product_terms(a: Iterable[Tuple[Mono, int]], b: Collection[Tuple[Mono, int]],
                  p: int) -> Dict[Mono, int]:
    """The product of two term lists as {monomial: residue mod p}, zeros kept."""
    acc: Dict[Mono, int] = {}
    for ma, ca in a:
        for mb, cb in b:
            m = mono_mul(ma, mb)
            acc[m] = (acc.get(m, 0) + ca * cb) % p
    return acc


def _key_weights(n: int, ordering: OrderingTag) -> Tuple[int, ...]:
    """The weights w of the packed key w . m (module docstring): exponent
    e_(i+1) counts once in the degree field and once in each partial sum
    S_k with k > i, and S_k sits k - 1 fields above the bottom."""
    width = (MAX_EXPONENT * n).bit_length()
    top = 1 << (width * (n - 1))
    if ordering is OrderingTag.LOCAL_NEG_DEGREVLEX:
        top = -top
    return tuple(top + sum(1 << (width * k) for k in range(i, n - 1)) for i in range(n))


#: A variable name: an ASCII letter or '_', then ASCII letters, digits and
#: '_'.  The parser scans names with the same pattern.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Ring:
    """Ambient polynomial ring descriptor: the prime characteristic p,
    variable names, and the monomial ordering."""

    __slots__ = ("p", "names", "ordering", "weights")

    def __init__(self, p: int, names: Sequence[str],
                 ordering: OrderingTag = OrderingTag.GLOBAL_DEGREVLEX):
        if not isinstance(p, int) or p not in _PRIMES:
            raise UsageError(f"characteristic must be a prime with 2 <= p <= 97, got {p!r}")
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
        self.weights = _key_weights(len(names), ordering)

    def key(self, m: Mono) -> int:
        """The packed ordering key of a monomial (module docstring)."""
        return sum(map(mul, m, self.weights))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def with_ordering(self, ordering: OrderingTag) -> "Ring":
        if ordering == self.ordering:
            return self
        return Ring(self.p, self.names, ordering)

    def zero(self) -> "Polynomial":
        return Polynomial(self, (), [])

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),), [0])  # key(1) = 0

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


def _from_dict(ring: Ring, d: Dict[Mono, int]) -> "Polynomial":
    p = ring.p
    items = []
    for m, c in d.items():
        c %= p
        if c:
            m = _check_mono(ring, m)
            items.append((ring.key(m), m, c))
    items.sort(reverse=True)  # keys are distinct, so only they are compared
    return Polynomial(ring, tuple((m, c) for _, m, c in items), [k for k, _, _ in items])


class Polynomial:
    """Immutable sparse polynomial; see module docstring for the invariants.

    Construct through Ring.poly / Ring.constant / parse_poly rather than
    directly: the term tuple is trusted to be canonical, and the keys,
    which are always given, to match it (keys[i] is ring.key(terms[i][0])).
    """

    __slots__ = ("ring", "terms", "keys")

    def __init__(self, ring: Ring, terms: Tuple[Tuple[Mono, int], ...], keys: List[int]):
        self.ring = ring
        self.terms = terms
        self.keys = keys

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lm(self) -> Mono:
        if not self.terms:
            raise UsageError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self) -> int:
        if not self.terms:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def tail(self) -> "Polynomial":
        return Polynomial(self.ring, self.terms[1:], self.keys[1:])

    # Both orderings compare the total degree first, so the terms run by
    # decreasing degree (global) or increasing degree (local), and the
    # extreme degrees sit at the two ends of the term tuple.

    def degree(self) -> int:
        """Maximal total degree of a term (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        last = self.ring.ordering is OrderingTag.LOCAL_NEG_DEGREVLEX
        return mono_deg(self.terms[-1 if last else 0][0])

    def order(self) -> int:
        """Minimal total degree of a term (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        last = self.ring.ordering is OrderingTag.GLOBAL_DEGREVLEX
        return mono_deg(self.terms[-1 if last else 0][0])

    def ecart(self) -> int:
        return self.degree() - mono_deg(self.lm())

    def constant_coeff(self) -> int:
        return self.coeff((0,) * self.ring.nvars)

    def coeff(self, m: Mono) -> int:
        for mm, c in self.terms:
            if mm == m:
                return c
        return 0

    def _check_ring(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise UsageError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise UsageError(f"ambient ring mismatch: {self.ring!r} vs {other.ring!r}")

    # -- arithmetic -------------------------------------------------------

    def _merge(self, other: "Polynomial", sub: bool) -> "Polynomial":
        # Equal keys mean equal monomials: the key is injective.
        p = self.ring.p
        a, b = self.terms, other.terms
        ka, kb = self.keys, other.keys
        na, nb = len(a), len(b)
        out = []
        keys = []
        i = j = 0
        while i < na and j < nb:
            x, y = ka[i], kb[j]
            if x > y:
                out.append(a[i])
                keys.append(x)
                i += 1
            elif x < y:
                t = b[j]
                out.append((t[0], p - t[1]) if sub else t)
                keys.append(y)
                j += 1
            else:
                ma, ca = a[i]
                c = (ca - b[j][1]) % p if sub else (ca + b[j][1]) % p
                if c:
                    out.append((ma, c))
                    keys.append(x)
                i += 1
                j += 1
        out.extend(a[i:])
        keys.extend(ka[i:])
        if sub:
            out.extend((m, p - c) for m, c in b[j:])
        else:
            out.extend(b[j:])
        keys.extend(kb[j:])
        return Polynomial(self.ring, tuple(out), keys)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        return self._merge(other, sub=False)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        return self._merge(other, sub=True)

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial(self.ring, tuple((m, (cc * c) % p) for m, cc in self.terms), self.keys)

    def term_mul(self, c: int, m: Mono) -> "Polynomial":
        """Multiply by the single term c*m; preserves term order because the
        ordering is compatible with multiplication."""
        c %= self.ring.p
        if c == 0 or not self.terms:
            return self.ring.zero()
        p = self.ring.p
        out = []
        for mm, cc in self.terms:
            prod = mono_mul(mm, m)
            if max(prod) >= MAX_EXPONENT:
                raise UsageError(f"exponent overflow: {max(prod)} >= {MAX_EXPONENT}")
            out.append((prod, (cc * c) % p))
        shift = self.ring.key(m)  # the key is additive
        return Polynomial(self.ring, tuple(out), [k + shift for k in self.keys])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        if len(other.terms) == 1:
            m, c = other.terms[0]
            return self.term_mul(c, m)
        return _from_dict(self.ring, product_terms(self.terms, other.terms, self.ring.p))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise UsageError("negative polynomial powers are not defined")
        result = self.ring.one()
        for _ in range(e):
            result = result * self
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
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
        p = self.ring.p
        acc: Dict[Mono, int] = {}
        for m, c in self.terms:
            e = m[var]
            if e == 0:
                continue
            cc = (c * e) % p
            if cc == 0:
                continue
            mm = m[:var] + (e - 1,) + m[var + 1:]
            acc[mm] = (acc.get(mm, 0) + cc) % p
        return _from_dict(self.ring, acc)

    def frobenius(self, e: int = 1) -> "Polynomial":
        """Return self**(p**e), computed term-wise.

        Valid by Frobenius additivity: raising to the p-th power is a ring
        homomorphism in characteristic p, and residues satisfy c**p = c.
        """
        if e < 1:
            raise UsageError("frobenius exponent must be >= 1")
        q = self.ring.p ** e
        p = self.ring.p
        out = []
        for m, c in self.terms:
            mm = tuple(x * q for x in m)
            for x in mm:
                if x >= MAX_EXPONENT:
                    raise UsageError(f"exponent overflow: {x} >= {MAX_EXPONENT}")
            out.append((mm, pow(c, q, p)))
        return Polynomial(self.ring, tuple(out), [k * q for k in self.keys])  # linear key

    def rename(self, perm: Sequence[int]) -> "Polynomial":
        """Relabel variables: old variable i becomes variable perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.ring.nvars)):
            raise UsageError(f"{perm} is not a permutation of the variable indices")
        acc = {}
        for m, c in self.terms:
            mm = [0] * len(m)
            for i, e in enumerate(m):
                mm[perm[i]] = e
            acc[tuple(mm)] = c
        return _from_dict(self.ring, acc)

    # -- hashing, equality, rendering --------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.ring, self.terms))

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
