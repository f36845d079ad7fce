"""The truncation oracle: an independent brute-force local length and
membership test.

The truncation oracle is pure linear algebra over F_p and shares no code
with the Groebner engine.  Its rows are shifts m*g_i of the generators,
with a handful of terms each, so they are kept sparse (a dict from column
to coefficient) and eliminated lowest column first.  Most of them hold a
single term on a column that is not yet a pivot; such a row is stored
monic, with no elimination.  A column is a packed integer key, the
monomial's total degree followed by its exponents as digits: it is
linear in the exponents, so a shifted term costs one integer addition,
and its order is the column order, so no table maps monomials to
columns.  For increasing D it computes

    lambda_D = dim_F  R / (I + m^D)

as (number of monomials of degree < D) minus the rank of the truncated
multiples {m*g_i mod m^D}.  The increments lambda_{D+1} - lambda_D are the
Hilbert function of the associated graded ring of the local quotient, so a
single zero increment certifies (by Nakayama) that m^D is contained in the
extended ideal and lambda_D is the exact local length.  On top of that the
oracle insists, as a belt-and-braces certificate, that a pure power of
every variable is visible inside the row space before it reports a value.

The generators' rows go in one generator at a time, and the row m*g_i is
skipped when m is already a pivot column after all rows of g_1..g_{i-1}
(the matrix form of Faugere's F5 criterion; these are the rows that the
Koszul syzygies g_j*g_i = g_i*g_j make redundant).  The skip keeps the
row space.  Let W be the span of all truncated shifts of g_1..g_{i-1}: it
is the image of the ideal (g_1..g_{i-1}) in R/m^D, so h*g_i lies in W for
every h in W.  If h in W has lowest column m, then

    m*g_i = h*g_i - (h - m)*g_i   mod m^D,

where the first term lies in W and the second is a combination of shifts
m''*g_i with m'' after m in column order (shifts of degree >= D - ord g_i
vanish).  Descending induction over the columns puts every skipped row in
the span of W and the kept rows of g_i.  The pivots of g_i's own rows do
not justify a skip: for the single generator x the row x*x is needed,
although x is a pivot column after the row 1*x.  lambda_d, the pure-power
check and membership read only the row space, so no answer depends on
the skip; only the stored pivot rows differ.

The working degree starts just above the generators' degrees and, while
no stabilization is found, steps by x1.5 (at least +2), up to the degree
cap and the column bound.  A run that fails also bounds the next step by
its own pivots.  A pivot column is the lowest column of an element of
I + m^D, so below D the pivot columns are exactly the leading monomials,
under the column order, of the ideal I*O of the local ring: L(I) meets
degree < D in the pivots, at every working degree.  Let P be the monomial
ideal the pivots of a failed run at D generate, and c the first degree in
which every monomial lies in P.  P lies in L(I), so in a run at c + 1
every column of degree c is a pivot: lambda_c = lambda_{c+1}, and x_i^c
lies in the row space for every i.  That run certifies (and by Nakayama,
as for any certificate, m^c lies in I*O: Greuel-Pfister's highest
corner).  So the next working degree is the smaller of the x1.5 step and
c + 1.  c is found by sweeping the monomials outside P degree by degree
from D - 1 (`_OracleRun.next_workdeg`), and if some x_i^(D-1) is no pivot,
P holds no power of x_i and there is no c.  `stabilized_at` returns the
first d with lambda_d = lambda_{d+1} whatever the working degree, so no
certified value changes, and no working degree exceeds the x1.5 rule's.

The oracle reads an ideal presentation only through its `gens` and
`ring` (`ideals.IdealPresentation` is one), so this module imports
nothing but the standard library, `errors` and `poly`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UsageError
from .poly import Mono, Polynomial


class _Unstable:
    __slots__ = ()

    def __repr__(self):
        return "UNSTABLE"

    def __bool__(self):
        return False


#: Returned by the truncation oracle when no certified value was reached
#: within the degree cap.
UNSTABLE = _Unstable()


DEFAULT_DEGREE_CAP = 64

# Work bound for the oracle: a working degree whose monomials below it
# number more than this is not attempted, and the oracle reports UNSTABLE.
_MAX_COLUMNS = 13000


class _Echelon:
    """Row echelon form over F_p with monomial columns sorted by degree.

    A row is sparse: a dict from column to coefficient in [1, p), with no
    zero entries.  Pivot = lowest nonzero column of a row = its
    lowest-degree monomial.  Pivot rows are stored monic and vanish left of
    their pivot; they are not reduced right of it.  A one-term row whose
    column is not yet a pivot is stored as {col: 1} without a sweep, and
    rows are made monic through a table of the inverses mod p."""

    def __init__(self, p: int):
        self.p = p
        self.pivot_rows: Dict[int, Dict[int, int]] = {}
        self.inverse = [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def _sweep(self, row: Dict[int, int]) -> Optional[int]:
        """Reduce row in place against the pivots, lowest column first;
        return its pivot column or None if it reduces to zero."""
        p = self.p
        pivot_rows = self.pivot_rows
        # Candidate columns, lowest first; an entry whose column has since
        # cancelled is skipped.  Pivot rows vanish left of their pivot, so
        # eliminating column c touches only columns >= c and a popped
        # column never comes back.
        heap = list(row)
        heapify(heap)
        while heap:
            col = heappop(heap)
            c = row.get(col)
            if c is None:
                continue
            prow = pivot_rows.get(col)
            if prow is None:
                return col
            for j, a in prow.items():
                v = row.get(j)
                if v is None:
                    row[j] = (-c * a) % p
                    heappush(heap, j)
                else:
                    v = (v - c * a) % p
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        return None

    def insert(self, row: Dict[int, int]) -> None:
        """Add a row (consumed) to the echelon form, unless it lies in the
        row space."""
        if len(row) == 1:
            (col,) = row
            if col not in self.pivot_rows:
                row[col] = 1
                self.pivot_rows[col] = row
                return
        col = self._sweep(row)
        if col is None:
            return
        inv = self.inverse[row[col]]
        if inv != 1:
            p = self.p
            row = {j: (v * inv) % p for j, v in row.items()}
        self.pivot_rows[col] = row

    def member(self, row: Dict[int, int]) -> bool:
        return self._sweep(dict(row)) is None


class _OracleRun:
    """One elimination run at working degree D: the image of the ideal in
    R/m^D, echelonized, from which lambda_d for every d <= D is read off
    the pivot columns and membership questions are answered.  The rows of
    each generator skip the multipliers that are pivot columns of the
    earlier generators' rows (module docstring).

    A column is a monomial's key: its total degree followed by its
    exponents, read as the digits of an integer in base B = 2D,

        key(m) = deg(m)*B^n + sum_i e_i*B^(n-1-i) = sum_i e_i*(B^n + B^(n-1-i)).

    Only products of two monomials of degree < D are keyed, and their
    degree and exponents are digits, so the key is injective on them.  It
    is linear, so the key of m*t is key(m) + key(t), and its integer order
    is the column order, by degree, then lexicographic: the columns below
    degree d are the keys below d*B^n.  The multipliers are enumerated as
    keys, a generator's terms below D are keyed once, and the row m*g is
    one addition per term t of g that m*t keeps below D; those terms are a
    prefix of g's terms sorted by key.
    """

    def __init__(self, gens: Sequence[Polynomial], workdeg: int):
        ring = gens[0].ring
        self.p = ring.p
        self.workdeg = workdeg
        self.n = n = ring.nvars
        base = 2 * workdeg
        self.unit = base ** n  # the place of the degree digit
        self.weights = [self.unit + base ** (n - 1 - i) for i in range(n)]
        self.ech = ech = _Echelon(self.p)
        orders = [g.order() for g in gens]
        # Multipliers of degree < D - ord g; none when g has no terms below D.
        levels = self._keys_by_degree(workdeg - 1 - min(orders))
        for g, order in zip(gens, orders):
            earlier = set(ech.pivot_rows)  # pivot columns of the earlier generators' rows
            terms = self._keyed(g)
            for d in range(workdeg - order):
                # m of degree d keeps the terms t of degree < D - d.
                kept = terms[:bisect_left(terms, ((workdeg - d) * self.unit,))]
                for shift in levels[d]:
                    if shift not in earlier:
                        ech.insert({key + shift: c for key, c in kept})
        self.pivots = sorted(ech.pivot_rows)

    def _keys_by_degree(self, maxdeg: int) -> List[List[int]]:
        """The keys of the monomials of each degree 0..maxdeg, increasing
        (lexicographic) within a degree."""
        weights = self.weights
        # levels[d]: the keys of the degree-d monomials in the last j
        # variables, for j = 1, then 2, ..., n.
        levels = [[d * weights[-1]] for d in range(maxdeg + 1)]
        for w in reversed(weights[:-1]):
            levels = [[e * w + k for e in range(d + 1) for k in levels[d - e]]
                      for d in range(maxdeg + 1)]
        return levels

    def _key(self, mono: Mono) -> int:
        return sum(map(mul, mono, self.weights))

    def _keyed(self, g: Polynomial) -> List[Tuple[int, int]]:
        """(key, coefficient) of each term of g below the working degree,
        sorted by key; the terms at or above it are dropped before they
        are keyed."""
        workdeg = self.workdeg
        return sorted((self._key(mono), c) for mono, c in g.terms if sum(mono) < workdeg)

    def quotient_dim(self, d: int) -> int:
        """lambda_d = dim R/(I + m^d): the C(d - 1 + n, n) monomials of
        degree < d, whose keys are those below d*B^n, less the pivot
        columns among them."""
        return math.comb(d - 1 + self.n, self.n) - bisect_left(self.pivots, d * self.unit)

    def pure_power_in_span(self, var: int, through: int) -> bool:
        # The row space is the ideal (I + m^D)/m^D of R/m^D, and through < D:
        # it holds some x_var^e, e <= through, just when it holds x_var^through.
        return self.ech.member({through * self.weights[var]: 1})

    def next_workdeg(self, step: int) -> int:
        """The working degree to try after this run found no stabilization:
        c + 1, where c < step - 1 is the first degree in which every
        monomial is a multiple of a pivot column, or else step (module
        docstring).  The monomials swept have degree < step < 2D, so their
        exponents are digits and each key reads back as its monomial."""
        pivots = self.ech.pivot_rows
        weights = self.weights
        top = self.workdeg - 1
        # Pivots are closed upward below D: if x_i^(D-1) is none, no power
        # of x_i is, and the ideal they generate has no highest corner.
        if any(top * w not in pivots for w in weights):
            return step
        base = 2 * self.workdeg
        places = [w - self.unit for w in weights]
        # The monomials of degree d outside the ideal the pivots generate.
        # That ideal has its generators below D, so from degree D on a
        # monomial t lies outside it exactly when every t/x_j does.
        layer = {k for k in self._keys_by_degree(top)[top] if k not in pivots}
        for d in range(self.workdeg, step - 1):
            layer = {t for t in {s + w for s in layer for w in weights}
                     if all(t - w in layer for w, place in zip(weights, places) if t // place % base)}
            if not layer:
                return d + 1
        return step

    def stabilized_at(self) -> Optional[int]:
        """Smallest d with lambda_d = lambda_{d+1} and a pure power of each
        variable confirmed inside the row space in degree at most d.

        Once lambda stabilizes, Nakayama puts m^d inside the extended
        ideal, so the pure powers of exponent d are always visible; the
        check is kept as an independent guard and scanning continues past
        a failure rather than giving up.
        """
        for d in range(2, self.workdeg):
            if self.quotient_dim(d) == self.quotient_dim(d + 1):
                if all(self.pure_power_in_span(i, d) for i in range(self.n)):
                    return d
        return None


def _check_degree_cap(degree_cap: int) -> None:
    if degree_cap < 3:
        raise UsageError("degree cap must be at least 3")


def _oracle_run(ideal, degree_cap: int) -> Tuple[object, Optional[_OracleRun]]:
    """The certified value and the run that certified it; the caller has
    checked the degree cap."""
    gens = [g for g in ideal.gens if not g.is_zero]
    if any(g.constant_coeff() != 0 for g in gens):
        return 0, None
    if not gens:
        return UNSTABLE, None
    n = gens[0].ring.nvars
    workdeg = min(degree_cap, max(6, max(g.degree() for g in gens) + 2))
    while True:
        if math.comb(workdeg - 1 + n, n) > _MAX_COLUMNS:  # monomials of degree < workdeg
            return UNSTABLE, None
        run = _OracleRun(gens, workdeg)
        d = run.stabilized_at()
        if d is not None:
            return run.quotient_dim(d), run
        if workdeg >= degree_cap:
            return UNSTABLE, None
        workdeg = run.next_workdeg(min(degree_cap, max(workdeg + 2, (workdeg * 3) // 2)))


def truncation_length_oracle(ideal, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Independent local length computation by truncated linear algebra.

    Returns the certified length, or UNSTABLE when no stabilization was
    reached within the degree cap (in particular whenever the quotient has
    positive dimension at the origin).
    """
    _check_degree_cap(degree_cap)
    value, _ = _oracle_run(ideal, degree_cap)
    return value


def truncation_contains(ideal, g: Polynomial,
                        degree_cap: int = DEFAULT_DEGREE_CAP):
    """Oracle-side membership in the localized ideal: valid because after
    stabilization m^d is known to lie inside it.  Returns True/False, or
    UNSTABLE when the oracle could not certify a length.  The degree cap
    and the ring are checked before the oracle runs."""
    _check_degree_cap(degree_cap)
    if g.ring != ideal.ring:
        raise UsageError("membership test across different ambient rings")
    value, run = _oracle_run(ideal, degree_cap)
    if g.is_zero or (run is None and value == 0):
        return True  # 0 lies in every ideal, and g in one holding a unit
    if run is None:
        return UNSTABLE
    # Truncating g below the working degree is sound: past stabilization,
    # every monomial of degree >= workdeg lies in the extended ideal.
    return run.ech.member(dict(run._keyed(g)))
