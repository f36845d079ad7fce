"""Ideal-level constructions: jacobian ideals, Frobenius bracket ideals,
local lengths, membership, parameter-ideal tests, and an independent
brute-force length oracle.

Ideals of the quotient ring F[x_1..x_n]/(f) are represented by polynomial
ring presentations that include f among the generators, so one engine
serves both the ambient and the quotient computations.  Lengths are always
lengths of the localization at the origin: the presentation is completed
to a standard basis under the local ordering and the standard monomials
are counted.

The truncation oracle is pure linear algebra over F_p and shares no code
with the Groebner engine.  Its rows are shifts m*g_i of the generators,
with a handful of terms each, so they are kept sparse (a dict from column
to coefficient) and eliminated lowest column first.  For increasing D it
computes

    lambda_D = dim_F  R / (I + m^D)

as (number of monomials of degree < D) minus the rank of the truncated
multiples {m*g_i mod m^D}.  The increments lambda_{D+1} - lambda_D are the
Hilbert function of the associated graded ring of the local quotient, so a
single zero increment certifies (by Nakayama) that m^D is contained in the
extended ideal and lambda_D is the exact local length.  On top of that the
oracle insists, as a belt-and-braces certificate, that a pure power of
every variable is visible inside the row space before it reports a value.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UsageError
from .field import inv_mod
from .gbasis import (INFINITE, StandardBasis, complete_basis, normal_form,
                     standard_monomial_count)
from .poly import Mono, OrderingTag, Polynomial, Ring, mono_deg


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


class IdealPresentation:
    """A finite generator list in a fixed ambient ring.  The zero ideal is
    presented by (0,)."""

    __slots__ = ("gens", "ring")

    def __init__(self, gens: Sequence[Polynomial], ring: Optional[Ring] = None):
        gens = tuple(gens)
        if not gens:
            raise UsageError("an ideal presentation needs at least one generator")
        if ring is None:
            ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise UsageError("ideal generators live in different ambient rings")
        self.gens = gens
        self.ring = ring

    def local(self) -> "IdealPresentation":
        """The same presentation under the local ordering."""
        if self.ring.ordering == OrderingTag.LOCAL_NEG_DEGREVLEX:
            return self
        ring = self.ring.with_ordering(OrderingTag.LOCAL_NEG_DEGREVLEX)
        return IdealPresentation(tuple(ring.poly(dict(g.terms)) for g in self.gens), ring)

    def __eq__(self, other):
        return isinstance(other, IdealPresentation) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"IdealPresentation([{', '.join(str(g) for g in self.gens)}])"


class HypersurfaceGerm:
    """A hypersurface singularity germ at the origin: an equation f with
    f(0) = 0 in an n-variable ring; the germ has dimension n - 1."""

    __slots__ = ("f", "ring")

    def __init__(self, f: Polynomial):
        if f.is_zero:
            raise UsageError("a hypersurface germ needs a nonzero equation")
        if f.constant_coeff() != 0:
            raise UsageError("the equation must vanish at the origin")
        self.f = f
        self.ring = f.ring

    @property
    def dim(self) -> int:
        return self.ring.nvars - 1

    def __repr__(self):
        return f"HypersurfaceGerm({self.f!s}, p={self.ring.p})"


def jacobian_ideal(germ: HypersurfaceGerm) -> IdealPresentation:
    """The presentation (df/dx_1, ..., df/dx_n, f); its local quotient
    length at an isolated singularity is the Tjurina number."""
    f = germ.f
    gens = [f.partial(i) for i in range(germ.ring.nvars)]
    gens.append(f)
    return IdealPresentation(gens, germ.ring)


def bracket_ideal(ideal: IdealPresentation, germ: HypersurfaceGerm) -> IdealPresentation:
    """Frobenius bracket: p-th powers of the generators, plus f.

    Presents the ideal generated by the p-th powers of all elements of
    ideal/(f) inside the quotient ring: raising to the p-th power is a ring
    homomorphism in characteristic p, so generator powers suffice.
    Requires f to be a member of the presented ideal.
    """
    f = germ.f
    if ideal.ring != germ.ring:
        raise UsageError("ideal and germ live in different ambient rings")
    if f not in ideal.gens and not contains(ideal, f):
        raise UsageError("bracket_ideal requires the hypersurface equation to lie in the ideal")
    gens = [g.frobenius(1) for g in ideal.gens if g != f]
    gens.append(f)
    return IdealPresentation(gens, germ.ring)


@lru_cache(maxsize=512)
def _completed_local(gens: Tuple[Polynomial, ...], step_cap: Optional[int]) -> StandardBasis:
    return complete_basis(gens, step_cap)


def _local_basis(ideal: IdealPresentation, step_cap: Optional[int]) -> StandardBasis:
    loc = ideal.local()
    return _completed_local(loc.gens, step_cap)


def local_length(ideal: IdealPresentation, step_cap: Optional[int] = None):
    """Length of (local ring at the origin)/I: 0 if a unit lies in I,
    INFINITE if the quotient has positive dimension at the origin."""
    if any(g.constant_coeff() != 0 for g in ideal.gens):
        return 0
    if all(g.is_zero for g in ideal.gens):
        return INFINITE
    return standard_monomial_count(_local_basis(ideal, step_cap))


def contains(ideal: IdealPresentation, g: Polynomial, step_cap: Optional[int] = None) -> bool:
    """Membership in the ideal extended to the local ring at the origin."""
    if g.is_zero:
        return True
    if g.ring != ideal.ring:
        raise UsageError("membership test across different ambient rings")
    basis = _local_basis(ideal, step_cap)
    loc = basis.ring
    g_loc = loc.poly(dict(g.terms)) if g.ring != loc else g
    return normal_form(g_loc, basis, step_cap).is_zero


def is_parameter_ideal(ideal: IdealPresentation, step_cap: Optional[int] = None) -> bool:
    """True iff the local quotient length is finite and positive, i.e. the
    ideal is primary to the maximal ideal at the origin."""
    length = local_length(ideal, step_cap)
    return length != INFINITE and length > 0


# ---------------------------------------------------------------------------
# Truncation oracle
# ---------------------------------------------------------------------------

def _monomials_by_degree(n: int, maxdeg: int) -> List[List[Mono]]:
    """All exponent tuples of each total degree 0..maxdeg."""
    out: List[List[Mono]] = [[] for _ in range(maxdeg + 1)]

    def rec(prefix, left, remaining):
        if left == 1:
            out[remaining + sum(prefix)].append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], left - 1, remaining - e)

    for d in range(maxdeg + 1):
        rec([], n, d)
    return out


class _Echelon:
    """Row echelon form over F_p with monomial columns sorted by degree.

    A row is sparse: a dict from column to coefficient in [1, p), with no
    zero entries.  Pivot = lowest nonzero column of a row = its
    lowest-degree monomial.  Pivot rows are stored monic and vanish left of
    their pivot; they are not reduced right of it."""

    def __init__(self, p: int):
        self.p = p
        self.pivot_rows: Dict[int, Dict[int, int]] = {}

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

    def insert(self, row: Dict[int, int]) -> Optional[int]:
        """Add a row (consumed) to the echelon form; return its new pivot
        column, or None if it was already in the row space."""
        col = self._sweep(row)
        if col is None:
            return None
        p = self.p
        inv = inv_mod(row[col], p)
        if inv != 1:
            row = {j: (v * inv) % p for j, v in row.items()}
        self.pivot_rows[col] = row
        return col

    def member(self, row: Dict[int, int]) -> bool:
        return self._sweep(dict(row)) is None


class _OracleRun:
    """One elimination run at working degree D: the image of the ideal in
    R/m^D, echelonized, with enough bookkeeping to read off lambda_d for
    every d <= D and to answer membership questions."""

    def __init__(self, gens: Sequence[Polynomial], workdeg: int):
        ring = gens[0].ring
        self.p = ring.p
        self.workdeg = workdeg
        n = ring.nvars
        by_deg = _monomials_by_degree(n, workdeg - 1)
        self.cols: List[Mono] = [m for level in by_deg for m in level]
        self.index = {m: i for i, m in enumerate(self.cols)}
        # Column count of each degree-truncation level.
        self.ncols_below = [0] * (workdeg + 1)
        for d in range(workdeg):
            self.ncols_below[d + 1] = self.ncols_below[d] + len(by_deg[d])
        self.ech = _Echelon(self.p)
        self.pivots_by_deg = [0] * (workdeg + 1)
        for g in gens:
            o = g.order()
            for mdeg in range(workdeg - o):
                for mult in by_deg[mdeg]:
                    col = self.ech.insert(self._row(g, mult))
                    if col is not None:
                        self.pivots_by_deg[mono_deg(self.cols[col])] += 1
        self.pivots_below = [0] * (workdeg + 1)
        for d in range(workdeg):
            self.pivots_below[d + 1] = self.pivots_below[d] + self.pivots_by_deg[d]

    def _row(self, g: Polynomial, mult: Mono) -> Dict[int, int]:
        """mult*g truncated below the working degree."""
        index = self.index
        row = {}
        for mono, c in g.terms:
            col = index.get(tuple(map(add, mono, mult)))
            if col is not None:
                row[col] = c
        return row

    def quotient_dim(self, d: int) -> int:
        """lambda_d = dim R/(I + m^d)."""
        return self.ncols_below[d] - self.pivots_below[d]

    def poly_row(self, g: Polynomial) -> Dict[int, int]:
        """g truncated below the working degree."""
        index = self.index
        return {index[mono]: c for mono, c in g.terms if mono in index}

    def pure_power_in_span(self, var: int, through: int) -> bool:
        n = len(self.cols[0])
        for e in range(1, through + 1):
            mono = tuple(e if i == var else 0 for i in range(n))
            if self.ech.member({self.index[mono]: 1}):
                return True
        return False

    def stabilized_at(self) -> Optional[int]:
        """Smallest d with lambda_d = lambda_{d+1} and a pure power of each
        variable confirmed inside the row space in degree at most d.

        Once lambda stabilizes, Nakayama puts m^d inside the extended
        ideal, so the pure powers of exponent d are always visible; the
        check is kept as an independent guard and scanning continues past
        a failure rather than giving up.
        """
        n = len(self.cols[0])
        for d in range(2, self.workdeg):
            if self.quotient_dim(d) == self.quotient_dim(d + 1):
                if all(self.pure_power_in_span(i, d) for i in range(n)):
                    return d
        return None


def _oracle_run(ideal: IdealPresentation, degree_cap: int) -> Tuple[object, Optional[_OracleRun], Optional[int]]:
    gens = [g for g in ideal.gens if not g.is_zero]
    if any(g.constant_coeff() != 0 for g in gens):
        return 0, None, None
    if not gens:
        return UNSTABLE, None, None
    if degree_cap < 3:
        raise UsageError("degree cap must be at least 3")
    n = gens[0].ring.nvars
    workdeg = min(degree_cap, max(6, max(g.degree() for g in gens) + 2))
    while True:
        if _ncolumns(n, workdeg) > _MAX_COLUMNS:
            return UNSTABLE, None, None
        run = _OracleRun(gens, workdeg)
        d = run.stabilized_at()
        if d is not None:
            return run.quotient_dim(d), run, d
        if workdeg >= degree_cap:
            return UNSTABLE, None, None
        workdeg = min(degree_cap, max(workdeg + 2, (workdeg * 3) // 2))


def _ncolumns(n: int, workdeg: int) -> int:
    # C(workdeg - 1 + n, n) monomials of degree < workdeg
    num, den = 1, 1
    for i in range(n):
        num *= workdeg + i
        den *= i + 1
    return num // den


def truncation_length_oracle(ideal: IdealPresentation, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Independent local length computation by truncated linear algebra.

    Returns the certified length, or UNSTABLE when no stabilization was
    reached within the degree cap (in particular whenever the quotient has
    positive dimension at the origin).
    """
    value, _, _ = _oracle_run(ideal, degree_cap)
    return value


def truncation_contains(ideal: IdealPresentation, g: Polynomial,
                        degree_cap: int = DEFAULT_DEGREE_CAP):
    """Oracle-side membership in the localized ideal: valid because after
    stabilization m^d is known to lie inside it.  Returns True/False, or
    UNSTABLE when the oracle could not certify a length."""
    value, run, _ = _oracle_run(ideal, degree_cap)
    if run is None:
        if value == 0:
            return True  # the ideal contains a unit
        return UNSTABLE
    if g.is_zero:
        return True
    # Truncating g below the working degree is sound: past stabilization,
    # every monomial of degree >= workdeg lies in the extended ideal.
    return run.ech.member(run.poly_row(g))
