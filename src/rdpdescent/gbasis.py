"""Groebner bases (global ordering, Buchberger) and standard bases (local
ordering, Mora).

Every normal form, under either ordering, comes from one reduction loop,
`_reduce`: Mora's weak normal form with ecart-minimizing reducer selection
(Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.6).
Under the local ordering the working set of reducers grows with
intermediate remainders, which is what makes the division terminate
although the ordering is not a well-ordering.  Under the global
degrevlex ordering every ecart is 0, so nothing joins the reducers and
the first divisor is chosen: the loop is the plain multivariate division
algorithm, and it moves irreducible leading terms to a remainder, so the
result is fully reduced.  Completion is Buchberger's pair loop under
both orderings.

A Mora normal form is a *weak* normal form: u*f = sum q_i g_i + nf for
some unit u of the localization, its leading monomial is irreducible, and
nf = 0 if and only if f lies in the ideal extended to the localization at
the origin.  Tail terms of a local normal form may still be divisible by
leading terms; full tail reduction need not terminate in a localization
and nothing downstream needs it.

Highest corner.  Under the local ordering the completion watches for the
corner degree D of its partial basis S: the least degree such that every
monomial of degree D is divisible by a leading monomial of S.  It exists
once every variable has a pure power among the leading monomials, and it
is read off the current leading monomials, never assumed.  Soundness: S
lies in the extended ideal I*O, and the ordering refines the negative
degree, so every term of a g in S other than its leading one has higher
degree, or the same degree and a smaller monomial.  Hence for a degree-D
monomial m with LM(g) | m, the element (m/LM(g))*g/LC(g) of I*O is m
plus smaller degree-D monomials plus terms in m^(D+1).  Descending
induction over the degree-D monomials, from the smallest up, gives
m^D in I*O + m^(D+1), and Nakayama's lemma gives m^D in I*O.

From then on the completion works modulo m^D, which changes nothing in
O/I*O: it runs on S together with the implicit monomial generators of
degree D.  Dropping a term of degree >= D from an S-polynomial, a Mora
intermediate or a stored basis element is a reduction of that term by the
degree-D monomial dividing it; an element whose leading monomial has
degree >= D is replaced by that monomial.  An S-pair whose lcm has degree
>= D is skipped: every term of g has degree >= deg LM(g), so every term
of (lcm/LM(g))*g, and of the S-polynomial, has degree >= deg(lcm) >= D,
and the S-polynomial reduces to zero by the monomial generators alone.
Pairs with a monomial generator vanish for the same reason.  D only falls
as the leading ideal grows, and every new element is truncated below D,
so its leading monomial can lower D: the corner is re-read after each new
element.  A `StandardBasis` reads its `corner` off its own leading
monomials (for a completed basis, the completion's last sweep of the same
leading ideal), and normal forms against it truncate in the same way.  The
argument needs only S inside the ideal, not S standard, so the S-pair
self-check truncates at the corner it reads off the basis itself.  The
corner is None under the global ordering, where nothing is truncated, and
when some variable has no pure power (the quotient is not Artinian at the
origin, or not yet known to be).

The coprimality criterion is applied only under the global ordering.  Its
classical proof breaks for non-well-orderings (a tail monomial may be a
multiple of the leading one), and a wrong basis would be much worse than a
few redundant reductions.

Chain criterion.  Under both orderings the completion drops pairs by the
Gebauer-Moeller rules (On an installation of Buchberger's algorithm, JSC
1988).  When element k joins the basis, it queues none of (M) the new
pairs (i, k) whose lcm is a proper multiple of another new pair's, and
(F) all but one new pair per lcm.  When a pair (i, j) is popped, it is
dropped under (B) if some later element k > j has LM(k) | lcm(i, j) and
lcm(i, k) != lcm(i, j) != lcm(j, k).  Leading monomials never change
during the completion, so B at pop time drops exactly the queued pairs
that the classical update drops as each k joins.  Each rule is an
identity among the syzygies s_ij = (lcm(i, j)/LT(g_i)) e_i -
(lcm(i, j)/LT(g_j)) e_j of the leading terms, which involves divisibility and no ordering: under B, s_ij is a
combination of monomial multiples of s_ik and s_jk, whose lcms properly
divide lcm(i, j); under M, the dropped s_ik is one of s_jk, whose lcm
properly divides lcm(i, k), and of s_ij, whose lcm divides it and whose
larger index is below k; under F, the dropped s_jk is one of the kept
s_ik and of s_ij, whose lcm divides lcm(i, k).  By induction over the lcm,
ordered by divisibility, and then the larger index, the pairs that are
reduced, or skipped as coprime or at the corner, have syzygies that
generate those of all pairs, and so all syzygies of the leading terms.

That this suffices is Buchberger's criterion in its syzygy form: if every
pair of such a generating set has an S-polynomial with a standard
representation, the set is a standard basis (Greuel-Pfister ch. 2 prove
it for weak normal forms under any monomial ordering).  Modulo m^D it also
has a direct proof.  In O/m^D every element is a combination of the
finitely many monomials of degree < D, which the local ordering
well-orders, and an element with a nonzero constant term is a unit.  A
Mora normal form 0 of s gives u*s = sum q_i g_i there, with u a unit and
LM(q_i g_i) <= LM(s), hence the standard representation
s = sum u^-1 q_i g_i.  Write an f of I*O as sum a_i g_i modulo m^D with the
largest LM(a_i g_i) =: t as small as possible.  If t > LM(f), the terms at
t cancel: a syzygy of the leading terms of degree t < D.  Written through
the generating syzygies, each of whose lcms divides t, and with their
standard representations substituted, it gives a representation of f with
a smaller largest term.  So LM(f) = t lies in the leading ideal, and S
with the degree-D monomials is a standard basis of I*O + m^D = I*O.  Only
lcms of degree < D occur, which is again why the pairs at or above the
corner are never needed; and a pair reduced to zero under an earlier,
higher corner has a standard representation modulo the lower one too.

All loops charge a shared step budget; exceeding it raises
EngineLimitError, never a wrong answer.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .errors import EngineLimitError, UsageError
from .poly import (Mono, OrderingTag, Polynomial, Ring, inv_mod, mono_deg,
                   mono_divides, mono_lcm, mono_mul, mono_quot)

DEFAULT_STEP_CAP = 10 ** 6

INFINITE = math.inf


class _Budget:
    """Work budget: one unit per reduction step on small polynomials, more
    when the working polynomial is large, so the cap bounds actual work
    and not only the step count."""

    __slots__ = ("remaining", "cap")

    def __init__(self, cap: Optional[int]):
        self.cap = DEFAULT_STEP_CAP if cap is None else cap
        self.remaining = self.cap

    def spend(self, n: int = 1):
        self.remaining -= n
        if self.remaining < 0:
            raise EngineLimitError(
                f"engine step cap of {self.cap} exceeded; raise --step-cap if the input is legitimate")

    def step(self, h: Polynomial, g: Polynomial):
        self.spend(1 + (len(h.terms) + len(g.terms)) // 8)


class StandardBasis:
    """A completed basis: minimal (pairwise non-divisible leading terms),
    monic, sorted with the largest leading monomial first.

    It stores the staircase record (count, corner) of its leading
    monomials (`_staircase`), swept here or, for a local basis that
    `complete_basis` built, in the completion's last sweep of the same
    leading ideal; the corner, the dimension test and the standard-monomial
    count all read that one record.  corner is the highest-corner degree D
    of a local basis: every monomial of degree D is a multiple of a leading
    monomial, so m^D lies in the ideal (module docstring).  It is None
    under the global ordering and when some variable has no pure power.
    """

    __slots__ = ("gens", "ring", "_stair")

    def __init__(self, gens: Tuple[Polynomial, ...], ring: Ring, *, _stair=None):
        self.gens = gens
        self.ring = ring
        self._stair = _staircase([g.lm() for g in gens]) if _stair is None else _stair

    @property
    def corner(self) -> Optional[int]:
        return None if self.ring.ordering == OrderingTag.GLOBAL_DEGREVLEX else self._stair[1]

    @property
    def ordering(self) -> OrderingTag:
        return self.ring.ordering

    def leading_monomials(self) -> Tuple[Mono, ...]:
        return tuple(g.lm() for g in self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        return f"StandardBasis({[str(g) for g in self.gens]}, {self.ring!r})"


def _truncate(f: Polynomial, bound: Optional[int]) -> Polynomial:
    """f without its terms of degree >= bound; f itself when bound is None.

    Only for the local ordering, whose terms run by increasing degree, so
    that the dropped terms form a suffix of the term tuple.
    """
    if bound is None:
        return f
    terms = f.terms
    k = len(terms)
    while k and mono_deg(terms[k - 1][0]) >= bound:
        k -= 1
    return f if k == len(terms) else Polynomial(f.ring, terms[:k], f.keys[:k])


def _below(corner: Optional[int], m: Mono) -> Optional[int]:
    """The truncation bound for a factor that gets multiplied by m."""
    return None if corner is None else corner - mono_deg(m)


def spoly(f: Polynomial, g: Polynomial, corner: Optional[int] = None) -> Polynomial:
    """S-polynomial: cancel the leading terms of f and g against their lcm.
    Terms of degree >= corner are left out (see the module docstring)."""
    p = f.ring.p
    lmf, lmg = f.lm(), g.lm()
    lcm = mono_lcm(lmf, lmg)
    qf, qg = mono_quot(lcm, lmf), mono_quot(lcm, lmg)
    a = _truncate(f, _below(corner, qf)).term_mul(inv_mod(f.lc(), p), qf)
    b = _truncate(g, _below(corner, qg)).term_mul(inv_mod(g.lc(), p), qg)
    return a - b


def _reduce(f: Polynomial, gens: Sequence[Polynomial], budget: _Budget,
            corner: Optional[int] = None,
            ecarts: Optional[Sequence[int]] = None) -> Polynomial:
    """Normal form of f against gens: the one reduction loop of the engine.

    Each step cancels the leading term of the working polynomial h against
    the reducer of least ecart whose leading monomial divides it, ties
    going to the lowest index.  Under the local ordering (Mora) h joins
    the reducers when its ecart is below the chosen one's, and the loop
    stops at an irreducible leading term: a weak normal form.  Under the
    global ordering every ecart is 0, so the rule picks the first divisor
    and nothing joins; an irreducible leading term moves to the remainder,
    which makes the result fully reduced.  With a corner D, f and every
    reducer multiple are kept free of terms of degree >= D.  A caller that
    reduces against the same gens many times passes their ecarts.
    """
    ring = f.ring
    p = ring.p
    is_global = ring.ordering == OrderingTag.GLOBAL_DEGREVLEX
    if ecarts is None:
        ecarts = [g.ecart() for g in gens]
    reducers: List[Tuple[Polynomial, int]] = list(zip(gens, ecarts))
    h = _truncate(f, corner)
    remainder: List[Tuple[Mono, int]] = []
    remainder_keys: List[int] = []
    while not h.is_zero:
        lm = h.lm()
        best = None
        for r in reducers:
            if (best is None or r[1] < best[1]) and mono_divides(r[0].lm(), lm):
                best = r
                if r[1] == 0:
                    break  # nothing later can win
        if best is None:
            if not is_global:
                break
            remainder.append(h.terms[0])
            remainder_keys.append(h.keys[0])
            h = h.tail()
            continue
        g, ec = best
        if ec:
            eh = h.ecart()
            if ec > eh:
                reducers.append((h, eh))
        budget.step(h, g)
        c = (h.lc() * inv_mod(g.lc(), p)) % p
        mult = mono_quot(lm, g.lm())
        h = h - _truncate(g, _below(corner, mult)).term_mul(c, mult)
    return Polynomial(ring, tuple(remainder), remainder_keys) if is_global else h


def normal_form(f: Polynomial, basis, step_cap: Optional[int] = None) -> Polynomial:
    """Normal form of f modulo a (completed) basis.

    Global ordering: the fully reduced remainder.  Local ordering: the Mora
    weak normal form, without terms of degree >= basis.corner; zero exactly
    when f lies in the ideal inside the localization at the origin.
    """
    gens = tuple(basis)
    for g in gens:
        f._check_ring(g)
    return _reduce(f, gens, _Budget(step_cap), getattr(basis, "corner", None))


def _prepare(gens: Sequence[Polynomial]) -> List[Polynomial]:
    unique = {}  # the monic nonzero generators, first occurrences in order
    for g in gens:
        if not g.is_zero:
            g = g.monic()
            unique.setdefault(g.terms, g)
    return sorted(unique.values(), key=lambda g: g.keys[0], reverse=True)


def _staircase(lms: Sequence[Mono]) -> tuple:
    """The staircase record (count, corner) of the ideal that lms generate:
    the number of monomials outside it, and the least D such that all of
    degree D lie inside (one more than the largest degree outside).  (0, 0)
    for the unit ideal; (INFINITE, None) when some variable has no pure
    power among lms (or lms is empty), so that infinitely many lie outside.

    The monomials outside lie in the box below the pure powers.  With the
    variables ordered by increasing pure power, the sweep loops over the
    box in all but the last two exponents and sweeps the next-to-last one;
    the admissible last exponents are those below the running minimum of
    the last exponent over the generators that divide the current prefix.
    """
    if not lms:
        return INFINITE, None
    n = len(lms[0])
    powers = [None] * n
    for m in lms:
        d = mono_deg(m)
        if d == 0:
            return 0, 0
        for i, e in enumerate(m):
            if e == d and (powers[i] is None or e < powers[i]):
                powers[i] = e
    if None in powers:
        return INFINITE, None
    if n == 1:
        return powers[0], powers[0]
    order = sorted(range(n), key=powers.__getitem__)
    box = [powers[i] for i in order]
    gens = [tuple(m[i] for i in order) for m in lms]
    count = corner = 0
    for prefix in itertools.product(*(range(b) for b in box[:n - 2])):
        live = sorted((g for g in gens if all(e <= x for e, x in zip(g, prefix))),
                      key=lambda g: g[n - 2])
        base = sum(prefix)
        runmin, k = box[n - 1], 0
        for e in range(box[n - 2]):
            while k < len(live) and live[k][n - 2] <= e:
                runmin = min(runmin, live[k][n - 1])
                k += 1
            if runmin == 0:
                break
            count += runmin
            corner = max(corner, base + e + runmin)
    return count, corner


def _cut_at(g: Polynomial, corner: int) -> Polynomial:
    """A basis element modulo m^corner: its terms of lower degree, or its
    leading monomial alone when that has degree >= corner."""
    if mono_deg(g.lm()) >= corner:
        return g.ring.poly({g.lm(): 1})
    return _truncate(g, corner)


def complete_basis(gens: Sequence[Polynomial], step_cap: Optional[int] = None) -> StandardBasis:
    """Complete generators to a Groebner basis (global) or standard basis
    (local) of the ideal they generate.

    Every element enters the basis through one step, `add`: the prepared
    generators in order, then each nonzero S-pair remainder.  The step
    cuts the element at the current corner and appends it; under the
    local ordering it sweeps the staircase of the leading monomials and,
    when the corner falls, cuts the whole basis at it; then it queues the
    element's pairs with the earlier ones under rules F and M (module
    docstring).  Rule M is `_minimal` over the new lcms by increasing
    degree, once those at or above the corner have been dropped.

    Pair selection is the normal strategy: minimal lcm degree first, ties
    broken by the lcm monomial and the pair indices for reproducibility.
    Each pair is ranked once, when it is queued, by (deg lcm, key of lcm,
    j, i), on a binary heap; the indices make every rank unique, so the
    pop order is fully determined.  A pair whose lcm has degree >= corner
    is never queued.  When the corner falls, the queue is left as it is:
    `_cut_at` keeps every leading monomial, so the ranks stay correct, and
    since they lead with the lcm degree, pairs at or above the new corner
    are the last in the queue.  The first one popped therefore ends the
    completion, and it costs no work, as if the pairs had been dropped
    when the corner fell.  Rule B is applied to a pair (i, j) when it is
    popped, against every element k > j: leading monomials never change,
    so this drops the pairs that an update as each k joins would drop, and
    a dropped pair costs nothing.
    """
    gens = list(gens)
    if not gens:
        raise UsageError("complete_basis needs at least one generator")
    ring = gens[0].ring
    for g in gens[1:]:
        gens[0]._check_ring(g)
    budget = _Budget(step_cap)
    is_global = ring.ordering == OrderingTag.GLOBAL_DEGREVLEX

    basis: List[Polynomial] = []
    lms: List[Mono] = []  # the leading monomials, which `_cut_at` keeps
    ecarts: List[int] = []
    corner = stair = None  # stair: the last sweep of lms, which the returned basis takes over
    # (deg lcm, key of lcm, j, i, lcm) for the pair (i, j), i < j
    queue: List[Tuple[int, int, int, int, Mono]] = []

    def add(g):
        nonlocal corner, stair
        if corner is not None:
            g = _cut_at(g, corner)
        basis.append(g)
        lms.append(g.lm())
        ecarts.append(g.ecart())
        if not is_global:
            stair = _staircase(lms)
            if stair[1] is not None and (corner is None or stair[1] < corner):
                corner = stair[1]
                basis[:] = [_cut_at(b, corner) for b in basis]
                ecarts[:] = [b.ecart() for b in basis]
        k, lmk = len(lms) - 1, lms[-1]
        lcms = [mono_lcm(m, lmk) for m in lms[:k]]
        # F: one new pair per lcm, a coprime one if there is one (the
        # product criterion then skips it), else the first.
        kept = {}
        for i, lcm in enumerate(lcms):
            if lcm not in kept or (is_global and lcm == mono_mul(lms[i], lmk)):
                kept[lcm] = i
        # M: no new pair whose lcm is a proper multiple of another's.  By
        # increasing degree, it suffices to test the lcms kept so far.
        below = [lcm for lcm in sorted(kept, key=mono_deg)
                 if corner is None or mono_deg(lcm) < corner]
        for lcm in _minimal(below):
            heapq.heappush(queue, (mono_deg(lcm), ring.key(lcm), k, kept[lcm], lcm))

    for g in _prepare(gens):
        add(g)
    if not basis:
        return StandardBasis((), ring)

    while queue:
        d, _, j, i, lcm = heapq.heappop(queue)
        if corner is not None and d >= corner:
            break  # queued before the corner fell, and so is everything left
        # B: (i, j) is a chain through a later k when LM(k) | lcm(i, j) and
        # both lcm(i, k) and lcm(j, k) are proper divisors of lcm(i, j).
        if any(mono_divides(m, lcm) and mono_lcm(lms[i], m) != lcm != mono_lcm(lms[j], m)
               for m in lms[j + 1:]):
            continue  # costs nothing
        budget.spend()
        if is_global and lcm == mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials: S-pair reduces to zero
        h = _reduce(spoly(basis[i], basis[j], corner), basis, budget, corner, ecarts=ecarts)
        if not h.is_zero:
            add(h.monic())  # truncated, so its leading monomial has degree < corner

    return _minimalize(basis, ring, budget, is_global, stair)


def _minimal(items: Sequence, lm=lambda m: m) -> list:
    """The items, in scan order, whose lm no earlier kept item's lm divides."""
    kept: list = []
    for item in items:
        m = lm(item)
        if not any(mono_divides(lm(k), m) for k in kept):
            kept.append(item)
    return kept


def _minimalize(basis: List[Polynomial], ring: Ring, budget: _Budget,
                is_global: bool, stair) -> StandardBasis:
    # Drop elements whose leading monomial is divisible by another's; the
    # remaining leading terms still generate the leading ideal.
    kept = _minimal(sorted(basis, key=lambda g: (mono_deg(g.lm()), g.keys[0])), Polynomial.lm)
    if is_global:
        # Tail-reduce to the unique reduced Groebner basis.  The basis is
        # minimal, so no leading monomial changes, and a remainder free of
        # them stays free when the others are reduced: one pass suffices.
        for i in range(len(kept)):
            kept[i] = _reduce(kept[i], kept[:i] + kept[i + 1:], budget).monic()
    kept.sort(key=lambda g: g.keys[0], reverse=True)
    # The leading ideal is that of the completion, so its last sweep is the
    # basis's staircase; under the global ordering stair is None and it sweeps.
    return StandardBasis(tuple(kept), ring, _stair=stair)


def s_pairs_reduce_to_zero(basis: StandardBasis, step_cap: Optional[int] = None) -> bool:
    """Buchberger's criterion as a self-check: every S-pair of the completed
    basis has normal form zero.  No skipping criteria are applied.

    Local normal forms truncate at the corner of the basis's own leading
    monomials, recomputed here and not taken from basis.corner.  That is
    sound for any subset of the ideal (module docstring): zero normal forms
    then make the gens together with the degree-D monomials a standard
    basis, and those monomials add nothing to the leading ideal.  Each pair
    gets a fresh budget of step_cap: the cap bounds each pair's reduction,
    where `complete_basis`'s cap bounds the whole completion.
    """
    gens = basis.gens
    corner = (None if basis.ordering == OrderingTag.GLOBAL_DEGREVLEX
              else _staircase(basis.leading_monomials())[1])
    ecarts = [g.ecart() for g in gens]
    for i, j in itertools.combinations(range(len(gens)), 2):
        if not _reduce(spoly(gens[i], gens[j]), gens, _Budget(step_cap), corner,
                       ecarts=ecarts).is_zero:
            return False
    return True


def leading_ideal(basis: StandardBasis) -> Tuple[Mono, ...]:
    """Minimal generating set of the leading term ideal."""
    return tuple(_minimal(sorted(set(basis.leading_monomials()), key=mono_deg)))


def is_dimension_zero(basis: StandardBasis) -> bool:
    """True iff every variable has a pure power inside the leading ideal.

    Under the local ordering this says the ideal is primary to the maximal
    ideal at the origin; under the global one, that the quotient ring is a
    finite-dimensional vector space.
    """
    return basis._stair[1] is not None


def standard_monomial_count(basis: StandardBasis):
    """Number of monomials outside the leading ideal; INFINITE when the
    quotient has positive dimension.

    For a dimension-zero local standard basis this is the length of the
    Artinian quotient of the localization at the origin.
    """
    return basis._stair[0]
