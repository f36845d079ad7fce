"""Groebner bases (global ordering, Buchberger) and standard bases (local
ordering, Mora).

Every normal form, under either ordering, comes from one reduction loop,
`_reduce`, with one of two reducer rules.  Under the local ordering, while
no highest corner is known, it is Mora's weak normal form with
ecart-minimizing reducer selection (Greuel-Pfister, A Singular
Introduction to Commutative Algebra, 1.6): the working set of reducers
grows with intermediate remainders, which is what makes the division
terminate although the ordering is not a well-ordering.  Under the global
degrevlex ordering, and under the local one once a corner is known, it is
the plain multivariate division algorithm: the first divisor is chosen
and nothing joins the reducers.  Under the global ordering it moves
irreducible leading terms to a remainder, so the result is fully reduced;
under the local one it stops at an irreducible leading term.  Completion
is Buchberger's pair loop under both orderings.

A local normal form is a *weak* normal form: u*f = sum q_i g_i + nf for
some unit u of the localization, its leading monomial is irreducible, and
nf = 0 if and only if f lies in the ideal extended to the localization at
the origin.  Below a corner D the unit is u = 1 modulo m^D (division below
the corner, next).  Tail terms of a local normal form may still be
divisible by leading terms; full tail reduction need not terminate in a
localization and nothing downstream needs it.

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
degree D.  Dropping a term of degree >= D from an S-polynomial, an
intermediate remainder or a stored basis element is a reduction of that
term by the degree-D monomial dividing it; an element whose leading
monomial has degree >= D is replaced by that monomial.  An S-pair whose
lcm has degree >= D is skipped: every term of g has degree >= deg LM(g),
so every term of (lcm/LM(g))*g, and of the S-polynomial, has degree >=
deg(lcm) >= D, and the S-polynomial reduces to zero by the monomial
generators alone.  Pairs with a monomial generator vanish for the same
reason.  D only falls as the leading ideal grows, and every new element is
truncated below D, so its leading monomial can lower D: the corner is
re-read after each new element.  A `StandardBasis` reads its `corner` off
its own leading monomials (for a completed basis, the completion's last
sweep of the same leading ideal), and normal forms against it truncate in
the same way.  The argument needs only S inside the ideal, not S standard,
so the S-pair self-check truncates at the corner it reads off the basis
itself.  The corner is None under the global ordering, where nothing is
truncated, and when some variable has no pure power (the quotient is not
Artinian at the origin, or not yet known to be).

Division below the corner.  Modulo m^D the local ring is the finite
algebra O/m^D = R/m^D, spanned by the C(D - 1 + n, n) monomials of degree
< D, which the local ordering totally orders.  Every term of the working
polynomial h has degree < D, since the seed and each reducer multiple are
cut there.  A step cancels LT(h) against (t/LM(g))*g for a g whose leading
monomial divides LM(h) = t; every other term of g is smaller than LM(g),
and a monomial factor keeps the order, so the step replaces LT(h) by
strictly smaller terms, and those of degree >= D are dropped, a reduction
by the degree-D monomials.  So LM(h) falls strictly in a finite total
order, and plain division ends after at most C(D - 1 + n, n) steps, with
no ecart, no joins and no unit: f = sum q_i g_i + nf modulo m^D, that is,
u = 1, with LM(nf) irreducible.  If the reducers with the degree-D
monomials are a standard basis, nf = 0 exactly when f lies in I*O: else
LM(nf), of degree < D, would be a leading monomial of I*O + m^D = I*O.
Mora's selection and joins buy a termination that the corner already
gives, so they run only before a corner is known.

Product criterion.  Under both orderings the completion never queues the
pair of monic f = LM(f) + t_f and g = LM(g) + t_g when their leading
monomials are coprime, unless LM(t_f)*LM(g) = LM(t_g)*LM(f), a test made
once, in the update of rules F and M below.  The S-polynomial is
s = LM(g)*f - LM(f)*g = t_f*g - t_g*f, and both products lead below lcm =
LM(f)*LM(g).  When their leading monomials differ, the larger one is LM(s),
so s = t_f*g - t_g*f is a standard representation; when f or g is a
monomial, one product is zero and the other is s.  That is all that the
direct proof modulo m^D below needs, for every D, so it covers completions
with no corner as well.  On packed keys the test is one compare, of
g.keys[0] + f.keys[1] with f.keys[0] + g.keys[1].  As the leading monomials
are coprime, the products can coincide only when LM(f) | LM(t_f) and
LM(g) | LM(t_g).  Under a well-ordering a tail monomial is smaller than
the leading one and so never a multiple of it, and the test always passes.
Under the local ordering it can fail, as for x + x*z and y + 2*y*z, whose
products both lead at x*y*z, and then the pair is reduced.  A corner that
falls later only drops tail terms, so a pair that passed would pass again
on the cut elements; one whose tail a cut removes entirely would pass only
then, and is reduced, which is sound for any pair.

Chain criterion.  Under both orderings the completion drops pairs by the
Gebauer-Moeller rules (On an installation of Buchberger's algorithm, JSC
1988).  When element k joins the basis, it queues none of (M) the new pairs
(i, k) whose lcm is a proper multiple of another new pair's, (F) all but
one new pair per lcm, and none of an lcm for which a new pair passes the
product criterion, as that pair stands for the lcm; M prunes with every lcm
that F keeps.  When a pair (i, j) is popped, it is dropped under (B) if some
later element k > j has LM(k) | lcm(i, j) and lcm(i, k) != lcm(i, j) !=
lcm(j, k).  Leading monomials never change during the completion, so B at
pop time drops exactly the queued pairs that the classical update drops as
each k joins.  Each rule is an identity among the syzygies
s_ij = (lcm(i, j)/LT(g_i)) e_i - (lcm(i, j)/LT(g_j)) e_j of the leading
terms, which involves divisibility and no ordering: under B, s_ij is a
combination of monomial multiples of s_ik and s_jk, whose lcms properly
divide lcm(i, j); under M, the dropped s_ik is one of s_jk, whose lcm
properly divides lcm(i, k), and of s_ij, whose lcm divides it and whose
larger index is below k; under F, the dropped s_jk is one of the kept (or
settled) s_ik and of s_ij, whose lcm divides lcm(i, k).  By induction over
the lcm, ordered by divisibility, and then the larger index, the pairs that
are reduced, or skipped by the product criterion or at the corner, have
syzygies that generate all syzygies of the leading terms.

That this suffices is Buchberger's criterion in its syzygy form: if every
pair of such a generating set has an S-polynomial with a standard
representation, the set is a standard basis (Greuel-Pfister ch. 2 prove it
for weak normal forms under any monomial ordering).  Modulo m^D it also
has a direct proof.  In O/m^D every element is a combination of the
finitely many monomials of degree < D, which the local ordering
well-orders, and an element with a nonzero constant term is a unit.  A
normal form 0 of s below the corner gives s = sum q_i g_i there, with
LM(q_i g_i) <= LM(s): a standard representation.  A Mora normal form 0,
before the corner was known, gives u*s = sum q_i g_i with u a unit, hence
the standard representation s = sum u^-1 q_i g_i.  Write an f of I*O as
sum a_i g_i modulo m^D with the largest LM(a_i g_i) =: t as small as
possible.  If t > LM(f), the terms at t cancel: a syzygy of the leading
terms of degree t < D.  Written through the generating syzygies, each of
whose lcms divides t, and with their standard representations substituted,
it gives a representation of f with a smaller largest term.  So LM(f) = t
lies in the leading ideal, and S with the degree-D monomials is a standard
basis of I*O + m^D = I*O.  Only lcms of degree < D occur, which is again
why the pairs at or above the corner are never needed; and a pair reduced
to zero under an earlier, higher corner has a standard representation
modulo the lower one too.

All loops charge a shared step budget; exceeding it raises
EngineLimitError, never a wrong answer.

The engine works on packed keys (`Ring.key`, the `poly` module
docstring), which are at once the ordering and the exponents: a product
of monomials is a sum of keys, and divisibility, lcms and degrees are
read off the exponent records with a few int operations, and so is the
staircase, which `_staircase` sweeps on the records of the leading
monomials.  No exponent tuple is built inside the engine: only
`StandardBasis.leading_monomials` and `leading_ideal`, which return
tuples, decode one, and a Polynomial the engine returns decodes its
terms only when a reader asks for them.

The working polynomial h of `_reduce` is a dict from packed key to
coefficient, with a heap of its keys for the leading term.  It starts from
f, or from the two multiples of an S-pair (`_pair`), added as each step
adds the |g| terms of its reducer multiple: the rest of h is left alone,
O(|g| log |h|) work, where a merge of two sorted term tuples would cost
O(|h| + |g|); before a corner is known, a reducer of positive ecart adds
an O(|h|) scan for h's ecart.  The start is not charged, and a step's
charge stays 1 + (|h| + |g|) // 8, read off the dict's size: the budget
measures the size of the reduction, not how h happens to be held, so a cap
is reached at the same step whatever the representation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .errors import EngineLimitError, UsageError
from .poly import (_WIDTH, Mono, OrderingTag, Polynomial, Ring, _check_product, _from_keyed,
                   inv_mod)

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

    def step(self, h_size: int, g_size: int):
        """Charge one reduction step of a reducer with g_size terms on a
        working polynomial with h_size terms."""
        self.spend(1 + (h_size + g_size) // 8)


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
        self._stair = (_staircase([ring.record(g.keys[0]) for g in gens], ring.nvars)
                       if _stair is None else _stair)

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


def _kept_below(keys: Sequence[int], ring: Ring, bound: int) -> int:
    """The number of leading keys of degree below bound: the cut rule of
    the corner.  The local ordering runs keys by increasing degree, so the
    keys of degree >= bound are a suffix, and those before it are kept.
    """
    k = len(keys)
    while k and ring.deg(keys[k - 1]) >= bound:
        k -= 1
    return k


def _pair(f: Polynomial, g: Polynomial) -> tuple:
    """The S-pair of f and g as two multiples (g, c, shift), whose sum
    cancels the leading terms against their lcm; shift is the key of the
    multiplier, key(lcm) - key(lm).  The one owner of the S-pair formula,
    which `_reduce` sums."""
    ring = f.ring
    p = ring.p
    kf, kg = f.keys[0], g.keys[0]
    lcm = ring.record_key(ring.record_lcm(ring.record(kf), ring.record(kg)))
    return ((f, inv_mod(f.lc(), p), lcm - kf), (g, p - inv_mod(g.lc(), p), lcm - kg))


def spoly(f: Polynomial, g: Polynomial, corner: Optional[int] = None) -> Polynomial:
    """S-polynomial: cancel the leading terms of f and g against their lcm.
    Terms of degree >= corner are left out (see the module docstring)."""
    f._check_ring(g)
    return _reduce(_pair(f, g), (), _Budget(None), corner)


def _reducer(g: Polynomial) -> tuple:
    """The reducer record (ecart, g, e) of a nonzero g, which `_reduce`
    reads: e is the exponent record of the leading monomial, which the
    divisibility test and the staircase sweep read."""
    return g.ecart(), g, g.ring.record(g.keys[0])


def _reduce(seed: Sequence[Tuple[Polynomial, int, int]], reducers: Sequence[tuple],
            budget: _Budget, corner: Optional[int] = None) -> Polynomial:
    """Normal form of the sum of the multiples c*m*g in seed, each given
    as (g, c, key(m)), against the reducer records (ecart, g, e): the one
    reduction loop of the engine.

    Each step cancels the leading term of the working polynomial h against
    a reducer whose leading monomial divides it, chosen by one of two
    rules.  Under the local ordering without a corner (Mora), the reducer
    of least ecart, ties going to the lowest index, and h joins the
    reducers when its ecart is below the chosen one's.  With a corner D,
    and under the global ordering, the first divisor, and nothing joins:
    plain division, which ends below D because the monomials of degree < D
    are finitely many (module docstring).  Under the local ordering the
    loop stops at an irreducible leading term, a weak normal form, whose
    unit is 1 modulo m^D when there is a corner; under the global one an
    irreducible leading term moves to the remainder, which makes the
    result fully reduced.  With a corner D, a multiple c*m*g takes only
    the terms of g of degree below D - deg m, by the cut rule of
    `_kept_below`, and only those are checked for exponent overflow.
    Against no reducers the loop returns the seeded sum.  A caller that
    reduces against the same elements many times builds their records once.

    h is held as a dict from packed key to coefficient, with a max-heap of
    its keys (negated, on heapq) from which cancelled keys are dropped when
    they surface.  The leading term is the top of the heap.  The scan for a
    reducer that divides it runs the guard test of `Ring.record_divides` on
    the records, inlined, as it is the engine's innermost test.  h's ecart,
    needed only by Mora's rule and only when the chosen reducer has a
    positive one, is the degree of the smallest key, which under the local
    ordering is the term of highest degree, less that of the leading key.
    The seed and each step's reducer multiple are added by the same code,
    which reads the kept terms of g in place and leaves out the reducer's
    leading term, the one the step cancels.  Keys are additive, so a
    multiple's keys are g's shifted by key(m), the step's key(m) being the
    leading key less g's, and no monomial is built: a step costs
    O(|g| log |h|), not the O(|h| + |g|) of a merge, plus, before a corner
    is known, an O(|h|) scan for h's ecart when the reducer's ecart is
    positive.  A joining h is recorded with a sorted Polynomial snapshot
    and the record of its leading monomial, so nothing is decoded, and
    neither is the remainder.  The dict knows |h|, so `_Budget.step`
    charges exactly what a merge of h and g is charged (module docstring).
    """
    ring = seed[0][0].ring
    p, guards = ring.p, ring.guards
    is_global = ring.ordering == OrderingTag.GLOBAL_DEGREVLEX
    mora = not is_global and corner is None  # else the first divisor, and no joins
    reducers = list(reducers)  # the joins stay local to this call
    h: dict = {}
    heap: List[int] = []
    remainder: dict = {}

    def add(g: Polynomial, c: int, m: int, start: int):
        # h += c*x^m*g over the terms of g from index start on, cut below
        # the corner; m is a key.
        keys, coeffs = g.keys, g.coeffs
        stop = len(keys) if corner is None else _kept_below(keys, ring, corner - ring.deg(m))
        _check_product(ring, keys, stop, m)
        for i in range(start, stop):
            k = keys[i] + m  # the key is additive
            old = h.get(k)
            if old is None:
                h[k] = coeffs[i] * c % p
                heapq.heappush(heap, -k)
            else:
                old = (old + coeffs[i] * c) % p
                if old:
                    h[k] = old
                else:
                    del h[k]

    for g, c, m in seed:
        add(g, c, m, 0)
    while heap:
        lead = -heapq.heappop(heap)
        lc = h.get(lead)
        if lc is None:
            continue  # cancelled after it was pushed
        e = ring.record(lead)
        guarded = e | guards  # for the guard test of Ring.record_divides, inlined
        best = None
        for r in reducers:
            if (best is None or r[0] < best[0]) and (guarded - r[2]) & guards == guards:
                best = r
                if r[0] == 0 or not mora:
                    break  # plain division, or nothing later can win
        if best is None:
            if not is_global:
                break
            remainder[lead] = h.pop(lead)
            continue
        ec, g, _ = best
        if mora and ec:
            eh = ring.deg(min(h)) - ring.deg(lead)
            if ec > eh:
                reducers.append((eh, _from_keyed(ring, h), e))
        budget.step(len(h), len(g.keys))
        del h[lead]  # the multiple's leading term cancels it
        c = p - lc * inv_mod(g.coeffs[0], p) % p  # minus the multiple's coefficient
        add(g, c, lead - g.keys[0], 1)
    return _from_keyed(ring, remainder if is_global else h)


def normal_form(f: Polynomial, basis, step_cap: Optional[int] = None) -> Polynomial:
    """Normal form of f modulo a (completed) basis.

    Global ordering: the fully reduced remainder.  Local ordering: a weak
    normal form, zero exactly when f lies in the ideal inside the
    localization at the origin; against a basis with a corner D it is
    plain division with unit 1 modulo m^D, without terms of degree >= D.
    A plain tuple of generators has no corner: the loop is Mora's,
    untruncated.
    """
    for g in basis:
        f._check_ring(g)
    return _reduce(((f, 1, 0),), [_reducer(g) for g in basis],  # key(1) = 0
                   _Budget(step_cap), getattr(basis, "corner", None))


def _prepare(gens: Sequence[Polynomial]) -> List[Polynomial]:
    unique = {}  # the monic nonzero generators, first occurrences in order
    for g in gens:
        if not g.is_zero:
            g = g.monic()
            unique.setdefault(g, g)
    return sorted(unique.values(), key=lambda g: g.keys[0], reverse=True)


def _staircase(records: Sequence[int], n: int) -> tuple:
    """The staircase record (count, corner) of the ideal that the monomials
    of the exponent records generate, in n variables: the number of
    monomials outside it, and the least D such that all of degree D lie
    inside (one more than the largest degree outside).  (0, 0) for the
    unit ideal; (INFINITE, None) when some variable has no pure power among
    them (or there are none), so that infinitely many lie outside.

    The sweep cuts the monomials outside into slabs of the last exponent,
    the top field of the records.  For consecutive values b < b' of it
    among the generators, u*x_n^e with b <= e < b' lies outside just when
    u lies outside the slice: the ideal of the other exponents of the
    generators whose last one is <= b, their records with the top field
    masked off.  A slab adds (b' - b) * count(slice) to the count and
    b' - 1 + corner(slice) to the candidates for the corner.  The slabs end
    at the pure power of x_n, the first generator whose record is 0 below
    the top field; one variable gives (a, a) for the least exponent a.
    Slices wait on a worklist, not on the call stack, which one frame per
    variable would overflow.
    """
    if 0 in records:
        return 0, 0  # the unit ideal
    # x_i^a has the record a << 32i: its top field i is its only nonzero one
    if len({i for e in records for i in [(e.bit_length() - 1) // _WIDTH]
            if not e & ((1 << _WIDTH * i) - 1)}) < n:
        return INFINITE, None
    count = corner = 0
    work = [(sorted(records), n, 1, 0)]
    while work:
        gens, k, width, offset = work.pop()
        if k == 1:
            a = gens[0]  # the least exponent, the only field left
            count += width * a
            corner = max(corner, offset + a)
            continue
        k -= 1
        low = (1 << _WIDTH * k) - 1  # the fields below the top one
        b = 0
        for j, e in enumerate(gens):  # sorted, so by the top field
            top = e >> _WIDTH * k
            if top > b:
                work.append((sorted(g & low for g in gens[:j]), k, width * (top - b), offset + top - 1))
                b = top
            if not e & low:
                break
    return count, corner


def _cut_at(g: Polynomial, corner: int) -> Polynomial:
    """A basis element modulo m^corner: its terms of lower degree, or its
    leading monomial alone when that has degree >= corner."""
    if g.ring.deg(g.keys[0]) >= corner:
        return Polynomial(g.ring, g.keys[:1], [1])
    k = _kept_below(g.keys, g.ring, corner)
    return Polynomial(g.ring, g.keys[:k], g.coeffs[:k])


def complete_basis(gens: Sequence[Polynomial], step_cap: Optional[int] = None) -> StandardBasis:
    """Complete generators to a Groebner basis (global) or standard basis
    (local) of the ideal they generate.

    Every element enters the basis through one step, `add`: the prepared
    generators in order, then each nonzero S-pair remainder.  The step
    cuts the element at the current corner and appends its record; under
    the local ordering it sweeps the staircase of the leading monomials
    and, when the corner falls, cuts and records the whole basis afresh;
    then it queues the element's pairs with the earlier ones under rules F
    and M and the product criterion, each pair tested once (module
    docstring).  Rule M is `_minimal` over the lcms F keeps by increasing
    degree, those at or above the corner dropped; an lcm it keeps is queued
    unless a new pair of it passes the product criterion.

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
    a dropped pair costs nothing; any other pair is charged and reduced.
    """
    gens = list(gens)
    if not gens:
        raise UsageError("complete_basis needs at least one generator")
    ring = gens[0].ring
    for g in gens[1:]:
        gens[0]._check_ring(g)
    budget = _Budget(step_cap)
    is_global = ring.ordering == OrderingTag.GLOBAL_DEGREVLEX

    basis: List[tuple] = []  # reducer records (ecart, g, e); `_cut_at` keeps each e
    corner = stair = None  # stair: the last sweep of the lms, which the returned basis takes over
    # (deg lcm, key of lcm, j, i, lcm) for the pair (i, j), i < j; the
    # lcms are exponent records
    queue: List[Tuple[int, int, int, int, int]] = []
    deg = ring.record_deg

    def add(g):
        nonlocal corner, stair
        if corner is not None:
            g = _cut_at(g, corner)
        basis.append(_reducer(g))
        if not is_global:
            stair = _staircase([r[2] for r in basis], ring.nvars)
            if stair[1] is not None and (corner is None or stair[1] < corner):
                corner = stair[1]
                basis[:] = [_reducer(_cut_at(r[1], corner)) for r in basis]
        k, (_, gk, ek) = len(basis) - 1, basis[-1]
        # F: the first new pair per lcm; an lcm that the product criterion
        # settles for any of its new pairs is not queued.
        kept, settled = {}, set()
        for i, (_, gi, ei) in enumerate(basis[:k]):
            lcm = ring.record_lcm(ei, ek)
            kept.setdefault(lcm, i)
            if _product_criterion(gi, gk, lcm, ei + ek):
                settled.add(lcm)  # s = t_i*g_k - t_k*g_i is a standard representation
        # M: no new pair whose lcm is a proper multiple of another kept one's,
        # settled or not; by increasing degree, testing those kept suffices.
        below = [lcm for lcm in sorted(kept, key=deg) if corner is None or deg(lcm) < corner]
        for lcm in _minimal(below, ring):
            if lcm not in settled:
                heapq.heappush(queue, (deg(lcm), ring.record_key(lcm), k, kept[lcm], lcm))

    for g in _prepare(gens):
        add(g)

    while queue:
        d, _, j, i, lcm = heapq.heappop(queue)
        if corner is not None and d >= corner:
            break  # queued before the corner fell, and so is everything left
        # B: (i, j) is a chain through a later k when LM(k) | lcm(i, j) and
        # both lcm(i, k) and lcm(j, k) are proper divisors of lcm(i, j).
        (_, gi, ei), (_, gj, ej) = basis[i], basis[j]
        if any(ring.record_divides(e, lcm) and ring.record_lcm(ei, e) != lcm != ring.record_lcm(ej, e)
               for _, _, e in basis[j + 1:]):
            continue  # costs nothing
        budget.spend()
        h = _reduce(_pair(gi, gj), basis, budget, corner)
        if not h.is_zero:
            add(h.monic())  # truncated, so its leading monomial has degree < corner

    return _minimalize(basis, ring, budget, stair)


def _product_criterion(f: Polynomial, g: Polynomial, lcm: int, product: int) -> bool:
    """Whether the pair of f and g may be skipped: their leading monomials
    are coprime (lcm, the record of their lcm, equals product, the sum of
    their records), and LM(g)*LM(tail f) != LM(f)*LM(tail g), or one of
    them has no tail (module docstring)."""
    if lcm != product:
        return False
    fk, gk = f.keys, g.keys
    return len(fk) == 1 or len(gk) == 1 or gk[0] + fk[1] != fk[0] + gk[1]


def _minimal(items: Sequence, ring: Ring, record=lambda e: e) -> list:
    """The items, in scan order, whose exponent record no earlier kept
    item's record divides."""
    kept: list = []
    for item in items:
        e = record(item)
        if not any(ring.record_divides(record(k), e) for k in kept):
            kept.append(item)
    return kept


def _minimalize(basis: List[tuple], ring: Ring, budget: _Budget, stair) -> StandardBasis:
    # Drop the records whose leading monomial is divisible by another's;
    # the remaining leading terms still generate the leading ideal.
    kept = _minimal(sorted(basis, key=lambda r: (ring.deg(r[1].keys[0]), r[1].keys[0])),
                    ring, lambda r: r[2])
    if ring.ordering == OrderingTag.GLOBAL_DEGREVLEX:
        # Tail-reduce to the unique reduced Groebner basis.  The basis is
        # minimal, so no leading monomial changes, and a remainder free of
        # them stays free when the others are reduced: one pass suffices.
        for i in range(len(kept)):  # key(1) = 0
            kept[i] = _reducer(_reduce(((kept[i][1], 1, 0),), kept[:i] + kept[i + 1:], budget).monic())
    kept.sort(key=lambda r: r[1].keys[0], reverse=True)
    # The leading ideal is that of the completion, so its last sweep is the
    # basis's staircase; under the global ordering stair is None and it sweeps.
    return StandardBasis(tuple(r[1] for r in kept), ring, _stair=stair)


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
    reducers = [_reducer(g) for g in basis.gens]
    corner = (None if basis.ordering == OrderingTag.GLOBAL_DEGREVLEX
              else _staircase([r[2] for r in reducers], basis.ring.nvars)[1])
    for f, g in itertools.combinations(basis.gens, 2):
        if not _reduce(_pair(f, g), reducers, _Budget(step_cap), corner).is_zero:
            return False
    return True


def leading_ideal(basis: StandardBasis) -> Tuple[Mono, ...]:
    """Minimal generating set of the leading term ideal."""
    ring = basis.ring
    return tuple(_minimal(sorted(set(basis.leading_monomials()), key=sum), ring,
                          lambda m: ring.record(ring.key(m))))


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
