"""The corner degree and the standard-monomial count of a monomial set
against a brute-force scan over the degrees, and the staircase record
against a sweep over the box below the pure powers, with hypothesis."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rdpdescent import OrderingTag, Ring, StandardBasis, standard_monomial_count
from rdpdescent.gbasis import INFINITE
from test_corner import staircase

LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX


def degree_monomials(n, d):
    for combo in itertools.combinations_with_replacement(range(n), d):
        yield tuple(combo.count(i) for i in range(n))


def covered(lms, m):
    return any(all(a <= b for a, b in zip(g, m)) for g in lms)


def brute_corner(lms):
    """Scan the degrees upward for one whose monomials are all covered.
    With every pure power present, D is at most one more than the sum of
    the exponent maxima; without, no degree is covered."""
    n = len(lms[0])
    bound = sum(max(m[i] for m in lms) for i in range(n)) + 1
    for d in range(bound + 1):
        if all(covered(lms, m) for m in degree_monomials(n, d)):
            return d
    return None


def box_staircase(lms):
    """The staircase record (count, corner) by a sweep over the box below
    the least pure powers: with the variables ordered by increasing pure
    power, loop over the box in all but the last two exponents and sweep
    the next-to-last one; the admissible last exponents are those below
    the running minimum of the last exponent over the generators that
    divide the current prefix."""
    if not lms:
        return INFINITE, None
    n = len(lms[0])
    powers = [None] * n
    for m in lms:
        d = sum(m)
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


@st.composite
def monomial_sets(draw):
    n = draw(st.integers(1, 4))
    top = 5 if n <= 3 else 4
    lms = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=8))
    for i in range(n):
        # 0 leaves the variable without an extra pure power
        e = draw(st.integers(0, top))
        if e:
            lms.append(tuple(e if j == i else 0 for j in range(n)))
    return lms


@settings(max_examples=300, deadline=None)
@given(monomial_sets())
def test_corner_degree_matches_brute_force(lms):
    corner = staircase(lms)[1]
    assert corner == brute_corner(lms)
    if corner is not None:
        # the same sweep counts the monomials outside the ideal
        n = len(lms[0])
        outside = sum(not covered(lms, m) for d in range(corner) for m in degree_monomials(n, d))
        ring = Ring(2, tuple("xyzw"[:n]), LOCAL)
        basis = StandardBasis(tuple(ring.poly({m: 1}) for m in lms), ring)
        assert basis.corner == corner
        assert standard_monomial_count(basis) == outside


@st.composite
def staircase_inputs(draw):
    """Monomial sets in 1..6 variables: some hold the unit monomial, some
    lack a pure power, and duplicates and multiples of other elements are
    kept, so the sets need not be minimal."""
    n = draw(st.integers(1, 6))
    top = 5 if n <= 3 else 3
    mono = st.tuples(*[st.integers(0, top)] * n)
    lms = draw(st.lists(mono, max_size=10))
    for i in range(n):
        e = draw(st.integers(0, top + 1))  # 0: no pure power of x_i added
        if e:
            lms.append(tuple(e if j == i else 0 for j in range(n)))
    if lms:
        lms += draw(st.lists(st.sampled_from(lms), max_size=3))
        lms += [tuple(e + 1 for e in m) for m in draw(st.lists(st.sampled_from(lms), max_size=2))]
    if draw(st.integers(0, 7)) == 0:
        lms.append((0,) * n)
    return draw(st.permutations(lms))


@settings(max_examples=400, deadline=None)
@given(staircase_inputs())
def test_staircase_matches_the_box_sweep(lms):
    n = len(lms[0]) if lms else 1
    assert staircase(lms, n) == box_staircase(lms)
