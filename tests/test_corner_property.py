"""The corner degree and the standard-monomial count of a monomial set
against a brute-force scan over the degrees, with hypothesis."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rdpdescent import OrderingTag, Ring, StandardBasis, standard_monomial_count
from rdpdescent.gbasis import _staircase

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
    corner = _staircase(lms)[1]
    assert corner == brute_corner(lms)
    if corner is not None:
        # the same sweep counts the monomials outside the ideal
        n = len(lms[0])
        outside = sum(not covered(lms, m) for d in range(corner) for m in degree_monomials(n, d))
        ring = Ring(2, tuple("xyzw"[:n]), LOCAL)
        basis = StandardBasis(tuple(ring.poly({m: 1}) for m in lms), ring)
        assert basis.corner == corner
        assert standard_monomial_count(basis) == outside
