"""The packed monomial key and the keys a Polynomial carries.

The key is checked against the tuple keys it replaced, kept here as the
reference: degree first (negated under the local ordering), then the
reversed exponents negated.  The carried keys are checked against
`ring.key` after every operation that passes them on instead of
recomputing them.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdpdescent import OrderingTag, Ring
from rdpdescent.errors import EngineLimitError
from rdpdescent.gbasis import _Budget, _reduce, _truncate, complete_basis, spoly
from rdpdescent.parse import parse_poly
from rdpdescent.poly import MAX_EXPONENT, Polynomial, mono_mul

GLOBAL = OrderingTag.GLOBAL_DEGREVLEX
LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX
NAMES = ("x", "y", "z", "w")


def degrevlex_reference(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def neg_degrevlex_reference(m):
    return (-sum(m), tuple(-e for e in reversed(m)))


REFERENCE = {GLOBAL: degrevlex_reference, LOCAL: neg_degrevlex_reference}

# Small exponents, exponents at the top of the range, where every field of
# the key is close to full, and anything in between.
exponents = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT - 1),
                      st.integers(0, MAX_EXPONENT - 1))

TOP = MAX_EXPONENT - 1


@st.composite
def rings_and_monomials(draw):
    n = draw(st.integers(1, 4))
    ring = Ring(2, NAMES[:n], draw(st.sampled_from((GLOBAL, LOCAL))))
    monos = draw(st.lists(st.tuples(*[exponents] * n), min_size=1, max_size=8))
    return ring, monos


@settings(max_examples=200, deadline=None)
@given(rings_and_monomials())
@example((Ring(2, NAMES[:3], GLOBAL),
          [(TOP, TOP, TOP), (TOP, TOP, TOP - 1), (0, 0, 0), (TOP, 0, 0), (0, 0, TOP)]))
@example((Ring(2, NAMES[:4], LOCAL),
          [(TOP, TOP, TOP, TOP), (0, TOP, TOP, TOP), (TOP, TOP, TOP, 0), (0, 0, 0, 1)]))
def test_packed_key_orders_as_the_tuple_reference_and_adds(case):
    ring, monos = case
    reference = REFERENCE[ring.ordering]
    assert sorted(monos, key=ring.key) == sorted(monos, key=reference)
    for a in monos:
        for b in monos:
            assert (ring.key(a) < ring.key(b)) == (reference(a) < reference(b)), (a, b)
            assert (ring.key(a) == ring.key(b)) == (a == b), (a, b)
            assert ring.key(mono_mul(a, b)) == ring.key(a) + ring.key(b), (a, b)


def test_packed_key_at_the_field_boundaries():
    # Every monomial with exponents in {0, 1, TOP - 1, TOP}: the partial
    # sums run from 0 to their largest values, which a field too narrow
    # for them would carry into the field above.
    for n in range(1, 5):
        monos = list(itertools.product((0, 1, TOP - 1, TOP), repeat=n))
        for ordering in (GLOBAL, LOCAL):
            ring = Ring(2, NAMES[:n], ordering)
            assert len({ring.key(m) for m in monos}) == len(monos)
            assert sorted(monos, key=ring.key) == sorted(monos, key=REFERENCE[ordering]), (n, ordering)


# -- carried keys ----------------------------------------------------------

def assert_keys_fresh(f: Polynomial, what: str):
    expected = [f.ring.key(m) for m, _ in f.terms]
    if list(f.keys) != expected:
        raise AssertionError(f"{what}: carried keys {list(f.keys)}, fresh keys {expected}")


def test_a_stale_key_is_reported():
    ring = Ring(3, NAMES[:3], LOCAL)
    f = parse_poly("x^2+y^3+x*z^4", ring)
    assert_keys_fresh(f, "parse")
    stale = Polynomial(ring, f.terms, f.keys[::-1])
    try:
        assert_keys_fresh(stale, "reversed keys")
    except AssertionError as exc:
        assert "reversed keys" in str(exc)
    else:
        raise AssertionError("a stale key went unnoticed")


@st.composite
def polynomial_pairs(draw):
    ordering = draw(st.sampled_from((GLOBAL, LOCAL)))
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3))
    ring = Ring(p, NAMES[:n], ordering)

    def poly():
        return ring.poly(draw(st.dictionaries(
            st.tuples(*[st.integers(0, 5)] * n), st.integers(1, p - 1), max_size=6)))

    return ring, poly(), poly(), poly()


@settings(max_examples=150, deadline=None)
@given(polynomial_pairs(), st.integers(0, 8))
def test_carried_keys_stay_fresh(case, bound):
    ring, f, g, h = case
    for what, r in (("f", f), ("f + g", f + g), ("f - g", f - g), ("g - f", g - f),
                    ("f * g", f * g), ("f^2", f ** 2), ("scale", f.scale(2)),
                    ("monic", f.monic()), ("frobenius", f.frobenius(1)),
                    ("partial", f.partial(0)), ("rename", f.rename(tuple(reversed(range(ring.nvars))))),
                    ("constant", ring.constant(1)), ("zero", ring.zero())):
        assert_keys_fresh(r, what)
    if f.is_zero or g.is_zero:
        return
    assert_keys_fresh(f.tail(), "tail")
    assert_keys_fresh(f.term_mul(2, g.lm()), "term_mul")
    assert_keys_fresh(_truncate(f, bound), "_truncate")
    corner = None if ring.ordering is GLOBAL else bound
    for c in (None, corner):
        assert_keys_fresh(spoly(f, g, c), "spoly")
    gens = [g] if h.is_zero else [g, h]
    try:
        nf = _reduce(f, gens, _Budget(2000), corner)
        basis = complete_basis([f] + gens, step_cap=2000)
    except EngineLimitError:
        return
    assert_keys_fresh(nf, "_reduce")
    for b in basis:
        assert_keys_fresh(b, "complete_basis")
