"""The packed key read back as a monomial, and polynomials that decode
their terms lazily.

The exponent record, the degree, the guard-bit divisibility test and the
SWAR lcm that the engine reads off a key are checked against the tuple
helpers `mono_deg`, `mono_divides` and `mono_lcm`.  A polynomial the engine
returns carries keys and coefficients only; it is checked against the
same polynomial rebuilt eagerly from its decoded terms.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from rdpdescent import OrderingTag, Ring, UsageError, parse_poly
from rdpdescent.errors import EngineLimitError
from rdpdescent.gbasis import complete_basis, normal_form, spoly
from rdpdescent.poly import MAX_EXPONENT, mono_deg, render
from test_gbasis import mono_divides, mono_lcm
from test_poly_keys import assert_keys_fresh, polynomial_pairs

GLOBAL = OrderingTag.GLOBAL_DEGREVLEX
LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX
NAMES = ("x", "y", "z", "w")
TOP = MAX_EXPONENT - 1

exponents = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 4, TOP), st.integers(0, TOP))


@st.composite
def rings_and_monomials(draw):
    n = draw(st.integers(1, 4))
    ring = Ring(2, NAMES[:n], draw(st.sampled_from((GLOBAL, LOCAL))))
    monos = draw(st.lists(st.tuples(*[exponents] * n), min_size=1, max_size=6))
    # Multiples of the first monomial, so that divisibility holds often.
    monos += [tuple(min(a + b, TOP) for a, b in zip(monos[0], m)) for m in monos[1:]]
    return ring, monos


def check_layout(ring, monos):
    record = {m: ring.record(ring.key(m)) for m in monos}
    for m in monos:
        assert ring.mono(ring.key(m)) == m
        assert ring.deg(ring.key(m)) == mono_deg(m)
        assert ring.record_deg(record[m]) == mono_deg(m)
        assert ring.record_key(record[m]) == ring.key(m)
    lcms = []
    for a in monos:
        for b in monos:
            assert ring.record_divides(record[a], record[b]) == mono_divides(a, b), (a, b)
            lcm = ring.record_lcm(record[a], record[b])
            assert ring.mono(ring.record_key(lcm)) == mono_lcm(a, b), (a, b)
            lcms.append((lcm, mono_lcm(a, b)))
    # key(lcm) orders the lcms as ring.key orders the tuple lcms.
    assert ([t for _, t in sorted(lcms, key=lambda x: ring.record_key(x[0]))]
            == sorted((t for _, t in lcms), key=ring.key))


@settings(max_examples=200, deadline=None)
@given(rings_and_monomials())
@example((Ring(2, NAMES[:3], GLOBAL), [(TOP, 0, TOP), (TOP, TOP, TOP), (0, 0, 0), (TOP - 1, 1, 0)]))
@example((Ring(2, NAMES[:4], LOCAL), [(0, TOP, 0, TOP), (TOP, 0, TOP, 0), (1, 1, 1, 1)]))
def test_the_key_reads_back_as_the_monomial(case):
    check_layout(*case)


def test_the_key_reads_back_in_1100_variables():
    rng = random.Random(29)
    for ordering in (GLOBAL, LOCAL):
        ring = Ring(3, [f"v{i}" for i in range(1100)], ordering)
        pick = (0, 1, 2, 3, TOP - 3, TOP - 2, TOP - 1, TOP)
        monos = [tuple(rng.choice(pick) for _ in range(1100)) for _ in range(3)]
        monos.append(tuple(max(a, b) for a, b in zip(monos[0], monos[1])))
        check_layout(ring, monos)


def test_term_mul_takes_only_a_monomial_of_the_ring():
    # A tuple of the wrong length, or a negative exponent, has a key that
    # stands for another monomial, or for none.
    ring = Ring(3, ("x", "y", "z"))
    f = parse_poly("x+y", ring)
    for m in ((1,), (1, 0, 0, 0), (-1, 0, 0), (0, 1.5, 0)):
        with pytest.raises(UsageError):
            f.term_mul(1, m)
    assert f.term_mul(2, (1, 0, 2)) == parse_poly("2*x^2*z^2+2*x*y*z^2", ring)


def test_coeff_takes_only_a_monomial_of_the_ring():
    # coeff looks up the key of its monomial, so it checks the monomial as
    # term_mul does: the key of (0, 1) in x, y, z is the key of y.
    ring = Ring(3, ("x", "y", "z"))
    f = parse_poly("x+2*y", ring)
    for m in ((0, 1), (1,), (0, 1, 0, 0), (-1, 0, 0), (0, 1.5, 0)):
        with pytest.raises(UsageError):
            f.coeff(m)
    assert [f.coeff(m) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))] == [1, 2, 0, 0]
    assert f._terms is None


# -- lazy terms --------------------------------------------------------------

def check_lazy(f, what):
    """f, fresh from the engine or _plus, against its eager rebuild."""
    assert (f == f.ring.zero()) == f.is_zero
    hash(f)
    if not f.is_zero:
        f.lm(), f.lc()
        if f.ring.p > 2:
            assert f != f.scale(2), what  # the same keys, other coefficients
    assert f._terms is None, f"{what}: comparing, hashing or lm() decoded the terms"
    eager = f.ring.poly(dict(f.terms))
    assert f == eager and hash(f) == hash(eager), what
    assert render(f) == render(eager), what
    assert_keys_fresh(f, what)


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs())
def test_lazy_polynomials_match_their_eager_rebuild(case):
    ring, f, g, h = case
    check_lazy(f + g, "f + g")
    check_lazy(f - g, "f - g")
    if f.is_zero or g.is_zero:
        return
    corner = None if ring.ordering is GLOBAL else 6
    check_lazy(spoly(f, g, corner), "spoly")
    gens = [g] if h.is_zero else [g, h]
    try:
        basis = complete_basis([f] + gens, step_cap=2000)
    except EngineLimitError:
        return
    for b in basis:
        check_lazy(b, "complete_basis")
    try:
        check_lazy(normal_form(f * g + h, basis, step_cap=2000), "normal_form")
    except EngineLimitError:
        pass
