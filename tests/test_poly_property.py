"""`Polynomial.degree`, `order` and `ecart` against a scan over all terms,
under both orderings, with hypothesis."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdpdescent import OrderingTag, Ring
from rdpdescent.poly import mono_deg


@st.composite
def polynomials(draw, orderings=tuple(OrderingTag)):
    ordering = draw(st.sampled_from(orderings))
    p = draw(st.sampled_from((2, 3, 5, 97)))
    n = draw(st.integers(1, 4))
    ring = Ring(p, ("x", "y", "z", "w")[:n], ordering)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 12)] * n), st.integers(0, p - 1), max_size=8))
    return ring.poly(terms)


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_degree_and_order_match_a_scan(f):
    degrees = [mono_deg(m) for m, _ in f.terms]
    if not degrees:
        assert f.is_zero
        assert f.degree() == -1 and f.order() == -1
        return
    assert f.degree() == max(degrees)
    assert f.order() == min(degrees)
    assert f.ecart() == max(degrees) - mono_deg(f.lm())


@settings(max_examples=300, deadline=None)
@given(polynomials((OrderingTag.GLOBAL_DEGREVLEX,)))
def test_global_ordering_has_ecart_zero(f):
    # The leading term under degrevlex has the highest degree, which lets
    # the reduction loop treat both orderings through their ecarts.
    assume(not f.is_zero)
    assert f.ecart() == 0


def test_zero_polynomial_under_both_orderings():
    for ordering in OrderingTag:
        zero = Ring(3, ("x", "y"), ordering).zero()
        assert zero.degree() == -1
        assert zero.order() == -1
