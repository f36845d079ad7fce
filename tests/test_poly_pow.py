"""Polynomial powers by square and multiply."""

import pytest

from rdpdescent import OrderingTag, Ring, UsageError, parse_poly

ORDERINGS = (OrderingTag.GLOBAL_DEGREVLEX, OrderingTag.LOCAL_NEG_DEGREVLEX)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_power_is_the_repeated_product(p, ordering):
    ring = Ring(p, ("x", "y"), ordering)
    f = parse_poly("x+y+1", ring)
    product = ring.one()
    for e in range(13):
        assert f ** e == product, (p, e)
        product = product * f


def test_a_huge_power_of_a_constant_returns_at_once():
    ring = Ring(5, ("x",))
    assert ring.constant(2) ** 10 ** 18 == ring.constant(pow(2, 10 ** 18, 5))
    assert ring.zero() ** 10 ** 18 == ring.zero() and ring.zero() ** 0 == ring.one()


def test_a_power_past_the_exponent_bound_overflows():
    ring = Ring(2, ("x", "y"))
    x = parse_poly("x", ring)
    assert (x ** 65535).lm() == (65535, 0)
    for e in (65536, 10 ** 6, 10 ** 18):
        with pytest.raises(UsageError, match=r"^exponent overflow: 65536 >= 65536$"):
            x ** e
    with pytest.raises(UsageError, match="negative"):
        x ** -1
