import pytest

from rdpdescent import Ring, UsageError
from rdpdescent.poly import inv_mod


def constants(p):
    """Every element of F_p, as a constant of the polynomial ring."""
    ring = Ring(p, ("x",))
    return [ring.constant(v) for v in range(p)]


def test_prime_validation():
    for p in (2, 3, 5, 7, 97):
        assert Ring(p, ("x",)).p == p
    for bad in (0, 1, 4, 6, 9, 91, 98, 101, -3):
        with pytest.raises(UsageError, match="characteristic must be a prime"):
            Ring(bad, ("x",))


def test_spec_arithmetic_examples():
    two = Ring(2, ("x",))
    assert two.constant(1) + two.constant(1) == two.zero()
    three = Ring(3, ("x",))
    assert three.constant(2) * three.constant(2) == three.one()
    five = Ring(5, ("x",))
    assert five.constant(3) + five.constant(4) == five.constant(2)


def test_spec_inverse_examples():
    assert inv_mod(2, 5) == 3
    assert inv_mod(2, 3) == 2
    assert inv_mod(3, 7) == 5
    assert inv_mod(-1, 5) == 4


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)
    with pytest.raises(ZeroDivisionError):
        inv_mod(10, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    es = constants(p)
    zero, one = es[0], es[1]
    for v, a in enumerate(es):
        assert a + zero == a
        assert a * one == a
        assert a + (zero - a) == zero
        if v:
            assert a * es[inv_mod(v, p)] == one
        for b in es:
            assert a + b == b + a
            assert a * b == b * a
            for c in es:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_additivity_exhaustive(p):
    es = constants(p)
    for a in es:
        for b in es:
            assert (a + b) ** p == a ** p + b ** p


def test_canonical_residues():
    ring = Ring(5, ("x",))
    assert ring.constant(7).constant_coeff() == 2
    assert ring.poly({(1,): -1}).coeff((1,)) == 4
    assert ring.poly({(1,): 5}).is_zero
