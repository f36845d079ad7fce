import random

import pytest

from rdpdescent import OrderingTag, Ring, UsageError, parse_poly, render
from rdpdescent.poly import MAX_EXPONENT, mono_deg
from test_gbasis import random_poly

GLOBAL = OrderingTag.GLOBAL_DEGREVLEX
LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX


def ring2(ordering=LOCAL):
    return Ring(2, ("x", "y", "z"), ordering)


# -- arithmetic ------------------------------------------------------------

def test_char2_square_is_frobenius():
    r = ring2()
    f = parse_poly("z+y", r)
    assert f * f == parse_poly("z^2+y^2", r)


def test_char3_cube():
    r = Ring(3, ("x",), GLOBAL)
    f = parse_poly("x+1", r)
    assert f ** 3 == parse_poly("x^3+1", r)


def test_multiplication_by_zero():
    r = ring2()
    f = parse_poly("z^2+x*y", r)
    assert (f * r.zero()).is_zero
    assert (r.zero() * f).is_zero


def test_ambient_mismatch_raises():
    a = parse_poly("x", Ring(2, ("x", "y")))
    b = parse_poly("x", Ring(3, ("x", "y")))
    with pytest.raises(UsageError):
        a + b
    with pytest.raises(UsageError):
        a * b


@pytest.mark.parametrize("name", ["", "1x", "x-y", "x y", "\u00e9", "x\u00b2", 5, ["x"]])
def test_bad_variable_names(name):
    with pytest.raises(UsageError):
        Ring(2, ("x", name))


def test_arithmetic_matches_field_reference():
    # The raw-int coefficient arithmetic against sympy's GF(p), on random
    # inputs under both orderings: f*g + f and f - g.
    from sympy.polys.domains import GF

    rng = random.Random(20240811)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        field = GF(p, symmetric=False)
        r = Ring(p, ("x", "y"), rng.choice([GLOBAL, LOCAL]))
        f, g = random_poly(rng, r, 5, 4, nonzero=False), random_poly(rng, r, 5, 4, nonzero=False)
        ref = {}
        for mf, cf in f.terms:
            for mg, cg in g.terms:
                m = tuple(a + b for a, b in zip(mf, mg))
                ref[m] = ref.get(m, field.zero) + field(cf) * field(cg)
        for mf, cf in f.terms:
            ref[mf] = ref.get(mf, field.zero) + field(cf)
        assert f * g + f == r.poly({m: int(c) for m, c in ref.items()})
        ref = {m: field(c) for m, c in f.terms}
        for mg, cg in g.terms:
            ref[mg] = ref.get(mg, field.zero) - field(cg)
        assert f - g == r.poly({m: int(c) for m, c in ref.items()})


# -- partial derivatives ---------------------------------------------------

def test_partials_of_e8_3_equation():
    r = ring2()
    f = parse_poly("z^2+x^3+y^5+y^3*z", r)
    assert f.partial(0) == parse_poly("x^2", r)
    assert f.partial(1) == parse_poly("y^4+y^2*z", r)
    assert f.partial(2) == parse_poly("y^3", r)


def test_partial_of_d_family_member():
    # f = z^2+x^2*y+x*y^m+x*y^(m-r)*z with m=3, r=1 in characteristic 2
    r = ring2()
    f = parse_poly("z^2+x^2*y+x*y^3+x*y^2*z", r)
    assert f.partial(0) == parse_poly("y^3+y^2*z", r)


def test_partial_of_constant_is_zero():
    for p in (2, 3, 5):
        r = Ring(p, ("x", "y"), GLOBAL)
        assert r.one().partial(0).is_zero


def test_leibniz_rule_random():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        p = rng.choice([2, 3, 5])
        r = Ring(p, ("x", "y", "z"), rng.choice([GLOBAL, LOCAL]))
        f, g = random_poly(rng, r, 5, 4, nonzero=False), random_poly(rng, r, 5, 4, nonzero=False)
        for i in range(3):
            assert (f * g).partial(i) == f * g.partial(i) + g * f.partial(i)
        checked += 1


def test_derivative_of_pth_power_vanishes():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        r = Ring(p, ("x", "y"), GLOBAL)
        f = random_poly(rng, r, 4, 3, nonzero=False)
        fp = f.frobenius(1)
        for i in range(2):
            assert fp.partial(i).is_zero


# -- frobenius powers ------------------------------------------------------

def test_frobenius_examples():
    r = ring2()
    assert parse_poly("x+y", r).frobenius(1) == parse_poly("x^2+y^2", r)
    # frozen derived value, cross-checked against plain multiplication
    f = parse_poly("y^4+y^2*z", r)
    sq = f.frobenius(1)
    assert sq == parse_poly("y^8+y^4*z^2", r)
    assert sq == f * f
    r3 = Ring(3, ("x", "y"), GLOBAL)
    assert parse_poly("x^2+y^3", r3).frobenius(1) == parse_poly("x^6+y^9", r3)


def test_frobenius_equals_repeated_multiplication():
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        r = Ring(p, ("x", "y"), rng.choice([GLOBAL, LOCAL]))
        f = random_poly(rng, r, 4, 3, nonzero=False)
        power = r.one()
        for _ in range(p):
            power = power * f
        assert f.frobenius(1) == power


def test_frobenius_composition():
    r = ring2()
    f = parse_poly("x+y^2+z^3", r)
    assert f.frobenius(1).frobenius(1) == f.frobenius(2)


def test_frobenius_past_the_exponent_bound():
    # p^e is formed only below p^16 >= 2^16: a constant is its own p-th
    # power, and a nonconstant polynomial overflows without printing p^e.
    r = Ring(3, ("x", "y", "z"), GLOBAL)
    for c in (r.constant(2), r.zero()):
        assert c.frobenius(10 ** 6) == c
    f = parse_poly("x+y", r)
    with pytest.raises(UsageError, match=r"^exponent overflow: 1 \* 3\^1000000 >= 65536$"):
        f.frobenius(10 ** 6)
    with pytest.raises(UsageError, match=r"^exponent overflow: 177147 >= 65536$"):
        f.frobenius(11)
    r2 = Ring(2, ("x",), GLOBAL)
    x = parse_poly("x", r2)
    assert x.frobenius(15).lm() == (32768,)
    with pytest.raises(UsageError, match=r"^exponent overflow: 1 \* 2\^16 >= 65536$"):
        x.frobenius(16)
    with pytest.raises(UsageError, match=r"^exponent overflow: 65536 >= 65536$"):
        (x * x).frobenius(15)


# -- orderings -------------------------------------------------------------

def test_global_ordering_is_degrevlex():
    r = Ring(2, ("x", "y", "z"), GLOBAL)
    key = r.key
    assert key((1, 0, 0)) > key((0, 1, 0)) > key((0, 0, 1))
    assert key((2, 0, 0)) > key((1, 0, 0))      # higher degree wins
    assert key((2, 0, 0)) > key((1, 1, 0))      # x^2 > xy in revlex
    assert key((0, 0, 0)) < key((0, 0, 1))           # 1 is smallest


def test_local_ordering_makes_one_largest():
    r = ring2()
    key = r.key
    assert key((0, 0, 0)) > key((1, 0, 0)) > key((2, 0, 0))
    assert key((0, 0, 2)) > key((3, 0, 0))           # lower degree is larger
    assert key((2, 0, 0)) > key((1, 1, 0))           # same-degree tie: revlex


@pytest.mark.parametrize("ordering", [GLOBAL, LOCAL])
def test_ordering_compatible_with_multiplication(ordering):
    rng = random.Random(17)
    r = Ring(5, ("x", "y", "z"), ordering)
    for _ in range(300):
        m1 = tuple(rng.randrange(5) for _ in range(3))
        m2 = tuple(rng.randrange(5) for _ in range(3))
        m = tuple(rng.randrange(5) for _ in range(3))
        if r.key(m1) < r.key(m2):
            prod1 = tuple(a + b for a, b in zip(m1, m))
            prod2 = tuple(a + b for a, b in zip(m2, m))
            assert r.key(prod1) < r.key(prod2)


def test_terms_stored_sorted_and_zero_free():
    r = ring2()
    f = parse_poly("y^5 + z^2 + x^3 + y^3*z", r)
    keys = [r.key(m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(c != 0 for _, c in f.terms)
    assert parse_poly("x+x", r).is_zero


# -- rendering -------------------------------------------------------------

def test_render_goldens():
    r = ring2()
    assert render(parse_poly("z^2+x^3+y^5", r)) == "z^2+x^3+y^5"
    assert render(r.zero()) == "0"
    assert render(r.one()) == "1"
    r5 = Ring(5, ("x", "y"), GLOBAL)
    assert render(parse_poly("3*x^2*y+4", r5)) == "3*x^2*y+4"
    assert render(parse_poly("x", r5)) == "x"


def test_ring_poly_takes_only_a_dict():
    r = ring2()
    with pytest.raises(UsageError, match="dict"):
        r.poly([((1, 0, 0), 1), ((0, 1, 0), 1)])


def test_exponent_overflow_detected():
    r = Ring(2, ("x",), GLOBAL)
    f = r.poly({(MAX_EXPONENT - 1,): 1})
    with pytest.raises(UsageError):
        f * f
    with pytest.raises(UsageError):
        f.frobenius(1)


def test_degree_and_order():
    r = ring2()
    f = parse_poly("z^2+y^5", r)
    assert f.degree() == 5
    assert f.order() == 2
    assert f.lm() == (0, 0, 2)   # local ordering: lowest degree leads
    assert f.ecart() == 3
    assert mono_deg(f.lm()) == 2
