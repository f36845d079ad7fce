import random
import tracemalloc

import pytest

from rdpdescent import OrderingTag, ParseError, Ring, parse_poly, render
from rdpdescent.parse import MAX_DEPTH
from test_gbasis import random_poly


def ring(p=2, names=("x", "y", "z"), ordering=OrderingTag.LOCAL_NEG_DEGREVLEX):
    return Ring(p, names, ordering)


def test_table_row_equation():
    f = parse_poly("z^2+x^3+y^5+y^3*z", ring())
    assert len(f.terms) == 4
    assert f.coeff((0, 0, 2)) == 1
    assert f.coeff((0, 3, 1)) == 1


def test_minus_is_plus_in_char_two():
    r = ring()
    assert parse_poly("z^2 - x*y", r) == parse_poly("z^2+x*y", r)


def test_coefficient_vanishing_mod_p():
    r = ring(p=3)
    assert parse_poly("3*x^2", r).is_zero


def test_large_integer_literals_reduced():
    r = ring(p=5)
    assert parse_poly("1000000000000000000007*x", r) == parse_poly("2*x", r)


def test_whitespace_ignored():
    r = ring()
    assert parse_poly("  z ^ 2 +  x * y ", r) == parse_poly("z^2+x*y", r)


def test_parentheses_and_precedence():
    r = ring(p=5)
    assert parse_poly("(x+y)*(x+y)", r) == parse_poly("x^2+2*x*y+y^2", r)
    assert parse_poly("x+y*z", r) == parse_poly("x+(y*z)", r)
    assert parse_poly("x-(y-z)", r) == parse_poly("x-y+z", r)


def test_power_of_a_group():
    r = ring(p=3)
    assert parse_poly("(x+y)^2+z^3", r) == parse_poly("(x+y)*(x+y)+z^3", r)
    assert parse_poly("(x + 2*y) ^ 3 * z", r) == parse_poly("(x+2*y)*(x+2*y)*(x+2*y)*z", r)
    assert parse_poly("(2)^5*x", r) == parse_poly("32*x", r)
    assert parse_poly("((x)^2)^3", r) == parse_poly("x^6", r)


def test_malformed_group_exponent_positions():
    for src, position in (("(x+y)^", 6), ("(x+y)^0", 6), ("(x+y)^-2", 6),
                          ("(x+y) ^ y", 7), ("x^-2", 2), ("x^", 2)):
        with pytest.raises(ParseError) as exc:
            parse_poly(src, ring())
        assert exc.value.position == position, src
        assert "malformed exponent" in exc.value.message, src


def test_nesting_depth_is_bounded():
    deep = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_poly(deep, ring()) == parse_poly("x", ring())
    for depth in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError) as exc:
            parse_poly("(" * depth + "x" + ")" * depth, ring())
        assert exc.value.position == MAX_DEPTH
        assert "nested" in exc.value.message


def test_expansion_is_bounded():
    r = ring(p=5)
    assert len(parse_poly("(x+y+z)^40", r).terms) > 0
    with pytest.raises(ParseError) as exc:
        parse_poly("(x+y+z+1)^20000", r)
    assert "expansion too large" in exc.value.message
    with pytest.raises(ParseError) as exc:
        parse_poly("(x+y)^70000", r)
    assert "exponent overflow" in exc.value.message


def test_variable_power_exponent_is_bounded():
    # A variable's power gets the same bound and position as a group's.
    r = ring()
    for src, position in (("z^70000", 2), ("(z)^70000", 4)):
        with pytest.raises(ParseError) as exc:
            parse_poly(src, r)
        assert exc.value.position == position
        assert exc.value.message == "exponent overflow: 70000 >= 65536"
    assert parse_poly("z^65535", r).lm() == (0, 0, 65535)


def test_product_exponent_is_bounded():
    # A product's exponents are the sums of its factors'; the error points
    # at the '*' that reaches the bound.
    r = ring()
    for src, position in (("x^40000*x^40000", 7), ("y*x^40000*x^40000", 9),
                          ("(x+y^2)^3*y^65530", 9)):
        with pytest.raises(ParseError) as exc:
            parse_poly(src, r)
        assert exc.value.position == position
        assert exc.value.message.startswith("exponent overflow: ")
    assert parse_poly("x^32768*x^32767", r).lm() == (65535, 0, 0)
    assert parse_poly("x^40000*y^40000", r).lm() == (40000, 40000, 0)
    # Terms that cancel mod p do not count: both products are zero.
    assert parse_poly("(x^40000+x^40000)*x^40000", r).is_zero
    assert parse_poly("(x^40000-x^40000)*x^40000", r).is_zero


def test_integer_literals_longer_than_int_accepts():
    r = ring(p=3)
    # 5002 ones: the digit sum 5002 is 1 mod 3
    assert parse_poly("1" * 5002 + "*x", r) == parse_poly("x", r)
    with pytest.raises(ParseError):
        parse_poly("x^" + "9" * 5000, r)


def test_juxtaposition_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_poly("z^2+xy", ring())
    assert exc.value.position == 4
    assert "juxtaposition" in exc.value.message


def test_multichar_variable_names():
    r = Ring(2, ("xy", "z"), OrderingTag.GLOBAL_DEGREVLEX)
    f = parse_poly("xy^2+z", r)
    assert f.coeff((2, 0)) == 1


def test_unknown_variable_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x+w^2", ring())
    assert exc.value.position == 2


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_poly("(x+y", ring())
    with pytest.raises(ParseError):
        parse_poly("x+y)", ring())


def test_malformed_exponent():
    for src in ("x^", "x^-2", "x^y", "x^0"):
        with pytest.raises(ParseError):
            parse_poly(src, ring())


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("x+y 3", ring())
    with pytest.raises(ParseError):
        parse_poly("x*", ring())


def test_empty_input():
    with pytest.raises(ParseError):
        parse_poly("", ring())
    with pytest.raises(ParseError):
        parse_poly("   ", ring())


def test_leading_minus_is_rejected():
    # '-' is strictly a binary operator in the grammar
    with pytest.raises(ParseError):
        parse_poly("-x+y", ring())


def test_integer_factor_and_products():
    r = ring(p=7)
    assert parse_poly("2*3*x", r) == parse_poly("6*x", r)
    assert parse_poly("0", r).is_zero


def test_errors_never_crash_fuzz():
    rng = random.Random(99)
    # Non-ASCII digits, letters and spaces among them: superscript two,
    # Arabic-Indic one, e acute, no-break space.
    alphabet = "xyz^*+-() 0123456789w\u00b2\u0661\u00e9\u00a0"
    r = ring()
    for _ in range(500):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 14)))
        try:
            parse_poly(src, r)
        except ParseError as exc:
            assert 0 <= exc.position <= len(src)


def test_scanning_is_lazy():
    # The scanner reads one token ahead; a list of every token of this
    # 80,000-character text peaks above 6 MiB on CPython 3.11.
    src = "+".join(["x*y"] * 10_000)
    tracemalloc.start()
    try:
        parse_poly(src, ring())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_parse_render_round_trip_random():
    rng = random.Random(2718)
    count = 0
    while count < 250:
        p = rng.choice([2, 3, 5, 7])
        names = rng.choice([("x",), ("x", "y"), ("x", "y", "z"), ("u", "v", "w")])
        ordering = rng.choice(list(OrderingTag))
        r = Ring(p, names, ordering)
        f = random_poly(rng, r, 6, 5, nonzero=False)
        assert parse_poly(render(f), r) == f
        count += 1
