import hashlib
import itertools
import random

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from rdpdescent import (EngineLimitError, INFINITE, OrderingTag, Ring,
                        complete_basis, is_dimension_zero, leading_ideal,
                        normal_form, parse_poly, spoly,
                        s_pairs_reduce_to_zero, standard_monomial_count)
from rdpdescent import gbasis
from rdpdescent.catalog import instantiate
from rdpdescent.errors import UsageError
from rdpdescent.gbasis import _Budget, _reduce, _reducer
from rdpdescent.ideals import HypersurfaceGerm, IdealPresentation, bracket_ideal, jacobian_ideal
from rdpdescent.oracle import UNSTABLE, _OracleRun, truncation_contains, truncation_length_oracle
from rdpdescent.poly import inv_mod, mono_deg

GLOBAL = OrderingTag.GLOBAL_DEGREVLEX
LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX


# Exponent-tuple monomial arithmetic, the reference for the packed keys.

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_quot(a, b):
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def lring(p=2, names=("x", "y", "z")):
    return Ring(p, names, LOCAL)


def basis_of(srcs, ring):
    return complete_basis([parse_poly(s, ring) for s in srcs])


def random_poly(rng, ring, max_terms=3, max_exp=3, nonzero=True):
    """Up to max_terms terms with exponents up to max_exp; nonzero draws at
    least one term and only nonzero coefficients."""
    terms = {}
    for _ in range(rng.randrange(1 if nonzero else 0, max_terms + 1)):
        mono = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
        terms[mono] = rng.randrange(1, ring.p) if nonzero else rng.randrange(ring.p)
    return ring.poly(terms)


# -- completion ------------------------------------------------------------

def test_linear_monomial_ideal_is_complete():
    r = lring()
    b = basis_of(["x", "y", "z"], r)
    assert sorted(str(g) for g in b) == ["x", "y", "z"]


def test_coprime_leading_monomials():
    r = lring()
    b = basis_of(["y^3", "x^2"], r)
    assert sorted(str(g) for g in b) == ["x^2", "y^3"]


def test_e7_1_iz_leading_ideal():
    # (x^2+y^3, x*y^2) acquires y^5 in its leading ideal
    r = Ring(2, ("x", "y"), LOCAL)
    b = basis_of(["x^2+y^3", "x*y^2"], r)
    lead = set(leading_ideal(b))
    assert {(2, 0), (1, 2), (0, 5)} <= lead


def test_basis_invariants():
    r = lring()
    b = basis_of(["x^2+y^3", "x*y^2+x^2*z", "z^2"], r)
    lms = b.leading_monomials()
    for g in b:
        assert g.lc() == 1
    for a, c in itertools.permutations(lms, 2):
        assert not all(x <= y for x, y in zip(a, c)), "leading terms must be pairwise non-divisible"
    assert s_pairs_reduce_to_zero(b)


# -- normal forms ----------------------------------------------------------

def test_zero_is_reduced():
    r = lring()
    b = basis_of(["x^2+y^3", "y^4", "z^2"], r)
    assert normal_form(r.zero(), b).is_zero


def test_generators_reduce_to_zero():
    r = lring()
    gens = ["x^2+y^3", "y^4", "z^2"]
    b = basis_of(gens, r)
    for s in gens:
        assert normal_form(parse_poly(s, r), b).is_zero


def test_nonmember_has_nonzero_normal_form():
    r = lring()
    b = basis_of(["x^2+y^3", "y^4", "z^2"], r)
    nf = normal_form(parse_poly("x*y^2+x^2*z", r), b)
    assert not nf.is_zero


def test_normal_form_idempotent_random():
    rng = random.Random(31)
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        ordering = rng.choice([GLOBAL, LOCAL])
        r = Ring(p, ("x", "y"), ordering)
        gens = [random_poly(rng, r) for _ in range(2)]
        try:
            b = complete_basis(gens, step_cap=4000)
        except EngineLimitError:
            continue
        f = random_poly(rng, r, max_terms=4, max_exp=4)
        nf = normal_form(f, b)
        assert normal_form(nf, b) == nf
        done += 1


def test_global_normal_form_fully_reduced():
    r = Ring(2, ("x", "y", "z"), GLOBAL)
    b = basis_of(["x^2+y^3", "y^4", "z^2"], Ring(2, ("x", "y", "z"), GLOBAL))
    nf = normal_form(parse_poly("x^2*z+x*y^2", r), b)
    lead = b.leading_monomials()
    for m, _ in nf.terms:
        assert not any(all(a <= bb for a, bb in zip(g, m)) for g in lead)


def test_spoly_cancels_leading_terms():
    r = lring()
    f = parse_poly("x^2+y^3", r)
    g = parse_poly("x*y^2", r)
    s = spoly(f, g)
    assert s.lm() != tuple(max(a, b) for a, b in zip(f.lm(), g.lm()))


# -- normal forms by independent routes ---------------------------------------
# The defining properties of a normal form (Greuel-Pfister 1.6), checked by
# routes that share no code with the reduction loop: sympy's division by its
# own Groebner basis, and the truncation oracle's membership test.


def assert_no_lead_divides(nf, basis):
    if not nf.is_zero:
        lm = nf.lm()
        assert not any(all(a <= b for a, b in zip(m, lm)) for m in basis.leading_monomials())


def assert_oracle_relations(f, nf, gens, k=None):
    # Mutual membership f in I + (nf), nf in I + (f) says that f and nf
    # generate one principal ideal of the local ring O/I*O, so they differ
    # by a unit of it: u*f = nf mod I*O.  With k, all of it modulo m^k.
    ring = f.ring
    if k is not None:
        gens = list(gens) + [ring.poly({m: 1}) for m in
                             itertools.product(range(k + 1), repeat=ring.nvars) if sum(m) == k]
    ideal = IdealPresentation(gens)
    member = truncation_contains(ideal, f)
    assert member is not UNSTABLE
    if k is None or nf.is_zero or mono_deg(nf.lm()) < k:
        # Below degree k the leading ideal of I*O + m^k is that of I*O, so
        # an irreducible leading monomial keeps nf out of I*O + m^k.
        assert member is nf.is_zero
    assert truncation_contains(IdealPresentation(gens + [f]), nf) is True
    assert truncation_contains(IdealPresentation(gens + [nf]), f) is True


def test_global_normal_form_is_sympy_remainder():
    # Normal forms against a Groebner basis are unique, so the engine's
    # remainder is sympy's remainder modulo sympy's own basis.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    done = 0
    while done < 60:
        p = rng.choice([2, 3, 5])
        r = Ring(p, ("x", "y"), GLOBAL)
        gens = [random_poly(rng, r) for _ in range(2)]
        try:
            b = complete_basis(gens, step_cap=4000)
        except EngineLimitError:
            continue
        if len(b) == 0:
            continue
        f = random_poly(rng, r, max_terms=4)
        syms = sympy.symbols(r.names)
        groebner = sympy.groebner([sympy.Poly.from_dict(dict(g.terms), *syms, modulus=p)
                                   for g in gens], *syms, modulus=p, order="grevlex")
        _, rem = groebner.reduce(sympy.Poly.from_dict(dict(f.terms), *syms, modulus=p))
        theirs = {m: c % p for m, c in rem.as_dict().items() if c % p}
        assert dict(normal_form(f, b).terms) == theirs, (p, gens, f)
        done += 1


def test_local_normal_form_by_oracle():
    # Mora's weak normal form against the bare generator tuple, so no
    # corner.  Where I has none, the oracle works on I + m^10.
    rng = random.Random(43)
    done = 0
    while done < 60:
        p = rng.choice([2, 3, 5])
        r = Ring(p, ("x", "y"), LOCAL)
        gens = [random_poly(rng, r) for _ in range(2)]
        try:
            b = complete_basis(gens, step_cap=4000)
        except EngineLimitError:
            continue
        if len(b) == 0:
            continue
        f = random_poly(rng, r, max_terms=4)
        nf = normal_form(f, tuple(b))
        assert_no_lead_divides(nf, b)
        assert_oracle_relations(f, nf, gens, None if b.corner is not None else 10)
        done += 1


def test_local_normal_form_at_corner():
    # With the corner D of the basis, the normal form drops the terms of
    # degree >= D, which lie in the ideal.
    rng = random.Random(44)
    done = 0
    while done < 60:
        p = rng.choice([2, 3, 5])
        r = Ring(p, ("x", "y"), LOCAL)
        gens = [random_poly(rng, r, max_exp=4) for _ in range(3)]
        gens = [g - r.constant(g.constant_coeff()) for g in gens]  # not the unit ideal
        try:
            b = complete_basis(gens, step_cap=4000)
        except EngineLimitError:
            continue
        if b.corner is None:
            continue
        f = random_poly(rng, r, max_terms=6, max_exp=6)
        nf = normal_form(f, b)
        assert all(mono_deg(m) < b.corner for m, _ in nf.terms)
        assert_no_lead_divides(nf, b)
        assert_oracle_relations(f, nf, gens)
        done += 1
    # Two plain division steps: x - (x - x^2) = x^2, and x^2 - x*(x - x^2)
    # = x^3 lies in m^3, so x = (1 + x)*(x - x^2) modulo m^3.
    r = Ring(3, ("x", "y"), LOCAL)
    b = basis_of(["x-x^2", "y^3"], r)
    assert b.corner == 3
    assert normal_form(parse_poly("x", r), b).is_zero


def assert_plain_division_below(f, basis, gens):
    # With a corner D the reduction is plain division in R/m^D, so
    # f - nf lies in I + m^D: the unit of the weak normal form is 1.  The
    # oracle's elimination of I in R/m^D decides it, and shares no code
    # with the engine.
    corner = basis.corner
    nf = normal_form(f, basis)
    assert all(mono_deg(m) < corner for m, _ in nf.terms)
    assert_no_lead_divides(nf, basis)
    run = _OracleRun(gens, corner)
    assert run.ech.member(dict(run._keyed(f - nf))), (gens, f, nf)


def test_local_normal_form_has_unit_one_at_the_corner():
    rng = random.Random(71)
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        n = rng.choice([2, 3])
        r = Ring(p, ("x", "y", "z")[:n], LOCAL)
        gens = [random_poly(rng, r, max_terms=4, max_exp=4) for _ in range(n + 1)]
        gens = [g - r.constant(g.constant_coeff()) for g in gens]  # not the unit ideal
        try:
            b = complete_basis(gens, step_cap=4000)
        except EngineLimitError:
            continue
        if b.corner is None:
            continue  # not primary to the origin
        assert_plain_division_below(random_poly(rng, r, max_terms=8, max_exp=5), b, gens)
        done += 1


def test_bracket_normal_form_has_unit_one_at_the_corner():
    equation, _ = COORDS_E8_P3["E_8^0"]
    germ = HypersurfaceGerm(parse_poly(equation, lring(3)))
    gens = bracket_ideal(jacobian_ideal(germ), germ).local().gens
    b = complete_basis(gens, step_cap=20000)
    rng = random.Random(72)
    for _ in range(10):
        assert_plain_division_below(random_poly(rng, b.ring, max_terms=12, max_exp=b.corner - 1), b, gens)


# -- S-pair self-check suite -------------------------------------------------

def test_buchberger_criterion_random_suite():
    rng = random.Random(47)
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        ordering = rng.choice([GLOBAL, LOCAL])
        nvars = rng.choice([2, 3])
        r = Ring(p, tuple("xyz"[:nvars]), ordering)
        gens = [random_poly(rng, r) for _ in range(rng.choice([2, 3]))]
        try:
            b = complete_basis(gens, step_cap=4000)
            assert s_pairs_reduce_to_zero(b, step_cap=20000)
        except EngineLimitError:
            continue
        done += 1


def test_pair_update_is_sound_on_random_ideals():
    # The Gebauer-Moeller update drops pairs at insertion.  Every basis it
    # completes must pass the S-pair check, which drops none, and every
    # local length must equal that of the oracle, which shares no code with
    # the engine.  The constant terms are removed so that many of the local
    # ideals are primary to the origin.
    rng = random.Random(61)
    bases = compared = 0
    while bases < 200 or compared < 50:
        p = rng.choice([2, 3, 5])
        ordering = rng.choice([GLOBAL, LOCAL])
        r = Ring(p, tuple("xyz"[:rng.choice([2, 3])]), ordering)
        gens = [random_poly(rng, r) for _ in range(rng.randint(3, 5))]
        gens = [g - r.constant(g.constant_coeff()) for g in gens]
        try:
            b = complete_basis(gens, step_cap=4000)
            assert s_pairs_reduce_to_zero(b, step_cap=20000), (p, ordering, gens)
        except EngineLimitError:
            continue
        bases += 1
        length = standard_monomial_count(b)
        if ordering == LOCAL and length not in (0, INFINITE):
            assert truncation_length_oracle(IdealPresentation(gens)) == length, (p, gens)
            compared += 1


# -- the product criterion ---------------------------------------------------

def test_product_criterion_reduces_a_pair_whose_tail_products_coincide(monkeypatch):
    # x + x*z and y + 2*y*z have coprime leading monomials, but both tail
    # products are x*y*z, so they give no standard representation and the
    # pair is reduced.  z^3 has no tail, and its two pairs are skipped.
    r = lring(3)
    gens = [parse_poly(s, r) for s in ("x+x*z", "y+2*y*z", "z^3")]
    seen = []
    real_pair = gbasis._pair

    def logged(f, g):
        seen.append((f.lm(), g.lm()))
        return real_pair(f, g)

    monkeypatch.setattr(gbasis, "_pair", logged)
    b = complete_basis(gens)
    assert seen == [((1, 0, 0), (0, 1, 0))]
    assert s_pairs_reduce_to_zero(b)
    assert standard_monomial_count(b) == truncation_length_oracle(IdealPresentation(gens)) == 3


def test_product_criterion_reads_the_leading_tail_terms(monkeypatch):
    # The tails' leading products coincide (x*y*z both), while their last
    # terms' products differ (x*y*z^2 against x*y*z^3): a test of the last
    # tail terms would skip the pair.  Both tails lie below the corner 5,
    # so no cut hides the difference.
    r = lring(3)
    gens = [parse_poly(s, r) for s in ("x+x*z+x*z^2", "y+2*y*z+y*z^3", "z^5")]
    seen = []
    real_pair = gbasis._pair

    def logged(f, g):
        seen.append((f.lm(), g.lm()))
        return real_pair(f, g)

    monkeypatch.setattr(gbasis, "_pair", logged)
    b = complete_basis(gens)
    assert seen == [((1, 0, 0), (0, 1, 0))]
    assert s_pairs_reduce_to_zero(b)
    assert standard_monomial_count(b) == truncation_length_oracle(IdealPresentation(gens)) == 5


def test_product_criterion_reads_tails_modulo_the_corner():
    # The corner falls from none to 5 when z^3 + z^3*y^4 enters.  Uncut, its
    # tail and that of x + x*y^4 give one product, x*y^4*z^3, but both tails
    # lie at or above 5: modulo m^5 the two are monomials, and their coprime
    # pair, of lcm x*z^3 below the corner, is skipped with the others.  The
    # completion forms no S-pair and spends no work.
    r = lring(3)
    gens = [parse_poly(s, r) for s in ("x+x*y^4", "y^3", "z^3+z^3*y^4")]
    b = complete_basis(gens, step_cap=0)
    assert [str(g) for g in b] == ["x", "y^3", "z^3"] and b.corner == 5
    assert standard_monomial_count(b) == truncation_length_oracle(IdealPresentation(gens)) == 9


def test_pairs_the_product_criterion_skips_are_never_queued(monkeypatch):
    # Every pair of x^2, y^3, z^4 is coprime with no tail, so the update
    # queues none: the completion forms no S-pair and spends no work.
    r = lring(3)
    gens = [parse_poly(s, r) for s in ("x^2", "y^3", "z^4")]
    seen = []
    real_pair = gbasis._pair

    def logged(f, g):
        seen.append((f.lm(), g.lm()))
        return real_pair(f, g)

    monkeypatch.setattr(gbasis, "_pair", logged)
    b = complete_basis(gens, step_cap=0)
    assert seen == []
    assert standard_monomial_count(b) == 24


def lead_times_unit(rng, ring, unit):
    """A random term times the unit, plus random terms half the time."""
    lt = ring.poly({tuple(rng.randrange(3) for _ in range(ring.nvars)): rng.randrange(1, ring.p)})
    if rng.random() < 0.5:
        return lt * unit + random_poly(rng, ring, max_terms=2, max_exp=4)
    return lt * unit


def test_product_criterion_on_tails_divisible_by_the_lead(monkeypatch):
    # Generators LT*u + noise share one unit u = 1 + v per ideal, with v of
    # positive degree, so a tail often leads at LT*LM(v), and then two
    # coprime leads give equal tail products: the pairs the criterion must
    # reduce.  Every basis must pass the S-pair check, which skips nothing,
    # and every length the oracle certifies must agree.
    guarded = []
    real_criterion = gbasis._product_criterion

    def logged(f, g, lcm, product, corner):
        skip = real_criterion(f, g, lcm, product, corner)
        guarded.append(lcm == product and not skip)
        return skip

    monkeypatch.setattr(gbasis, "_product_criterion", logged)
    rng = random.Random(5)
    bases = compared = 0
    while bases < 200:
        p = rng.choice([2, 3, 5])
        r = Ring(p, tuple("xyz"[:rng.choice([2, 3])]), LOCAL)
        v = random_poly(rng, r, max_terms=2, max_exp=2)
        unit = r.constant(1) + v - r.constant(v.constant_coeff())
        gens = [lead_times_unit(rng, r, unit) for _ in range(rng.randint(2, 4))]
        try:
            b = complete_basis(gens, step_cap=4000)
            assert s_pairs_reduce_to_zero(b, step_cap=20000), (p, gens)
        except EngineLimitError:
            continue
        bases += 1
        length = standard_monomial_count(b)
        if length not in (0, INFINITE):
            assert truncation_length_oracle(IdealPresentation(gens)) in (UNSTABLE, length), (p, gens)
            compared += 1
    assert any(guarded) and compared >= 20


# The J^[p] of two E_8 germs at p = 3 after a linear change of coordinates,
# as `python3 perfbench/coords.py` prints them.  Their completions fit the
# benchmark's step cap only with the Gebauer-Moeller pair criteria.
COORDS_E8_P3 = {
    "E_8^0": ("2*x*x*x*x*x+x*x*x*x*y+x*x*x*x*z+2*x*x*x*y*y+x*x*x*y*z+2*x*x*x*z*z+2*x*x*x"
              "+2*x*x*y*y*y+2*x*x*z*z*z+x*x+x*y*y*y*y+x*y*y*y*z+x*y*z*z*z+2*x*y+x*z*z*z*z"
              "+2*y*y*y*y*y+y*y*y*y*z+2*y*y*y*z*z+2*y*y*z*z*z+y*y+y*z*z*z*z+2*z*z*z*z*z+z*z*z",
              108),
    "E_8^1": ("2*x*x*x*x*x+2*x*x*x*y*y+x*x*x*y*z+2*x*x*x*z*z+x*x+2*x*y+y*y*y+y*y+z*z*z", 99),
}


@pytest.mark.parametrize("label", sorted(COORDS_E8_P3))
def test_coords_bracket_completes_under_benchmark_cap(label):
    equation, length = COORDS_E8_P3[label]
    germ = HypersurfaceGerm(parse_poly(equation, lring(3)))
    bracket = bracket_ideal(jacobian_ideal(germ), germ)
    basis = complete_basis(bracket.local().gens, step_cap=20000)
    assert standard_monomial_count(basis) == truncation_length_oracle(bracket) == length


# The E_8^2 germ at p = 3 after the change of coordinates [[1,0,2],[1,1,2],
# [1,2,1]], as `python3 perfbench/coords.py` prints it.
COORDS_E8_2_P3 = (
    "x*x*x*x*x+2*x*x*x*x*y+x*x*x*x*z+x*x*x*x+x*x*x*y*y+x*x*x*y*z+2*x*x*x*y+x*x*x*z*z"
    "+2*x*x*x*z+x*x*x+x*x*y*y*y+x*x*y*y+2*x*x*z*z*z+x*x+2*x*y*y*y*y+x*y*y*y*z+x*y*y*z"
    "+x*y*z*z*z+x*y+2*x*z*z*z*z+2*x*z*z*z+2*x*z+y*y*y*y*y+y*y*y*y*z+y*y*y*z*z+2*y*y*z*z*z"
    "+y*y*z*z+y*y+2*y*z*z*z*z+y*z*z*z+y*z+2*z*z*z*z*z+z*z*z*z+2*z*z*z+z*z")


def coords_e8_2_permuted_p3_local():
    # The permuted ideal (f_x, f_z, f) of INVERTIBLE_SUMMAND.  Its leading
    # ideal gains a pure power of z late, so most of its pairs are reduced
    # before a corner is known.
    germ = HypersurfaceGerm(parse_poly(COORDS_E8_2_P3, lring(3)))
    f_x, _, f_z, f = jacobian_ideal(germ).gens
    return [f_x, f_z, f]


def test_coords_e8_2_permuted_ideal_has_the_oracle_length():
    gens = coords_e8_2_permuted_p3_local()
    basis = complete_basis(gens, step_cap=20000)
    assert standard_monomial_count(basis) == truncation_length_oracle(IdealPresentation(gens)) == 11


# -- dimension and counting --------------------------------------------------

def test_dimension_zero_examples():
    r = lring()
    assert is_dimension_zero(basis_of(["x", "y", "z"], r))
    assert is_dimension_zero(basis_of(["x^2+y^3", "y^4", "z^2"], r))
    # E_7^1: I_x = (f_y, f_z, f) is contained in (x, z), hence not zero-dimensional
    f = "z^2+x^3+x*y^3+x^2*y*z"
    fy, fz = "x*y^2+x^2*z", "x^2*y"
    assert not is_dimension_zero(basis_of([fy, fz, f], r))


def test_standard_monomial_counts():
    r = lring()
    assert standard_monomial_count(basis_of(["x", "y", "z"], r)) == 1
    assert standard_monomial_count(basis_of(["x^2+y^3", "y^4", "z^2"], r)) == 16
    assert standard_monomial_count(basis_of(["x^2", "x*y", "z"], r)) == INFINITE


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_two_variable_family_count(m):
    # (y^m, x^2 + m*x*y^(m-1)) has residue basis x^i y^j, i <= 1, j <= m-1
    r = Ring(2, ("x", "y"), LOCAL)
    gens = [parse_poly(f"y^{m}", r),
            parse_poly(f"x^2+{m}*x*y^{m - 1}", r)]
    assert standard_monomial_count(complete_basis(gens)) == 2 * m


def test_unit_ideal_count_zero():
    r = lring()
    b = basis_of(["1+x", "y"], r)
    assert standard_monomial_count(b) == 0


def test_global_and_local_counts_agree_on_origin_primary_ideals():
    # For ideals primary to the origin the two orderings count the same.
    cases = [
        (2, ["x^2", "y^4+y^2*z", "y^3", "z^2+x^3+y^5+y^3*z"]),
        (2, ["x^2+y^3", "y^4", "z^2"]),
        (3, ["x^2", "y^3", "z^2+x^2*y"]),
        (5, ["x^2", "y^2", "z^2"]),
    ]
    for p, srcs in cases:
        lb = basis_of(srcs, Ring(p, ("x", "y", "z"), LOCAL))
        gb = basis_of(srcs, Ring(p, ("x", "y", "z"), GLOBAL))
        assert is_dimension_zero(gb)
        assert standard_monomial_count(lb) == standard_monomial_count(gb)


def test_global_and_local_counts_agree_on_catalog_jacobians():
    from rdpdescent.catalog import table_records
    from rdpdescent.ideals import jacobian_ideal
    for rec in table_records():
        jac = jacobian_ideal(rec.germ())
        srcs = [str(g) for g in jac.gens]
        lb = basis_of(srcs, Ring(rec.char, ("x", "y", "z"), LOCAL))
        gb = basis_of(srcs, Ring(rec.char, ("x", "y", "z"), GLOBAL))
        if is_dimension_zero(gb):
            assert standard_monomial_count(lb) == standard_monomial_count(gb), rec.label


def test_step_cap_raises_engine_limit():
    r = lring()
    gens = [parse_poly("x^2+y^3", r), parse_poly("x*y^2+x^2*z", r), parse_poly("z^2", r)]
    with pytest.raises(EngineLimitError):
        complete_basis(gens, step_cap=1)
    # a cap of 0 is a cap, not a request for the default
    with pytest.raises(EngineLimitError):
        complete_basis(gens, step_cap=0)
    with pytest.raises(EngineLimitError):
        normal_form(parse_poly("x^2", r), complete_basis(gens), step_cap=0)


def e8_1_bracket_p5_local():
    germ = instantiate("E", 8, 1, 5).germ()
    return bracket_ideal(jacobian_ideal(germ), germ).local().gens


def e7_1_jacobian_p3_global():
    germ = instantiate("E", 7, 1, 3).germ()
    ring = germ.ring.with_ordering(GLOBAL)
    return [ring.poly(dict(g.terms)) for g in jacobian_ideal(germ).gens]


def e7_1_bracket_p3_local():
    # The corner falls while queued pairs lie above it.
    germ = instantiate("E", 7, 1, 3).germ()
    return bracket_ideal(jacobian_ideal(germ), germ).local().gens


def d7_2_bracket_p2_local():
    # Many coprime pairs: the product criterion skips them locally too.
    germ = instantiate("D", 7, 2, 2).germ()
    return bracket_ideal(jacobian_ideal(germ), germ).local().gens


# The ids leave out the pinned values, so that re-pinning keeps the test ids.
@pytest.mark.parametrize("make_gens, need", [
    pytest.param(e8_1_bracket_p5_local, 1532, id="e8_1_bracket_p5_local"),
    pytest.param(e7_1_jacobian_p3_global, 13, id="e7_1_jacobian_p3_global"),
    pytest.param(e7_1_bracket_p3_local, 30, id="e7_1_bracket_p3_local"),
    pytest.param(d7_2_bracket_p2_local, 17, id="d7_2_bracket_p2_local"),
    pytest.param(coords_e8_2_permuted_p3_local, 684, id="coords_e8_2_permuted_p3_local"),
])
def test_completion_work_is_pinned(make_gens, need):
    # The exact work of five completions: one per ordering, one whose
    # corner falls below queued pairs, which must cost nothing, and two
    # local ones with coprime pairs.  A change to pair selection, reduction
    # or truncation that moves it must say why.
    gens = make_gens()
    complete_basis(gens, step_cap=need)
    with pytest.raises(EngineLimitError):
        complete_basis(gens, step_cap=need - 1)


@pytest.mark.parametrize("make_gens, pairs, digest", [
    pytest.param(e8_1_bracket_p5_local, 31,
                 "2963d1c6ca6c48e09b84f797ddc9d3303e53543156d24f588fca07e414a2b4a1",
                 id="e8_1_bracket_p5_local"),
    pytest.param(e7_1_jacobian_p3_global, 4,
                 "afc1ce2a717930c6ef622f9de569e71c9e1ecbec73020730e177e4c579615d08",
                 id="e7_1_jacobian_p3_global"),
])
def test_pair_order_is_pinned(monkeypatch, make_gens, pairs, digest):
    # The leading monomials of every S-pair the completion forms, in order:
    # the normal strategy with its (j, i) tie-break, no pair the
    # Gebauer-Moeller update drops, and no pair at or above a corner that
    # fell while it was queued.
    seen = []
    real_pair = gbasis._pair

    def logged(f, g):
        seen.append((f.lm(), g.lm()))
        return real_pair(f, g)

    monkeypatch.setattr(gbasis, "_pair", logged)
    complete_basis(make_gens())
    assert len(seen) == pairs
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, co, p", [(7, 1, 3), (8, 1, 5), (8, 2, 3)],
                         ids=["e7_1_bracket_p3_local", "e8_1_bracket_p5_local", "e8_2_bracket_p3_local"])
def test_reducer_records_stay_fresh(monkeypatch, n, co, p):
    # Every record (ecart, g, e) that the completion hands to the
    # reduction loop holds the ecart of its g and the exponent record of
    # its leading monomial.
    records = []
    real_reduce = gbasis._reduce

    def logged(seed, reducers, *args):
        records.extend(reducers)
        return real_reduce(seed, reducers, *args)

    monkeypatch.setattr(gbasis, "_reduce", logged)
    germ = instantiate("E", n, co, p).germ()
    complete_basis(bracket_ideal(jacobian_ideal(germ), germ).local().gens)
    stale = [r for r in records if (r[0], r[2]) != (r[1].ecart(), r[1].ring.record(r[1].keys[0]))]
    assert records
    assert not stale, f"{len(stale)} of {len(records)} records are stale"


@pytest.mark.parametrize("make_gens", [e8_1_bracket_p5_local, e7_1_bracket_p3_local],
                         ids=["e8_1_bracket_p5_local", "e7_1_bracket_p3_local"])
def test_a_falling_corner_records_no_element_again(monkeypatch, make_gens):
    # Each element is stored once, as it entered: the completion builds one
    # reducer record per element, one for each staircase sweep, however
    # often the corner falls (from none to 26 for the first ideal, and on
    # to 14, 13 and 12 for the second), and cuts only where the reduction
    # loop reads terms.
    gens = make_gens()
    records, corners = [], []
    real_reducer, real_staircase = gbasis._reducer, gbasis._staircase

    def recorded(g):
        records.append(g)
        return real_reducer(g)

    def swept(*args):
        stair = real_staircase(*args)
        corners.append(stair[1])
        return stair

    monkeypatch.setattr(gbasis, "_reducer", recorded)
    monkeypatch.setattr(gbasis, "_staircase", swept)
    complete_basis(gens)
    assert corners[0] is None and corners[-1] is not None  # the corner falls
    assert len(records) == len(corners)


# -- the reduction loop against a merge loop ------------------------------------

def reduce_poly(f, gens, budget, corner=None):
    """`_reduce` on one polynomial: the seed is f itself, 1 * 1 * f, and
    the reducers are the records of gens."""
    return _reduce(((f, 1, 0),), [_reducer(g) for g in gens], budget, corner)


def cut_multiple(g, c, m, corner):
    """c*m*g without its terms of degree >= corner, cut before term_mul
    builds the product: a filter over every term of g, where the engine
    keeps a prefix."""
    if corner is not None:
        g = g.ring.poly({mg: cg for mg, cg in g.terms if mono_deg(mg) + mono_deg(m) < corner})
    return g.term_mul(c, m)


def merge_reduce(f, gens, budget, corner=None):
    """The reduction loop with h held as a Polynomial: each step subtracts
    the reducer multiple that term_mul builds, a merge of |h| + |g| terms.
    The same reducer choice, joins, truncation and charges as `_reduce`:
    Mora's least ecart and joins under the local ordering without a
    corner, else the first divisor and no joins; with a corner, a reducer
    is charged for its terms below it.  Returns the normal form and the
    number of Mora joins."""
    ring = f.ring
    is_global = ring.ordering == GLOBAL
    mora = not is_global and corner is None
    reducers = [(g, g.ecart()) for g in gens]
    h = cut_multiple(f, 1, (0,) * ring.nvars, corner)
    remainder = {}
    joins = 0
    while not h.is_zero:
        lm = h.lm()
        best = None
        for r in reducers:
            if (best is None or r[1] < best[1]) and mono_divides(r[0].lm(), lm):
                best = r
                if r[1] == 0 or not mora:
                    break
        if best is None:
            if not is_global:
                break
            remainder[lm] = h.lc()
            h = ring.poly(dict(h.terms[1:]))  # h without its leading term
            continue
        g, ec = best
        if mora and ec > h.ecart():
            reducers.append((h, h.ecart()))
            joins += 1
        budget.step(len(h.terms), len(cut_multiple(g, 1, (0,) * ring.nvars, corner).terms))
        c = h.lc() * inv_mod(g.lc(), ring.p) % ring.p
        mult = mono_quot(lm, g.lm())
        h = h - cut_multiple(g, c, mult, corner)
    return (ring.poly(remainder) if is_global else h), joins


@st.composite
def reductions(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3))
    ordering = draw(st.sampled_from((LOCAL, GLOBAL)))
    ring = Ring(p, ("x", "y", "z")[:n], ordering)

    def poly(min_size, max_size=5):
        return ring.poly(draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), st.integers(1, p - 1),
                                              min_size=min_size, max_size=max_size)))

    gens = [poly(2)] + [poly(1) for _ in range(draw(st.integers(0, 2)))]
    # A reducer of several terms tends to have an ecart, an f of few terms
    # a small one, and an f with a multiple of that reducer's leading
    # monomial is reducible: together they make joins likely.
    size = draw(st.sampled_from((1, 2, 5, 0)))
    f = poly(min(size, 1), size)
    if draw(st.booleans()):
        f = f + ring.poly({mono_mul(gens[0].lm(), draw(st.tuples(*[st.integers(0, 2)] * n))): 1})
    corner = None if ordering is GLOBAL else draw(st.one_of(st.none(), st.integers(1, 10)))
    return f, gens, corner


def reduction_outcome(reduce, case, cap):
    """The normal form, or the engine-limit message, and the budget left."""
    f, gens, corner = case
    budget = _Budget(cap)
    try:
        nf = reduce(f, gens, budget, corner)
    except EngineLimitError as exc:
        return str(exc), budget.remaining
    return (nf.terms, nf.keys), budget.remaining


# x is x + x^2 times a unit of the localization; reducing it joins x to
# the reducers, and one more step with the joined x reaches 0.  Below the
# corner 4 nothing joins: x - (x + x^2) = -x^2, -x^2 + x*(x + x^2) = x^3
# and x^3 - x^2*(x + x^2) = -x^4, which is cut: three plain division steps.
X_LOCAL = Ring(3, ("x",), LOCAL)
JOINING = (X_LOCAL.poly({(1,): 1}), [X_LOCAL.poly({(1,): 1, (2,): 1})], None)
BELOW_A_CORNER = (*JOINING[:2], 4)


def test_the_joining_example_joins():
    nf, joins = merge_reduce(*JOINING[:2], _Budget(100), JOINING[2])
    assert nf.is_zero and joins == 1


def test_below_a_corner_nothing_joins():
    _, joins = merge_reduce(*BELOW_A_CORNER[:2], _Budget(100), BELOW_A_CORNER[2])
    assert joins == 0
    for corner, steps in [(None, 2), (4, 3)]:
        budget = _Budget(100)
        assert reduce_poly(*JOINING[:2], budget, corner).is_zero
        assert budget.cap - budget.remaining == steps, corner


@settings(max_examples=300, deadline=None)
@given(reductions(), st.integers(0, 1 << 16))
@example(JOINING, 0)
@example(BELOW_A_CORNER, 0)
def test_reduction_matches_the_merge_loop(case, draw):
    # Same normal form and keys, same budget left, and an engine limit at
    # exactly the same caps: the one the whole reduction needs, one below
    # it, and a drawn one up to it.
    f, gens, corner = case
    budget = _Budget(20000)
    try:
        _, joins = merge_reduce(f, gens, budget, corner)
    except EngineLimitError:
        return
    if joins:
        event("Mora joins")
    need = budget.cap - budget.remaining
    for cap in {20000, need, need - 1, draw % (need + 1)}:
        expected = reduction_outcome(lambda *args: merge_reduce(*args)[0], case, cap)
        assert reduction_outcome(reduce_poly, case, cap) == expected, cap


def test_exponent_overflow_inside_a_reduction():
    # The reducer multiple x^65535 * (y^2 + x) holds x^65536.
    ring = Ring(2, ("x", "y"), GLOBAL)
    f = ring.poly({(65535, 2): 1})
    gens = [parse_poly("y^2+x", ring)]
    for reduce in (reduce_poly, merge_reduce):
        with pytest.raises(UsageError, match=r"^exponent overflow: 65536 >= 65536$"):
            reduce(f, gens, _Budget(None))


# -- S-polynomials against the two-product formula --------------------------------

def reference_spoly(f, g, corner=None):
    """The S-polynomial as two term_mul products of the factors cut below
    the corner, subtracted."""
    p = f.ring.p
    lcm = mono_lcm(f.lm(), g.lm())
    qf, qg = mono_quot(lcm, f.lm()), mono_quot(lcm, g.lm())
    return (cut_multiple(f, inv_mod(f.lc(), p), qf, corner)
            - cut_multiple(g, inv_mod(g.lc(), p), qg, corner))


@settings(max_examples=250, deadline=None)
@given(reductions())
def test_spoly_matches_the_two_product_formula(case):
    f, gens, corner = case
    assume(not f.is_zero)
    s = spoly(f, gens[0], corner)
    expected = reference_spoly(f, gens[0], corner)
    assert (s.terms, s.keys) == (expected.terms, expected.keys)
    assert s.keys == [f.ring.key(m) for m, _ in s.terms]


def test_exponent_overflow_inside_an_s_pair():
    # The multiple x^65535 * (y^2 + x) of the S-pair holds x^65536.
    ring = Ring(2, ("x", "y"), GLOBAL)
    f, g = ring.poly({(65535, 1): 1}), parse_poly("y^2+x", ring)
    for run in (lambda: spoly(f, g), lambda: complete_basis([f, g])):
        with pytest.raises(UsageError, match=r"^exponent overflow: 65536 >= 65536$"):
            run()


def test_a_term_cut_at_the_corner_cannot_overflow():
    # The multiple y * (x + y^65535) of the S-pair holds y^65536, of degree
    # above the corner 10: the cut drops it before the exponent check.
    ring = lring(2, ("x", "y"))
    f, g = parse_poly("x*y", ring), parse_poly("x+y^65535", ring)
    assert spoly(f, g, 10).is_zero and reference_spoly(f, g, 10).is_zero
    with pytest.raises(UsageError, match=r"^exponent overflow: 65536 >= 65536$"):
        spoly(f, g)


# -- differential test against sympy --------------------------------------------

def test_global_basis_matches_sympy_groebner():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("x y z")
    rng = random.Random(54)

    def as_sympy(f, p):
        expr = sum(c * sympy.Mul(*(s ** e for s, e in zip(syms, m))) for m, c in f.terms)
        return sympy.Poly(expr, *syms, modulus=p)

    def canonical(polys, p):
        return sorted(sorted((m, int(c) % p) for m, c in q.monic().as_dict().items())
                      for q in polys)

    for case in range(60):
        p = (2, 3, 5, 7)[case % 4]
        ring = Ring(p, ("x", "y", "z"), GLOBAL)
        gens = [random_poly(rng, ring) for _ in range(rng.randint(2, 3))]
        ours = complete_basis(gens)
        theirs = sympy.groebner([as_sympy(g, p).as_expr() for g in gens], *syms,
                                modulus=p, order="grevlex")
        assert canonical([as_sympy(g, p) for g in ours], p) == \
            canonical([sympy.Poly(q, *syms, modulus=p) for q in theirs.exprs], p), (p, gens)
