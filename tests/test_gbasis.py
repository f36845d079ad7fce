import itertools
import random

import pytest

from rdpdescent import (EngineLimitError, INFINITE, OrderingTag, Ring,
                        complete_basis, is_dimension_zero, leading_ideal,
                        normal_form, parse_poly, spoly,
                        s_pairs_reduce_to_zero, standard_monomial_count)
from rdpdescent.gbasis import _Budget, _reduce

GLOBAL = OrderingTag.GLOBAL_DEGREVLEX
LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX


def lring(p=2, names=("x", "y", "z")):
    return Ring(p, names, LOCAL)


def basis_of(srcs, ring):
    return complete_basis([parse_poly(s, ring) for s in srcs])


def random_poly(rng, ring, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
        terms[mono] = rng.randrange(1, ring.p)
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


# -- membership traces (soundness of reductions) ----------------------------

def test_reduction_trace_identity_global():
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
        nf, unit, quots = _reduce(f, b.gens, _Budget(None), trace=True)
        combo = r.zero()
        for q, g in zip(quots, b.gens):
            combo = combo + q * g
        assert unit == r.one()
        assert f == combo + nf
        done += 1


def test_reduction_trace_identity_local():
    # Mora: u*f = sum q_i g_i + nf with u a unit of the localization
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
        nf, unit, quots = _reduce(f, b.gens, _Budget(None), trace=True)
        combo = r.zero()
        for q, g in zip(quots, b.gens):
            combo = combo + q * g
        assert unit.constant_coeff() != 0, "Mora multiplier must be a unit at the origin"
        assert unit * f == combo + nf
        done += 1


def test_reduction_trace_identity_local_at_corner():
    # With the corner D of the basis, the production loop drops terms of
    # degree >= D, which lie in the ideal: the certificate holds modulo m^D.
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
        nf, unit, quots = _reduce(f, b.gens, _Budget(None), b.corner, trace=True)
        combo = r.zero()
        for q, g in zip(quots, b.gens):
            combo = combo + q * g
        assert unit.constant_coeff() != 0, "Mora multiplier must be a unit at the origin"
        assert nf == normal_form(f, b)
        assert all(sum(m) < b.corner for m, _ in nf.terms)
        assert all(sum(m) >= b.corner for m, _ in (unit * f - combo - nf).terms)
        done += 1
    # x joins the reducers (ecart 0 below 1), and then cancels x^2:
    # (1 - x)*x = 1*(x - x^2)
    r = Ring(3, ("x", "y"), LOCAL)
    b = basis_of(["x-x^2", "y^3"], r)
    nf, unit, quots = _reduce(parse_poly("x", r), b.gens, _Budget(None), b.corner, trace=True)
    assert (b.corner, nf, unit, quots) == (3, r.zero(), parse_poly("1-x", r), [r.one(), r.zero()])


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
        complete_basis(gens, step_cap=3)
    # a cap of 0 is a cap, not a request for the default
    with pytest.raises(EngineLimitError):
        complete_basis(gens, step_cap=0)
    with pytest.raises(EngineLimitError):
        normal_form(parse_poly("x^2", r), complete_basis(gens), step_cap=0)


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
