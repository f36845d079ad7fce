import hashlib
import itertools
import random

import pytest

from rdpdescent import (EngineLimitError, INFINITE, OrderingTag, Ring,
                        complete_basis, is_dimension_zero, leading_ideal,
                        normal_form, parse_poly, spoly,
                        s_pairs_reduce_to_zero, standard_monomial_count)
from rdpdescent import gbasis
from rdpdescent.catalog import instantiate
from rdpdescent.gbasis import _Budget, _reduce
from rdpdescent.ideals import (HypersurfaceGerm, IdealPresentation, bracket_ideal,
                               jacobian_ideal, truncation_length_oracle)

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


# The ids leave out the pinned values, so that re-pinning keeps the test ids.
@pytest.mark.parametrize("make_gens, need", [
    pytest.param(e8_1_bracket_p5_local, 1560, id="e8_1_bracket_p5_local"),
    pytest.param(e7_1_jacobian_p3_global, 17, id="e7_1_jacobian_p3_global"),
    pytest.param(e7_1_bracket_p3_local, 30, id="e7_1_bracket_p3_local"),
])
def test_completion_work_is_pinned(make_gens, need):
    # The exact work of three completions, one per ordering and one whose
    # corner falls below queued pairs, which must cost nothing.  A change to
    # pair selection, reduction or truncation that moves it must say why.
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
    real_spoly = gbasis.spoly

    def logged(f, g, corner=None):
        seen.append((f.lm(), g.lm()))
        return real_spoly(f, g, corner)

    monkeypatch.setattr(gbasis, "spoly", logged)
    complete_basis(make_gens())
    assert len(seen) == pairs
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


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
