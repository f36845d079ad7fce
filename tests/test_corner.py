"""Highest-corner truncation of local standard bases: corner examples,
and truncated bases checked against the S-pair criterion and the
independent truncation oracle.  The property test against a brute-force
scan is in test_corner_property.py, which needs hypothesis."""

import math
import random

import pytest

from rdpdescent import (EngineLimitError, OrderingTag, Ring, StandardBasis,
                        complete_basis, gbasis, is_dimension_zero, normal_form,
                        parse_poly, s_pairs_reduce_to_zero,
                        standard_monomial_count, truncation_length_oracle)
from rdpdescent.catalog import table_records
from rdpdescent.gbasis import INFINITE, _staircase, spoly
from rdpdescent.ideals import (HypersurfaceGerm, bracket_ideal, jacobian_ideal,
                               local_length)
from rdpdescent.poly import _WIDTH

LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX


def records(lms):
    """The exponent records of exponent tuples: e_i in field i."""
    return [sum(e << _WIDTH * i for i, e in enumerate(m)) for m in lms]


def staircase(lms, n=None):
    """`_staircase` of the monomials of exponent tuples, in n variables,
    by default their length."""
    return _staircase(records(lms), len(lms[0]) if n is None else n)


def test_corner_degree_examples():
    assert staircase([(2, 0), (0, 3)])[1] == 4       # x*y^2 is the top standard monomial
    assert staircase([(2, 0), (1, 1)])[1] is None    # no pure power of y
    assert staircase([(0, 0, 0), (1, 0, 0)])[1] == 0  # the unit ideal
    assert staircase([(5,)])[1] == 5
    assert staircase([(1, 0, 0), (0, 1, 0), (0, 0, 93)])[1] == 93



def test_staircase_record_is_count_and_corner():
    assert staircase([(0, 0), (1, 0)]) == (0, 0)            # the unit ideal
    assert staircase([(2, 0), (1, 1)]) == (INFINITE, None)  # no pure power of y
    assert staircase([], 2) == (INFINITE, None)
    assert staircase([(2, 0), (0, 3)]) == (6, 4)            # 1, y, y^2, x, xy, xy^2
    empty = StandardBasis((), Ring(2, ("x", "y"), LOCAL))
    assert empty.corner is None
    assert not is_dimension_zero(empty)
    assert standard_monomial_count(empty) == INFINITE


def pure_powers(exponents):
    n = len(exponents)
    return [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exponents)]


def test_staircase_of_pure_powers_has_the_closed_form():
    # outside (x_1^a_1, ..., x_n^a_n): the box below the powers, whose top
    # monomial has every exponent a_i - 1
    rng = random.Random(16)
    for n in range(1, 17):
        a = [rng.randint(1, 4) for _ in range(n)]
        lms = pure_powers(a)
        rng.shuffle(lms)
        assert staircase(lms) == (math.prod(a), sum(a) - n + 1), a


def test_staircase_takes_no_frame_per_variable():
    # far more variables than the interpreter's recursion limit allows frames
    n = 1100
    assert staircase(pure_powers([2] * n)) == (2 ** n, n + 1)
    assert staircase(pure_powers([1] * n)) == (1, 1)


def test_global_and_positive_dimensional_bases_have_no_corner():
    ring = Ring(2, ("x", "y", "z"), LOCAL)
    gens = [parse_poly(s, ring) for s in ("x^2", "x*y", "z")]
    assert complete_basis(gens).corner is None
    glob = Ring(2, ("x", "y", "z"), OrderingTag.GLOBAL_DEGREVLEX)
    gens = [parse_poly(s, glob) for s in ("x^2+y^3", "y^4", "z^2")]
    assert complete_basis(gens).corner is None


def table_ideals(char):
    for rec in table_records():
        if rec.char == char:
            germ = rec.germ()
            jac = jacobian_ideal(germ)
            yield f"{rec.label} J", jac, rec.ref_len_j
            yield f"{rec.label} J[p]", bracket_ideal(jac, germ), rec.ref_len_jp


@pytest.mark.parametrize("char", [2, 3, 5])
def test_truncated_table_bases_are_standard_and_match_the_oracle(char):
    for label, ideal, published in table_ideals(char):
        basis = complete_basis(ideal.local().gens)
        assert basis.corner is not None, label
        assert all(g.degree() <= basis.corner for g in basis), label
        assert s_pairs_reduce_to_zero(basis), label
        length = standard_monomial_count(basis)
        assert length == published, label
        assert truncation_length_oracle(ideal) == length, label
        for g in ideal.local().gens:
            assert normal_form(g, basis).is_zero, label


# The E_7^0 germ at p = 2 after the linear change of coordinates
# x -> x+y, y -> x+z, z -> x, expanded over F_2.
E7_0_CHANGED = ("x*x*x*x+x*x*x*y+x*x*x*z+x*x*x+x*x*y*z+x*x*y+x*x*z*z+x*x+x*y*y"
                "+x*y*z*z+x*z*z*z+y*y*y+y*z*z*z")


def test_coordinate_changed_e7_0_bracket_completes_under_the_default_cap():
    ring = Ring(2, ("x", "y", "z"), LOCAL)
    germ = HypersurfaceGerm(parse_poly(E7_0_CHANGED, ring))
    jac = jacobian_ideal(germ)
    assert local_length(jac) == 14
    bracket = bracket_ideal(jac, germ)
    assert local_length(bracket) == 56
    assert truncation_length_oracle(bracket) == 56


def test_corner_keeps_membership_exact():
    # (x^2+y^3, y^4) has standard monomials x^a*y^b, a <= 1, b <= 3, so
    # its corner is 5; x^5 is a member through m^5 alone.
    ring = Ring(3, ("x", "y"), LOCAL)
    gens = [parse_poly(s, ring) for s in ("x^2+y^3", "y^4")]
    basis = complete_basis(gens)
    assert basis.corner == 5
    for src, member in (("x^5", True), ("x^2*y", True), ("x^3", False), ("x*y^3", False)):
        assert normal_form(parse_poly(src, ring), basis).is_zero is member, src


def test_s_pair_check_reads_the_corner_off_the_basis():
    # (x^2+y^3, x*y, y^5) is not a standard basis: the S-pair of the first
    # two is y^4, outside the leading ideal (x^2, x*y, y^5), whose corner
    # is 5.  A stored corner of 3 would truncate y^4 away.
    ring = Ring(3, ("x", "y"), LOCAL)
    gens = tuple(parse_poly(s, ring) for s in ("x^2+y^3", "x*y", "y^5"))
    assert StandardBasis(gens, ring).corner == 5
    assert not s_pairs_reduce_to_zero(StandardBasis(gens, ring))

    class Understated(StandardBasis):
        corner = 3

    understated = Understated(gens, ring)
    assert normal_form(spoly(gens[0], gens[1]), understated).is_zero
    assert not s_pairs_reduce_to_zero(understated)
    # once completed, the basis passes at the corner it reads off itself
    assert s_pairs_reduce_to_zero(complete_basis(gens))


# -- the completion hands its last staircase sweep to the basis -------------

def staircase_facts(basis):
    return basis.corner, is_dimension_zero(basis), standard_monomial_count(basis)


def assert_handed_over_staircase_is_its_own(basis, label):
    # What the completion's last sweep says is what a sweep of the
    # returned basis's own leading monomials says.
    direct = StandardBasis(basis.gens, basis.ring)
    assert staircase_facts(basis) == staircase_facts(direct), label


@pytest.mark.parametrize("char", [2, 3, 5])
def test_completed_table_bases_carry_their_own_staircase(char):
    for label, ideal, _ in table_ideals(char):
        assert_handed_over_staircase_is_its_own(complete_basis(ideal.local().gens), label)


def test_completed_random_bases_carry_their_own_staircase():
    # Local ideals with and without constant terms (the unit ideal), of
    # finite and of infinite length.
    rng = random.Random(12)
    done = 0
    while done < 150:
        p = rng.choice([2, 3, 5])
        ring = Ring(p, tuple("xyz"[:rng.choice([2, 3])]), LOCAL)
        gens = []
        for _ in range(rng.randint(1, 4)):
            terms = {tuple(rng.randrange(4) for _ in range(ring.nvars)): rng.randrange(1, p)
                     for _ in range(rng.randint(1, 3))}
            gens.append(ring.poly(terms))
        try:
            basis = complete_basis(gens, step_cap=4000)
        except EngineLimitError:
            continue
        assert_handed_over_staircase_is_its_own(basis, (p, [str(g) for g in gens]))
        done += 1


@pytest.fixture
def sweeps(monkeypatch):
    """The staircase sweeps made, with the number made before the
    completion's minimalization, once per completion."""
    log = {"stairs": [], "before_minimalize": []}
    sweep, minimalize = gbasis._staircase, gbasis._minimalize

    def logged_sweep(records, n):
        log["stairs"].append(sweep(records, n))
        return log["stairs"][-1]

    def marked_minimalize(*args):
        log["before_minimalize"].append(len(log["stairs"]))
        return minimalize(*args)

    monkeypatch.setattr(gbasis, "_staircase", logged_sweep)
    monkeypatch.setattr(gbasis, "_minimalize", marked_minimalize)
    return log


def test_no_sweep_runs_after_the_local_completion(sweeps):
    for label, ideal, _ in table_ideals(3):
        sweeps["stairs"].clear()
        sweeps["before_minimalize"].clear()
        basis = complete_basis(ideal.local().gens)
        assert sweeps["before_minimalize"] == [len(sweeps["stairs"])], label
        assert basis._stair is sweeps["stairs"][-1], label


def test_global_and_directly_built_bases_sweep_once(sweeps):
    ring = Ring(3, ("x", "y"), OrderingTag.GLOBAL_DEGREVLEX)
    basis = complete_basis([parse_poly(s, ring) for s in ("x^2+y^3", "x*y")])
    # the global completion sweeps nothing; the basis sweeps in its constructor
    assert sweeps["before_minimalize"] == [0] and len(sweeps["stairs"]) == 1
    assert standard_monomial_count(basis) == 5
    sweeps["stairs"].clear()
    direct = StandardBasis(basis.gens, basis.ring)
    assert len(sweeps["stairs"]) == 1 and direct._stair is sweeps["stairs"][0]
