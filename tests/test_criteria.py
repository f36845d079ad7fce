import gc
import itertools
import random

import pytest

from rdpdescent import (ConsistencyError, EngineLimitError, HypersurfaceGerm,
                        OrderingTag, Ring, UsageError, aggregate_verdict,
                        an_p_power, criteria, invertible_summand,
                        length_formula, parse_poly, pi1_trivial,
                        pic_torsion_p_group, run_battery, shape_witness,
                        theta_free, tjurina_p_divisible)
from rdpdescent.catalog import instantiate, table_records
from rdpdescent.criteria import (BLOCKED, CRITERION_ORDER, DESCENDS, FAIL,
                                 NOT_APPLICABLE, PASS, SHAPE_WITNESS,
                                 UNDECIDED, UNDETERMINED, CriterionReport)

LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX


def germ_of(src, p=2, names=("x", "y", "z")):
    return HypersurfaceGerm(parse_poly(src, Ring(p, names, LOCAL)))


def catalog_germ(dynkin, n, r, p):
    return instantiate(dynkin, n, r, p).germ()


# -- Tjurina divisibility ------------------------------------------------------

def test_tjurina_e6_1_char3_fails():
    rep = tjurina_p_divisible(catalog_germ("E", 6, 1, 3))
    assert rep.status == FAIL and rep.witness["tjurina"] == 7


def test_tjurina_e8_4_char2_passes():
    rep = tjurina_p_divisible(catalog_germ("E", 8, 4, 2))
    assert rep.status == PASS and rep.witness["tjurina"] == 8


def test_tjurina_e8_1_char5_fails():
    rep = tjurina_p_divisible(catalog_germ("E", 8, 1, 5))
    assert rep.status == FAIL and rep.witness["tjurina"] == 8


def test_tjurina_not_applicable_for_nonisolated():
    rep = tjurina_p_divisible(germ_of("x*y"))
    assert rep.status == NOT_APPLICABLE


# -- length formula ---------------------------------------------------------------

def test_length_formula_e6_1_char2():
    rep = length_formula(catalog_germ("E", 6, 1, 2))
    assert rep.status == FAIL
    assert (rep.witness["len_jacobian"], rep.witness["len_bracket"]) == (6, 28)


def test_length_formula_e7_0_char2():
    rep = length_formula(catalog_germ("E", 7, 0, 2))
    assert rep.status == PASS
    assert (rep.witness["len_jacobian"], rep.witness["len_bracket"]) == (14, 56)


def test_length_formula_e8_2_char3():
    rep = length_formula(catalog_germ("E", 8, 2, 3))
    assert rep.status == FAIL
    assert (rep.witness["len_jacobian"], rep.witness["len_bracket"]) == (8, 85)


def test_length_formula_exponent_uses_germ_dimension():
    # one variable: d = 0, so the formula reads l(bracket) = l(jacobian)... p^0
    g = germ_of("x^3", p=3, names=("x",))
    rep = length_formula(g)
    assert rep.witness["expected"] == rep.witness["len_jacobian"] * 3 ** g.dim


# -- theta freeness -----------------------------------------------------------------

def test_theta_free_matches_table_column():
    rep = theta_free(catalog_germ("E", 8, 2, 2))
    assert rep.status == PASS and rep.witness["len_bracket"] == 48
    rep = theta_free(catalog_germ("E", 8, 3, 2))
    assert rep.status == FAIL
    rep = theta_free(catalog_germ("E", 6, None, 5))
    assert rep.status == FAIL and rep.witness["len_bracket"] == 173


def test_theta_free_equals_length_formula_statuswise():
    for rec in table_records():
        g = rec.germ()
        assert theta_free(g).status == length_formula(g).status


# -- invertible summand ---------------------------------------------------------------

def test_summand_e7_1_fails_with_three_modes():
    rep = invertible_summand(catalog_germ("E", 7, 1, 2))
    assert rep.status == FAIL
    assert rep.witness["failures"]["x"] == "not a parameter ideal"
    assert rep.witness["failures"]["y"] == "omitted partial not a member"
    assert rep.witness["failures"]["z"] == "omitted partial not a member"


def test_summand_d4_1_fails():
    rep = invertible_summand(catalog_germ("D", 4, 1, 2))
    assert rep.status == FAIL


def test_summand_d4_0_passes_omitting_z():
    rep = invertible_summand(catalog_germ("D", 4, 0, 2))
    assert rep.status == PASS and rep.witness["omitted"] == "z"


def limit_on_first_call(monkeypatch):
    """Make criteria.is_parameter_ideal raise EngineLimitError on its first
    call; returns the list of ideals it was called with."""
    real = criteria.is_parameter_ideal
    calls = []

    def patched(ideal, step_cap=None):
        calls.append(ideal)
        if len(calls) == 1:
            raise EngineLimitError("engine step cap of 1 exceeded")
        return real(ideal, step_cap)

    monkeypatch.setattr(criteria, "is_parameter_ideal", patched)
    return calls


def test_summand_limit_does_not_end_the_search(monkeypatch):
    # The permutation omitting x hits the limit; the one omitting z passes.
    calls = limit_on_first_call(monkeypatch)
    rep = invertible_summand(catalog_germ("D", 4, 0, 2))
    assert rep.status == PASS and rep.witness["omitted"] == "z"
    assert len(calls) == 3


def test_summand_limit_without_pass_is_undecided(monkeypatch):
    # E_7^1 fails every permutation it can decide; one limit leaves it open.
    calls = limit_on_first_call(monkeypatch)
    rep = invertible_summand(catalog_germ("E", 7, 1, 2))
    assert rep.status == UNDECIDED
    assert rep.witness == {"detail": "engine step cap of 1 exceeded"}
    assert len(calls) == 3


def test_summand_limit_leaves_no_cyclic_garbage(monkeypatch):
    # Keeping the exception would keep its traceback, whose frames hold it.
    def limited(ideal, step_cap=None):
        raise EngineLimitError("engine step cap of 1 exceeded")

    monkeypatch.setattr(criteria, "is_parameter_ideal", limited)
    germ = catalog_germ("E", 7, 1, 2)
    gc.collect()
    gc.disable()
    try:
        rep = invertible_summand(germ)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert rep.witness == {"detail": "engine step cap of 1 exceeded"}
    assert garbage == 0


def test_summand_permutation_invariant():
    # relabeling the variables never changes PASS/FAIL
    for dynkin, n, r, p in (("E", 7, 1, 2), ("E", 8, 0, 2), ("D", 5, 1, 2)):
        g = catalog_germ(dynkin, n, r, p)
        base = invertible_summand(g).status
        for perm in itertools.permutations(range(3)):
            permuted = HypersurfaceGerm(g.f.rename(perm))
            assert invertible_summand(permuted).status == base


def test_summand_not_applicable_cases():
    assert invertible_summand(germ_of("x*y")).status == NOT_APPLICABLE
    assert invertible_summand(germ_of("x^2+y^2", names=("x", "y"))).status == NOT_APPLICABLE


# -- arithmetic criteria -----------------------------------------------------------------

def test_an_p_power():
    assert an_p_power(7, 2).status == PASS
    assert an_p_power(7, 2).witness["q"] == 8
    assert an_p_power(5, 2).status == FAIL
    assert an_p_power(4, 5).status == PASS
    with pytest.raises(UsageError):
        an_p_power(0, 2)


def test_pic_torsion():
    assert pic_torsion_p_group(4, 3).status == FAIL
    assert pic_torsion_p_group(3, 3).status == PASS
    assert pic_torsion_p_group(1, 2).status == PASS
    assert pic_torsion_p_group(4, 2).status == PASS
    assert pic_torsion_p_group(6, 2).status == FAIL


def test_pi1_trivial():
    assert pi1_trivial("C3").status == FAIL
    assert pi1_trivial("0").status == PASS
    assert pi1_trivial("C5").status == FAIL
    assert pi1_trivial(None).status == NOT_APPLICABLE


# -- shape witness ------------------------------------------------------------------------

def test_shape_e8_0():
    rep = shape_witness(catalog_germ("E", 8, 0, 2))
    assert rep.status == PASS
    assert rep.witness == {"variable": "z", "q": 2}


def test_shape_an_family():
    for e in (1, 2, 3):
        g = germ_of(f"z^{2 ** e}-x*y")
        rep = shape_witness(g)
        assert rep.status == PASS and rep.witness["q"] == 2 ** e


def test_shape_d_odd_fails_despite_descending():
    # D_(2m+1)^0 has a linear z-monomial, so the shape test cannot see it
    rep = shape_witness(catalog_germ("D", 5, 0, 2))
    assert rep.status == FAIL


def test_shape_char3_e6_0():
    rep = shape_witness(catalog_germ("E", 6, 0, 3))
    assert rep.status == PASS
    assert rep.witness == {"variable": "x", "q": 3}


def test_shape_rejects_linear_tail():
    assert shape_witness(germ_of("z^2+x")).status == FAIL



def shape_by_definition(f):
    """The docstring of shape_witness, transcribed: the first v0, and a
    q = p^e with e >= 1, such that f has a v0^q term and f minus that term
    involves no v0 and has no term of degree < 2."""
    ring = f.ring
    terms = dict(f.terms)
    for v0 in range(ring.nvars):
        q = ring.p
        while q <= f.degree():
            power = tuple(q if i == v0 else 0 for i in range(ring.nvars))
            rest = [m for m in terms if m != power]
            if power in terms and all(m[v0] == 0 and sum(m) >= 2 for m in rest):
                return {"variable": ring.names[v0], "q": q}
            q *= ring.p
    return None


def random_shape_candidate(rng):
    """A random equation, mostly a power of one variable plus terms free of
    it, so that a fair share has the shape; some draws break it with an
    arbitrary extra term, a power that is no p-power, or no structure."""
    p = rng.choice([2, 3, 5, 7])
    n = rng.randint(1, 4)
    ordering = rng.choice([LOCAL, OrderingTag.GLOBAL_DEGREVLEX])
    ring = Ring(p, ("x", "y", "z", "w")[:n], ordering)
    while True:
        terms = {}
        if rng.random() < 0.75:
            v0 = rng.randrange(n)
            q = rng.choice([p, p, p * p, rng.randint(1, 10)])
            terms[tuple(q if i == v0 else 0 for i in range(n))] = rng.randrange(1, p)
            for _ in range(rng.randint(0, 4)):
                m = tuple(0 if i == v0 else rng.randint(0, 3) for i in range(n))
                if sum(m) >= 2:
                    terms[m] = rng.randrange(1, p)
            if rng.random() < 0.3:
                m = tuple(rng.randint(0, 3) for _ in range(n))
                terms[m] = rng.randrange(1, p)
        else:
            for _ in range(rng.randint(1, 5)):
                terms[tuple(rng.randint(0, 4) for _ in range(n))] = rng.randrange(1, p)
        terms.pop((0,) * n, None)
        if terms:
            return HypersurfaceGerm(ring.poly(terms))


def test_shape_witness_matches_its_definition():
    rng = random.Random(2024)
    passes = 0
    cases = 600
    for _ in range(cases):
        germ = random_shape_candidate(rng)
        expected = shape_by_definition(germ.f)
        rep = shape_witness(germ)
        label = (germ.ring.p, germ.ring.ordering, str(germ.f))
        if expected is None:
            assert rep.status == FAIL, label
        else:
            assert rep.status == PASS and rep.witness == expected, label
            passes += 1
    assert passes >= cases // 10

# -- aggregation ----------------------------------------------------------------------------

def test_aggregate_e8_3_blocked():
    _, verdict = run_battery(catalog_germ("E", 8, 3, 2))
    assert verdict.outcome == BLOCKED
    assert any(r.id == "LENGTH_FORMULA" for r in verdict.reasons)


def test_aggregate_e7_1_blocked_by_summand():
    rec = instantiate("E", 7, 1, 2)
    reports, verdict = run_battery(rec.germ(), record=rec)
    by_id = {r.id: r.status for r in reports}
    assert by_id["PI1_TRIVIAL"] == PASS
    assert by_id["TJURINA_P_DIVISIBLE"] == PASS
    assert by_id["LENGTH_FORMULA"] == PASS
    assert by_id["INVERTIBLE_SUMMAND"] == FAIL
    assert verdict.outcome == BLOCKED


def test_aggregate_d9_0_descends_from_catalog_fact():
    rec = instantiate("D", 9, 0, 2)
    _, verdict = run_battery(rec.germ(), record=rec)
    assert verdict.outcome == DESCENDS


def test_aggregate_never_descends_from_necessary_passes():
    # every necessary criterion passes, but nothing sufficient does
    g = germ_of("z^2+x^2*y+y^2*z")  # D_5^0 without its catalog record
    reports, verdict = run_battery(g)
    assert all(r.status != FAIL for r in reports if r.id != SHAPE_WITNESS)
    assert verdict.outcome == UNDETERMINED


def test_aggregate_contradiction_raises():
    bad = [CriterionReport("LENGTH_FORMULA", FAIL, {"len_jacobian": 1}),
           CriterionReport(SHAPE_WITNESS, PASS, {"variable": "z", "q": 2})]
    with pytest.raises(ConsistencyError):
        aggregate_verdict(bad)
    with pytest.raises(ConsistencyError):
        aggregate_verdict([CriterionReport("PI1_TRIVIAL", FAIL, {"group": "C3"})],
                          catalog_fact=DESCENDS)


def test_fail_reports_must_carry_witnesses():
    with pytest.raises(ConsistencyError):
        CriterionReport("PI1_TRIVIAL", FAIL)


def test_short_circuit_stops_at_first_failure():
    rec = instantiate("E", 6, 1, 2)
    reports, verdict = run_battery(rec.germ(), record=rec, short_circuit=True)
    assert verdict.outcome == BLOCKED
    assert reports[-1].status == FAIL
    assert len(reports) < 8


@pytest.mark.parametrize("case", ["record", "no record", "two variables"])
def test_battery_reports_follow_criterion_order(case):
    if case == "record":
        rec = instantiate("E", 6, 1, 2)
        germ = rec.germ()
    else:
        rec = None
        germ = germ_of("z^2+x^3+y^5") if case == "no record" else germ_of("u^2+v^3", names=("u", "v"))
    reports, _ = run_battery(germ, record=rec)
    assert [r.id for r in reports] == list(CRITERION_ORDER)
    short, _ = run_battery(germ, record=rec, short_circuit=True)
    ids = [r.id for r in short]
    assert ids == list(CRITERION_ORDER[:len(ids)])
    statuses = [r.status for r in short]
    assert statuses == [r.status for r in reports[:len(ids)]]
    if FAIL in statuses:
        assert statuses.index(FAIL) == len(statuses) - 1
    else:
        assert len(ids) == len(CRITERION_ORDER)


def test_battery_on_user_equation_has_na_group_criteria():
    reports, verdict = run_battery(germ_of("z^2+x^3+y^5"))
    by_id = {r.id: r.status for r in reports}
    assert by_id["PI1_TRIVIAL"] == NOT_APPLICABLE
    assert by_id["PIC_TORSION_P_GROUP"] == NOT_APPLICABLE
    assert by_id["AN_P_POWER"] == NOT_APPLICABLE
    assert verdict.outcome == DESCENDS  # shape witness carries it


# -- reuse of completed bases --------------------------------------------------

def _count_completions(monkeypatch):
    """Record the generators of every ideals.complete_basis call."""
    import rdpdescent.ideals as ideals
    calls = []
    complete = ideals.complete_basis

    def counted(gens, step_cap=None):
        calls.append(tuple(gens))
        return complete(gens, step_cap)

    monkeypatch.setattr(ideals, "complete_basis", counted)
    return calls


def test_equal_germs_do_equal_work(monkeypatch):
    # Completed bases belong to the germ's presentations, not to a process
    # cache: a fresh but equal germ does all of the work again.
    calls = _count_completions(monkeypatch)
    rec = instantiate("E", 7, 1, 3)
    run_battery(rec.germ(), record=rec)
    first = len(calls)
    run_battery(rec.germ(), record=rec)
    assert first > 0
    assert len(calls) - first == first


@pytest.mark.parametrize("rec", [r for r in table_records() if r.char in (2, 3)],
                         ids=lambda r: f"{r.label}-p{r.char}")
def test_battery_completes_each_presentation_once(monkeypatch, rec):
    calls = _count_completions(monkeypatch)
    run_battery(rec.germ(), record=rec)
    assert calls and len(set(calls)) == len(calls)
