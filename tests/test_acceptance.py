"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time


from rdpdescent import (INFINITE, HypersurfaceGerm, IdealPresentation,
                        OrderingTag, Ring, UNSTABLE, bracket_ideal,
                        complete_basis, invertible_summand, jacobian_ideal,
                        local_length, normal_form, parse_poly, render,
                        s_pairs_reduce_to_zero, truncation_contains,
                        truncation_length_oracle)
from rdpdescent.cli import main
from rdpdescent.criteria import FAIL, PASS, length_formula, pi1_trivial, \
    pic_torsion_p_group, tjurina_p_divisible
from rdpdescent.catalog import instantiate, table_records
from rdpdescent.errors import EngineLimitError
from test_gbasis import random_poly

LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX

TABLE_2 = [(8, 32), (6, 28), (14, 56), (12, 48), (10, 40), (8, 35),
           (16, 64), (14, 56), (12, 48), (10, 44), (8, 37)]
TABLE_3 = [(9, 81), (7, 71), (9, 81), (7, 75), (12, 108), (10, 99), (8, 85)]
TABLE_4 = [(6, 173), (7, 198), (10, 250), (8, 239)]


def report(line):
    print(f"\n{line}")


def table_pairs(char):
    pairs = []
    rows = [rec for rec in table_records() if rec.char == char]
    for rec in rows:
        germ = rec.germ()
        jac = jacobian_ideal(germ)
        pairs.append((local_length(jac), local_length(bracket_ideal(jac, germ))))
    return rows, pairs


def test_acceptance_01_table_char2():
    t0 = time.monotonic()
    _, pairs = table_pairs(2)
    elapsed = time.monotonic() - t0
    assert pairs == TABLE_2
    assert elapsed < 5.0
    report(f"ACCEPTANCE 1: PASS - char-2 table, 11 rows exact ({elapsed:.2f}s < 5s)")


def test_acceptance_02_table_char3():
    t0 = time.monotonic()
    _, pairs = table_pairs(3)
    elapsed = time.monotonic() - t0
    assert pairs == TABLE_3
    assert elapsed < 10.0
    report(f"ACCEPTANCE 2: PASS - char-3 table, 7 rows exact ({elapsed:.2f}s < 10s)")


def test_acceptance_03_table_char5():
    t0 = time.monotonic()
    _, pairs = table_pairs(5)
    elapsed = time.monotonic() - t0
    assert pairs == TABLE_4
    assert elapsed < 30.0
    report(f"ACCEPTANCE 3: PASS - char-5 table, 4 rows exact ({elapsed:.2f}s < 30s)")


def test_acceptance_04_nondescent_example(capsys):
    germ = HypersurfaceGerm(
        parse_poly("z^2+x^3+y^5+y^3*z", Ring(2, ("x", "y", "z"), LOCAL)))
    jac = jacobian_ideal(germ)
    lj = local_length(jac)
    ljp = local_length(bracket_ideal(jac, germ))
    assert (lj, ljp) == (10, 44)
    assert ljp != 4 * lj
    code = main(["analyze", "--char", "2", "--poly", "z^2+x^3+y^5+y^3*z", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"]["outcome"] == "BLOCKED"
    assert "LENGTH_FORMULA" in payload["verdict"]["reasons"]
    report("ACCEPTANCE 4: PASS - E_8^3 char 2: lengths 10/44, 44 != 4*10, verdict BLOCKED")


def test_acceptance_05_theta_free_column():
    for char, expected in ((2, TABLE_2), (3, TABLE_3), (5, TABLE_4)):
        rows, pairs = table_pairs(char)
        for rec, (lj, ljp) in zip(rows, pairs):
            assert ljp >= char * char * lj, rec.label
            assert rec.ref_theta_free == (ljp == char * char * lj), rec.label
    report("ACCEPTANCE 5: PASS - theta-free column equals the length-formula test on all 22 rows")


def permuted_ideals(germ):
    """The three ideals (f_u, f_v, f), keyed by the omitted variable name."""
    ring = germ.ring
    partials = [germ.f.partial(i) for i in range(3)]
    out = {}
    for w in range(3):
        kept = [i for i in range(3) if i != w]
        out[ring.names[w]] = (IdealPresentation(
            [partials[kept[0]], partials[kept[1]], germ.f], ring), partials[w])
    return out


def test_acceptance_06_summand_blocks_exactly_three():
    survivors = []   # char-2 E rows whose earlier criteria all pass
    blocked = []
    for rec in table_records():
        if rec.char != 2:
            continue
        germ = rec.germ()
        earlier = [pi1_trivial(rec.pi1),
                   pic_torsion_p_group(rec.pic_order, 2),
                   tjurina_p_divisible(germ),
                   length_formula(germ)]
        if not all(r.status == PASS for r in earlier):
            continue
        survivors.append(rec.label)
        rep = invertible_summand(germ)
        if rep.status == FAIL:
            blocked.append(rec.label)
            # cross-confirm every permuted ideal's failure mode with the oracle
            for name, (ideal, omitted_partial) in permuted_ideals(germ).items():
                mode = rep.witness["failures"][name]
                if mode == "not a parameter ideal":
                    assert truncation_length_oracle(ideal, degree_cap=16) is UNSTABLE, \
                        f"{rec.label}, omit {name}: oracle unexpectedly stabilized"
                else:
                    assert isinstance(truncation_length_oracle(ideal), int)
                    assert truncation_contains(ideal, omitted_partial) is False, \
                        f"{rec.label}, omit {name}: oracle disagrees on membership"
    assert set(survivors) == {"E_7^0", "E_7^1", "E_7^2", "E_8^0", "E_8^1"}
    assert set(blocked) == {"E_7^1", "E_7^2", "E_8^1"}
    report("ACCEPTANCE 6: PASS - summand criterion blocks exactly E_7^1, E_7^2, E_8^1; "
           "all failure modes oracle-confirmed")


def test_acceptance_07_d_family_sweep():
    t0 = time.monotonic()
    for n in range(4, 13):
        for r in range(n // 2):
            rec = instantiate("D", n, r, 2)
            rep = invertible_summand(rec.germ())
            expected = PASS if r == 0 else FAIL
            assert rep.status == expected, f"{rec.label}: {rep.status} != {expected}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(f"ACCEPTANCE 7: PASS - D_n^r sweep 4<=n<=12: summand passes iff r=0 ({elapsed:.2f}s < 60s)")


def test_acceptance_08_classification_lists(capsys):
    expected = {
        2: (["A_1", "A_3", "A_7"]
            + [f"D_{n}^0" for n in range(4, 13)] + ["E_7^0", "E_8^0"]),
        3: ["A_2", "A_8", "E_6^0", "E_8^0"],
        5: ["A_4", "E_8^0"],
    }
    for char, want in expected.items():
        code = main(["classify", "--char", str(char), "--max-n", "12", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["all_match"] is True
        assert sorted(payload["descending"]) == sorted(want), f"char {char}"
        if char == 2:
            assert any(note["label"] == "E_6^0" for note in payload["notes"])
    report("ACCEPTANCE 8: PASS - classification lists match for p = 2, 3, 5; "
           "E_6^0 char-2 discrepancy surfaced as a note")


def catalog_ideal_pool():
    """Catalog-derived ideals for the oracle equivalence suite: all E-type
    jacobians and brackets, the char-2 permuted criterion ideals, the
    char-2 D family, and small A-family members."""
    pool = []
    for rec in table_records():
        germ = rec.germ()
        jac = jacobian_ideal(germ)
        pool.append((f"{rec.label}/p{rec.char} J", jac))
        pool.append((f"{rec.label}/p{rec.char} J[p]", bracket_ideal(jac, germ)))
        if rec.char == 2:
            for name, (ideal, _) in permuted_ideals(germ).items():
                pool.append((f"{rec.label}/p2 omit {name}", ideal))
    for n in range(4, 13):
        for r in range(n // 2):
            rec = instantiate("D", n, r, 2)
            germ = rec.germ()
            jac = jacobian_ideal(germ)
            pool.append((f"{rec.label}/p2 J", jac))
            if n <= 8:
                pool.append((f"{rec.label}/p2 J[p]", bracket_ideal(jac, germ)))
    for char in (2, 3, 5):
        for n in range(1, 7):
            germ = instantiate("A", n, None, char).germ()
            pool.append((f"A_{n}/p{char} J", jacobian_ideal(germ)))
    return pool


def test_acceptance_09_oracle_equivalence():
    pool = catalog_ideal_pool()
    finite = 0
    for label, ideal in pool:
        engine = local_length(ideal)
        if engine == INFINITE:
            continue
        oracle = truncation_length_oracle(ideal)
        assert oracle == engine, f"{label}: engine {engine} vs oracle {oracle}"
        finite += 1
    assert finite >= 100
    report(f"ACCEPTANCE 9: PASS - engine and oracle agree on {finite} "
           "catalog-derived dimension-zero ideals")


def test_acceptance_10_property_suites():
    rng = random.Random(1009)
    counts = {"spair": 0, "idem": 0, "leibniz": 0, "dpower": 0, "roundtrip": 0}

    while counts["spair"] < 200 or counts["idem"] < 200:
        p = rng.choice([2, 3, 5])
        ordering = rng.choice(list(OrderingTag))
        ring = Ring(p, tuple("xyz"[:rng.choice([2, 3])]), ordering)
        gens = [random_poly(rng, ring, 3, 3, nonzero=True) for _ in range(rng.choice([2, 3]))]
        try:
            basis = complete_basis(gens, step_cap=4000)
            assert s_pairs_reduce_to_zero(basis, step_cap=20000)
            counts["spair"] += 1
            f = random_poly(rng, ring, 4, 4, nonzero=False)
            nf = normal_form(f, basis)
            assert normal_form(nf, basis) == nf
            counts["idem"] += 1
        except EngineLimitError:
            continue

    while counts["leibniz"] < 200:
        p = rng.choice([2, 3, 5])
        ring = Ring(p, ("x", "y", "z"), rng.choice(list(OrderingTag)))
        f, g = random_poly(rng, ring, 5, 4, nonzero=False), random_poly(rng, ring, 5, 4, nonzero=False)
        for i in range(3):
            assert (f * g).partial(i) == f * g.partial(i) + g * f.partial(i)
        counts["leibniz"] += 1

    while counts["dpower"] < 200:
        p = rng.choice([2, 3, 5])
        ring = Ring(p, ("x", "y"), OrderingTag.GLOBAL_DEGREVLEX)
        fp = random_poly(rng, ring, 4, 3, nonzero=False).frobenius(1)
        assert fp.partial(0).is_zero and fp.partial(1).is_zero
        counts["dpower"] += 1

    while counts["roundtrip"] < 200:
        p = rng.choice([2, 3, 5, 7])
        ring = Ring(p, rng.choice([("x", "y"), ("x", "y", "z")]),
                    rng.choice(list(OrderingTag)))
        f = random_poly(rng, ring, 6, 5, nonzero=False)
        assert parse_poly(render(f), ring) == f
        counts["roundtrip"] += 1

    assert all(v >= 200 for v in counts.values())
    report(f"ACCEPTANCE 10: PASS - property suites, zero failures: {counts}")
