
import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdpdescent
from rdpdescent import (INFINITE, HypersurfaceGerm, IdealPresentation,
                        OrderingTag, Ring, UNSTABLE, UsageError,
                        bracket_ideal, contains, is_parameter_ideal,
                        jacobian_ideal, local_length, parse_poly,
                        truncation_contains, truncation_length_oracle)
from rdpdescent.catalog import table_records
from rdpdescent.oracle import DEFAULT_DEGREE_CAP, _Echelon, _oracle_run, _OracleRun

LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX


def lring(p=2, names=("x", "y", "z")):
    return Ring(p, names, LOCAL)


def germ_of(src, p=2):
    return HypersurfaceGerm(parse_poly(src, lring(p)))


def ideal_of(srcs, p=2, names=("x", "y", "z")):
    r = lring(p, names)
    return IdealPresentation([parse_poly(s, r) for s in srcs], r)


E8_3 = "z^2+x^3+y^5+y^3*z"
E7_1 = "z^2+x^3+x*y^3+x^2*y*z"


# -- germs -------------------------------------------------------------------

def test_germ_validation():
    r = lring()
    with pytest.raises(UsageError):
        HypersurfaceGerm(r.zero())
    with pytest.raises(UsageError):
        HypersurfaceGerm(parse_poly("1+x", r))
    g = germ_of(E8_3)
    assert g.dim == 2


# -- jacobian ideals -----------------------------------------------------------

def test_jacobian_e8_3():
    J = jacobian_ideal(germ_of(E8_3))
    r = lring()
    assert J.gens == (parse_poly("x^2", r), parse_poly("y^4+y^2*z", r),
                      parse_poly("y^3", r), parse_poly(E8_3, r))


def test_jacobian_e7_1():
    J = jacobian_ideal(germ_of(E7_1))
    r = lring()
    assert J.gens[0] == parse_poly("x^2+y^3", r)
    assert J.gens[1] == parse_poly("x*y^2+x^2*z", r)
    assert J.gens[2] == parse_poly("x^2*y", r)


def test_jacobian_univariate_cube_char3():
    r = Ring(3, ("x",), LOCAL)
    J = jacobian_ideal(HypersurfaceGerm(parse_poly("x^3", r)))
    assert J.gens == (r.zero(), parse_poly("x^3", r))


# -- bracket ideals --------------------------------------------------------------

def test_bracket_of_e8_3_jacobian():
    g = germ_of(E8_3)
    B = bracket_ideal(jacobian_ideal(g), g)
    r = lring()
    assert B.gens == (parse_poly("x^4", r), parse_poly("y^8+y^4*z^2", r),
                      parse_poly("y^6", r), parse_poly(E8_3, r))


def test_bracket_monomial_generators():
    r = lring()
    f = parse_poly("z^2+x*y", r)
    g = HypersurfaceGerm(f)
    B = bracket_ideal(IdealPresentation([parse_poly("x", r), parse_poly("y", r), f], r), g)
    assert B.gens == (parse_poly("x^2", r), parse_poly("y^2", r), f)


def test_double_bracket_is_fourth_powers():
    g = germ_of(E8_3)
    J = jacobian_ideal(g)
    twice = bracket_ideal(bracket_ideal(J, g), g)
    expected = [h.frobenius(2) for h in J.gens if h != g.f] + [g.f]
    assert list(twice.gens) == expected


def test_bracket_requires_f_in_ideal():
    r = lring()
    f = parse_poly("z^2+x^3", r)
    g = HypersurfaceGerm(f)
    with pytest.raises(UsageError):
        bracket_ideal(ideal_of(["x", "y"]), g)


def test_bracket_generators_lie_in_original():
    for src, p in ((E8_3, 2), (E7_1, 2), ("z^2+x^3+y^4", 3), ("z^2+x^3+y^5", 5)):
        g = germ_of(src, p)
        J = jacobian_ideal(g)
        B = bracket_ideal(J, g)
        for h in B.gens:
            assert contains(J, h)


# -- local lengths ----------------------------------------------------------------

def test_germ_keeps_its_jacobian_and_bracket():
    germ = germ_of("z^2+x^3+y^5", p=5)
    jac = jacobian_ideal(germ)
    assert jacobian_ideal(germ) is jac
    assert bracket_ideal(jacobian_ideal(germ), germ) is bracket_ideal(jac, germ)
    # an equal germ gets an equal presentation of its own
    other = jacobian_ideal(germ_of("z^2+x^3+y^5", p=5))
    assert other == jac and other is not jac


def test_kept_basis_does_not_lift_a_smaller_step_cap():
    from rdpdescent import EngineLimitError
    # The pair of x^2+y^3 and x*y^2 is reduced, so a completion costs work.
    ideal = ideal_of(["x^2+y^3", "x*y^2", "z^2"])
    assert local_length(ideal) == 14
    with pytest.raises(EngineLimitError):
        local_length(ideal, step_cap=0)
    with pytest.raises(EngineLimitError):
        contains(ideal, parse_poly("y^3", lring()), step_cap=0)
    assert local_length(ideal, step_cap=50) == 14


def test_memos_under_concurrent_queries():
    # Threads racing on one germ's memos may each compute a basis; any copy
    # stored is equal, so every answer is the same.
    import threading
    germ = germ_of("z^2+x^3+y^5", p=5)
    answers = []

    def query():
        jac = jacobian_ideal(germ)
        answers.append((local_length(jac), local_length(bracket_ideal(jac, germ)),
                        contains(jac, germ.f)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert answers == [(10, 250, True)] * 4


def test_maximal_ideal_length_one():
    assert local_length(ideal_of(["x", "y", "z"])) == 1


def test_e8_3_lengths_ten_and_fortyfour():
    g = germ_of(E8_3)
    J = jacobian_ideal(g)
    assert local_length(J) == 10
    assert local_length(bracket_ideal(J, g)) == 44


def test_unit_ideal_has_length_zero():
    assert local_length(ideal_of(["1+x", "y"])) == 0


def test_zero_ideal_is_infinite():
    r = lring()
    assert local_length(IdealPresentation([r.zero()], r)) == INFINITE


def test_positive_dimensional_is_infinite():
    assert local_length(ideal_of(["x", "y"])) == INFINITE


def test_global_presentation_is_measured_in_the_localization():
    # A presentation over a global-ordering ring is converted by
    # IdealPresentation.local() before its length is counted.
    g = HypersurfaceGerm(parse_poly(E8_3, Ring(2, ("x", "y", "z"))))
    J = jacobian_ideal(g)
    assert J.ring.ordering == OrderingTag.GLOBAL_DEGREVLEX
    assert local_length(J) == 10
    assert local_length(bracket_ideal(J, g)) == 44
    # x + x^2 = x*(1 + x) has global colength 2, local length 1
    r = Ring(2, ("x",))
    assert local_length(IdealPresentation([parse_poly("x+x^2", r)], r)) == 1


# -- membership -------------------------------------------------------------------

def test_contains_zero():
    assert contains(ideal_of(["x^2"]), lring().zero())


def test_documented_membership_failure():
    I = ideal_of(["x^2+y^3", "y^4", "z^2"])
    assert not contains(I, parse_poly("x*y^2+x^2*z", lring()))


def test_d_family_membership_failure():
    # D_4^1: f_z = x*y is not in I_z = (f_x, f_y, f)
    r = lring()
    f = parse_poly("z^2+x^2*y+x*y^2+x*y*z", r)
    I = IdealPresentation([f.partial(0), f.partial(1), f], r)
    assert not contains(I, parse_poly("x*y", r))


def test_contains_positive_case():
    I = ideal_of(["x^2+y^3", "y^4", "z^2"])
    r = lring()
    assert contains(I, parse_poly("x^2*z+y^3*z", r))
    assert contains(I, parse_poly("y^5", r))


def test_membership_in_a_global_presentation_is_local():
    # contains converts the element to the local ring of the basis
    r = Ring(2, ("x", "y", "z"))
    I = IdealPresentation([parse_poly(s, r) for s in ("x^2+y^3", "y^4", "z^2")], r)
    assert contains(I, parse_poly("y^5", r))
    assert not contains(I, parse_poly("x*y^2+x^2*z", r))
    line = Ring(2, ("x",))
    assert contains(IdealPresentation([parse_poly("x+x^2", line)], line), parse_poly("x", line))


# -- parameter ideals --------------------------------------------------------------

def test_maximal_ideal_is_parameter():
    assert is_parameter_ideal(ideal_of(["x", "y", "z"]))


def test_e7_1_ix_is_not_parameter():
    r = lring()
    f = parse_poly(E7_1, r)
    I = IdealPresentation([f.partial(1), f.partial(2), f], r)
    assert not is_parameter_ideal(I)


def test_e7_1_iy_is_parameter_of_length_16():
    r = lring()
    f = parse_poly(E7_1, r)
    I = IdealPresentation([f.partial(0), f.partial(2), f], r)
    assert is_parameter_ideal(I)
    assert local_length(I) == 16


def test_unit_ideal_is_not_parameter():
    assert not is_parameter_ideal(ideal_of(["1+x"]))


# -- truncation oracle ---------------------------------------------------------------

def test_oracle_maximal_ideal():
    assert truncation_length_oracle(ideal_of(["x", "y", "z"])) == 1


def test_oracle_e8_3_jacobian():
    assert truncation_length_oracle(jacobian_ideal(germ_of(E8_3))) == 10


def test_oracle_squares():
    assert truncation_length_oracle(ideal_of(["x^2", "y^2", "z^2"])) == 8


def test_oracle_unit_and_unstable():
    assert truncation_length_oracle(ideal_of(["1+x"])) == 0
    assert truncation_length_oracle(ideal_of(["x", "y"]), degree_cap=12) is UNSTABLE
    r = lring()
    zero = IdealPresentation([r.zero()], r)
    assert truncation_length_oracle(zero) is UNSTABLE
    assert truncation_contains(zero, parse_poly("x", r)) is UNSTABLE


def log_oracle_runs(monkeypatch):
    """The working degree of every _OracleRun construction, logged through
    the module attribute that _oracle_run looks up."""
    workdegs = []
    real_run = rdpdescent.oracle._OracleRun

    def logged_run(gens, workdeg):
        workdegs.append(workdeg)
        return real_run(gens, workdeg)

    monkeypatch.setattr(rdpdescent.oracle, "_OracleRun", logged_run)
    return workdegs


def test_oracle_gives_up_at_its_column_bound(monkeypatch):
    # (x, y) in three variables never stabilizes; the working degree grows
    # until the monomials below it would exceed _MAX_COLUMNS, well before
    # the default degree cap of 64.
    # z has no pure power among the pivots, so no run bounds the next
    # working degree and the schedule is the x1.5 rule's.
    workdegs = log_oracle_runs(monkeypatch)
    assert truncation_length_oracle(ideal_of(["x", "y"])) is UNSTABLE
    assert workdegs == [6, 9, 13, 19, 28]


def test_oracle_membership():
    I = ideal_of(["x^2+y^3", "y^4", "z^2"])
    r = lring()
    assert truncation_contains(I, parse_poly("x*y^2+x^2*z", r)) is False
    assert truncation_contains(I, parse_poly("y^5", r)) is True
    assert truncation_contains(ideal_of(["x", "y"]), parse_poly("x", lring()),
                               degree_cap=8) is UNSTABLE


def test_oracle_membership_of_zero():
    # 0 lies in every ideal, also where the oracle certifies no length.
    r = lring()
    zero = IdealPresentation([r.zero()], r)
    assert truncation_contains(zero, r.zero()) is True
    assert truncation_contains(ideal_of(["x", "y"]), r.zero(), degree_cap=8) is True
    with pytest.raises(UsageError):
        truncation_contains(zero, r.zero(), degree_cap=2)


@pytest.mark.parametrize("p", [2, 5])
def test_membership_across_rings_is_a_usage_error(p):
    # y of a two-variable ring is no element of an ideal of three-variable
    # polynomials, on either route, and neither is its zero.
    I = ideal_of(["x^2", "y^2", "z^2"])
    other = Ring(p, ("x", "y"), LOCAL)
    for g in (parse_poly("y", other), other.zero()):
        with pytest.raises(UsageError, match="different ambient rings"):
            truncation_contains(I, g)
        with pytest.raises(UsageError, match="different ambient rings"):
            contains(I, g)
    # The degree cap is checked first.
    with pytest.raises(UsageError, match="degree cap"):
        truncation_contains(I, parse_poly("y", other), degree_cap=2)


def test_membership_across_rings_runs_no_oracle(monkeypatch):
    # The ring is checked before the oracle runs: on the E_8^1 J^[p] at
    # p = 5 the oracle would take two runs, at degrees 22 and 33.
    rec = next(r for r in table_records() if (r.label, r.char) == ("E_8^1", 5))
    germ = rec.germ()
    bracket = bracket_ideal(jacobian_ideal(germ), germ)
    workdegs = log_oracle_runs(monkeypatch)
    other = Ring(5, ("x", "y"), LOCAL)
    with pytest.raises(UsageError, match="different ambient rings"):
        truncation_contains(bracket, parse_poly("y", other))
    assert workdegs == []

def test_oracle_matches_engine_on_sample():
    cases = [
        (2, ["x^2", "y^2*z", "y^3", "z^2"]),
        (2, ["x^2+y^3", "x^2*y", "z^2+x^3+x*y^3+y^3*z"]),
        (3, ["x^2", "y^3+x*z", "z^2"]),
        (5, ["x^2+y^4", "y^5", "z^2+x*y"]),
    ]
    for p, srcs in cases:
        I = ideal_of(srcs, p)
        assert truncation_length_oracle(I) == local_length(I)


@pytest.mark.parametrize("p, names, srcs, length", [
    (3, ("x",), ["x^5"], 5),
    (2, ("a", "b", "c", "d"), ["a^2", "b^2", "c^2", "d^2+a*b"], 16),
    (5, ("a", "b", "c", "d", "e", "f"), ["a^2+b^3", "b^2", "c^2", "d^2", "e^2", "f^2+a*c"], 64),
])
def test_oracle_matches_engine_outside_three_variables(p, names, srcs, length):
    # The catalog has three variables only; the key's digits and the
    # multiplier enumeration depend on n.
    I = ideal_of(srcs, p, names)
    assert truncation_length_oracle(I) == local_length(I) == length
    r = I.ring
    corner = r.poly({(1,) * len(names): 1})  # the product of the variables
    for g in (corner, corner * parse_poly(names[0], r), parse_poly(f"{names[-1]}^2", r)):
        assert truncation_contains(I, g) is contains(I, g), g
    assert truncation_contains(I, corner) is False


# -- ideal-level properties ----------------------------------------------------------

def test_length_monotone_under_inclusion():
    # bracket(J) is contained in J, and any I_w is contained in J
    for src, p in ((E8_3, 2), (E7_1, 2), ("z^2+x^3+y^4+x^2*y^2", 3)):
        g = germ_of(src, p)
        J = jacobian_ideal(g)
        lj = local_length(J)
        assert local_length(bracket_ideal(J, g)) >= lj
        r = g.ring
        for w in range(3):
            kept = [i for i in range(3) if i != w]
            Iw = IdealPresentation([g.f.partial(kept[0]), g.f.partial(kept[1]), g.f], r)
            assert local_length(Iw) >= lj


def test_bracket_length_at_least_p_squared():
    for src, p, theta in ((E8_3, 2, False), ("z^2+x^3+y^5", 2, True),
                          ("z^2+x^3+y^4", 3, True), ("z^2+x^3+y^5+x*y^4", 5, False)):
        g = germ_of(src, p)
        J = jacobian_ideal(g)
        lj, ljp = local_length(J), local_length(bracket_ideal(J, g))
        assert ljp >= p * p * lj
        assert (ljp == p * p * lj) == theta


# -- the oracle's elimination against an independent dense rank --------------------

def monomials_below(n, d):
    """Exponent tuples of total degree < d, in any order."""
    return [m for m in itertools.product(range(d), repeat=n) if sum(m) < d]


def dense_rank(rows, p):
    """Rank over F_p of a list of equal-length integer lists, by plain
    Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        prow = [(v * inv) % p for v in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def macaulay_quotient_dim(gens, d):
    """dim R/(I + m^d): the monomials of degree < d minus the rank of every
    multiple m*g truncated below d."""
    n, p = gens[0].ring.nvars, gens[0].ring.p
    cols = monomials_below(n, d)
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for g in gens:
        for mult in cols:
            row = [0] * len(cols)
            for mono, c in g.terms:
                col = index.get(tuple(a + b for a, b in zip(mono, mult)))
                if col is not None:
                    row[col] = c
            rows.append(row)
    return len(cols) - dense_rank(rows, p)


def random_local_poly(rng, ring, max_terms, max_exp, constant=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        if sum(m) or constant:
            terms[m] = rng.randrange(1, ring.p)
    return ring.poly(terms)


def test_oracle_quotient_dims_match_a_dense_rank():
    rng = random.Random(20261018)
    checked = 0
    for case in range(240):
        p = (2, 3, 5, 97)[case % 4]
        n = 2 + case % 2
        ring = lring(p, ("x", "y", "z")[:n])
        gens = [random_local_poly(rng, ring, 3, 3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        workdeg = rng.randint(3, 6 if n == 2 else 5)
        run = _OracleRun(gens, workdeg)
        for d in range(workdeg + 1):
            assert run.quotient_dim(d) == macaulay_quotient_dim(gens, d), (p, gens, workdeg, d)
        checked += 1
    assert checked >= 200


# -- the oracle's column keys ------------------------------------------------------

def monomials_by_degree(n, maxdeg):
    """All exponent tuples of each total degree 0..maxdeg, in increasing
    lexicographic order within a degree: the oracle's column order."""
    if n == 1:
        return [[(d,)] for d in range(maxdeg + 1)]
    rest = monomials_by_degree(n - 1, maxdeg)
    return [[(e,) + m for e in range(d + 1) for m in rest[d - e]] for d in range(maxdeg + 1)]


def columns_below(n, workdeg):
    return [m for level in monomials_by_degree(n, workdeg - 1) for m in level]


def pivot_ranks(run):
    """The run's pivot columns, each read as the rank of its monomial in
    the column order (degree, then lex), so pivots compare across any
    column addressing."""
    rank = {run._key(m): i for i, m in enumerate(columns_below(run.n, run.workdeg))}
    return [rank[key] for key in run.pivots]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), workdeg=st.integers(3, 12), data=st.data())
def test_oracle_keys_are_degree_led_and_linear(n, workdeg, data):
    # A run whose one generator lies in m^D inserts no row; only its key
    # is read here.
    ring = lring(2, ("a", "b", "c", "d", "e")[:n])
    run = _OracleRun([ring.poly({(workdeg,) + (0,) * (n - 1): 1})], workdeg)
    assert run.pivots == []
    key = run._key
    below = monomials_below(n, workdeg)
    columns = columns_below(n, workdeg)
    assert columns == sorted(below, key=lambda m: (sum(m), m))
    assert sorted(map(key, below)) == list(map(key, columns))
    assert len(set(map(key, below))) == len(below)
    assert [k for level in run._keys_by_degree(workdeg - 1) for k in level] == list(map(key, columns))
    limit = workdeg * run.unit
    for _ in range(10):
        m, t = data.draw(st.sampled_from(columns)), data.draw(st.sampled_from(columns))
        mt = tuple(a + b for a, b in zip(m, t))
        assert key(mt) == key(m) + key(t)
        assert (key(mt) < limit) is (sum(mt) < workdeg)


# -- the skipped rows (F5 criterion) ---------------------------------------------------

def unskipped_pivots(gens, run):
    """Pivot columns, as ranks in the column order, of a fresh echelon
    form fed every row m*g, m any monomial below the run's working degree,
    truncated as the run truncates.  The run's span lies inside this one,
    so equal pivot columns mean equal spans."""
    index = {m: i for i, m in enumerate(columns_below(run.n, run.workdeg))}
    ech = _Echelon(run.p)
    for g in gens:
        for mult in index:
            row = {}
            for mono, c in g.terms:
                col = index.get(tuple(a + b for a, b in zip(mono, mult)))
                if col is not None:
                    row[col] = c
            ech.insert(row)
    return sorted(ech.pivot_rows)


def catalog_oracle_ideals():
    """J and J^[p] of every E row at p = 2, 3, 5: the `oracle` workload's 44."""
    ideals = []
    for rec in table_records():
        germ = rec.germ()
        jac = jacobian_ideal(germ)
        ideals += [(f"{rec.label}/p{rec.char} J", jac),
                   (f"{rec.label}/p{rec.char} J[p]", bracket_ideal(jac, germ))]
    return ideals


def test_skipped_rows_keep_the_catalog_pivots():
    ideals = catalog_oracle_ideals()
    assert len(ideals) == 44
    for label, ideal in ideals:
        _, run = _oracle_run(ideal, DEFAULT_DEGREE_CAP)
        assert run is not None, label
        gens = [g for g in ideal.gens if not g.is_zero]
        assert pivot_ranks(run) == unskipped_pivots(gens, run), label


def test_skipped_rows_keep_random_pivots():
    # A duplicated generator gets no rows past its first copy's pivots, and
    # a generator of order >= the working degree gets none at all.
    rng = random.Random(20261019)
    for case in range(120):
        p = (2, 3, 5, 97)[case % 4]
        n = 2 + case % 2
        ring = lring(p, ("x", "y", "z")[:n])
        gens = [g for g in (random_local_poly(rng, ring, 3, 3) for _ in range(3)) if not g.is_zero]
        if not gens:
            continue
        workdeg = rng.randint(3, 7 if n == 2 else 5)
        high = ring.poly({tuple(rng.randint(0, 2) for _ in range(n - 1)) + (workdeg,): 1})
        gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
        gens.insert(rng.randint(0, len(gens)), high)
        run = _OracleRun(gens, workdeg)
        assert pivot_ranks(run) == unskipped_pivots(gens, run), (p, gens, workdeg)


def count_inserts(monkeypatch):
    """Count _Echelon.insert calls: [rows, rows that reduced to zero]."""
    counts = [0, 0]
    real_insert = _Echelon.insert

    def counted(self, row):
        before = len(self.pivot_rows)
        real_insert(self, row)
        counts[0] += 1
        counts[1] += len(self.pivot_rows) == before

    monkeypatch.setattr(_Echelon, "insert", counted)
    return counts


def test_skipped_rows_catalog_counts(monkeypatch):
    # Without the skip, the same calls insert 55,611 rows, 21,484 of which
    # reduce to zero.
    counts = count_inserts(monkeypatch)
    for _, ideal in catalog_oracle_ideals():
        truncation_length_oracle(ideal)
    assert counts == [36250, 2123]


def test_skipped_rows_e8_0_bracket_count(monkeypatch):
    # E_8^0 at p = 5, J^[p] at working degree 40: 22,610 rows without the
    # skip, 11,380 of them zero.
    rec = next(r for r in table_records() if (r.label, r.char) == ("E_8^0", 5))
    germ = rec.germ()
    bracket = bracket_ideal(jacobian_ideal(germ), germ)
    counts = count_inserts(monkeypatch)
    _OracleRun([g for g in bracket.gens if not g.is_zero], 40)
    assert counts == [11380, 150]


#: For each of the 44 catalog ideals: the working degrees the oracle visits,
#: and a sha1 of the final run's pivot columns, read as ranks in the column
#: order (comma-joined).  Equal pivot columns at equal degrees leave every
#: value and every UNSTABLE in place, however the columns are addressed
#: inside a run.
CATALOG_SCHEDULE = {
    'E_6^0/p2 J': ((6,), 'a0953f6040fbe09bbc6d1bde016a4bc7e87a6472'),
    'E_6^0/p2 J[p]': ((6, 9), 'b1a3df33710f2634b26516f37ea50b168653145f'),
    'E_6^1/p2 J': ((6,), '22a1a956e1dabb18d7f58dcf49fd2c60a2520aab'),
    'E_6^1/p2 J[p]': ((6, 8), '270b46621418ed52e1b3f21084ab2db2b699f7b6'),
    'E_7^0/p2 J': ((6, 7), 'd1829d5ed85387cd1dee62738219262a6f72860f'),
    'E_7^0/p2 J[p]': ((8, 12, 13), '8d2b59dbe1fe2fb49952bea73d5d0eb0d5231541'),
    'E_7^1/p2 J': ((6,), 'c171f5cb79d3bc6f906969cbb0c8dde8d5beee9f'),
    'E_7^1/p2 J[p]': ((8, 12), '270d05c55569b54c91a46769a12f4d926de45b5a'),
    'E_7^2/p2 J': ((6,), '4d2bc887e7ea8c95aaff48e6b3557be5576bcb54'),
    'E_7^2/p2 J[p]': ((8, 9), '7bf82e7e1e80f9ce9b2b1ef5a66b034251f96f47'),
    'E_7^3/p2 J': ((6,), '4e48cd2066a6a268a38cb7ecd4c5ce1480d6e99d'),
    'E_7^3/p2 J[p]': ((8, 12), '4db6a89ea8c3351048093b840379c28139719e69'),
    'E_8^0/p2 J': ((7,), 'e338f1cd2f386b9a9e4194c3e672f1a3df6a175f'),
    'E_8^0/p2 J[p]': ((10, 13), '294ee2154184cf253a176be676380110986ce7c9'),
    'E_8^1/p2 J': ((7,), 'c13646996b5d1b304e711083147cea4c7430b7d6'),
    'E_8^1/p2 J[p]': ((10, 11), 'da040f6643efd56c23744c4ab2b5d71756af92bc'),
    'E_8^2/p2 J': ((7,), '70377658a14803820b8e5fad40cecd52017c1ecc'),
    'E_8^2/p2 J[p]': ((10, 11), 'd5e192361fad3c52e7e7187e43b7893e73d3917a'),
    'E_8^3/p2 J': ((7,), '34866f2b7d3f85dc29f078e313f7cb23415e9fb2'),
    'E_8^3/p2 J[p]': ((10,), '8de0b9388162e667b60b8415bfa33ac43ba14c2f'),
    'E_8^4/p2 J': ((7,), 'f28081c8eedb2e0075f8a1c54e69ae4131352355'),
    'E_8^4/p2 J[p]': ((10,), 'e76faa1ea233bfe545499c67f27c2a10f4bbad0d'),
    'E_6^0/p3 J': ((6,), '4808b697ebe357a0785505bdba05afa14d114dcc'),
    'E_6^0/p3 J[p]': ((11, 15), '47a4301c0bfbb2f912102ca396bb2ea1000957b0'),
    'E_6^1/p3 J': ((6,), '36ed1e2efae1bf6fe97049e7ffd082330b9b5760'),
    'E_6^1/p3 J[p]': ((11, 13), '39336d732bd4bb69a5f4ed090960dcd11333bd9c'),
    'E_7^0/p3 J': ((6,), '4808b697ebe357a0785505bdba05afa14d114dcc'),
    'E_7^0/p3 J[p]': ((11, 15), '47a4301c0bfbb2f912102ca396bb2ea1000957b0'),
    'E_7^1/p3 J': ((6,), '8f17398ed7aa6f6a6d227574d6aaf1b8bd27c01b'),
    'E_7^1/p3 J[p]': ((11, 13), '7d1bd05f86bf82daaadd58834f3a1847827ca992'),
    'E_8^0/p3 J': ((7,), '6397dd72a9bb32bddeb15c66b5c99b6cecdb659c'),
    'E_8^0/p3 J[p]': ((14, 18), 'a83092fcd143a409a2c40bcdb20a24d260ef6cda'),
    'E_8^1/p3 J': ((7,), 'c8824b389119918218497502f664aeaea0597a25'),
    'E_8^1/p3 J[p]': ((14, 16), 'eafe5315d55d02b53be3e5ef3c4ead06239905cc'),
    'E_8^2/p3 J': ((7,), 'f8835516d37113e0c7b1eb2d6ced60fba130dba2'),
    'E_8^2/p3 J[p]': ((14, 15), 'aa323e1d5129e70872b3251b1ac869bd0d7e92d5'),
    'E_6/p5 J': ((6,), '84126c5c7df8a1d5a7b5aa3b4020ab486aef734b'),
    'E_6/p5 J[p]': ((17, 19), '223abeff888ba6fdec9481d64edf170b7997b748'),
    'E_7/p5 J': ((6,), '2335b915267ead64df5b594e8762a76f660faaac'),
    'E_7/p5 J[p]': ((17, 25), '228d63e48eb8e5cec5f62de5da0b04c1dd6c90df'),
    'E_8^0/p5 J': ((7,), '9ebffe550fe64d74183538d9952a8933af7e9fd2'),
    'E_8^0/p5 J[p]': ((12, 18, 27, 29), 'fd1b2d566a1087b218b80be9e76a9524899e8101'),
    'E_8^1/p5 J': ((7,), '9694642c98738eddf159b4dcb19415139a4a1f11'),
    'E_8^1/p5 J[p]': ((22, 33), '4da4a39d4569a34dfa114dd08868431e22aa3fa5'),
}


def test_catalog_schedule_and_pivots_are_pinned(monkeypatch):
    workdegs = log_oracle_runs(monkeypatch)
    seen = {}
    for label, ideal in catalog_oracle_ideals():
        workdegs.clear()
        _, run = _oracle_run(ideal, DEFAULT_DEGREE_CAP)
        digest = hashlib.sha1(",".join(map(str, pivot_ranks(run))).encode()).hexdigest()
        seen[label] = (tuple(workdegs), digest)
    assert seen == CATALOG_SCHEDULE


# -- the working-degree schedule -----------------------------------------------------

def step_only(monkeypatch):
    """Make every failed run step by the x1.5 rule alone."""
    monkeypatch.setattr(_OracleRun, "next_workdeg", lambda run, step: step)


def test_bounded_step_certifies_past_the_column_bound(monkeypatch):
    # The x1.5 rule alone goes 14, 21, 31, 46, and 46 has more than
    # _MAX_COLUMNS monomials below it.  The run at 31 sees the highest
    # corner x^11*y^11*z^11 of its pivots, so 35 certifies.
    I = ideal_of(["x^12", "y^12", "z^12"])
    workdegs = log_oracle_runs(monkeypatch)
    assert truncation_length_oracle(I) == 1728
    assert workdegs == [14, 21, 31, 35]
    step_only(monkeypatch)
    workdegs.clear()
    assert truncation_length_oracle(I) is UNSTABLE
    assert workdegs == [14, 21, 31]


def test_bounded_steps_certify_and_keep_the_value(monkeypatch):
    # m-primary ideals: the generator of each variable has a pure power as
    # its only term of lowest degree, so the pivots generate an ideal with
    # a highest corner once its power lies below the working degree.
    rng = random.Random(20261020)
    workdegs = log_oracle_runs(monkeypatch)
    real_next = _OracleRun.next_workdeg
    chosen = []  # (step, next working degree) of each failed run

    def logged_next(run, step):
        chosen.append((step, real_next(run, step)))
        return chosen[-1][1]

    bounded = 0
    for case in range(150):
        p = (2, 3, 5)[case % 3]
        n = 2 + case % 2
        ring = lring(p, ("x", "y", "z")[:n])
        gens = []
        for i in range(n):
            a = rng.randint(2, 10 if n == 2 else 7)
            terms = {}
            for _ in range(rng.randint(0, 3)):
                m = [0] * n
                for _ in range(a + rng.randint(1, 2)):
                    m[rng.randrange(n)] += 1
                terms[tuple(m)] = rng.randrange(1, p)
            terms[tuple(a * (j == i) for j in range(n))] = 1
            gens.append(ring.poly(terms))
        gens += [random_local_poly(rng, ring, 3, 2) for _ in range(rng.randint(0, 2))]
        rng.shuffle(gens)
        I = IdealPresentation(gens, ring)
        monkeypatch.setattr(_OracleRun, "next_workdeg", logged_next)
        workdegs.clear()
        chosen.clear()
        value = truncation_length_oracle(I)
        assert value is not UNSTABLE, (p, gens)
        assert workdegs[1:] == [deg for _, deg in chosen], (p, gens)
        # A degree below the step comes from the bound, and its run is the
        # last: it certifies.
        bounds = [k for k, (step, deg) in enumerate(chosen) if deg < step]
        assert bounds in ([], [len(chosen) - 1]), (p, gens, chosen)
        bounded += bool(bounds)
        step_only(monkeypatch)
        assert truncation_length_oracle(I) == value, (p, gens)
    assert bounded >= 40


def test_oracle_membership_above_a_bounded_working_degree():
    # E_8^0 at p = 5: the run at 27 bounds the next working degree by 29,
    # where the x1.5 rule would take 40.  Probes carry terms at and above 29.
    rec = next(r for r in table_records() if (r.label, r.char) == ("E_8^0", 5))
    germ = rec.germ()
    bracket = bracket_ideal(jacobian_ideal(germ), germ)
    _, run = _oracle_run(bracket, DEFAULT_DEGREE_CAP)
    assert run.workdeg == 29
    r = bracket.ring
    rng = random.Random(29)
    answers = set()
    for _ in range(8):
        low = {tuple(rng.randint(0, 12) for _ in range(3)): rng.randrange(1, 5) for _ in range(2)}
        high = {(29 - b + rng.randint(0, 3), b, rng.randint(0, 2)): 1 for b in (0, 7, 20)}
        g = r.poly({**low, **high})
        answer = truncation_contains(bracket, g)
        assert answer is contains(bracket, g), g
        answers.add(answer)
    assert answers == {True, False}

def test_oracle_membership_truncates_above_the_working_degree():
    I = ideal_of(["x^2", "y^3"], 5, ("x", "y"))
    r = I.ring
    _, run = _oracle_run(I, 64)
    top = run.workdeg
    at, above = f"y^{top}", f"x*y^{top + 3}+3*x^{top + 1}"
    assert truncation_contains(I, parse_poly(at, r)) is True
    assert truncation_contains(I, parse_poly(f"x+{above}", r)) is False
    assert truncation_contains(I, parse_poly(f"x*y^2+{at}+{above}", r)) is False
    assert truncation_contains(I, parse_poly(f"4*x^2*y+y^4+{at}+{above}", r)) is True


def test_oracle_membership_matches_the_engine_with_high_terms():
    rng = random.Random(7)
    for case in range(60):
        p = (2, 3, 5, 97)[case % 4]
        ring = lring(p, ("x", "y"))
        gens = [random_local_poly(rng, ring, 3, 4) for _ in range(3)]
        I = IdealPresentation(gens, ring)
        _, run = _oracle_run(I, 24)
        if run is None:
            continue
        top = run.workdeg
        for _ in range(4):
            low = random_local_poly(rng, ring, 3, 4, constant=True)
            high = ring.poly({(top - k, k + rng.randint(0, 2)): rng.randrange(1, p)
                              for k in range(0, top + 1, 3)})
            g = low + high
            assert truncation_contains(I, g) is contains(I, g), (p, gens, g)


def test_oracle_keys_do_not_alias_high_exponents():
    # The oracle keys a monomial by its degree and exponents read as digits
    # in base twice the working degree D.  Terms of degree >= D may carry
    # exponents that are no digits, and they are dropped before they are
    # keyed; a key without the degree digit would put z^(2*D+1) on y*z.
    # The probes run x^e and the last variable's powers, so a key with
    # either digit order is caught.  In three variables z^2 makes
    # (x^2, y^3) primary to the maximal ideal.
    for names, extra in ((("x", "y"), []), (("x", "y", "z"), ["z^2"])):
        I = ideal_of(["x^2", "y^3"] + extra, 5, names)
        r = I.ring
        n = len(names)
        x, y, last = (parse_poly(v, r) for v in ("x", "y", names[-1]))
        _, run = _oracle_run(I, DEFAULT_DEGREE_CAP)
        for e in range(4 * run.workdeg + 1):
            x_e = r.poly({(e,) + (0,) * (n - 1): 1})
            last_e = r.poly({(0,) * (n - 1) + (e,): 1})
            for g in (x_e, x_e * y + y, last_e, last_e * x + x):
                assert truncation_contains(I, g) is contains(I, g), (names, e, g)
    for names, srcs in ((("x", "y"), ["x^2+y^{h}", "y^3+x^{h}*y"]),
                        (("x", "y", "z"), ["x^2+z^{h}", "y^3+x^{h}*z", "z^2+x*y*z^{h}"])):
        r = lring(5, names)
        for workdeg in (4, 6, 7):
            for h in (2 * workdeg + 1, 5 * workdeg):
                gens = [parse_poly(src.format(h=h), r) for src in srcs]
                run = _OracleRun(gens, workdeg)
                for d in range(workdeg + 1):
                    assert run.quotient_dim(d) == macaulay_quotient_dim(gens, d), (gens, workdeg, d)


def test_oracle_cli_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rdpdescent.__file__)))
    script = textwrap.dedent("""
        import contextlib, io, sys
        import rdpdescent
        from rdpdescent import cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["oracle", "--char", "3", "--gens", "x^2,y^3+x*z,z^2", "--json"])
        assert code == 0, code
        assert '"oracle_length": 12' in out.getvalue(), out.getvalue()
        assert "numpy" not in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
