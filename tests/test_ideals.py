
import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

import rdpdescent
from rdpdescent import (INFINITE, HypersurfaceGerm, IdealPresentation,
                        OrderingTag, Ring, UNSTABLE, UsageError,
                        bracket_ideal, contains, is_parameter_ideal,
                        jacobian_ideal, local_length, parse_poly,
                        truncation_contains, truncation_length_oracle)
from rdpdescent.ideals import _oracle_run, _OracleRun

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
    ideal = ideal_of(["x^2+y^3", "y^4", "z^2"])
    assert local_length(ideal) == 16
    with pytest.raises(EngineLimitError):
        local_length(ideal, step_cap=0)
    with pytest.raises(EngineLimitError):
        contains(ideal, parse_poly("y^3", lring()), step_cap=0)
    assert local_length(ideal, step_cap=50) == 16


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


def test_oracle_membership():
    I = ideal_of(["x^2+y^3", "y^4", "z^2"])
    r = lring()
    assert truncation_contains(I, parse_poly("x*y^2+x^2*z", r)) is False
    assert truncation_contains(I, parse_poly("y^5", r)) is True
    assert truncation_contains(ideal_of(["x", "y"]), parse_poly("x", lring()),
                               degree_cap=8) is UNSTABLE


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
