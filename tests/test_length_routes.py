"""The third length route: sympy's global Groebner basis of I + m^D.

R/(I + m^D) is supported at the origin, so the standard monomials of its
global basis count dim O/(I*O + m^D).  When that count is the same at D
and at D + 1, m^D lies in I*O + m^(D+1), so m^D lies in I*O by Nakayama's
lemma, and the count is the local length.  The engine's corner serves only
as a hint for D.  The generators are built in sympy from the equation
text, so this route shares neither rdpdescent's polynomials nor its
derivatives with the engine; the oracle is the second route
(test_ideals.py, test_corner.py).
"""

import itertools
import random

import pytest

from rdpdescent import (INFINITE, EngineLimitError, IdealPresentation, OrderingTag,
                        Ring, complete_basis, local_length, parse_poly)
from rdpdescent.catalog import table_records
from rdpdescent.ideals import jacobian_ideal

sympy = pytest.importorskip("sympy")

LOCAL = OrderingTag.LOCAL_NEG_DEGREVLEX
NAMES = ("x", "y", "z")


def exponents(n, d):
    """The exponent vectors of the monomials of degree d in n variables."""
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


def sympy_length(gens, syms, p, degree):
    """dim of R/(gens + m^degree) over F_p: the standard monomials of
    sympy's grevlex basis, all of which have degree < degree."""
    powers = [sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
              for exps in exponents(len(syms), degree)]
    basis = sympy.groebner(list(gens) + powers, *syms, modulus=p, order="grevlex")
    leads = [sympy.Poly(g, *syms, modulus=p).monoms(order="grevlex")[0] for g in basis.exprs]
    return sum(1 for d in range(degree) for m in exponents(len(syms), d)
               if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads))


def assert_third_route(texts, names, p, ideal, label):
    """sympy's count at the engine's corner D and at D + 1 is the engine's
    local length."""
    syms = sympy.symbols(names)
    gens = [sympy.sympify(t.replace("^", "**"), locals=dict(zip(names, syms))) for t in texts]
    corner = complete_basis(ideal.local().gens).corner
    assert corner is not None, label
    length = local_length(ideal)
    assert sympy_length(gens, syms, p, corner) == length, label
    assert sympy_length(gens, syms, p, corner + 1) == length, label


@pytest.mark.parametrize("char", [2, 3])
def test_jacobian_lengths_by_sympy_on_the_truncated_ideal(char):
    syms = sympy.symbols(NAMES)
    for rec in table_records():
        if rec.char != char:
            continue
        f = sympy.sympify(rec.equation.replace("^", "**"), locals=dict(zip(NAMES, syms)))
        texts = [str(sympy.diff(f, s)) for s in syms] + [str(f)]
        assert_third_route(texts, NAMES, char, jacobian_ideal(rec.germ()), rec.label)


def random_text(rng, names, p):
    """A polynomial with no constant term, written as text."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(names)
        while not any(exps):
            exps = [rng.randrange(4) for _ in names]
        factors = [str(rng.randrange(1, p))]
        factors += [f"{v}^{e}" for v, e in zip(names, exps) if e]
        terms.append("*".join(factors))
    return "+".join(terms)


def test_random_primary_lengths_by_sympy_on_the_truncated_ideal():
    # Small ideals of F_p[x, y(, z)] inside the maximal ideal; those of
    # finite local length are primary to it in the local ring, while their
    # global zero sets may hold other points, which m^D cuts away.  Some
    # positive-dimensional draws do not complete under the cap; they have
    # no length to compare.
    rng = random.Random(2006)
    compared = 0
    while compared < 30:
        p = rng.choice([2, 3, 5])
        names = NAMES[:rng.choice([2, 3])]
        ring = Ring(p, names, LOCAL)
        texts = [random_text(rng, names, p) for _ in range(rng.randint(len(names), 4))]
        gens = [parse_poly(t, ring) for t in texts]
        if any(g.is_zero for g in gens):
            continue
        ideal = IdealPresentation(gens)
        try:
            if local_length(ideal, step_cap=20000) == INFINITE:
                continue
        except EngineLimitError:
            continue
        assert_third_route(texts, names, p, ideal, (p, texts))
        compared += 1
