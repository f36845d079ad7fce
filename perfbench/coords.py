"""Inputs of the `coords` workload: E rows after a random invertible linear
change of coordinates over F_p.

The substituted equations are expanded with sympy over F_p, not with
rdpdescent's own polynomial layer, so a fault in that layer cannot make
the inputs and the answers agree.  Each equation is written out as
expanded text with powers as repeated products (`x*x*y`), the way a user
pastes a long equation.

The coordinate changes come from one fixed draw (COORDS_SEED), so the
germs, and the ones the engine cannot finish, are the same in every run.
Run as a script to print them:

    python3 perfbench/coords.py
"""

from __future__ import annotations

import random

import sympy

from checks import PUBLISHED

VARS = sympy.symbols("x y z")
#: The seed of the coordinate-change draw.
COORDS_SEED = 1


def _det3(a) -> int:
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def random_invertible(p: int, rng: random.Random):
    """A uniformly drawn 3x3 matrix over F_p; singular draws are rejected."""
    while True:
        a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        if _det3(a) % p:
            return a


def expanded_text(equation: str, matrix, p: int) -> str:
    """The equation with x_i replaced by sum_j matrix[i][j] * x_j, expanded
    over F_p and written term by term."""
    f = sympy.sympify(equation.replace("^", "**"), locals=dict(zip("xyz", VARS)))
    substitution = {VARS[i]: sum(matrix[i][j] * VARS[j] for j in range(3)) for i in range(3)}
    g = sympy.Poly(f.xreplace(substitution), *VARS, modulus=p)
    terms = []
    for exponents, coeff in g.terms():
        factors = [] if int(coeff) % p == 1 else [str(int(coeff) % p)]
        for name, e in zip("xyz", exponents):
            factors += [name] * e
        terms.append("*".join(factors))
    return "+".join(terms)


def transformed_germs():
    """One germ per published E row at p = 2 and 3, drawn in table order
    from a single generator seeded with COORDS_SEED."""
    rng = random.Random(COORDS_SEED)
    germs = []
    for p in (2, 3):
        for label, equation, *_ in PUBLISHED[p]:
            matrix = random_invertible(p, rng)
            germs.append(dict(char=p, label=label, matrix=matrix,
                              poly=expanded_text(equation, matrix, p)))
    return germs


def main():
    for g in transformed_germs():
        print(f"p={g['char']} {g['label']:<6} {g['matrix']}  {g['poly']}")


if __name__ == "__main__":
    main()
