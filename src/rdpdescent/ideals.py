"""Ideal-level constructions: jacobian ideals, Frobenius bracket ideals,
local lengths, membership and parameter-ideal tests.

Ideals of the quotient ring F[x_1..x_n]/(f) are represented by polynomial
ring presentations that include f among the generators, so one engine
serves both the ambient and the quotient computations.  Lengths are always
lengths of the localization at the origin: the presentation is completed
to a standard basis under the local ordering and the standard monomials
are counted.

The independent brute-force length oracle, which shares no code with
the engine, is the module `oracle`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .errors import UsageError
from .gbasis import (INFINITE, StandardBasis, complete_basis, normal_form,
                     standard_monomial_count)
# truncation_length_oracle is not called here; it stays a name of this
# module because perfbench/spans.py wraps ideals.truncation_length_oracle
# and perfbench/worker.py calls it (pinned by tests/test_cli.py::
# test_traced_runs_find_every_name_the_benchmark_wraps).
from .oracle import UNSTABLE, truncation_length_oracle  # noqa: F401
from .poly import OrderingTag, Polynomial, Ring


def length_tag(x):
    """A length as JSON output shows it: INFINITE and UNSTABLE by name."""
    if x == INFINITE:
        return "INFINITE"
    if x is UNSTABLE:
        return "UNSTABLE"
    return x


class IdealPresentation:
    """A finite generator list in a fixed ambient ring.  The zero ideal is
    presented by (0,).

    A presentation keeps what is derived from it: its completed local
    basis per step cap, and its Frobenius bracket.  Each is a function of
    the generators, so computing one twice and storing either copy is
    harmless."""

    __slots__ = ("gens", "ring", "_bases", "_bracket")

    def __init__(self, gens: Sequence[Polynomial], ring: Optional[Ring] = None):
        gens = tuple(gens)
        if not gens:
            raise UsageError("an ideal presentation needs at least one generator")
        if ring is None:
            ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise UsageError("ideal generators live in different ambient rings")
        self.gens = gens
        self.ring = ring
        self._bases: Dict[Optional[int], StandardBasis] = {}
        self._bracket: Optional[Tuple[Polynomial, "IdealPresentation"]] = None

    def local(self) -> "IdealPresentation":
        """The same presentation under the local ordering."""
        if self.ring.ordering == OrderingTag.LOCAL_NEG_DEGREVLEX:
            return self
        ring = self.ring.with_ordering(OrderingTag.LOCAL_NEG_DEGREVLEX)
        return IdealPresentation(tuple(ring.poly(dict(g.terms)) for g in self.gens), ring)

    def __eq__(self, other):
        return isinstance(other, IdealPresentation) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"IdealPresentation([{', '.join(str(g) for g in self.gens)}])"


class HypersurfaceGerm:
    """A hypersurface singularity germ at the origin: an equation f with
    f(0) = 0 in an n-variable ring; the germ has dimension n - 1.  It
    keeps its jacobian presentation, so the criteria share one."""

    __slots__ = ("f", "ring", "_jacobian")

    def __init__(self, f: Polynomial):
        if f.is_zero:
            raise UsageError("a hypersurface germ needs a nonzero equation")
        if f.constant_coeff() != 0:
            raise UsageError("the equation must vanish at the origin")
        self.f = f
        self.ring = f.ring
        self._jacobian: Optional[IdealPresentation] = None

    @property
    def dim(self) -> int:
        return self.ring.nvars - 1

    def __repr__(self):
        return f"HypersurfaceGerm({self.f!s}, p={self.ring.p})"


def jacobian_ideal(germ: HypersurfaceGerm) -> IdealPresentation:
    """The presentation (df/dx_1, ..., df/dx_n, f); its local quotient
    length at an isolated singularity is the Tjurina number.  The same
    object on every call for one germ."""
    if germ._jacobian is None:
        f = germ.f
        gens = [f.partial(i) for i in range(germ.ring.nvars)]
        gens.append(f)
        germ._jacobian = IdealPresentation(gens, germ.ring)
    return germ._jacobian


def bracket_ideal(ideal: IdealPresentation, germ: HypersurfaceGerm) -> IdealPresentation:
    """Frobenius bracket: p-th powers of the generators, plus f.

    Presents the ideal generated by the p-th powers of all elements of
    ideal/(f) inside the quotient ring: raising to the p-th power is a ring
    homomorphism in characteristic p, so generator powers suffice.
    Requires f to be a member of the presented ideal.  The same object on
    every call with one ideal and one equation.
    """
    f = germ.f
    if ideal._bracket is not None and ideal._bracket[0] == f:
        return ideal._bracket[1]
    if ideal.ring != germ.ring:
        raise UsageError("ideal and germ live in different ambient rings")
    if f not in ideal.gens and not contains(ideal, f):
        raise UsageError("bracket_ideal requires the hypersurface equation to lie in the ideal")
    gens = [g.frobenius(1) for g in ideal.gens if g != f]
    gens.append(f)
    bracket = IdealPresentation(gens, germ.ring)
    ideal._bracket = (f, bracket)
    return bracket


def _local_basis(ideal: IdealPresentation, step_cap: Optional[int]) -> StandardBasis:
    """The standard basis of ideal under the local ordering.  It is kept per
    step cap, so that a cap too small to complete the basis fails as it
    would on a fresh presentation."""
    basis = ideal._bases.get(step_cap)
    if basis is None:
        basis = ideal._bases[step_cap] = complete_basis(ideal.local().gens, step_cap)
    return basis


def local_length(ideal: IdealPresentation, step_cap: Optional[int] = None):
    """Length of (local ring at the origin)/I, counted on its standard basis:
    0 if a unit lies in I, INFINITE if the quotient has positive dimension."""
    return standard_monomial_count(_local_basis(ideal, step_cap))


def contains(ideal: IdealPresentation, g: Polynomial, step_cap: Optional[int] = None) -> bool:
    """Membership in the ideal extended to the local ring at the origin."""
    if g.ring != ideal.ring:
        raise UsageError("membership test across different ambient rings")
    if g.is_zero:
        return True
    basis = _local_basis(ideal, step_cap)
    loc = basis.ring
    g_loc = loc.poly(dict(g.terms)) if g.ring != loc else g
    return normal_form(g_loc, basis, step_cap).is_zero


def is_parameter_ideal(ideal: IdealPresentation, step_cap: Optional[int] = None) -> bool:
    """True iff the local quotient length is finite and positive, i.e. the
    ideal is primary to the maximal ideal at the origin."""
    length = local_length(ideal, step_cap)
    return length != INFINITE and length > 0
