"""Executable descent criteria for hypersurface singularities, and the
aggregated verdict.

The necessary criteria (a singularity violating one cannot descend to a
regular scheme along a purely inseparable field extension):

* TJURINA_P_DIVISIBLE -- p divides the Tjurina number.
* LENGTH_FORMULA      -- l(O/J^[p]) = p^d * l(O/J) for the jacobian ideal J.
* THETA_FREE          -- the tangent sheaf stalk is free; for a normal
  surface hypersurface this is *equivalent* to the length formula, which
  is how it is evaluated here.
* INVERTIBLE_SUMMAND  -- after some permutation of the three variables,
  (f_u, f_v, f) is a parameter ideal of the local ring and contains f_w.
* PI1_TRIVIAL         -- the local fundamental group is trivial (consumed
  as catalog data, never computed from the equation).
* PIC_TORSION_P_GROUP -- the local class group torsion is a p-group
  (catalog data).
* AN_P_POWER          -- for A_n only: n + 1 is a power of p.

SHAPE_WITNESS is the one *sufficient* criterion: f = v0^q + g with q a
power of p and g a v0-free polynomial with neither constant nor linear
terms; such an equation visibly descends.

A verdict is BLOCKED as soon as a necessary criterion fails, DESCENDS only
on a sufficient certificate or a recorded classification fact, and
UNDETERMINED otherwise.  Contradictory evidence raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, EngineLimitError, UsageError
from .gbasis import INFINITE
from .ideals import (HypersurfaceGerm, IdealPresentation, bracket_ideal,
                     contains, is_parameter_ideal, jacobian_ideal,
                     length_tag, local_length)
from .poly import mono_deg

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"
UNDECIDED = "UNDECIDED"

TJURINA_P_DIVISIBLE = "TJURINA_P_DIVISIBLE"
LENGTH_FORMULA = "LENGTH_FORMULA"
THETA_FREE = "THETA_FREE"
INVERTIBLE_SUMMAND = "INVERTIBLE_SUMMAND"
PI1_TRIVIAL = "PI1_TRIVIAL"
PIC_TORSION_P_GROUP = "PIC_TORSION_P_GROUP"
AN_P_POWER = "AN_P_POWER"
SHAPE_WITNESS = "SHAPE_WITNESS"

#: Evaluation order: cheap catalog lookups first, then the engine-backed tests.
CRITERION_ORDER = (AN_P_POWER, PIC_TORSION_P_GROUP, PI1_TRIVIAL,
                   TJURINA_P_DIVISIBLE, LENGTH_FORMULA, THETA_FREE,
                   INVERTIBLE_SUMMAND, SHAPE_WITNESS)

NECESSARY = frozenset(CRITERION_ORDER) - {SHAPE_WITNESS}

DESCENDS = "DESCENDS"
BLOCKED = "BLOCKED"
UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class CriterionReport:
    id: str
    status: str
    witness: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status == FAIL and not self.witness:
            raise ConsistencyError(f"{self.id}: FAIL reports must carry a witness")


@dataclass(frozen=True)
class Verdict:
    outcome: str
    reasons: Tuple[CriterionReport, ...]


def tjurina_p_divisible(germ: HypersurfaceGerm, step_cap: Optional[int] = None) -> CriterionReport:
    """p divides the local length of the jacobian quotient."""
    p = germ.ring.p
    tj = local_length(jacobian_ideal(germ), step_cap)
    if tj == INFINITE:
        return CriterionReport(TJURINA_P_DIVISIBLE, NOT_APPLICABLE,
                               {"tjurina": "INFINITE", "detail": "singular locus not isolated at the origin"})
    status = PASS if tj % p == 0 else FAIL
    return CriterionReport(TJURINA_P_DIVISIBLE, status, {"tjurina": tj, "char": p})


def length_formula(germ: HypersurfaceGerm, step_cap: Optional[int] = None) -> CriterionReport:
    """l(O/J^[p]) = p^d * l(O/J) with d the dimension of the germ."""
    p = germ.ring.p
    jac = jacobian_ideal(germ)
    lj = local_length(jac, step_cap)
    if lj == INFINITE:
        return CriterionReport(LENGTH_FORMULA, NOT_APPLICABLE,
                               {"len_jacobian": "INFINITE"})
    ljp = local_length(bracket_ideal(jac, germ), step_cap)
    expected = p ** germ.dim * lj
    status = PASS if ljp == expected else FAIL
    return CriterionReport(LENGTH_FORMULA, status,
                           {"len_jacobian": lj, "len_bracket": length_tag(ljp), "expected": expected})


def theta_free(germ: HypersurfaceGerm, step_cap: Optional[int] = None) -> CriterionReport:
    """Freeness of the tangent sheaf stalk, evaluated through its
    equivalence with the length formula (normal surface hypersurface)."""
    if germ.ring.nvars != 3:
        return CriterionReport(THETA_FREE, NOT_APPLICABLE,
                               {"detail": "stated for surface hypersurfaces in three variables"})
    inner = length_formula(germ, step_cap)
    witness = dict(inner.witness)
    witness["via"] = "length formula equivalence"
    return CriterionReport(THETA_FREE, inner.status, witness)


def invertible_summand(germ: HypersurfaceGerm, step_cap: Optional[int] = None) -> CriterionReport:
    """Search the three variable permutations for one where the two partial
    derivatives of the kept variables, together with f, form a parameter
    ideal containing the omitted partial derivative.  PASS if any does;
    else UNDECIDED if one hit the engine limit, FAIL otherwise."""
    ring = germ.ring
    if ring.nvars != 3:
        return CriterionReport(INVERTIBLE_SUMMAND, NOT_APPLICABLE,
                               {"detail": "stated for surface hypersurfaces in three variables"})
    jac = jacobian_ideal(germ)
    if local_length(jac, step_cap) == INFINITE:
        return CriterionReport(INVERTIBLE_SUMMAND, NOT_APPLICABLE,
                               {"detail": "singular locus not isolated at the origin"})
    *partials, f = jac.gens
    failures = {}
    limit = None
    for w in range(3):
        kept = [i for i in range(3) if i != w]
        ideal = IdealPresentation([partials[kept[0]], partials[kept[1]], f], ring)
        try:
            if not is_parameter_ideal(ideal, step_cap):
                failures[ring.names[w]] = "not a parameter ideal"
            elif not contains(ideal, partials[w], step_cap):
                failures[ring.names[w]] = "omitted partial not a member"
            else:
                return CriterionReport(
                    INVERTIBLE_SUMMAND, PASS,
                    {"omitted": ring.names[w], "kept": [ring.names[k] for k in kept],
                     "parameter_length": local_length(ideal, step_cap)})
        except EngineLimitError as exc:
            # The message, not the exception: its traceback holds this frame.
            limit = limit or str(exc)
    if limit is not None:
        return CriterionReport(INVERTIBLE_SUMMAND, UNDECIDED, {"detail": limit})
    return CriterionReport(INVERTIBLE_SUMMAND, FAIL, {"failures": failures})


def _split_p_part(m: int, p: int) -> Tuple[int, int]:
    """(e, r) with m = p^e * r and r prime to p, for m >= 1."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e, m


def an_p_power(n: int, char: int) -> CriterionReport:
    """A_n descends exactly when n + 1 = p^e with e >= 1."""
    if n < 1:
        raise UsageError(f"A_n needs n >= 1, got {n}")
    e, rest = _split_p_part(n + 1, char)
    if rest == 1 and e >= 1:
        return CriterionReport(AN_P_POWER, PASS, {"n": n, "q": char ** e})
    return CriterionReport(AN_P_POWER, FAIL, {"n": n, "detail": f"{n + 1} is not a power of {char}"})


def pic_torsion_p_group(pic_order: int, char: int) -> CriterionReport:
    """The local class group torsion must be a p-group; the trivial group
    (order 1) passes."""
    if pic_order < 1:
        raise UsageError(f"group order must be positive, got {pic_order}")
    if _split_p_part(pic_order, char)[1] == 1:
        return CriterionReport(PIC_TORSION_P_GROUP, PASS, {"order": pic_order})
    return CriterionReport(PIC_TORSION_P_GROUP, FAIL,
                           {"order": pic_order, "detail": f"order {pic_order} has prime-to-{char} torsion"})


def pi1_trivial(pi1_descriptor: Optional[str]) -> CriterionReport:
    """Triviality of the stored local fundamental group; NOT_APPLICABLE when
    no descriptor is available (user equations are never sent to etale
    topology)."""
    if pi1_descriptor is None:
        return CriterionReport(PI1_TRIVIAL, NOT_APPLICABLE, {"detail": "no group descriptor available"})
    if pi1_descriptor == "0":
        return CriterionReport(PI1_TRIVIAL, PASS, {"group": "0"})
    return CriterionReport(PI1_TRIVIAL, FAIL, {"group": pi1_descriptor})


def shape_witness(germ: HypersurfaceGerm) -> CriterionReport:
    """Sufficient certificate: f = v0^q + g, q = p^e with e >= 1, where g
    does not involve v0 and has neither constant nor linear terms."""
    ring = germ.ring
    monos = [m for m, _ in germ.f.terms]
    for v0 in range(ring.nvars):
        involved = [m for m in monos if m[v0]]  # v0^q alone, if f has the shape
        q = involved[0][v0] if len(involved) == 1 else 0
        if (q > 1 and mono_deg(involved[0]) == q and _split_p_part(q, ring.p)[1] == 1
                and all(mono_deg(m) >= 2 for m in monos if not m[v0])):
            return CriterionReport(SHAPE_WITNESS, PASS, {"variable": ring.names[v0], "q": q})
    return CriterionReport(SHAPE_WITNESS, FAIL,
                           {"detail": "no variable splits off as a q-th power"})


def aggregate_verdict(reports: Sequence[CriterionReport],
                      catalog_fact: Optional[str] = None) -> Verdict:
    """Combine criterion reports into DESCENDS / BLOCKED / UNDETERMINED.

    Necessary criteria can only block; DESCENDS needs the shape witness or
    a recorded catalog fact.  Contradictions raise ConsistencyError rather
    than silently picking a side.
    """
    if catalog_fact not in (None, DESCENDS, BLOCKED):
        raise UsageError(f"catalog_fact must be DESCENDS/BLOCKED/None, got {catalog_fact!r}")
    failing = tuple(r for r in reports if r.id in NECESSARY and r.status == FAIL)
    undecided = tuple(r for r in reports if r.status == UNDECIDED)
    shape_pass = any(r.id == SHAPE_WITNESS and r.status == PASS for r in reports)
    descent_evidence = shape_pass or catalog_fact == DESCENDS
    if failing and descent_evidence:
        raise ConsistencyError(
            "descent certificate contradicts failing necessary criteria: "
            + ", ".join(r.id for r in failing))
    if failing:
        return Verdict(BLOCKED, failing)
    if descent_evidence:
        reasons = tuple(r for r in reports if r.id == SHAPE_WITNESS and r.status == PASS)
        return Verdict(DESCENDS, reasons)
    return Verdict(UNDETERMINED, undecided)


def run_battery(germ: HypersurfaceGerm, record=None, short_circuit: bool = False,
                step_cap: Optional[int] = None) -> Tuple[List[CriterionReport], Verdict]:
    """Evaluate every criterion for a germ in CRITERION_ORDER, cheap ones first.

    record, when given, is a catalog SingularityRecord supplying the group
    theory (pi1, Picard order, A_n index) and the known verdict; without
    it the group-theoretic criteria report NOT_APPLICABLE.
    """
    # Criterion id -> a thunk, or the detail of a NOT_APPLICABLE report.
    # The thunks look the criteria up as module globals when they run.
    if record is None:
        group_checks = dict.fromkeys((AN_P_POWER, PIC_TORSION_P_GROUP, PI1_TRIVIAL), "catalog records only")
    else:
        group_checks = {
            AN_P_POWER: (lambda: an_p_power(record.n, record.char)) if record.dynkin == "A" else "A_n only",
            PIC_TORSION_P_GROUP: lambda: pic_torsion_p_group(record.pic_order, record.char),
            PI1_TRIVIAL: lambda: pi1_trivial(record.pi1),
        }
    surface = germ.ring.nvars == 3
    checks = {
        **group_checks,
        TJURINA_P_DIVISIBLE: lambda: tjurina_p_divisible(germ, step_cap),
        LENGTH_FORMULA: lambda: length_formula(germ, step_cap),
        THETA_FREE: (lambda: theta_free(germ, step_cap)) if surface else "three variables only",
        INVERTIBLE_SUMMAND: ((lambda: invertible_summand(germ, step_cap)) if surface
                             else "three variables only"),
        SHAPE_WITNESS: lambda: shape_witness(germ),
    }
    reports: List[CriterionReport] = []
    for cid in CRITERION_ORDER:
        check = checks[cid]
        report = check() if callable(check) else CriterionReport(cid, NOT_APPLICABLE, {"detail": check})
        reports.append(report)
        if short_circuit and report.status == FAIL:
            break
    catalog_fact = None if record is None else record.known_verdict
    return reports, aggregate_verdict(reports, catalog_fact)
