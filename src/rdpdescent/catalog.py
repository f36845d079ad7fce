"""Machine-readable catalog of rational double points in characteristic
p = 2, 3, 5: Artin's equations, local fundamental group descriptors, local
Picard group orders, reference lengths, and the known descent verdicts.

The exceptional (E-type) rows ship as a human-auditable data file; the
A_n and D_n families are generated from their uniform equations:

    A_n          z^(n+1) - x*y                      (every characteristic)
    D_2m^r       z^2 + x^2*y + x*y^m [+ x*y^(m-r)*z]     (characteristic 2)
    D_(2m+1)^r   z^2 + x^2*y + y^m*z [+ x*y^(m-r)*z]     (characteristic 2)
    D_n          z^2 + x^2*y + y^(n-1)              (characteristic >= 3)

The co-index r exists only in characteristic 2 for D-types and only in
characteristics 2, 3, 5 for E-types; for p >= 7 every Dynkin diagram names
a single class.  Note that the D_2m^0 equation is contact equivalent to
the r = 0 member of the D_2m^r family; the catalog stores the short form.
"""

from __future__ import annotations

import importlib.resources as resources
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple

from .criteria import PASS, an_p_power
from .errors import UsageError
from .ideals import HypersurfaceGerm
from .parse import parse_poly
from .poly import OrderingTag, Ring, render

#: Local Picard group orders by Dynkin type (D/E), with A_n mapping to n+1.
PIC_ORDER = {"D": 4, "E6": 3, "E7": 2, "E8": 1}

E6_0_CHAR2_NOTE = (
    "E_6^0 in characteristic 2: the catalog follows the case analysis, which "
    "blocks E_6^0 through its nontrivial local fundamental group pi_1 = C_3 "
    "(its equation z^2+x^3+y^2*z also fails the q-th power shape test), but "
    "the introductory classification statement lists E_n^0 for n = 6, 7, 8 "
    "as descending.  The discrepancy is surfaced, not silently resolved."
)

_CATALOG_CHARS = (2, 3, 5)


def pic_order_for(dynkin: str, n: int) -> int:
    """The local Picard group order of A_n (n >= 1), D_n (n >= 4), E_6, E_7 and E_8."""
    if dynkin == "A" and n >= 1:
        return n + 1
    if dynkin == "D" and n >= 4:
        return PIC_ORDER["D"]
    if dynkin == "E" and f"E{n}" in PIC_ORDER:
        return PIC_ORDER[f"E{n}"]
    raise UsageError(f"no rational double point of type {dynkin!r} with n = {n}")


@dataclass(frozen=True)
class SingularityRecord:
    """One catalog row.  Absent fields are None; pi1 is a group name with
    "0" for the trivial group; verdict is DESCENDS or BLOCKED together with
    a one-line citation of the classification fact behind it."""

    dynkin: str
    n: int
    r: Optional[int]
    char: int
    equation: str
    pi1: Optional[str]
    pic_order: int
    ref_len_j: Optional[int]
    ref_len_jp: Optional[int]
    ref_theta_free: Optional[bool]
    known_verdict: str
    citation: str
    note: Optional[str] = None

    @property
    def label(self) -> str:
        if self.r is None:
            return f"{self.dynkin}_{self.n}"
        return f"{self.dynkin}_{self.n}^{self.r}"

    def ring(self) -> Ring:
        return Ring(self.char, ("x", "y", "z"), OrderingTag.LOCAL_NEG_DEGREVLEX)

    def germ(self) -> HypersurfaceGerm:
        return HypersurfaceGerm(parse_poly(self.equation, self.ring()))


def _parse_line(line: str) -> SingularityRecord:
    fields = line.split(";", 11)
    if len(fields) != 12:
        raise UsageError(f"malformed catalog line: {line!r}")
    dynkin, n_s, r_s, p_s, equation, pi1, pic_s, lj_s, ljp_s, theta_s, verdict, citation = fields

    def opt_int(s):
        return None if s == "-" else int(s)

    theta = None if theta_s == "-" else theta_s == "yes"
    rec = SingularityRecord(
        dynkin=dynkin,
        n=int(n_s),
        r=opt_int(r_s),
        char=int(p_s),
        equation=equation,
        pi1=None if pi1 == "-" else pi1,
        pic_order=int(pic_s),
        ref_len_j=opt_int(lj_s),
        ref_len_jp=opt_int(ljp_s),
        ref_theta_free=theta,
        known_verdict=verdict,
        citation=citation,
    )
    if rec.dynkin == "E" and rec.n == 6 and rec.r == 0 and rec.char == 2:
        rec = replace(rec, note=E6_0_CHAR2_NOTE)
    return rec


def _validate(rec: SingularityRecord):
    if rec.known_verdict not in ("DESCENDS", "BLOCKED"):
        raise UsageError(f"{rec.label}: bad verdict {rec.known_verdict!r}")
    # Equations are stored exactly as printed in the tables, which is not
    # always the canonical term order; the parser round trip must hold.
    f = parse_poly(rec.equation, rec.ring())
    if parse_poly(render(f), rec.ring()) != f:
        raise UsageError(f"{rec.label}: equation does not round-trip through the parser")
    if f.constant_coeff() != 0 or f.order() < 2:
        raise UsageError(f"{rec.label}: equation must vanish at the origin with zero linear part")
    if rec.pic_order != pic_order_for(rec.dynkin, rec.n):
        raise UsageError(f"{rec.label}: stored Picard order {rec.pic_order} disagrees "
                         f"with the classification value {pic_order_for(rec.dynkin, rec.n)}")
    if any(length is not None and length <= 0 for length in (rec.ref_len_j, rec.ref_len_jp)):
        raise UsageError(f"{rec.label}: stored lengths must be positive")


@lru_cache(maxsize=1)
def table_records() -> Tuple[SingularityRecord, ...]:
    """The shipped E-type rows, loaded and validated once."""
    text = resources.files("rdpdescent").joinpath("data/rdp_catalog.txt").read_text()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rec = _parse_line(line)
        _validate(rec)
        records.append(rec)
    return tuple(records)


def _an_record(n: int, char: int) -> SingularityRecord:
    equation = f"z^{n + 1}-x*y"
    descends = an_p_power(n, char).status == PASS
    return SingularityRecord(
        dynkin="A", n=n, r=None, char=char, equation=equation,
        pi1=None, pic_order=pic_order_for("A", n),
        ref_len_j=None, ref_len_jp=None, ref_theta_free=None,
        known_verdict="DESCENDS" if descends else "BLOCKED",
        citation=("descends: n+1 is a p-power (q-th power shape)" if descends
                  else "blocked: class group of order n+1 has prime-to-p torsion"),
    )


def _dn_record(n: int, r: Optional[int], char: int) -> SingularityRecord:
    if n < 4:
        raise UsageError(f"D_n needs n >= 4, got {n}")
    m = n // 2
    if char == 2:
        if r is None or not 0 <= r <= m - 1:
            raise UsageError(f"D_{n}^r in characteristic 2 needs 0 <= r <= {m - 1}, got {r}")
        equation = f"z^2+x^2*y+x*y^{m}" if n % 2 == 0 else f"z^2+x^2*y+y^{m}*z"
        if r > 0:
            equation += f"+x*y^{m - r}*z" if m - r > 1 else "+x*y*z"
        verdict = "DESCENDS" if r == 0 else "BLOCKED"
        citation = ("descends: the D_n^0 classes descend (q-th power shape for even n, "
                    "explicit coordinate change for odd n)" if r == 0
                    else "blocked: no invertible summand in the cotangent stalk for r >= 1")
    else:
        if r is not None:
            raise UsageError(f"D_n carries no co-index in characteristic {char}")
        equation = f"z^2+x^2*y+y^{n - 1}"
        verdict = "BLOCKED"
        citation = "blocked: class group torsion of order 4 is not a p-group for p >= 3"
    return SingularityRecord(
        dynkin="D", n=n, r=r, char=char, equation=equation,
        pi1=None, pic_order=pic_order_for("D", n),
        ref_len_j=None, ref_len_jp=None, ref_theta_free=None,
        known_verdict=verdict, citation=citation,
    )


def instantiate(dynkin: str, n: int, r: Optional[int], char: int) -> SingularityRecord:
    """Concrete catalog record for the named class; raises UsageError with
    the valid range when the parameters do not exist for that characteristic."""
    if char not in _CATALOG_CHARS and dynkin != "A":
        raise UsageError(f"co-indexed catalog types exist only for p in {_CATALOG_CHARS}")
    if dynkin == "A":
        if r is not None:
            raise UsageError("A_n carries no co-index")
        return _an_record(n, char)
    if dynkin == "D":
        return _dn_record(n, r, char)
    if dynkin == "E":
        for rec in table_records():
            if rec.char == char and rec.n == n and rec.r == r:
                return rec
        valid = sorted((rec.n, rec.r) for rec in table_records() if rec.char == char)
        raise UsageError(f"no E_{n}^{r} in characteristic {char}; valid (n, r): {valid}")
    raise UsageError(f"unknown Dynkin type {dynkin!r} (expected A, D or E)")


def all_records(char: int, max_n: int = 12) -> List[SingularityRecord]:
    """Every catalog row for the characteristic: the full E list plus the
    A and D families enumerated up to max_n."""
    if char not in _CATALOG_CHARS:
        raise UsageError(f"catalog covers characteristics {_CATALOG_CHARS}, got {char}")
    if max_n < 1:
        raise UsageError("max_n must be positive")
    records = [_an_record(n, char) for n in range(1, max_n + 1)]
    for n in range(4, max_n + 1):
        if char == 2:
            for r in range(n // 2):
                records.append(_dn_record(n, r, char))
        else:
            records.append(_dn_record(n, None, char))
    records.extend(rec for rec in table_records() if rec.char == char)
    return records
