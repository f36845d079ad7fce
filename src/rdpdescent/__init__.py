"""Exact computer algebra for descent of hypersurface singularities over
prime fields: Groebner and standard bases over F_p, Frobenius bracket
ideals, Artinian quotient lengths, and the rational double point
classification tables."""

from .catalog import (SingularityRecord, all_records, instantiate,
                      pic_order_for, table_records)
from .criteria import (BLOCKED, DESCENDS, FAIL, NOT_APPLICABLE, PASS,
                       UNDECIDED, UNDETERMINED, CriterionReport, Verdict,
                       aggregate_verdict, an_p_power, invertible_summand,
                       length_formula, pi1_trivial, pic_torsion_p_group,
                       run_battery, shape_witness, theta_free,
                       tjurina_p_divisible)
from .errors import ConsistencyError, EngineLimitError, UsageError
from .gbasis import (INFINITE, StandardBasis, complete_basis,
                     is_dimension_zero, leading_ideal, normal_form, spoly,
                     standard_monomial_count, s_pairs_reduce_to_zero)
from .ideals import (UNSTABLE, HypersurfaceGerm, IdealPresentation,
                     bracket_ideal, contains, is_parameter_ideal,
                     jacobian_ideal, local_length, truncation_contains,
                     truncation_length_oracle)
from .parse import ParseError, parse_poly
from .poly import Mono, OrderingTag, Polynomial, Ring, render

__version__ = "0.1.0"

__all__ = [
    "BLOCKED", "ConsistencyError", "CriterionReport", "DESCENDS",
    "EngineLimitError", "FAIL", "HypersurfaceGerm",
    "IdealPresentation", "INFINITE", "Mono", "NOT_APPLICABLE",
    "OrderingTag", "ParseError", "PASS", "Polynomial", "Ring",
    "SingularityRecord", "StandardBasis", "UNDECIDED", "UNDETERMINED",
    "UNSTABLE", "UsageError", "Verdict", "aggregate_verdict", "all_records",
    "an_p_power", "bracket_ideal", "complete_basis", "contains",
    "instantiate", "invertible_summand", "is_dimension_zero",
    "is_parameter_ideal", "jacobian_ideal", "leading_ideal",
    "length_formula", "local_length", "normal_form", "parse_poly",
    "pi1_trivial", "pic_torsion_p_group", "pic_order_for", "render",
    "run_battery", "s_pairs_reduce_to_zero", "shape_witness", "spoly",
    "standard_monomial_count", "table_records", "theta_free",
    "tjurina_p_divisible", "truncation_contains", "truncation_length_oracle",
]
