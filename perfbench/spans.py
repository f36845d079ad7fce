"""Tracing for the benchmark's traced runs.

Each public function of a layer is wrapped at the module attribute where
its calling layer looks it up (`criteria.local_length`, not
`ideals.local_length`), so a span opens exactly where one layer hands
work to the next.  Spans nest on one stack; a span's self time is its
duration minus the time its child spans cover.  Polynomial subtraction
and term multiplication run tens of thousands of times per second, so
they are counted, not spanned.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Per-layer metrics of a traced round, name -> unit.
LAYER_METRICS = {
    "catalog.load_s": "s",
    "parse.calls": "count",
    "parse.s": "s",
    "parse.terms": "count",
    "ideals.jacobian_s": "s",
    "ideals.bracket_s": "s",
    "ideals.bracket_terms": "count",
    "ideals.queries": "count",
    "ideals.query_s": "s",
    "ideals.completions": "count",
    "ideals.completions_per_query": "ratio",
    "gbasis.complete_s": "s",
    "gbasis.basis_size": "count",
    "gbasis.basis_terms": "count",
    "gbasis.limit_hits": "count",
    "gbasis.normal_form_calls": "count",
    "gbasis.normal_form_s": "s",
    "gbasis.count_calls": "count",
    "gbasis.count_s": "s",
    "poly.sub_calls": "count",
    "poly.sub_terms": "count",
    "poly.term_mul_calls": "count",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.unstable": "count",
    "criteria.tjurina_s": "s",
    "criteria.length_formula_s": "s",
    "criteria.theta_free_s": "s",
    "criteria.invertible_summand_s": "s",
    "criteria.shape_witness_s": "s",
    "criteria.battery_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Spans kept in memory as (item, id, parent id, name, start, end),
    with self time and call count per span name and free-form counters."""

    def __init__(self):
        self.item = None
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def span(self, owner, attr, name, observe=None):
        """Replace owner.attr by a wrapper that records a span per call;
        observe(counts, result, error) runs after each call."""
        fn = getattr(owner, attr)
        stack = self._open

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans.append((self.item, frame[0], parent, name, start, end))
                if observe is not None:
                    observe(self.counts, result, error)

        setattr(owner, attr, traced)


def install(tracer: Tracer):
    """Wrap every layer boundary of rdpdescent that the workloads cross."""
    from rdpdescent import catalog, cli, criteria, ideals, parse
    from rdpdescent.errors import EngineLimitError
    from rdpdescent.poly import Polynomial

    def parsed(counts, result, error):
        if result is not None:
            counts["parse.terms"] += len(result.terms)

    def bracket(counts, result, error):
        if result is not None:
            counts["ideals.bracket_terms"] += sum(len(g.terms) for g in result.gens)

    def completed(counts, result, error):
        if result is not None:
            counts["gbasis.basis_size"] += len(result.gens)
            counts["gbasis.basis_terms"] += sum(len(g.terms) for g in result.gens)
        elif isinstance(error, EngineLimitError):
            counts["gbasis.limit_hits"] += 1

    def oracle_value(counts, result, error):
        if error is None and result is ideals.UNSTABLE:
            counts["oracle.unstable"] += 1

    tracer.span(catalog, "table_records", "catalog.load")
    for owner in (catalog, cli, parse):
        tracer.span(owner, "parse_poly", "parse", parsed)
    for owner in (criteria, cli, ideals):
        tracer.span(owner, "jacobian_ideal", "ideals.jacobian")
        tracer.span(owner, "bracket_ideal", "ideals.bracket", bracket)
    for owner, attr in ((criteria, "local_length"), (criteria, "contains"),
                        (criteria, "is_parameter_ideal"), (cli, "local_length")):
        tracer.span(owner, attr, "ideals.query")
    tracer.span(ideals, "complete_basis", "gbasis.complete", completed)
    tracer.span(ideals, "normal_form", "gbasis.normal_form")
    tracer.span(ideals, "standard_monomial_count", "gbasis.count")
    for owner in (ideals, cli):
        tracer.span(owner, "truncation_length_oracle", "oracle", oracle_value)
    for attr, name in (("tjurina_p_divisible", "tjurina"), ("length_formula", "length_formula"),
                       ("theta_free", "theta_free"), ("invertible_summand", "invertible_summand"),
                       ("shape_witness", "shape_witness")):
        tracer.span(criteria, attr, f"criteria.{name}")
    tracer.span(cli, "run_battery", "criteria.battery")
    tracer.span(cli, "main", "cli.main")

    counts = tracer.counts
    sub, term_mul = Polynomial.__sub__, Polynomial.term_mul

    def counted_sub(self, other):
        counts["poly.sub_calls"] += 1
        counts["poly.sub_terms"] += len(self.terms) + len(other.terms)
        return sub(self, other)

    def counted_term_mul(self, c, m):
        counts["poly.term_mul_calls"] += 1
        return term_mul(self, c, m)

    Polynomial.__sub__ = counted_sub
    Polynomial.term_mul = counted_term_mul


def layer_metrics(tracer: Tracer) -> dict:
    """The LAYER_METRICS values of everything traced so far."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    queries = calls["ideals.query"]
    values = {
        "catalog.load_s": s["catalog.load"],
        "parse.calls": calls["parse"],
        "parse.s": s["parse"],
        "ideals.jacobian_s": s["ideals.jacobian"],
        "ideals.bracket_s": s["ideals.bracket"],
        "ideals.queries": queries,
        "ideals.query_s": s["ideals.query"],
        "ideals.completions": calls["gbasis.complete"],
        "ideals.completions_per_query": calls["gbasis.complete"] / queries if queries else 0.0,
        "gbasis.complete_s": s["gbasis.complete"],
        "gbasis.normal_form_calls": calls["gbasis.normal_form"],
        "gbasis.normal_form_s": s["gbasis.normal_form"],
        "gbasis.count_calls": calls["gbasis.count"],
        "gbasis.count_s": s["gbasis.count"],
        "oracle.calls": calls["oracle"],
        "oracle.s": s["oracle"],
        "criteria.battery_s": s["criteria.battery"],
        "cli.self_s": s["cli.main"],
    }
    for name in ("tjurina", "length_formula", "theta_free", "invertible_summand", "shape_witness"):
        values[f"criteria.{name}_s"] = s[f"criteria.{name}"]
    for name in ("parse.terms", "ideals.bracket_terms", "gbasis.basis_size", "gbasis.basis_terms",
                 "gbasis.limit_hits", "poly.sub_calls", "poly.sub_terms", "poly.term_mul_calls",
                 "oracle.unstable"):
        values[name] = counts[name]
    return {name: values[name] for name in LAYER_METRICS}
