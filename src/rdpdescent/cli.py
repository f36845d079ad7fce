"""Command-line interface.

Subcommands:

* analyze   -- run the criterion battery on one equation.
* tables    -- recompute the E-type length/theta tables for one
               characteristic and diff them against the stored catalog.
* classify  -- verdicts for every catalog record of a characteristic,
               with the summary lists of descending classes.
* oracle    -- Groebner-engine length next to the truncation-oracle length
               for a generator list, for independent verification.

Exit codes: 0 descends/undetermined with all necessary passes, 1 blocked
(or a table/classification mismatch, or engine and oracle lengths that
disagree), 2 usage error, 3 engine limit, 141 standard output closed
before the report was written (a reader such as `head` stopped early; 141
is what a shell reports for a writer stopped by SIGPIPE).  With --json
the output is deterministic (stable key order, no wall-clock content), so
identical inputs produce byte-identical reports; timings are printed only
in text mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from . import catalog
from .criteria import (BLOCKED, DESCENDS, NOT_APPLICABLE, PASS, UNDECIDED,
                       UNDETERMINED, run_battery, theta_free)
from .errors import EngineLimitError, UsageError
from .gbasis import DEFAULT_STEP_CAP
# jacobian_ideal and bracket_ideal are not called here; they stay names of
# this module because perfbench/spans.py wraps them on every module that
# hands work to the ideal layer (pinned by tests/test_cli.py::
# test_traced_runs_find_every_name_the_benchmark_wraps).
from .ideals import (HypersurfaceGerm, IdealPresentation, bracket_ideal,  # noqa: F401
                     jacobian_ideal, length_tag, local_length)
from .oracle import DEFAULT_DEGREE_CAP, UNSTABLE, truncation_length_oracle
from .parse import ParseError, parse_poly
from .poly import OrderingTag, Ring, render

EXIT_OK = 0
EXIT_BLOCKED = 1
EXIT_USAGE = 2
EXIT_ENGINE_LIMIT = 3
EXIT_OUTPUT_CLOSED = 141


def _ring(char: int, varnames: str) -> Ring:
    names = tuple(v.strip() for v in varnames.split(",") if v.strip())
    return Ring(char, names, OrderingTag.LOCAL_NEG_DEGREVLEX)


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    ring = _ring(args.char, args.vars)
    f = parse_poly(args.poly, ring)
    germ = HypersurfaceGerm(f)
    t0 = time.monotonic()
    reports, verdict = run_battery(germ, short_circuit=args.short_circuit,
                                   step_cap=args.step_cap)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    payload = {
        "input": {"char": args.char, "vars": list(ring.names), "poly": render(f)},
        "criteria": [{"id": r.id, "status": r.status, "witness": r.witness} for r in reports],
        "verdict": {"outcome": verdict.outcome, "reasons": [r.id for r in verdict.reasons]},
        "timings_ms": {},
    }
    if args.json:
        sys.stdout.write(_emit_json(payload))
    else:
        print(f"equation: {render(f)}   (p = {args.char}, vars = {','.join(ring.names)})")
        for r in reports:
            print(f"  {r.id:<22} {r.status:<15} {r.witness}")
        print(f"verdict: {verdict.outcome}"
              + (f"  [{', '.join(r.id for r in verdict.reasons)}]" if verdict.reasons else ""))
        print(f"elapsed: {elapsed_ms:.1f} ms")
    if any(r.status == UNDECIDED for r in reports):
        _stderr_note({"error": "engine limit", "verdict": verdict.outcome})
        return EXIT_ENGINE_LIMIT
    if verdict.outcome == BLOCKED:
        _stderr_note({"verdict": BLOCKED, "reasons": [r.id for r in verdict.reasons]})
        return EXIT_BLOCKED
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _recompute_row(rec, step_cap: Optional[int]) -> dict:
    report = theta_free(rec.germ(), step_cap)
    lj, ljp = report.witness["len_jacobian"], report.witness["len_bracket"]
    theta = None if report.status == NOT_APPLICABLE else report.status == PASS
    return {
        "label": rec.label, "equation": rec.equation, "pi1": rec.pi1,
        "len_j": lj, "len_jp": ljp, "theta_free": theta,
        "stored_len_j": rec.ref_len_j, "stored_len_jp": rec.ref_len_jp,
        "stored_theta_free": rec.ref_theta_free,
        "match": (lj == rec.ref_len_j and ljp == rec.ref_len_jp
                  and theta == rec.ref_theta_free),
    }


def cmd_tables(args) -> int:
    tabled = catalog.table_records()
    records = [rec for rec in tabled if rec.char == args.char]
    if not records:
        chars = ", ".join(str(c) for c in sorted({rec.char for rec in tabled}))
        raise UsageError(f"tables exist for characteristics {chars}; got {args.char}")
    rows = [rec for rec in records if rec.n <= args.max_n]
    if not rows:
        smallest = min(rec.n for rec in records)
        raise UsageError(f"--max-n must be at least {smallest}, the smallest E-type index; got {args.max_n}")
    computed = [_recompute_row(rec, args.step_cap) for rec in rows]
    all_match = all(row["match"] for row in computed)
    if args.json:
        sys.stdout.write(_emit_json({"char": args.char, "rows": computed, "all_match": all_match}))
    else:
        yn = {True: "yes", False: "no", None: "-"}
        print(f"E-type rational double points, characteristic {args.char}")
        header = (f"{'class':<7} {'equation':<28} {'pi1':<9} "
                  f"{'computed':<14} {'stored':<14} {'theta':<7} match")
        print(header)
        print("-" * len(header))
        for row in computed:
            comp = f"{row['len_j']},{row['len_jp']}"
            stor = f"{row['stored_len_j']},{row['stored_len_jp']}"
            theta = f"{yn[row['theta_free']]}/{yn[row['stored_theta_free']]}"
            print(f"{row['label']:<7} {row['equation']:<28} {row['pi1'] or '-':<9} "
                  f"{comp:<14} {stor:<14} {theta:<7} {'ok' if row['match'] else 'MISMATCH'}")
        print("all rows match" if all_match else "MISMATCHES FOUND")
    if not all_match:
        _stderr_note({"error": "table mismatch", "char": args.char})
        return EXIT_BLOCKED
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    records = catalog.all_records(args.char, args.max_n)
    rows = []
    notes = []
    engine_limited = False
    for rec in records:
        row = {"label": rec.label, "equation": rec.equation,
               "stored_verdict": rec.known_verdict}
        try:
            reports, verdict = run_battery(rec.germ(), record=rec,
                                           short_circuit=args.short_circuit,
                                           step_cap=args.step_cap)
        except EngineLimitError as exc:
            # A limit in a criterion the battery cannot do without (TJURINA,
            # LENGTH_FORMULA) costs this row its verdict, not the run.
            engine_limited = True
            row.update(verdict=UNDETERMINED, reasons=[], match=False,
                       engine_limit=str(exc))
        else:
            engine_limited |= any(r.status == UNDECIDED for r in reports)
            row.update(verdict=verdict.outcome,
                       reasons=[r.id for r in verdict.reasons],
                       match=verdict.outcome == rec.known_verdict)
        rows.append(row)
        if rec.note:
            notes.append({"label": rec.label, "note": rec.note})
    descending = [row["label"] for row in rows if row["verdict"] == DESCENDS]
    all_match = all(row["match"] for row in rows)
    payload = {"char": args.char, "max_n": args.max_n, "rows": rows,
               "descending": descending, "notes": notes, "all_match": all_match}
    if args.json:
        sys.stdout.write(_emit_json(payload))
    else:
        print(f"classification, characteristic {args.char}, families up to n = {args.max_n}")
        for row in rows:
            if "engine_limit" in row:
                flag = f"   <-- {row['engine_limit']}"
            else:
                flag = "" if row["match"] else "   <-- disagrees with stored verdict"
            reasons = f"  [{', '.join(row['reasons'])}]" if row["reasons"] else ""
            print(f"  {row['label']:<8} {row['verdict']:<12}{reasons}{flag}")
        print(f"descending classes: {', '.join(descending) if descending else 'none'}")
        for note in notes:
            print(f"note ({note['label']}): {note['note']}")
        print("all verdicts match the stored classification" if all_match
              else "VERDICT MISMATCHES FOUND")
    if engine_limited:
        _stderr_note({"error": "engine limit during classification"})
        return EXIT_ENGINE_LIMIT
    if not all_match:
        _stderr_note({"error": "classification mismatch", "char": args.char})
        return EXIT_BLOCKED
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _parse_gens(text: str, ring: Ring) -> list:
    """The comma-separated generators of text; a parse error's position is
    an offset into the whole text, not into the one generator."""
    gens, start = [], 0
    for src in text.split(","):
        try:
            gens.append(parse_poly(src, ring))
        except ParseError as exc:
            raise ParseError(start + exc.position, exc.message) from None
        start += len(src) + 1
    return gens


def cmd_oracle(args) -> int:
    ring = _ring(args.char, args.vars)
    gens = _parse_gens(args.gens, ring)
    ideal = IdealPresentation(gens, ring)
    # The oracle first: it owns the --degree-cap check, so a bad cap costs no completion.
    oracle = truncation_length_oracle(ideal, args.degree_cap)
    engine = local_length(ideal, args.step_cap)
    agree = engine == oracle if oracle is not UNSTABLE else None
    payload = {
        "input": {"char": args.char, "vars": list(ring.names),
                  "gens": [render(g) for g in gens]},
        "engine_length": length_tag(engine),
        "oracle_length": length_tag(oracle),
        "degree_cap": args.degree_cap,
        "agree": agree,
    }
    if args.json:
        sys.stdout.write(_emit_json(payload))
    else:
        print(f"generators: {', '.join(render(g) for g in gens)}  (p = {args.char})")
        print(f"engine length: {length_tag(engine)}")
        oracle_str = length_tag(oracle)
        if oracle is UNSTABLE:
            oracle_str = f"UNSTABLE (no stabilization below degree cap {args.degree_cap})"
        print(f"oracle length: {oracle_str}")
        if agree is not None:
            print("lengths agree" if agree else "LENGTHS DISAGREE")
    if agree is False:
        _stderr_note({"error": "engine and oracle disagree"})
        return EXIT_BLOCKED
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _stderr_note(payload: dict):
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _drop_stdout():
    """Point a closed standard output at /dev/null, so that the flush at
    interpreter exit does not fail again on what is still buffered."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file descriptor, e.g. a capturing stream
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _add_common(sub):
    sub.add_argument("--char", type=int, required=True, help="prime characteristic")
    sub.add_argument("--json", action="store_true", help="deterministic JSON output")
    sub.add_argument("--step-cap", type=int, default=None,
                     help=f"engine reduction work budget, a positive integer "
                          f"(default {DEFAULT_STEP_CAP:,} units)")


def _add_vars(sub):
    sub.add_argument("--vars", default="x,y,z", help="comma-separated variable names (default x,y,z)")


class _Parser(argparse.ArgumentParser):
    """error() raises UsageError, so a bad command line ends in the one-line
    JSON note instead of usage text; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rdpdescent",
        description="Exact descent criteria for hypersurface singularities over prime fields.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="run the criterion battery on one equation")
    _add_common(p_analyze)
    _add_vars(p_analyze)
    p_analyze.add_argument("--poly", required=True, help="equation in the expression grammar")
    p_analyze.add_argument("--short-circuit", action="store_true",
                           help="stop at the first failing criterion")
    p_analyze.set_defaults(func=cmd_analyze)

    p_tables = subs.add_parser("tables", help="recompute the E-type tables and diff against the catalog")
    _add_common(p_tables)
    p_tables.add_argument("--max-n", type=int, default=12,
                          help="restrict to rows with index n at most this (default 12)")
    p_tables.set_defaults(func=cmd_tables)

    p_classify = subs.add_parser("classify", help="verdicts for every catalog record")
    _add_common(p_classify)
    p_classify.add_argument("--max-n", type=int, default=12,
                            help="enumerate A_n/D_n families up to this index (default 12)")
    p_classify.add_argument("--short-circuit", action="store_true",
                            help="stop each record at the first failing criterion")
    p_classify.set_defaults(func=cmd_classify)

    p_oracle = subs.add_parser("oracle", help="engine length vs truncation-oracle length")
    _add_common(p_oracle)
    _add_vars(p_oracle)
    p_oracle.add_argument("--gens", required=True,
                          help="comma-separated generator list in the expression grammar")
    p_oracle.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP,
                          help=f"oracle truncation degree cap (default {DEFAULT_DEGREE_CAP})")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


# Built once: each parser costs a millisecond and leaves cyclic garbage.
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
    except BrokenPipeError:
        _drop_stdout()
        _stderr_note({"error": "output closed",
                      "message": "standard output was closed before the report was complete"})
        return EXIT_OUTPUT_CLOSED
    return code


def _run(argv: Optional[List[str]]) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.step_cap is not None and args.step_cap < 1:
            raise UsageError(f"--step-cap must be a positive integer, got {args.step_cap}")
        return args.func(args)
    except SystemExit:  # the parser exits only after printing --help
        return EXIT_OK
    except ParseError as exc:
        _stderr_note({"error": "parse error", "position": exc.position, "message": exc.message})
        return EXIT_USAGE
    except UsageError as exc:
        _stderr_note({"error": "usage error", "message": str(exc)})
        return EXIT_USAGE
    except EngineLimitError as exc:
        _stderr_note({"error": "engine limit", "message": str(exc)})
        return EXIT_ENGINE_LIMIT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
