"""Mutation harness for the one-line rules whose proofs are in the `gbasis`
module docstring.

Each mutant replaces one source line by another and names the test that
must kill it.  The harness applies each mutant to a fresh copy of the tree
in a temporary directory, runs the named test there and reports KILLED
when it fails.  When it passes, the whole suite is run against the mutant,
and the harness reports SURVIVED, or SURVIVED its test but killed by the
suite.  A mutant that cannot change an answer is listed with the reason
instead of a test; the harness runs the whole suite against it and
reports EQUIVALENT when the suite passes.

    python3 tools/mutants.py

First the named tests are run on an unmutated copy, and they must pass.
The exit code is 1 when they do not, when a mutant survives, an equivalent
one fails the suite, or a mutant no longer applies (its old line is gone
or not unique), and 0 otherwise.  The working tree is never modified.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
GBASIS = "src/rdpdescent/gbasis.py"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    test: Optional[str]  # the killing test, as pytest names it
    equivalent: str = ""  # why it cannot change an answer, when there is no test


MUTANTS = [
    Mutant("product_criterion_last_tail", GBASIS,
           "    return gk[0] + fk[1] != fk[0] + gk[1]",
           "    return gk[0] + fk[-1] != fk[0] + gk[-1]",
           "tests/test_gbasis.py::test_product_criterion_reads_the_leading_tail_terms"),
    Mutant("product_criterion_always", GBASIS,
           "    return gk[0] + fk[1] != fk[0] + gk[1]",
           "    return True",
           "tests/test_gbasis.py::test_product_criterion_reduces_a_pair_whose_tail_products_coincide"),
    Mutant("product_criterion_uncut_tails", GBASIS,
           "    if any(len(k) == 1 or corner is not None and f.ring.deg(k[1]) >= corner for k in (fk, gk)):",
           "    if any(len(k) == 1 for k in (fk, gk)):",
           "tests/test_gbasis.py::test_product_criterion_reads_tails_modulo_the_corner"),
    Mutant("kept_below_one_degree_high", GBASIS,
           "    return bisect.bisect_left(keys, bound << ring.shift, key=operator.neg)",
           "    return bisect.bisect_left(keys, (bound + 1) << ring.shift, key=operator.neg)",
           "tests/test_cli.py::test_analyze_e8_0_in_moved_coordinates_at_p5"),
    Mutant("kept_below_bisect_right", GBASIS,
           "    return bisect.bisect_left(keys, bound << ring.shift, key=operator.neg)",
           "    return bisect.bisect_right(keys, bound << ring.shift, key=operator.neg)",
           "tests/test_corner.py::test_at_corner_zero_every_term_is_cut_before_any_step"),
    Mutant("charge_uncut_reducer", GBASIS,
           "        budget.step(len(h), len(g.keys) if corner is None else _kept_below(g.keys, ring, corner))",
           "        budget.step(len(h), len(g.keys))",
           "tests/test_gbasis.py::test_completion_work_is_pinned[e8_1_bracket_p5_local]"),
    Mutant("no_cut_on_return", GBASIS,
           "    gens = tuple(r[1] if corner is None else _cut_at(r[1], corner) for r in kept)",
           "    gens = tuple(r[1] for r in kept)",
           "tests/test_corner.py::test_truncated_table_bases_are_standard_and_match_the_oracle"),
    Mutant("staircase_corner_too_low", GBASIS,
           "            corner = max(corner, offset + a)",
           "            corner = max(corner, offset + a - 1)",
           "tests/test_acceptance.py::test_acceptance_01_table_char2"),
    Mutant("rule_b_without_lcm", GBASIS,
           "        if any(ring.record_divides(e, lcm) and ring.record_lcm(ei, e) != lcm != ring.record_lcm(ej, e)",
           "        if any(ring.record_divides(e, lcm)",
           "tests/test_acceptance.py::test_acceptance_01_table_char2"),
    Mutant("oracle_without_pure_power_guard", "src/rdpdescent/oracle.py",
           "                if all(self.pure_power_in_span(i, d) for i in range(self.n)):",
           "                if True:",
           None,
           "once lambda_d = lambda_(d+1), m^d lies in I + m^(d+1), so by Nakayama in I + m^D, "
           "the row space, and every pure power of degree d is there (`stabilized_at`)"),
]


def apply(mutant: Mutant, root: pathlib.Path) -> bool:
    """Replace the mutant's old line under root; False when the old line
    is not there exactly once."""
    path = root / mutant.path
    lines = path.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutant.old]
    if len(hits) != 1:
        return False
    lines[hits[0]] = mutant.new
    path.write_text("\n".join(lines))
    return True


def passes(root: pathlib.Path, *targets: str) -> bool:
    """Whether pytest passes on targets in the tree at root, importing its
    own src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets],
                          cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


@contextlib.contextmanager
def tree_copy():
    """A copy of the working tree in a temporary directory, removed after."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, root, ignore=IGNORED)
        yield root


def verdict(mutant: Mutant) -> str:
    with tree_copy() as root:
        if not apply(mutant, root):
            return "STALE (old line not found once)"
        if mutant.test is None:
            return "EQUIVALENT (suite passes)" if passes(root) else "NOT EQUIVALENT (suite fails)"
        if not passes(root, mutant.test):
            return "KILLED"
        if not passes(root):
            return "SURVIVED its test, killed by the suite"
        return "SURVIVED"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    with tree_copy() as root:
        if not passes(root, *{m.test for m in MUTANTS if m.test}):
            print("the named tests fail on the unmutated tree; no verdict would mean anything")
            return 1
    bad = 0
    for mutant in MUTANTS:
        result = verdict(mutant)
        bad += result.startswith(("SURVIVED", "STALE", "NOT EQUIVALENT"))
        print(f"{mutant.name:<32} {result:<40} {mutant.test or mutant.equivalent}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
