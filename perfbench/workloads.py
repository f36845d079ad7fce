"""The four workloads: the items of one round, made from the run's seed.

A round is the whole item list of a workload, run in one fresh
interpreter.  The inputs are fixed by the published tables; `--seed`
fixes the order in which a round visits them.  The `coords` germs come
from one fixed draw of coordinate changes (coords.COORDS_SEED) that does
not depend on `--seed`, so the germs that hit the engine limit are the same
in every run.
"""

from __future__ import annotations

import random

from checks import PUBLISHED, expected_classification

#: `classify --max-n`: a few seconds of small completions per round.
CLASSIFY_MAX_N = 30
CLASSIFY_CHARS = (2, 3)
#: `analyze --step-cap` for `coords`, below the default of 10^6 so that a
#: germ the engine cannot finish ends in under a second.  The hardest germ
#: that finishes spends about 1.1 * 10^4 units.
COORDS_STEP_CAP = 20000


def _cli(argv, **fields):
    return dict(kind="cli", argv=[str(a) for a in argv], **fields)


def tables(rng):
    """`tables --json` for p = 2, 3, 5; an item stands for its table rows."""
    return [_cli(["tables", "--char", p, "--json"], char=p, count=len(PUBLISHED[p]))
            for p in rng.sample(sorted(PUBLISHED), len(PUBLISHED))]


def classify_item(char: int, max_n: int):
    return _cli(["classify", "--char", char, "--max-n", max_n, "--json"],
                char=char, max_n=max_n, count=len(expected_classification(char, max_n)))


def classify(rng):
    """`classify --json` for p = 2 and 3; an item stands for its records."""
    return [classify_item(p, CLASSIFY_MAX_N)
            for p in rng.sample(CLASSIFY_CHARS, len(CLASSIFY_CHARS))]


def oracle(rng):
    """`truncation_length_oracle` on J and J^[p] of every E row."""
    items = [dict(kind="oracle", char=p, label=label, equation=equation, ideal=ideal, count=1)
             for p, rows in sorted(PUBLISHED.items())
             for label, equation, *_ in rows
             for ideal in ("J", "Jp")]
    rng.shuffle(items)
    return items


def coords(rng):
    """`analyze --json` on every p = 2, 3 E row after a linear change of
    coordinates, each equation given as expanded text."""
    from coords import transformed_germs  # imports sympy, which only this workload needs

    items = [_cli(["analyze", "--char", g["char"], "--poly", g["poly"], "--json",
                   "--step-cap", COORDS_STEP_CAP],
                  char=g["char"], label=g["label"], count=1)
             for g in transformed_germs()]
    rng.shuffle(items)
    return items


#: Workload name -> (function making the items, cli function timed per row).
#: `tables` and `classify` items are whole CLI calls that each stand for
#: many rows; the per-row time comes from the function the CLI calls once
#: per row.  Otherwise an item's time is its whole call.
WORKLOADS = {
    "tables": (tables, "_recompute_row"),
    "classify": (classify, "run_battery"),
    "oracle": (oracle, None),
    "coords": (coords, None),
}


def round_items(workload: str, seed: int):
    build, _ = WORKLOADS[workload]
    return build(random.Random(seed))
