"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

On a small slice of every workload it checks that

* each correctness check accepts the program's real answers and rejects
  a deliberately wrong one (a length off by one, a verdict flipped);
* two traced rounds in two fresh interpreters give identical counts;
* a known slowdown added to the program (extra work in every
  `complete_basis` call) moves the speed-corrected `items_per_s` and
  `slowest_item_s` by its full size, so the correction does not absorb a
  regression;
* the per-layer metrics are those BENCHMARK.json declares.

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys

import checks
import spans
import workloads
from run import run_worker, work_metrics

FAILURES = []
#: injected_work loops per `complete_basis` call: about 35 ms, so the
#: coords slice's 13 calls about double its work.
SLOWDOWN_LOOPS = 1500
#: Rounds of each kind; the metrics are their medians, as in a run.
SLOWDOWN_ROUNDS = 3
#: Largest relative distance allowed between a measured and an expected
#: metric under the injected slowdown.
SLOWDOWN_TOLERANCE = 0.1


def expect(condition: bool, what: str):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def edited(outcome: dict, edit) -> dict:
    """A copy of a CLI outcome whose JSON output went through edit()."""
    payload = json.loads(outcome["stdout"])
    edit(payload)
    return dict(outcome, stdout=json.dumps(payload))


def first(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def slices():
    """Workload name -> (items, row function) of a few seconds at most."""
    rng = random.Random(0)
    coords_labels = {(2, "E_6^0"), (2, "E_7^2"), (2, "E_8^3"), (3, "E_6^0")}
    return {
        "tables": ([i for i in workloads.tables(rng) if i["char"] != 5], "_recompute_row"),
        "classify": ([workloads.classify_item(2, 8), workloads.classify_item(3, 8)], "run_battery"),
        "oracle": ([i for i in workloads.oracle(rng)
                    if i["char"] == 2 and i["label"] in ("E_6^0", "E_8^3")], None),
        "coords": ([i for i in workloads.coords(rng) if (i["char"], i["label"]) in coords_labels],
                   None),
    }


def wrong_answers(workload: str, items, outcomes):
    """(description, item index, wrong outcome) for the workload's check."""
    if workload == "tables":
        k = next(k for k, i in enumerate(items) if i["char"] == 2)

        def off_by_one(payload):
            first(payload["rows"], label="E_8^3")["len_jp"] += 1
        yield "tables: E_8^3 bracket length off by one", k, edited(outcomes[k], off_by_one)

        def theta_flipped(payload):
            row = first(payload["rows"], label="E_6^0")
            row["theta_free"] = not row["theta_free"]
        yield "tables: E_6^0 theta flipped", k, edited(outcomes[k], theta_flipped)
    elif workload == "classify":
        def verdict_flipped(payload):
            first(payload["rows"], label="A_3")["verdict"] = "BLOCKED"
        yield "classify: A_3 verdict flipped", 0, edited(outcomes[0], verdict_flipped)

        def no_reason(payload):
            first(payload["rows"], label="D_5^1")["reasons"] = []
        yield "classify: BLOCKED row without a failing criterion", 0, edited(outcomes[0], no_reason)
    elif workload == "oracle":
        yield "oracle: length off by one", 0, dict(outcomes[0], value=outcomes[0]["value"] + 1)
    elif workload == "coords":
        k = next(k for k, o in enumerate(outcomes) if o["exit"] == 0)

        def tjurina_off(payload):
            first(payload["criteria"], id="TJURINA_P_DIVISIBLE")["witness"]["tjurina"] += 1
        yield "coords: Tjurina number off by one", k, edited(outcomes[k], tjurina_off)

        def bracket_off(payload):
            first(payload["criteria"], id="LENGTH_FORMULA")["witness"]["len_bracket"] -= 1
        yield "coords: bracket length off by one", k, edited(outcomes[k], bracket_off)


def check_workload(workload: str, items, row_function):
    result = run_worker(items, row_function)
    outcomes = result["outcomes"]
    attempted, failed, problems = checks.check_round(workload, items, outcomes)
    expect(not problems, f"{workload}: the program's answers pass ({attempted} attempted, "
                         f"{failed} failed) {problems[:3]}")
    if workload == "coords":
        expect(failed == 1, "coords: the engine-limit germ counts as failed, not as wrong")
    for what, k, wrong in wrong_answers(workload, items, outcomes):
        _, _, problems = checks.check_round(workload, items, outcomes[:k] + [wrong] + outcomes[k + 1:])
        expect(bool(problems), f"rejects {what}")


def check_trace_counts(workload: str, items, row_function):
    runs = [run_worker(items, row_function, trace=True)["layers"] for _ in range(2)]
    counts = [name for name, unit in spans.LAYER_METRICS.items() if unit != "s"]
    differ = [name for name in counts if runs[0][name] != runs[1][name]]
    expect(not differ, f"{workload}: two traced rounds give identical counts {differ}")


def check_slowdown(workload: str, items, row_function):
    """Run the slice plain and with injected work in every `complete_basis`
    call, and the injected work alone, SLOWDOWN_ROUNDS times each.  The
    corrected metrics of the slowed rounds must equal the plain ones plus
    the injected work's own corrected time: if the program's state slowed
    the reference loop as well, the correction would absorb part of the
    slowdown and they would fall short."""
    def rounds(**kwargs):
        results = [run_worker(items, row_function, **kwargs) for _ in range(SLOWDOWN_ROUNDS)]
        for r in results:
            r["attempted"], r["failed"], _ = checks.check_round(workload, items, r["outcomes"])
        return results

    def corrected_s(outcome, result):
        return outcome["s"] * (outcome["speed"] or result["speed"])

    plain, slowed = rounds(), rounds(inject_loops=SLOWDOWN_LOOPS)
    calls = [o["injected_calls"] for o in slowed[0]["outcomes"]]
    alone = [run_worker([dict(kind="injected", loops=SLOWDOWN_LOOPS, calls=sum(calls))])
             for _ in range(SLOWDOWN_ROUNDS)]
    per_call = statistics.median(corrected_s(r["outcomes"][0], r) for r in alone) / sum(calls)

    before, after = work_metrics(plain), work_metrics(slowed)
    plain_items = [statistics.median(corrected_s(r["outcomes"][k], r) for r in plain)
                   for k in range(len(items))]
    expected = {
        "items_per_s": 1 / (1 / before["items_per_s"][0] + per_call * sum(calls) / len(items)),
        "slowest_item_s": max(t + n * per_call for t, n in zip(plain_items, calls)),
    }
    for name, value in expected.items():
        measured = after[name][0]
        expect(abs(measured / value - 1) <= SLOWDOWN_TOLERANCE,
               f"{workload}: with {sum(calls)} x {per_call * 1000:.1f} ms injected, {name} "
               f"moves from {before[name][0]:.4g} to {measured:.4g}; expected {value:.4g}")


def check_declared_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    expect(declared == spans.LAYER_METRICS, "the per-layer metrics are those BENCHMARK.json declares")


def main() -> int:
    check_declared_metrics()
    for workload, (items, row_function) in slices().items():
        check_workload(workload, items, row_function)
        check_trace_counts(workload, items, row_function)
    check_slowdown("coords", *slices()["coords"])
    print("selfcheck passed" if not FAILURES else f"selfcheck FAILED: {len(FAILURES)} problems")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
