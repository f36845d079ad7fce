"""The rdpdescent benchmark.

    python3 perfbench/run.py --workload {tables,classify,oracle,coords}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; rdpdescent is imported from its
`src` directory.  A run first makes SETUP_PROBES set-up probes, each a
reference start-up and then an interpreter that only sets up.  It then
repeats whole rounds of the workload, each in a fresh interpreter, while
another round of the mean round time still ends within S seconds of the
run's start (at least one round).  Every round's answers are checked
against the references in checks.py.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each the median over
the run's rounds, with times in seconds at a reference host speed (see
worker.py); set-up time comes from the probes (see setup_seconds).  With
--trace 1 every layer boundary is wrapped (spans.py) and the metrics are
the per-layer ones of a round: counts of the first round, times as the
median over rounds.  The rounds' details, and with --trace 1 the spans of
the first round, are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 150
#: The reference start-up: a fresh interpreter that imports numpy and exits.
#: It is exec, interpreter start and module loading, as set-up is, and it
#: does not involve rdpdescent.
REFERENCE_START = [sys.executable, "-c", "import numpy"]
#: The reference start-up's time at the host speed setup_s is given in.
REFERENCE_START_S = 0.13


class BenchError(RuntimeError):
    """The benchmark could not measure: a worker died or timed out."""


def run_worker(items, row_function=None, trace=False, keep_spans=False, inject_loops=0) -> dict:
    """Run one round in a fresh interpreter and return its result.
    `inject_loops` is for selfcheck.py only (see worker.inject_slowdown)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    spec = {"items": items, "row_function": row_function, "trace": trace,
            "keep_spans": keep_spans, "inject_loops": inject_loops}
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), repr(start)],
                              input=json.dumps(spec), capture_output=True, text=True,
                              env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a round ran longer than {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe() -> dict:
    """The reference start-up, then an interpreter that only sets up: the
    raw set-up time and the reference's time right before it."""
    start = time.monotonic()
    try:
        subprocess.run(REFERENCE_START, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"the reference start-up failed: {exc}") from None
    reference_s = time.monotonic() - start
    return {"setup_s": run_worker([])["setup_s"], "reference_s": reference_s}


def run_rounds(workload: str, seed: int, deadline: float, trace: bool):
    """Whole rounds while another one of the mean round time ends before
    `deadline` (a monotonic clock reading); at least one."""
    items = workloads.round_items(workload, seed)
    _, row_function = workloads.WORKLOADS[workload]
    rounds = []
    start = time.monotonic()
    while True:
        result = run_worker(items, row_function, trace, keep_spans=trace and not rounds)
        result["attempted"], result["failed"], result["problems"] = checks.check_round(
            workload, items, result["outcomes"])
        rounds.append(result)
        now = time.monotonic()
        if now + (now - start) / len(rounds) > deadline:
            return rounds


def setup_seconds(setups) -> float:
    """The mean of the middle half of the set-up times, each scaled by
    REFERENCE_START_S over the time of the reference start-up run right
    before it: seconds of a host on which that start-up takes
    REFERENCE_START_S.  The host switches between a fast and a slow state
    for seconds at a time; the middle half's mean moves smoothly with the
    share of probes that saw each state, where a median jumps."""
    scaled = sorted(p["setup_s"] * REFERENCE_START_S / p["reference_s"] for p in setups)
    cut = len(scaled) // 4
    return statistics.mean(scaled[cut:len(scaled) - cut])


def work_metrics(rounds) -> dict:
    """The end-to-end metrics of the rounds' work, with times in seconds at
    the reference host speed (worker.py).  The slowest item is the item
    whose median time over the rounds is largest, so one round's hiccup
    does not make an item the slowest."""
    def item_times(r):
        return [t["s"] * (t["speed"] or r["speed"]) for t in r["rows"] or r["outcomes"]]

    per_item = zip(*(item_times(r) for r in rounds))
    return {
        "items_per_s": (statistics.median(r["attempted"] / (r["work_s"] * r["speed"])
                                          for r in rounds), "1/s"),
        "slowest_item_s": (max(statistics.median(times) for times in per_item), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(rounds) -> dict:
    first = rounds[0]["layers"]
    for other in rounds[1:]:
        for name, unit in spans.LAYER_METRICS.items():
            if unit != "s" and other["layers"][name] != first[name]:
                print(f"warning: {name} differs between rounds: {first[name]} "
                      f"vs {other['layers'][name]}", file=sys.stderr)
    return {name: (statistics.median(r["layers"][name] for r in rounds) if unit == "s"
                   else first[name], unit)
            for name, unit in spans.LAYER_METRICS.items()}


def save(name: str, rounds, setups):
    """Keep the rounds (without program output) and the first round's spans."""
    os.makedirs(RESULTS, exist_ok=True)
    spans_of_first = rounds[0].pop("spans", None)
    if spans_of_first is not None:
        with open(os.path.join(RESULTS, f"spans-{name}.json"), "w") as fh:
            json.dump(spans_of_first, fh)
    for r in rounds:
        for o in r["outcomes"]:
            o.pop("stdout", None)
    with open(os.path.join(RESULTS, f"rounds-{name}.json"), "w") as fh:
        json.dump({"setup_probes": setups, "rounds": rounds}, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rdpdescent benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "rdpdescent")):
        print(f"no rdpdescent sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    deadline = time.monotonic() + args.seconds
    try:
        setups = [] if trace else [setup_probe() for _ in range(SETUP_PROBES)]
        rounds = run_rounds(args.workload, args.seed, deadline, trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    if trace:
        metrics = per_layer(rounds)
    else:
        metrics = dict(setup_s=(setup_seconds(setups), "s"), **work_metrics(rounds))
    save(f"{args.workload}-seed{args.seed}-trace{args.trace}", rounds, setups)
    print(f"{args.workload}: {len(rounds)} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
