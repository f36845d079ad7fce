"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py <monotonic start time>  < round.json

The parent passes the monotonic clock reading taken just before it
started this interpreter; set-up time runs from there until rdpdescent is
imported and `catalog.table_records()` has loaded and validated the
catalog.  The round (JSON on stdin) lists the items to run; the result is
one JSON line on stdout.  Every round needs a fresh interpreter because
the engine's completion cache would make a second pass in the same
process skip the work.

Host speed: a shared host can change speed by up to a factor of two over
tens of seconds, with every process on it slowing together (measured on
a 2-core virtual machine, see README.md).  So during the round's work a
timer signal runs a fixed pure-Python reference loop every
SAMPLE_PERIOD_S.  A speed is REFERENCE_LOOP_S over the mean time of the
loop runs inside an interval; run.py multiplies each time by the speed
of its interval, which gives it in seconds of a host on which the loop
takes REFERENCE_LOOP_S.  An item with fewer than MIN_ITEM_SAMPLES loop
runs inside it takes the speed of the whole round.  The loop runs' own
time is subtracted from every interval measured here.  Set-up time is
reported in plain seconds; run.py scales it by a reference of its own
kind.  Traced rounds do not sample: their layer times are plain seconds.
"""

import contextlib
import gc
import io
import json
import signal
import sys
import time

import spans
from rdpdescent import catalog, cli, ideals, parse
from rdpdescent.poly import OrderingTag, Ring

SAMPLE_PERIOD_S = 0.025
MIN_ITEM_SAMPLES = 2
#: The reference loop's time at the host speed the metrics are given in.
REFERENCE_LOOP_S = 0.00075


def reference_loop():
    """Fixed pure-Python work of the kind the engine does: small tuples,
    zips and dictionary updates."""
    acc = {}
    for i in range(500):
        key = (i % 97, i % 13, i % 7)
        mono = tuple(a + b for a, b in zip(key, (1, 2, 3)))
        acc[mono] = acc.get(mono, 0) + i % 5


class HostSpeed:
    """Runs of the reference loop, and the clock and speeds they give."""

    def __init__(self):
        self.runs = []  # (perf_counter at start, seconds)
        self.total_s = 0.0

    def sample(self, signum=None, frame=None):
        # With the cycle collector off, the loop's allocations cannot start
        # a collection whose cost depends on the program's heap.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.runs.append((start, elapsed))
        self.total_s += elapsed

    def speed(self, since, until=float("inf"), min_runs=1):
        """The speed over [since, until), or None with fewer than min_runs."""
        inside = [elapsed for start, elapsed in self.runs if since <= start < until]
        if len(inside) < min_runs:
            return None
        return REFERENCE_LOOP_S * len(inside) / sum(inside)

    def clock(self):
        """perf_counter() minus the time spent in the reference loop."""
        return time.perf_counter() - self.total_s

    def timed(self, fn, *args, **kwargs):
        """fn's result, and the time it took with the speed of that time."""
        raw_start, start = time.perf_counter(), self.clock()
        result = fn(*args, **kwargs)
        return result, {"s": self.clock() - start,
                        "speed": self.speed(raw_start, time.perf_counter(), MIN_ITEM_SAMPLES)}

    @contextlib.contextmanager
    def sampling(self):
        """Run the loop every SAMPLE_PERIOD_S inside the block."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)


def peak_rss_mb() -> float:
    """The high-water resident set size of this process's own memory map.

    `getrusage(RUSAGE_SELF).ru_maxrss` is no use here: on Linux, exec
    keeps the high-water mark of the memory map it replaces, so it would
    report at least the parent's size.  VmHWM starts fresh at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(item["argv"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def oracle_ideal(item):
    ring = Ring(item["char"], ("x", "y", "z"), OrderingTag.LOCAL_NEG_DEGREVLEX)
    germ = ideals.HypersurfaceGerm(parse.parse_poly(item["equation"], ring))
    jac = ideals.jacobian_ideal(germ)
    return jac if item["ideal"] == "J" else ideals.bracket_ideal(jac, germ)


def run_oracle(ideal):
    value = ideals.truncation_length_oracle(ideal)
    return {"value": value if isinstance(value, int) else repr(value)}


def injected_work(loops: int) -> int:
    """Fixed pure-Python work unlike the reference loop (string formatting,
    sorting, set updates), which selfcheck.py adds to the program to show
    that a slowdown passes through the speed correction at full size."""
    seen = set()
    for i in range(loops):
        words = sorted(f"{(i * k) % 1009:04d}" for k in range(40))
        seen.update(words[::3])
    return len(seen)


def inject_slowdown(loops: int) -> list:
    """Make every call of `ideals.complete_basis` first run injected_work;
    the returned list gets one entry per call."""
    complete_basis, calls = ideals.complete_basis, []

    def slowed(*args, **kwargs):
        calls.append(injected_work(loops))
        return complete_basis(*args, **kwargs)

    ideals.complete_basis = slowed
    return calls


def run_injected(item):
    """The injected work alone: `calls` runs of injected_work(`loops`)."""
    for _ in range(item["calls"]):
        injected_work(item["loops"])
    return {}


def run_items(spec, host, tracer):
    """Every item of the round; with a row function, also the time of each
    call the CLI makes to it."""
    rows = []
    if spec["row_function"]:
        fn = getattr(cli, spec["row_function"])

        def timed_row(*args, **kwargs):
            result, row = host.timed(fn, *args, **kwargs)
            rows.append(row)
            return result

        setattr(cli, spec["row_function"], timed_row)
    oracle_inputs = [oracle_ideal(item) if item["kind"] == "oracle" else None
                     for item in spec["items"]]
    injected = inject_slowdown(spec["inject_loops"]) if spec.get("inject_loops") else []
    outcomes = []
    for index, (item, ideal) in enumerate(zip(spec["items"], oracle_inputs)):
        if tracer is not None:
            tracer.item = index
        before = len(injected)
        if item["kind"] == "injected":
            outcome, took = host.timed(run_injected, item)
        elif ideal is None:
            outcome, took = host.timed(run_cli, item)
        else:
            outcome, took = host.timed(run_oracle, ideal)
        outcomes.append(dict(outcome, injected_calls=len(injected) - before, **took))
    return outcomes, rows


def main():
    started = float(sys.argv[1])
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    catalog.table_records()
    setup_s = time.monotonic() - started

    host = HostSpeed()
    with contextlib.nullcontext() if tracer else host.sampling():
        (outcomes, rows), work = host.timed(run_items, spec, host, tracer)
    if not host.runs:
        host.sample()
    result = {
        "setup_s": setup_s,
        "work_s": work["s"],
        "speed": host.speed(0.0),
        "peak_rss_mb": peak_rss_mb(),
        "outcomes": outcomes,
        "rows": rows,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        if spec["keep_spans"]:
            result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
