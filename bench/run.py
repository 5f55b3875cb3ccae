"""Seeded benchmark for mpst: verdicts per second end to end, time per
module from a traced run.

    python3 bench/run.py --workload subtype --seed 1 --seconds 20 --trace 0

Runs one workload in this single-threaded process as a closed loop with one
caller: the next operation starts when the previous one has returned.
Workloads are `subtype`, `protocol`, `explore` and `cli` (see
workloads.py).  Every verdict is checked against an answer known by
construction; a wrong verdict or an exception counts as a failure and never
stops the run.

With --trace 0 the run measures the end-to-end metrics.  `setup_s` is the
median over SETUP_REPEATS fresh interpreters that each import mpst and parse
the text of the first items, as any user of the library must before the
first verdict; the items themselves are made before, untimed.

With --trace 1 the first half of the time wraps every call into mpst in a
span, and the per-layer metrics come from the spans; then the same items run
again without spans, which gives the tracing overhead, the untraced
`latency_p99_ms` and the untraced `ops_per_s`, operations over their summed
time.  Spans are written to bench/out/.  Per-layer `_s` metrics
are mean self seconds per operation.  Counts and ratios are taken over the
first items of the stream, so they repeat exactly for a seed.

Every metric is printed on its own line; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from itertools import chain, islice
from time import perf_counter

from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7

# What a fresh interpreter does in the timed set-up.
SETUP_CODE = """\
import json, sys
from mpst import parse_global_type, parse_session, parse_session_type
parsers = {"type": parse_session_type, "global": parse_global_type,
           "session": parse_session}
for kind, text in json.load(sys.stdin):
    parsers[kind](text)
"""

# Per-layer spans, reported as mean self seconds per operation.
LAYER_SPANS = (
    "subtyping.nsub", "subtyping.sub", "subtyping.decide", "parser.parse",
    "printer.show", "global_types.project", "global_types.global_step",
    "typecheck.check_session", "typecheck.check_process",
    "characteristic.char_global", "characteristic.char_proc",
    "characteristic.counterexample", "runtime.stuck_search",
    "syntax.regular_tree_equal",
)


def calibrate():
    """Seconds for a fixed pure-Python loop: a reading of host speed."""
    started = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - started


def percentile(ordered, q):
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def p99_ms(latencies):
    """The 99th percentile, or 0 when fewer than ten samples lie beyond
    it."""
    if len(latencies) * 0.01 < 10:
        return 0.0
    return percentile(sorted(latencies), 0.99) * 1e3


def attempt(wl, item, tr, tally):
    """One timed operation and its answer check; returns (seconds, error)."""
    started = perf_counter()
    try:
        with tr.span("op"):
            result = wl.op(item, tr)
    except Exception as exc:  # a crash is a failed verdict, not the end
        return perf_counter() - started, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - started
    try:
        wl.account(item, result, tally)
    except Exception as exc:
        return elapsed, f"{type(exc).__name__}: {exc}"
    return elapsed, None


class Tally:
    """Sums of per-operation counts, plus raw samples where a median is
    wanted."""

    def __init__(self):
        self.n = defaultdict(float)
        self.samples = defaultdict(list)

    def merge(self, other):
        for name, value in other.n.items():
            self.n[name] += value
        for name, values in other.samples.items():
            self.samples[name].extend(values)


class Phase:
    """The outcome of running operations for a while."""

    def __init__(self):
        self.latencies = []
        self.errors = []
        self.first = Tally()   # counts over the first count_items operations
        self.all = Tally()


def run_phase(wl, items, tr, seconds, min_items=1):
    phase = Phase()
    deadline = perf_counter() + seconds
    for item in items:
        done = len(phase.latencies)
        if done >= min_items and perf_counter() >= deadline:
            break
        tr.op = done
        tally = Tally()
        elapsed, error = attempt(wl, item, tr, tally)
        if done < wl.count_items:
            phase.first.merge(tally)
        phase.all.merge(tally)
        phase.latencies.append(elapsed)
        if error is not None:
            phase.errors.append(error)
    return phase


def set_up_s(jobs, env):
    """Median seconds, over SETUP_REPEATS fresh interpreters, to import
    mpst and parse the (parser, text) jobs."""
    payload = json.dumps(jobs)
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              input=payload, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - started)
        if done.returncode:
            raise RuntimeError(f"set-up failed: {done.stderr}")
    return statistics.median(times)


def count_calls(wl, items, module):
    """Python function calls made in `module`'s own code while the items'
    operations run: deterministic for the items."""
    target = module.__file__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == target:
            calls += 1

    sys.setprofile(profile)
    try:
        for item in items:
            try:
                wl.op(item, NullTracer())
            except Exception:  # counted as a failure by the traced phase
                pass
    finally:
        sys.setprofile(None)
    return calls


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(wl, phase, setup_s):
    lat = sorted(phase.latencies)
    n = len(lat)
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "latency_p50_ms": (percentile(lat, 0.50) * 1e3, "ms", n),
        "latency_p90_ms": (percentile(lat, 0.90) * 1e3, "ms", n),
        "peak_rss_mb": (peak_rss_mb(wl.name == "cli"), "MB", 1),
    }
    # Printed, not gated: failures travel in the result's own fields, and
    # a few inputs of the subtype workload that take seconds decide its mean
    # rate, so ops_per_s is a per-layer metric (see BENCHMARK.json).
    notes = {"failed_ratio": (len(phase.errors) / n, "ratio", n),
             "ops_per_s": (n / sum(lat), "1/s", n)}
    return metrics, notes


def per_layer(wl, traced, replay, tracer, bare_s, calls):
    """Per-layer metrics of a traced phase; `replay` ran the same items
    without spans, and `calls` counts calls into mpst.subtyping over the
    first items."""
    ops = len(traced.latencies)
    self_s = tracer.self_times()
    metrics = {f"{name}_s": (self_s.get(name, 0.0) / ops, "s/op", ops)
               for name in LAYER_SPANS}
    metrics["op.unattributed_s"] = (self_s.get("op", 0.0) / ops, "s/op", ops)

    first = traced.first.n
    k = min(wl.count_items, ops)

    def ratio(num, den):
        return first[num] / first[den] if first[den] else 0.0

    metrics.update({
        "subtyping.calls": (calls, "count", k),
        "subtyping.leq_ratio": (ratio("leq", "decided"), "ratio", k),
        "subtyping.derivation_nodes": (first["derivation_nodes"], "count", k),
        "global_types.projection_defined_ratio":
            (ratio("defined", "projected"), "ratio", k),
        "runtime.states_explored": (first["states_explored"], "count", k),
        "runtime.trace_steps": (first["trace_steps"], "count", k),
        "syntax.input_nodes": (first["input_nodes"], "count", k),
    })
    search_s = self_s.get("runtime.stuck_search", 0.0)
    parse_s = self_s.get("parser.parse", 0.0)
    metrics["runtime.states_per_s"] = (
        traced.all.n["states_explored"] / search_s if search_s else 0.0,
        "1/s", ops)
    metrics["parser.chars_per_s"] = (
        traced.all.n["chars"] / parse_s if parse_s else 0.0, "1/s", ops)

    samples = traced.all.samples
    medians = {name: statistics.median(samples[name] or [0.0])
               for name in ("cli.process_s", "cli.command_s")}
    commands = len(samples["cli.command_s"])
    for name, value in medians.items():
        metrics[name] = (value, "s", commands)
    metrics["cli.startup_s"] = (medians["cli.process_s"]
                                - medians["cli.command_s"], "s", commands)
    metrics["cli.bare_interpreter_s"] = (bare_s, "s", 5 if bare_s else 0)

    metrics["trace.overhead_ratio"] = (
        1 - sum(replay.latencies) / sum(traced.latencies), "ratio", ops)
    metrics["latency_p99_ms"] = (p99_ms(replay.latencies), "ms", ops)
    metrics["ops_per_s"] = (ops / sum(replay.latencies), "1/s", ops)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["subtype", "protocol", "explore", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mpst", "__init__.py")):
        print(f"error: no mpst sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mpst.subtyping
    import workloads

    calibration = [calibrate()]
    wl = workloads.WORKLOADS[args.workload](ROOT)
    stream = wl.stream(args.seed)
    warm = list(islice(stream, wl.warm))
    items = chain(warm, stream)

    if args.trace:
        tracer = Tracer()
        traced = run_phase(wl, items, tracer, args.seconds / 2,
                           wl.count_items)
        # The same items again without spans, for the tracing overhead.
        replay = run_phase(wl, islice(wl.stream(args.seed),
                                      len(traced.latencies)),
                           NullTracer(), math.inf)
        bare_s = 0.0
        if args.workload == "cli":
            bare_s = statistics.median(
                wl.python("-c", "pass")[0] for _ in range(5))
        calls = count_calls(wl, islice(wl.stream(args.seed), wl.count_items),
                            mpst.subtyping)
        metrics = per_layer(wl, traced, replay, tracer, bare_s, calls)
        notes = {}
        phases = (traced, replay)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(
            HERE, "out", f"{args.workload}-seed{args.seed}.spans.jsonl"))
    else:
        setup_s = set_up_s([job for item in warm
                            for job in wl.parse_jobs(item)],
                           workloads.child_env(ROOT))
        phase = run_phase(wl, items, NullTracer(), args.seconds)
        metrics, notes = end_to_end(wl, phase, setup_s)
        phases = (phase,)
    calibration.append(calibrate())

    attempted = sum(len(p.latencies) for p in phases)
    errors = [e for p in phases for e in p.errors]
    host = (statistics.mean(calibration), "s", 2)
    if args.trace:
        metrics["host.calibration_s"] = host
    else:
        notes["host.calibration_s"] = host
    for name, (value, unit, n) in notes.items():
        print(f"{name} {value:.6g} {unit} (n={n}, not gated)")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    print(f"host.calibration_s start {calibration[0]:.6f} "
          f"end {calibration[1]:.6f}")
    for error in errors[:10]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
