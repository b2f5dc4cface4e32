"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The script re-runs itself in a fresh interpreter with a fixed
PYTHONHASHSEED, so set iteration order, and with it every count, repeats.

Untraced (--trace 0): whole rounds of the workload run until the next one
would end after S seconds (at least three rounds). Every round repeats the
same operations on freshly built inputs. The last line of stdout is one
JSON object holding the end-to-end metrics:

    setup_s      median over rounds of the set-up time
    wall_s       sum over operations of each one's median time over rounds
    op_p50_ms    median over operations of the same per-operation medians
    op_p90_ms    90th percentile of the same per-operation medians
    peak_rss_mb  ru_maxrss of the process

Every time is taken at reference speed. On a shared two-core virtual
machine the host runs the same code at two speeds about 1.75 apart, and
switches between them every few seconds; whole 30-second runs can fall in
the slow one. So every set-up and every operation is bracketed by a probe,
a fixed pure-Python loop of dict, tuple and str work, and its measured time
is scaled by PROBE_REF_MS over the mean of the two probe times: the time it
would take where the probe takes PROBE_REF_MS, about the probe's median
on the machine the reference figures come from.

Traced (--trace 1): exactly one round, so that every count repeats; the
metrics are the per-layer ones of tracing.py, and the spans are written to
.bench_traces/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from operator import itemgetter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HASH_SEED = "0"
MIN_ROUNDS = 3
RUN_LIMIT = 150.0  # seconds; no round may be expected to end later, whatever --seconds says
CHILD_TIMEOUT = 175.0
PROBE_ITERATIONS = 3000
PROBE_REF_MS = 2.0  # the probe time that scaled figures refer to


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def relaunch() -> int:
    """Run this script again in a fresh interpreter with PYTHONHASHSEED set."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                          env=env, cwd=ROOT) as child:
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        try:
            return child.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print("error: run exceeded its time limit", file=sys.stderr)
            return 3
        finally:
            if child.poll() is None:  # timed out, or this process was told to stop
                child.kill()
                child.wait()


def p90(values) -> float:
    """90th percentile, interpolated between the data points. The default
    'exclusive' method of statistics.quantiles extrapolates past the largest
    value when there are fewer than nine, which doubles the noise on the
    workloads with four to six operations."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def probe() -> float:
    """Seconds that a fixed loop of dict, tuple and str work takes, with the
    garbage collector held off so that the heap the program leaves behind
    does not change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(PROBE_ITERATIONS):
            key = (i, i * 7 % 13, str(i))
            counts[key] = counts.get(key, 0) + 1
        sorted(counts, key=itemgetter(2))
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed(fn):
    """Call fn and return its result or exception, the measured seconds and
    the seconds at reference speed: the measured time times PROBE_REF_MS
    over the mean of a probe just before and just after."""
    before = probe()
    start = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception as exc:  # an operation's failure is a result to count
        value, error = None, exc
    seconds = time.perf_counter() - start
    return value, error, seconds, seconds * PROBE_REF_MS / 1000.0 / ((before + probe()) / 2.0)


def run_round(workload, tracer):
    """One set-up and every operation once, each judged as soon as it
    returns. Nothing the round builds outlives it, so every round starts
    from the same heap. Returns the set-up time and the operation times at
    reference speed, the measured total of the operation times, the problems
    found, the failed count and, when tracing, the per-layer metrics."""
    from workloads import Outcome

    untup = sys.modules["bibucalc.labels"].untup
    cache_clear = getattr(untup, "cache_clear", None) or (lambda: None)
    gc.collect()
    inputs, error, _, setup_s = timed(workload.setup)
    if error is not None:
        raise error
    ops = workload.operations(inputs)
    del inputs
    if tracer is not None:
        tracer.reset()
    seconds, problems, failed, measured = [], [], 0, 0.0
    for i in range(len(ops)):
        run, judge = ops[i]
        ops[i] = None
        cache_clear()  # each operation starts as cold as in a fresh process
        value, error, raw, at_ref = timed(run)
        outcome = Outcome(value, error, at_ref)
        measured += raw
        del run, value
        seconds.append(outcome.seconds)
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            verdict = judge(outcome)
        del judge, outcome
        problems += verdict.problems
        failed += verdict.failed
    layers = tracer.metrics() if tracer is not None else None
    problems += workload.end_round()
    return setup_s, seconds, measured, problems, failed, layers


def measure(args) -> dict:
    import bibucalc
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(bibucalc)
        tracer.install()
    workdir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = cls(args.seed, workdir)
        setups, rounds, measured, problems = [], [], [], []
        attempted = failed = 0
        layers = None
        started = time.perf_counter()
        round_costs = []
        while True:
            t = time.perf_counter()
            setup_s, seconds, raw, round_problems, round_failed, layers = run_round(workload, tracer)
            round_costs.append(time.perf_counter() - t)
            setups.append(setup_s)
            rounds.append(seconds)
            measured.append(round(raw, 3))
            attempted += len(seconds)
            failed += round_failed
            problems += round_problems
            elapsed = time.perf_counter() - started
            if tracer is not None or elapsed + round_costs[-1] > RUN_LIMIT:
                break
            if len(rounds) >= MIN_ROUNDS and elapsed + max(round_costs) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(".bench_work")  # only when no other run is using it

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    walls = [round(sum(seconds), 3) for seconds in rounds]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: rounds={len(rounds)} "
          f"ops={attempted} failed={failed} ops_s per round: measured {measured}, "
          f"at reference speed {walls}; setup_s {[round(x, 3) for x in setups]}",
          file=sys.stderr)
    if tracer is not None:
        os.makedirs(".bench_traces", exist_ok=True)
        tracer.write(os.path.join(".bench_traces", f"{args.workload}-seed{args.seed}.json"))
        from tracing import per_layer_names

        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_op = [statistics.median(times) for times in zip(*rounds)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(per_op) * 1000.0, "unit": "ms"},
            "op_p90_ms": {"value": p90(per_op) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "bibucalc", "__init__.py")):
        print(f"error: no bibucalc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        return relaunch()
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
