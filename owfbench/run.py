#!/usr/bin/env python3
"""The owflab benchmark: one workload, one seed, one timed phase.

Run from the root of an owflab checkout:

    python3 owfbench/run.py --workload compiled --seed 1 \
        --seconds 50 --trace 0

Set-up (compile machines, draw inputs, serialize instances, compute the
oracle outputs) runs SETUP_REPEATS times and reports its median.  The
timed phase then cycles through the seeded input pool, one whole pass at
least, until --seconds have elapsed, single-process and closed-loop: each
evaluation starts when the previous one has returned.  Latency metrics
are taken over each evaluation's median time across the run.  Every
output is checked after the timed phase.

--trace 0 prints the end-to-end metrics.  --trace 1 instead alternates
untraced and traced passes for --seconds and prints the per-layer metrics
of the traced passes (see layers.py), per pass over the pool.

The last line of standard output is the result object; the line before it
records the run environment, the input and output digests and the error
rate.  The program is imported from ./src, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

SETUP_REPEATS = 21
RAISED = object()  # the output of an evaluation that raised


def load_program():
    """Put ./src first on sys.path; exit with status 1 unless it holds
    owflab."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "owflab", "__init__.py")):
        sys.exit("owfbench: no src/owflab here; run from the root of an "
                 "owflab checkout")
    sys.path.insert(0, src)
    import owflab
    if not os.path.abspath(owflab.__file__).startswith(src + os.sep):
        sys.exit(f"owfbench: owflab was imported from {owflab.__file__}, "
                 f"not from {src}")
    return owflab


def digest(strings) -> str:
    h = hashlib.sha256()
    for s in strings:
        h.update(b"!" if s is RAISED else b"-" if s is None else s.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def input_digest(pool) -> str:
    return digest(item.w for item in pool.items)


def setup(build, seed):
    """Build the pool SETUP_REPEATS times; (pool, median seconds, whether
    every build had the same inputs)."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = build(seed)
        times.append(time.perf_counter() - start)
        digests.add(input_digest(pool))
    return pool, statistics.median(times), len(digests) == 1


class Tally:
    """Every evaluation of a pool: the first output of each input, how
    many later outputs differed from it, and each evaluation's latencies."""

    def __init__(self, pool):
        n = len(pool.items)
        self.pool = pool
        self.first = [None] * n
        self.evals = [0] * n
        self.changed = [0] * n
        self.identity = 0
        self.latencies = [[] for _ in range(n)]

    def evaluate(self, i):
        item = self.pool.items[i]
        try:
            out, lat = self.pool.run(item)
        except Exception as e:  # a raising evaluation is a failed operation
            print(f"owfbench: {type(e).__name__}: {e}", file=sys.stderr)
            out, lat = RAISED, []
        if self.evals[i] == 0:
            self.first[i] = out
        else:
            self.changed[i] += out != self.first[i]
        self.evals[i] += 1
        self.identity += out == item.w
        if lat:
            self.latencies[i].append(lat)

    def attempted(self):
        return sum(self.evals)


def run_pass(tally):
    """Evaluate every input once; wall seconds."""
    start = time.perf_counter()
    for i in range(len(tally.pool.items)):
        tally.evaluate(i)
    return time.perf_counter() - start


def check(tally):
    """Failed operations.  Every evaluation of an input fails when its first
    output raised or fails the pool's check; otherwise each later output
    that differs from the first fails."""
    failed = 0
    for item, first, evals, changed in zip(tally.pool.items, tally.first,
                                           tally.evals, tally.changed):
        if not evals:
            continue
        try:
            ok = first is not RAISED and bool(tally.pool.check(item, first))
        except Exception:
            ok = False
        failed += changed if ok else evals
    return failed


def timed_phase(tally, seconds):
    """Cycle through the pool until `seconds` have elapsed, one whole pass
    at least; the passes made, a fraction when the last one was cut."""
    n = len(tally.pool.items)
    k = 0
    start = time.perf_counter()
    while k < n or time.perf_counter() - start < seconds:
        tally.evaluate(k % n)
        k += 1
    return k / n


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    k = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[k], len(sorted_values) - 1 - k


def typical_latencies(tally):
    """Each evaluation's median latency over the run, sorted.  An input's
    evaluations are its latency slots (one per call; one per attempt on
    invert), and every evaluation of it fills the same slots."""
    return sorted(statistics.median(slot) for runs in tally.latencies
                  for slot in zip(*runs))


def end_to_end(pool, seconds, tail_pct, setup_s):
    tally = Tally(pool)
    passes = timed_phase(tally, seconds)
    # Medians over the whole run: other tenants of the host slow some
    # evaluations by up to 1.7x in phases of seconds to minutes, and a
    # median over evaluations spread across the run moves less than a
    # minimum does (see README.md, Steadiness).
    typical = typical_latencies(tally) or [0.0]
    tail, beyond = percentile(typical, tail_pct)
    total = sum(typical) or 1.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "evals_per_s": {"value": len(typical) / total, "unit": "1/s"},
        "eval_p50_ms": {"value": statistics.median(typical) * 1e3,
                        "unit": "ms"},
        "eval_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    top = typical[len(typical) - max(1, len(typical) // 100):]
    info = {"passes": round(passes, 2), "tail_pct": tail_pct,
            "samples": len(typical), "samples_beyond_tail": beyond,
            "top_1pct_time_share": sum(top) / total}
    return tally, metrics, info


def traced(build, seed, seconds):
    from layers import Tracer, layer_metrics

    setup_tracer, run_tracer = Tracer(), Tracer()
    with setup_tracer.installed():
        pool = build(seed)
    tally, plain, slow = Tally(pool), [], []
    start = time.perf_counter()
    while not slow or time.perf_counter() - start < seconds:
        plain.append(run_pass(tally))
        with run_tracer.installed():
            slow.append(run_pass(tally))
    overhead = min(slow) / min(plain)
    metrics = layer_metrics(run_tracer, setup_tracer, len(slow), overhead)
    return tally, metrics, {"passes": 2 * len(slow)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    owflab = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"owfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    build, tail_pct = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, info = traced(build, args.seed, args.seconds)
        same_inputs = True
    else:
        pool, setup_s, same_inputs = setup(build, args.seed)
        tally, metrics, info = end_to_end(pool, args.seconds, tail_pct,
                                          setup_s)
    failed = check(tally)
    attempted = tally.attempted()
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": owflab.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **info,
        "input_digest": input_digest(tally.pool),
        "output_digest": digest(tally.first),
        "setup_inputs_repeat": same_inputs,
        "error_rate": failed / attempted,
        "identity_rate": tally.identity / attempted,
    }
    print(json.dumps(env))
    print(json.dumps({"correct": failed == 0 and same_inputs,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
