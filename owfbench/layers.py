"""Layer tracing from outside the program.

A Tracer rebinds the public functions listed in LAYERS, in every loaded
``owflab`` module that holds a reference to them, to wrappers that record
one span per call (layer name, start, end, and the enclosing span) plus
per-layer counters.  Self time is derived as each span's duration minus the
time its child spans cover.  Spans are folded into per-layer sums as they
close, so a traced pass keeps no per-call list in memory.

Only calls that cross a module attribute are seen.  With the pure engine
that includes the lookahead's internal match scans; with the compiled
engine (``owflab._speedups``) the kernel internals are one opaque call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

_OUTCOME = {"": "terminal", "Ambiguous": "ambiguous",
            "BudgetExceeded": "budget", "BranchOverflow": "overflow"}
_TILE_OUTCOME = {"Completed": "completed", "Stalled": "stalled",
                 "AmbiguousRow": "ambiguous"}


def _is_bits(tr, span, args, result):
    tr.counts["bitcodes.is_bits.chars"] += len(args[0])


def _find_matches(tr, span, args, result):
    lhs, w = args[0], args[1]
    tr.counts["kernels.st_find_matches.scan_chars"] += len(w) * len(lhs)
    tr.counts["kernels.st_find_matches.matches"] += len(result)
    for outer in reversed(tr.stack):
        if outer[0] == "kernels.st_step":
            outer[2] += 1
            break


def _st_step(tr, span, args, result):
    # every step scans once for its own successors; the rest is lookahead
    tr.counts["kernels.st_find_matches.lookahead_calls"] += max(0, span[2] - 1)


def _steps(label):
    def note(tr, span, args, result):
        tr.counts[label + ".steps"] += result[2]
    return note


def _closure_outcome(label):
    def note(tr, span, args, result):
        tr.counts[f"{label}.{_OUTCOME[result.reason]}"] += 1
    return note


def _next_rows(tr, span, args, result):
    tr.counts["tiling.next_rows.cells"] += len(args[1])


def _tile_closure(tr, span, args, result):
    tr.counts["tiling.outcome." + _TILE_OUTCOME[type(result).__name__]] += 1


def _brute_invert(tr, span, args, result):
    tr.counts["inverter.brute_invert.attempts"] += result.attempts
    found = type(result).__name__ == "Found"
    tr.counts["inverter.brute_invert.found"] += found


def _identity(label):
    def note(tr, span, args, result):
        tr.counts[label + ".identity"] += result == args[0]
    return note


# (module, function, layer, counter hook)
LAYERS = [
    ("owflab.semithue", "staf", "staf", _identity("staf")),
    ("owflab.pcp", "ptf", "ptf", _identity("ptf")),
    ("owflab.tiling", "tiling_f", "tiling", _identity("tiling")),
    ("owflab.semithue", "parse_instance", "semithue.parse_instance", None),
    ("owflab.semithue", "serialize_instance", "semithue.serialize_instance",
     None),
    ("owflab.semithue", "det_closure", "semithue.det_closure",
     _closure_outcome("semithue.det_closure")),
    ("owflab.bitcodes", "is_bits", "bitcodes.is_bits", _is_bits),
    ("owflab.kernels", "st_find_matches", "kernels.st_find_matches",
     _find_matches),
    ("owflab.kernels", "st_step", "kernels.st_step", _st_step),
    ("owflab.kernels", "st_closure", "kernels.st_closure",
     _steps("kernels.st_closure")),
    ("owflab.kernels", "pcp_applications", "kernels.pcp_applications", None),
    ("owflab.kernels", "pcp_step", "kernels.pcp_step", None),
    ("owflab.kernels", "pcp_closure", "kernels.pcp_closure",
     _steps("kernels.pcp_closure")),
    ("owflab.pcp", "pcp_det_closure", "pcp.pcp_det_closure",
     _closure_outcome("pcp.pcp_det_closure")),
    ("owflab.tiling", "next_rows", "tiling.next_rows", _next_rows),
    ("owflab.tiling", "tile_closure", "tiling.tile_closure", _tile_closure),
    ("owflab.tiling", "parse_tiling_instance", "tiling.parse_tiling_instance",
     None),
    ("owflab.tiling", "serialize_tiling_instance",
     "tiling.serialize_tiling_instance", None),
    ("owflab.inverter", "brute_invert", "inverter.brute_invert",
     _brute_invert),
    # set-up layers
    ("owflab.stcompile", "compile_semithue", "stcompile.compile_semithue",
     None),
    ("owflab.pcp", "compile_pcp", "pcp.compile_pcp", None),
    ("owflab.tiling", "compile_tileset", "tiling.compile_tileset", None),
    ("owflab.coding", "build_code_table", "coding.build_code_table", None),
    ("owflab.sampler", "sample_sts_instance", "sampler.sample", None),
    ("owflab.sampler", "sample_pcp_instance", "sampler.sample", None),
    ("owflab.machine", "run", "machine.run", None),
]


class Tracer:
    """Per-layer call counts, total and self time, and counters."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.stack = []  # open spans: [layer, child time, st_step scans]

    def _wrap(self, layer, fn, note):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[layer] += 1
                self.total[layer] += duration
                self.self_time[layer] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
            if note is not None:
                note(self, span, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every reference to a LAYERS function inside owflab."""
        wrappers = {}
        for module, name, layer, note in LAYERS:
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._wrap(layer, fn, note))
        saved = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "owflab" or n.startswith("owflab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)


def _whole(value):
    return int(value) if float(value).is_integer() else value


def layer_metrics(run: Tracer, setup: Tracer, passes: int,
                  overhead_ratio: float) -> dict:
    """The per-layer metrics of one traced run, per pass over the pool.

    Self times and counts come from `run` (the traced passes), set-up
    times (inclusive) from `setup` (one traced set-up).
    """
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def self_ms(layer):
        put(layer + ".self_ms", run.self_time[layer] * 1e3 / passes, "ms")

    def calls(layer):
        put(layer + ".calls", _whole(run.calls[layer] / passes), "count")

    def count(name):
        put(name, _whole(run.counts[name] / passes), "count")

    def rate(num, den):
        return num / den if den else 0.0

    for layer in ("semithue.parse_instance", "bitcodes.is_bits",
                  "kernels.st_find_matches", "kernels.st_step",
                  "kernels.st_closure", "kernels.pcp_applications",
                  "kernels.pcp_step", "tiling.next_rows"):
        calls(layer)
    for layer in ("semithue.parse_instance", "bitcodes.is_bits",
                  "semithue.serialize_instance", "kernels.st_find_matches",
                  "kernels.st_step", "kernels.st_closure",
                  "kernels.pcp_applications", "kernels.pcp_step",
                  "tiling.next_rows", "tiling.tile_closure",
                  "tiling.parse_tiling_instance",
                  "tiling.serialize_tiling_instance",
                  "inverter.brute_invert"):
        self_ms(layer)
    for name in ("bitcodes.is_bits.chars",
                 "kernels.st_find_matches.scan_chars",
                 "kernels.st_find_matches.matches",
                 "kernels.st_find_matches.lookahead_calls",
                 "kernels.st_closure.steps", "kernels.pcp_closure.steps",
                 "tiling.next_rows.cells",
                 "inverter.brute_invert.attempts",
                 "inverter.brute_invert.found"):
        count(name)
    for label in ("semithue.det_closure", "pcp.pcp_det_closure"):
        for outcome in ("terminal", "ambiguous", "budget", "overflow"):
            count(f"{label}.{outcome}")
    for outcome in ("completed", "stalled", "ambiguous"):
        count("tiling.outcome." + outcome)
    put("staf.useful_ratio",
        rate(run.counts["kernels.st_closure.steps"],
             run.calls["kernels.st_find_matches"]), "ratio")
    for fn in ("staf", "ptf", "tiling"):
        put(fn + ".identity_rate",
            rate(run.counts[fn + ".identity"], run.calls[fn]), "ratio")
    for layer in ("stcompile.compile_semithue", "pcp.compile_pcp",
                  "tiling.compile_tileset", "coding.build_code_table",
                  "sampler.sample", "machine.run"):
        put(layer + ".ms", setup.total[layer] * 1e3, "ms")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
