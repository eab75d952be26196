"""Brute-force inversion, the table of the three one-way functions, and
the forward/inverse cost experiment.

functions() lists staf, ptf and tiling_f with the parts each is made of
(parse, closure, step budget, serialize, text format, default policy,
machine compiler); brute_invert, `owflab eval` and lemma() read it.
lemma() checks that each compiled system computes its machine, and
determinism() that strict semantics stalls on the compiled shuttle layer
where lookahead resolves it; `owflab verify --suite lemma|determinism` and
the acceptance tests read them.
brute_invert parses a target instance once and searches the candidate
payloads its caller gives under the target's system, which the functions
never alter.  Each candidate goes through the payload step
(semithue.payload_step) and is compared with the target's payload; a
match is confirmed by one call of the function on the whole instance.
invert_case times staf on a compiled machine's instance for an input x
and inverts that target over the well-formed encodings of the machine's
inputs of length n = |x|, 2^n of the 2^N payloads of the instance's
length (`owflab invert`).  owf_experiment compiles each length first,
maps invert_case over seeded inputs and writes the rows as CSV (`owflab
experiment`).
"""

from __future__ import annotations

import csv
import io
import itertools
import random
import time
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from functools import partial

from . import pcp, semithue, stcompile, tiling
from .machine import run, step_bound
from .semithue import (
    DeterminismPolicy,
    LOOKAHEAD8,
    STRICT,
    payload_step,
    serialize_instance,
    staf,
)
from .stcompile import MARKER, compile_semithue


# f(w) = semithue.one_way(w, parse, closure, budget, serialize, policy),
# with the relation's name on the command line, its instance text format,
# f's default policy (None for tiling_f, which takes none), and
# compile(m, n) -> (system, encode, decode) for m's inputs of length n, or
# None where the relation cannot compute m at n
OneWayFunction = namedtuple("OneWayFunction", "backend f parse serialize "
                            "closure budget from_text to_text policy compile")


def _staf_compile(m, n):
    comp = stcompile.compile_semithue(m, n)
    return (comp.system, partial(stcompile.st_encode_input, comp),
            partial(stcompile.st_decode_output, comp))


def _ptf_compile(m, n):
    comp = pcp.compile_pcp(m, n)
    return (comp.pairs, partial(pcp.pcp_encode_input, comp),
            partial(pcp.pcp_decode_output, comp))


def _tiling_compile(m, n):
    if n < 2:  # a one-column square cannot halt on tape cell 1
        return None
    return (tiling.compile_tileset(m), partial(tiling.bottom_row, m),
            lambda top: tiling.extract_output(top, n))


def functions():
    """The three one-way functions by name.  Built per call from module
    attributes, so owfbench's layer tracer, which rebinds them, sees
    every call."""
    return {
        "staf": OneWayFunction(
            "semithue", semithue.staf, semithue.parse_instance,
            semithue.serialize_instance, semithue.det_closure,
            semithue.staf_budget, semithue.instance_from_text,
            semithue.instance_to_text, semithue.LOOKAHEAD8, _staf_compile),
        "ptf": OneWayFunction(
            "pcp", pcp.ptf, pcp.parse_instance, pcp.serialize_instance,
            pcp.pcp_det_closure, pcp.ptf_budget, pcp.pairs_from_text,
            pcp.pairs_to_text, pcp.PAPER_POLICY, _ptf_compile),
        "tiling": OneWayFunction(
            "tiling", tiling.tiling_f, tiling.parse_tiling_instance,
            tiling.serialize_tiling_instance, tiling.tiling_closure,
            tiling.tiling_budget, tiling.tileset_from_text,
            tiling.tileset_to_text, None, _tiling_compile),
    }


def lemma(m, n: int):
    """The simulation lemma on machine m's inputs of length n: for each
    function that can compute m at n and each input x it can encode (staf
    skips the x that do not decompose into blocks), yields (function, x,
    closure outcome, decoded output, M(x)).  Each closure runs within the
    function's budget under its default policy, trace on.  The lemma holds
    for x when the outcome is terminal and the outputs are equal (the
    decoded output is None unless it is terminal, and M(x) is None unless
    m halts within step_bound(n))."""
    inputs = [format(k, f"0{n}b") for k in range(1 << n)]
    wants = [getattr(run(m, x, step_bound(n)), "output", None)
             for x in inputs]
    for fn in functions().values():
        compiled = fn.compile(m, n)
        if compiled is None:
            continue
        system, encode, decode = compiled
        for x, want in zip(inputs, wants):
            try:
                w = encode(x)
            except ValueError:  # CompileError: x does not decompose
                continue
            out = fn.closure(system, w, fn.budget(len(w)), fn.policy,
                             want_trace=True)
            got = decode(out.result) if out.terminal else None
            yield fn, x, out, got, want


def determinism(m):
    """staf on machine m's compiled instance for x = 10001 (zero run of 3),
    as (label, passed) rows: strict semantics stops Ambiguous at step 0,
    so staf under strict is the identity, while lookahead(8) reaches a
    terminal string and staf moves."""
    fn = functions()["staf"]
    x = "10001"
    system, encode, _ = fn.compile(m, len(x))
    w = encode(x)
    inst = fn.serialize(system, w)
    budget = fn.budget(len(w))
    strict = fn.closure(system, w, budget, STRICT, want_trace=False)
    look = fn.closure(system, w, budget, LOOKAHEAD8, want_trace=False)
    return [
        ("strict fails on zero-run-3 input (EXPECTED-FAIL of strict)",
         strict.reason == "Ambiguous" and strict.steps == 0
         and fn.f(inst, STRICT) == inst),
        ("lookahead(8) succeeds on the same input",
         look.terminal and fn.f(inst, LOOKAHEAD8) != inst),
    ]


@dataclass(frozen=True)
class Found:
    preimage: str
    attempts: int


@dataclass(frozen=True)
class NotFound:
    attempts: int


@dataclass(frozen=True)
class LimitExceeded:
    attempts: int


def brute_invert(f_kind: str, target: str, policy: DeterminismPolicy | None,
                 limit: int, candidates):
    """Search candidates for a payload x' with f(serialize(system, x')) =
    target, f called under policy.

    f_kind names a function of functions().  The target is parsed once.
    Each candidate payload of the target's length over its symbols is
    mapped by the payload step (any other cannot map to the target), and
    a match is confirmed by one call of f.  candidates is an iterable of
    payloads.  Unparseable targets are identity points (f(target) =
    target), so their unique preimage is the target itself.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    fn = functions().get(f_kind)
    if fn is None:
        raise ValueError(f"unknown function kind {f_kind!r}")
    try:
        sys, x = fn.parse(target)
    except ValueError:  # InstanceParseError, TilingError
        return Found(target, 0)
    # a payload is a bit string, or a tiling row as a list of symbol ids
    # over range(S), which is tested in place: S may be as large as
    # 2^|target|
    if isinstance(x, str):
        payload, fits = "".join, set("01").issuperset
    else:
        symbols, payload = sys.symbols, list

        def fits(cand):
            return all(isinstance(s, int) and s in symbols for s in cand)
    attempts = 0
    for cand in candidates:
        if attempts >= limit:
            return LimitExceeded(attempts)
        attempts += 1
        if len(cand) != len(x) or not fits(cand):
            continue
        cand = payload(cand)
        y = payload_step(sys, cand, fn.closure, fn.budget, policy)
        if (cand if y is None else y) == x:
            w = fn.serialize(sys, cand)
            if fn.f(w, policy) == target:
                return Found(w, attempts)
    return NotFound(attempts)


# --- machine-targeted inversion ------------------------------------------

def staf_payload(comp, x: str) -> str:
    """The raw initial string code(s)·x·code($) without the block check:
    undecomposable x stalls the closure at step 0, making the instance a
    fixed point of staf, which keeps every bit string usable as a target."""
    t = comp.table
    return t.code(comp.machine.start) + x + t.code(MARKER)


def invert_case(comp, x: str, limit: int):
    """The inversion case of `owflab invert` and owf_experiment: times staf
    on comp's instance for x, then inverts that target under LOOKAHEAD8
    over staf_payload(comp, x') for every x' of length n = |x|, in
    lexicographic order.  Returns (forward_us, result)."""
    t0 = time.perf_counter()
    target = staf(serialize_instance(comp.system, staf_payload(comp, x)))
    forward_us = (time.perf_counter() - t0) * 1e6
    n = len(x)
    cands = (staf_payload(comp, format(k, f"0{n}b")) for k in range(1 << n))
    return forward_us, brute_invert("staf", target, LOOKAHEAD8, limit, cands)


@dataclass(frozen=True)
class ExperimentRow:
    kind: str
    machine: str
    n: int
    seed: int
    forward_us: float
    attempts: int
    found: bool
    policy: str = f"lookahead:{LOOKAHEAD8.depth}"


CSV_COLUMNS = [f.name for f in fields(ExperimentRow)]


def owf_experiment(machine, ns, targets_per_n: int, seed: int,
                   limit: int, jobs: int):
    """Forward/inverse cost measurement for the rewrite-system function.

    Compiles machine once per n in ns, so a machine the compiler rejects
    fails before any case runs, then runs invert_case on targets_per_n
    random inputs per n.  jobs > 1 spreads the cases over processes; rows
    keep their sequential order.
    """
    # imported here: the process pool's modules add about 2.5 MB to the
    # resident set of every process that imports this module
    from concurrent.futures import ProcessPoolExecutor

    comps = {n: compile_semithue(machine, n) for n in ns}
    rng = random.Random(seed)
    case_ns = [n for n in ns for _ in range(targets_per_n)]
    xs = [format(rng.getrandbits(n), f"0{n}b") for n in case_ns]
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        results = list((pool.map if pool else map)(
            invert_case, map(comps.get, case_ns), xs,
            itertools.repeat(limit)))
    return [
        ExperimentRow(kind="staf", machine=machine.name, n=n, seed=seed,
                      forward_us=forward_us, attempts=out.attempts,
                      found=isinstance(out, Found))
        for n, (forward_us, out) in zip(case_ns, results)
    ]


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    w.writerows(map(asdict, rows))
    return buf.getvalue()
