"""Brute-force inversion oracles and the forward/inverse cost experiment.

brute_invert parses a target instance once and enumerates candidate
payloads under its system, which the functions never alter.  Each
candidate goes through the function's payload step (staf_close, ptf_close,
tiling_close) and is compared with the target's payload; a match is
confirmed by one call of the function on the whole instance.  The default
candidate stream is every payload of the target's length in lexicographic
order; experiments narrow it to the well-formed encodings of a machine's
inputs, which shrinks the space from 2^N to 2^n without changing soundness.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
import time
from dataclasses import dataclass

from .pcp import PAPER_POLICY, ptf, ptf_close
from .semithue import (
    DeterminismPolicy,
    LOOKAHEAD8,
    RewriteSystem,
    parse_instance,
    serialize_instance,
    staf,
    staf_close,
)
from .stcompile import MARKER, compile_semithue
from .tiling import (parse_tiling_instance, serialize_tiling_instance,
                     tiling_close, tiling_f)


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


def brute_invert(f_kind: str, target: str,
                 policy: DeterminismPolicy | None = None,
                 limit: int = 1 << 20, candidates=None):
    """Search for a payload x' with f(serialize(system, x')) = target.

    The target is parsed once.  Each candidate payload of the target's
    length over its symbols is mapped by f's payload step (any other
    cannot map to the target), and a match is confirmed by one call of f.
    candidates is an iterable of payloads, or a function of the target's
    payload that returns one.  Unparseable targets are identity points
    (f(target) = target), so their unique preimage is the target itself.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    # built per call: the layer tracer rebinds these module attributes
    kinds = {"staf": (parse_instance, staf_close, serialize_instance, staf),
             "ptf": (parse_instance, ptf_close, serialize_instance, ptf),
             "tiling": (parse_tiling_instance, tiling_close,
                        serialize_tiling_instance, tiling_f)}
    if f_kind not in kinds:
        raise ValueError(f"unknown function kind {f_kind!r}")
    parse, close, serialize, f = kinds[f_kind]
    policy = policy or {"staf": LOOKAHEAD8, "ptf": PAPER_POLICY}.get(f_kind)
    try:
        sys, x = parse(target)
    except ValueError:  # InstanceParseError, TilingError
        return Found(target, 0)
    # a payload is a bit string, or a tiling row as a list of symbol ids
    symbols, payload = ((sys.symbols, list) if f_kind == "tiling"
                        else ("01", "".join))
    if candidates is None:
        candidates = map(payload, itertools.product(symbols, repeat=len(x)))
    elif callable(candidates):
        candidates = candidates(x)
    alphabet = set(symbols)
    attempts = 0
    for cand in candidates:
        if attempts >= limit:
            return LimitExceeded(attempts)
        attempts += 1
        if len(cand) != len(x) or not alphabet.issuperset(cand):
            continue
        cand = payload(cand)
        y = close(sys, cand, policy)
        if (cand if y is None else y) == x:
            w = serialize(sys, cand)
            if (f(w) if f_kind == "tiling" else f(w, policy)) == target:
                return Found(w, attempts)
    return NotFound(attempts)


def backward_search(sys: RewriteSystem, y: str, budget: int,
                    max_nodes: int = 100_000):
    """All strings reaching y within `budget` reversed rewrite steps
    (matching a rule's right side, substituting its left side), capped at
    max_nodes distinct strings."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    seen = {y}
    frontier = [y]
    for _ in range(budget):
        nxt = []
        for w in frontier:
            for g, h in sys.rules:
                start = 0
                while True:
                    p = w.find(h, start)
                    if p < 0:
                        break
                    anc = w[:p] + g + w[p + len(h):]
                    if anc not in seen:
                        if len(seen) >= max_nodes:
                            return seen
                        seen.add(anc)
                        nxt.append(anc)
                    start = p + 1
        if not nxt:
            break
        frontier = nxt
    return seen


# --- machine-targeted inversion helpers -----------------------------------

def staf_payload(comp, x: str) -> str:
    """The raw initial string code(s)·x·code($) without the block check:
    undecomposable x stalls the closure at step 0, making the instance a
    fixed point of staf, which keeps every bit string usable as a target."""
    t = comp.table
    return t.code(comp.machine.start) + x + t.code(MARKER)


def staf_target(comp, x: str, policy: DeterminismPolicy = LOOKAHEAD8) -> str:
    return staf(serialize_instance(comp.system, staf_payload(comp, x)), policy)


def invert_staf_target(comp, target: str,
                       policy: DeterminismPolicy = LOOKAHEAD8,
                       limit: int = 1 << 20):
    """brute_invert over the 2ⁿ well-formed payload encodings, n read from
    the length of the target's payload."""
    def cands(y):
        n = len(y) - 2 * comp.table.code_len
        return (staf_payload(comp, format(k, f"0{n}b"))
                for k in range(1 << n if n >= 1 else 0))

    return brute_invert("staf", target, policy, limit, cands)


@dataclass(frozen=True)
class ExperimentRow:
    kind: str
    machine: str
    n: int
    seed: int
    forward_us: float
    attempts: int
    found: bool
    identity_rate: float
    policy: str


def _experiment_case(machine, n: int, x: str, policy: DeterminismPolicy,
                     limit: int):
    comp = compile_semithue(machine, n)
    t0 = time.perf_counter()
    target = staf_target(comp, x, policy)
    forward_us = (time.perf_counter() - t0) * 1e6
    out = invert_staf_target(comp, target, policy, limit)
    return forward_us, getattr(out, "attempts", 0), isinstance(out, Found)


def owf_experiment(machine, name: str, ns, targets_per_n: int, seed: int,
                   policy: DeterminismPolicy = LOOKAHEAD8,
                   limit: int = 1 << 22, identity_samples: int = 200,
                   jobs: int = 1):
    """Forward/inverse cost measurement for the rewrite-system function.

    For each n: sample targets from random inputs, time one forward
    evaluation, invert each target, and measure the identity rate of staf
    on random sampled instances (shared across n).  jobs > 1 spreads the
    per-target work over processes; rows keep their sequential order.
    """
    from .sampler import DefaultUniform, make_rng, sample_sts_instance

    rng = random.Random(seed)
    d = DefaultUniform(max_int=64, max_len=32, seed=seed)
    srng = make_rng(d)
    ident = 0
    for _ in range(identity_samples):
        s = sample_sts_instance(d, srng)
        w = serialize_instance(s.system, s.payload)
        if staf(w, policy) == w:
            ident += 1
    identity_rate = ident / identity_samples if identity_samples else 0.0

    cases = [(n, format(rng.getrandbits(n), f"0{n}b"))
             for n in ns for _ in range(targets_per_n)]
    if jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                _experiment_case,
                itertools.repeat(machine), (n for n, _ in cases),
                (x for _, x in cases), itertools.repeat(policy),
                itertools.repeat(limit)))
    else:
        results = [_experiment_case(machine, n, x, policy, limit)
                   for n, x in cases]
    return [
        ExperimentRow(
            kind="staf", machine=name, n=n, seed=seed,
            forward_us=forward_us, attempts=attempts, found=found,
            identity_rate=identity_rate,
            policy=f"{policy.mode}:{policy.depth}",
        )
        for (n, _), (forward_us, attempts, found) in zip(cases, results)
    ]


CSV_COLUMNS = ["kind", "machine", "n", "seed", "forward_us", "attempts",
               "found", "identity_rate", "policy"]


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({c: getattr(r, c) for c in CSV_COLUMNS})
    return buf.getvalue()
