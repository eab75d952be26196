"""Seeded benchmark workloads.

Each workload function turns a seed into a Pool: the inputs, how one
input is evaluated (returning the output and the latency of every
evaluation it made), and how an output is checked against a reference
that does not come from the function under test.  The compiled workload
draws the same number of inputs for every (function, machine, n) family,
so the mix is fixed.

The program under test is always reached through module attributes
(``semithue.staf``, ``inverter.brute_invert``, ...) at call time, so a
Tracer installed around a pass sees every call.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from owflab import (coding, inverter, machine, pcp, sampler, semithue,
                    stcompile, tiling)

MACHINES = ("not", "rot-pair", "parity-mark")
STRING_NS = (8, 10, 12)
TILING_NS = (4, 6, 8)
INVERT_N = 7
PER_FAMILY = 4
SAMPLED = dict(max_int=64, max_len=32)


@dataclass(frozen=True)
class Item:
    w: str        # the input handed to the program
    ref: object   # what the check compares against


@dataclass
class Pool:
    items: list
    run: Callable    # Item -> (output, [latency in s per evaluation])
    check: Callable  # (Item, output) -> bool


def _forward(module, name):
    def run(item):
        fn = getattr(module, name)
        start = time.perf_counter()
        out = fn(item.w)
        return out, [time.perf_counter() - start]
    return run


def _oracle(m, x):
    out = machine.run(m, x, machine.step_bound(len(x)))
    if not isinstance(out, machine.Halted):
        raise RuntimeError(f"{m.name} did not halt on {x!r}")
    return out.output


def _bits(rng, n, decomposable=False):
    while True:
        x = format(rng.getrandbits(n), f"0{n}b")
        if not decomposable or \
                coding.block_decompose(x) != coding.UNDECOMPOSABLE:
            return x


def _round_robin(families, make):
    """PER_FAMILY inputs for each family, interleaved family by family."""
    return [make(*fam) for _ in range(PER_FAMILY) for fam in families]


def compiled_staf(seed):
    """staf on compiled library machines; the output must equal
    code($)·M(x)·code($) behind the unchanged system part."""
    rng = random.Random(f"compiled-staf:{seed}")
    families = []
    for name in MACHINES:
        m = machine.library_machine(name)
        for n in STRING_NS:
            comp = stcompile.compile_semithue(m, n)
            families.append((m, n, comp, comp.table.code(stcompile.MARKER)))

    def make(m, n, comp, dollar):
        x = _bits(rng, n, decomposable=True)
        w = semithue.serialize_instance(comp.system,
                                        stcompile.st_encode_input(comp, x))
        system = w[: len(w) - n - 2 * len(dollar)]
        return Item(w, system + dollar + _oracle(m, x) + dollar)

    return Pool(_round_robin(families, make),
                _forward(semithue, "staf"),
                lambda item, out: out == item.ref)


def compiled_ptf(seed):
    """ptf on compiled library machines; the output is either the input
    (the known identity defect) or decodes to M(x) behind the unchanged
    system part."""
    rng = random.Random(f"compiled-ptf:{seed}")
    families = []
    for name in MACHINES:
        m = machine.library_machine(name)
        for n in STRING_NS:
            families.append((m, n, pcp.compile_pcp(m, n)))

    def make(m, n, comp):
        x = _bits(rng, n)
        payload = pcp.pcp_encode_input(comp, x)
        w = pcp.serialize_pcp_instance(comp.pairs, payload)
        return Item(w, (comp, len(w) - len(payload), _oracle(m, x)))

    def check(item, out):
        comp, cut, y = item.ref
        if out == item.w:
            return True
        return (len(out) == len(item.w) and out[:cut] == item.w[:cut]
                and pcp.pcp_decode_output(comp, out[cut:]) == y)

    return Pool(_round_robin(families, make),
                _forward(pcp, "ptf"), check)


def compiled_tiling(seed):
    """tiling_f on compiled tile sets; the top row must hold M(x)."""
    rng = random.Random(f"compiled-tiling:{seed}")
    families = []
    for name in MACHINES:
        m = machine.library_machine(name)
        ts = tiling.compile_tileset(m)
        for n in TILING_NS:
            families.append((m, n, ts))

    def make(m, n, ts):
        x = _bits(rng, n)
        w = tiling.serialize_tiling_instance(ts, tiling.bottom_row(m, x))
        return Item(w, (ts, n, _oracle(m, x)))

    def check(item, out):
        ts, n, y = item.ref
        if out == item.w or len(out) != len(item.w):
            return False
        _, row = tiling.parse_tiling_instance(out)
        top = [ts.symbols[i] for i in row]
        return tiling.extract_output(top, n) == y

    return Pool(_round_robin(families, make),
                _forward(tiling, "tiling_f"), check)


def compiled(seed):
    """staf, ptf and tiling_f on compiled library machines, interleaved
    one input of each function at a time, so that any prefix of a pass
    holds the three in equal numbers.  Each input keeps its own check."""
    pools = [compiled_staf(seed), compiled_ptf(seed), compiled_tiling(seed)]
    owner = {}
    items = []
    for trio in zip(*(p.items for p in pools)):
        for pool, item in zip(pools, trio):
            owner[id(item)] = pool
            items.append(item)
    return Pool(items, lambda item: owner[id(item)].run(item),
                lambda item, out: owner[id(item)].check(item, out))


def invert(seed):
    """Brute-force inversion of staf targets over the 2^n well-formed
    payloads, in the lexicographic order invert_staf_target uses.  The
    benchmark hands that candidate stream to brute_invert itself so that
    each attempt is timed; every reported preimage must map to its target.

    The lexicographic order puts the cheap candidates (undecomposable
    payloads, whose closure stalls at once) in one block, so the cost per
    attempt of an inversion depends on where its preimage lies.  Each
    target is therefore the image of 1^n, the last candidate, and every
    inversion tries all 2^n candidates; the seed salts the code table,
    which changes every bit of the instance."""
    items = []
    for name in MACHINES:
        m = machine.library_machine(name)
        comp = stcompile.compile_semithue(m, INVERT_N, salt_seed=seed)
        dollar = comp.table.code(stcompile.MARKER)
        x = "1" * INVERT_N
        payload = inverter.staf_payload(comp, x)
        w = semithue.serialize_instance(comp.system, payload)
        system = w[: len(w) - len(payload)]
        target = semithue.staf(w)
        ok = target == system + dollar + _oracle(m, x) + dollar
        items.append(Item(target, (comp, system, ok)))

    def run(item):
        comp = item.ref[0]
        stamps = []

        def candidates():
            for k in range(1 << INVERT_N):
                stamps.append(time.perf_counter())
                yield inverter.staf_payload(comp, format(k, f"0{INVERT_N}b"))

        start = time.perf_counter()
        out = inverter.brute_invert("staf", item.w, semithue.LOOKAHEAD8,
                                    1 << 20, candidates())
        stamps.append(time.perf_counter())
        # attempt k runs from stamp k to stamp k+1; the target parse before
        # the first candidate is charged to the first attempt
        stamps[0] = start
        lat = [b - a for a, b in zip(stamps, stamps[1:])]
        return getattr(out, "preimage", None), lat

    def check(item, out):
        _, system, target_ok = item.ref
        return (target_ok and out is not None and out.startswith(system)
                and semithue.staf(out) == item.w)

    return Pool(items, run, check)


def sampled(seed):
    """staf and ptf on instances drawn by owflab.sampler; the output must
    keep the input's length and its system part."""
    d = sampler.DefaultUniform(seed=seed, **SAMPLED)
    rng = sampler.make_rng(d)
    staf_run, ptf_run = _forward(semithue, "staf"), _forward(pcp, "ptf")
    items = []
    for _ in range(200):
        s = sampler.sample_sts_instance(d, rng)
        w = semithue.serialize_instance(s.system, s.payload)
        items.append(Item(w, (staf_run, len(w) - len(s.payload))))
        p = sampler.sample_pcp_instance(d, rng)
        w = pcp.serialize_pcp_instance(p.pairs, p.payload)
        items.append(Item(w, (ptf_run, len(w) - len(p.payload))))

    def check(item, out):
        cut = item.ref[1]
        return len(out) == len(item.w) and out[:cut] == item.w[:cut]

    return Pool(items, lambda item: item.ref[0](item), check)


# workload -> (pool function, tail percentile of the per-evaluation
# latency: the highest with at least 10 of a pass's evaluations beyond it)
WORKLOADS = {
    "compiled": (compiled, 90.0),   # 108 evaluations
    "invert": (invert, 97.0),       # 384 attempts
    "sampled": (sampled, 97.5),     # 400
}
