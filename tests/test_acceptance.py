"""The nine acceptance criteria, one test (and one printed verdict line)
each.  Everything is checked against the direct machine runner as oracle.
"""

import math
import random
import statistics
import time

import pytest

from oracles import expected_schema_counts, length_probability
from owflab import kernels
from owflab.coding import block_decompose, check_codes
from owflab.inverter import (
    Found,
    determinism,
    invert_case,
    lemma,
    staf_payload,
)
from owflab.machine import LIBRARY_NAMES, library_machine, run, step_bound
from owflab.pcp import (
    compile_pcp,
    pcp_encode_input,
    ptf_budget,
)
from owflab.sampler import (
    DefaultUniform,
    make_rng,
    sample_int,
    sample_pcp_instance,
    sample_string,
    sample_sts_instance,
)
from owflab.semithue import (
    parse_instance,
    serialize_instance,
    staf,
    staf_budget,
)
from owflab.stcompile import compile_semithue
from owflab.pcp import ptf
from owflab.tiling import (
    AmbiguousRow,
    Completed,
    Tile,
    TileSet,
    bottom_row,
    compile_tileset,
    serialize_tiling_instance,
    tile_closure,
    tiling_f,
)


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def lemma_suite():
    """One run of inverter.lemma over the library machines at n <= 6:
    per case (machine name, function, x, outcome, decoded output, M(x))."""
    t0 = time.perf_counter()
    cases = [(name, fn, x, out, got, want)
             for name in LIBRARY_NAMES for n in range(1, 7)
             for fn, x, out, got, want in lemma(library_machine(name), n)]
    return cases, time.perf_counter() - t0


def lemma_verdict(number, lemma_suite, backend, limit, detail):
    cases, elapsed = lemma_suite
    mine = [c for c in cases if c[1].backend == backend]
    bad = [(name, x) for name, _, x, out, got, want in mine
           if not (out.terminal and got == want)]
    ok = bool(mine) and not bad and elapsed < limit
    verdict(number, ok, f"{detail} on {len(mine)} cases, {len(bad)} "
                        f"mismatches, {elapsed:.1f}s (< {limit:.0f}s)")


def test_acceptance_1_semithue_lemma(lemma_suite):
    lemma_verdict(1, lemma_suite, "semithue", 60.0, "semi-Thue lemma")


def test_acceptance_2_step_budgets(lemma_suite):
    cases, _ = lemma_suite
    machines = {name: library_machine(name) for name in LIBRARY_NAMES}
    bad = []
    total = 0
    for name, fn, x, out, got, want in cases:
        if fn.backend != "semithue":
            continue
        total += 1
        m = machines[name]
        shuttle = expected_schema_counts(m)[0]
        T = run(m, x, step_bound(len(x))).steps
        bound = T + 2 * len(x) + 2 * len(want) + 2 + T
        r1_steps = sum(1 for t in out.trace if t.rule < shuttle)
        blocks = len(block_decompose(x))
        # a terminal result is as long as the payload it started from
        if not (out.steps <= bound
                and out.steps <= staf_budget(len(out.result))
                and r1_steps == 2 * blocks + 1):
            bad.append((name, x, out.steps, bound, r1_steps))
    verdict(2, total > 0 and not bad,
            f"step budgets (<= 2T+2|x|+2|y|+2 and <= N^2+4N+2) and "
            f"shuttle phase = 2*blocks+1 on {total} cases, "
            f"{len(bad)} violations")


def test_acceptance_3_tiling_lemma(lemma_suite):
    # n = 1 squares are structurally too small to host the halt cell, so
    # the tiling cases cover n = 2..6
    lemma_verdict(3, lemma_suite, "tiling", 60.0, "tiling lemma (n=2..6)")


def test_acceptance_4_pcp_lemma(lemma_suite):
    lemma_verdict(4, lemma_suite, "pcp", 120.0,
                  "pcp lemma (cap 2, lookahead 1, budget |w|^4)")


def test_acceptance_5_coding_properties():
    t0 = time.perf_counter()
    alphabet = ["0", "1", "B", "$", "s1", "s2", "k", "s", "C0", "C1",
                "R0", "R1", "h"]
    rows = check_codes(alphabet, 256, trials=1000, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = all(passed for _, passed in rows) and elapsed < 30.0
    verdict(5, ok, "coding: " + "; ".join(
        f"{label} {'PASS' if passed else 'FAIL'}" for label, passed in rows)
        + f"; {elapsed:.1f}s (< 30s)")


def test_acceptance_6_function_laws():
    rng = random.Random(7)
    bad = 0
    checked = 0
    for _ in range(10_000):
        ell = rng.randint(1, 128)
        w = format(rng.getrandbits(ell), f"0{ell}b")
        for f in (staf, ptf, tiling_f):
            y = f(w)
            if len(y) != len(w):
                bad += 1
            checked += 1
        for f in (staf, ptf):
            y = f(w)
            if f(y) != y:
                bad += 1
            checked += 1
    d = DefaultUniform(max_int=64, max_len=48, seed=7)
    srng = make_rng(d)
    for _ in range(1000):
        s = sample_sts_instance(d, srng)
        w = serialize_instance(s.system, s.payload)
        y = staf(w)
        if len(y) != len(w) or staf(y) != y:
            bad += 1
        p = sample_pcp_instance(d, srng)
        from owflab.pcp import serialize_pcp_instance
        w = serialize_pcp_instance(p.pairs, p.payload)
        y = ptf(w)
        if len(y) != len(w) or ptf(y) != y:
            bad += 1
        # random square instances for the tiling function
        k = srng.randint(2, 4)
        tiles = []
        while len(set(tiles)) != 3:
            tiles = [Tile(srng.randrange(k), srng.randrange(k),
                          srng.randrange(k), srng.randrange(k))
                     for _ in range(3)]
        ts = TileSet(tuple(range(k)), tuple(tiles))
        row = [srng.randrange(k) for _ in range(srng.randint(1, 6))]
        w = serialize_tiling_instance(ts, row)
        if len(tiling_f(w)) != len(w):
            bad += 1
        checked += 3
    verdict(6, bad == 0, f"function laws (length preservation + "
                         f"idempotence) on {checked} evaluations, "
                         f"{bad} violations (0 tolerance)")


def test_acceptance_7_determinism_regressions():
    # (a) strict fails on a planted zero-run-3 semi-Thue instance: its
    # first step is ambiguous, and lookahead(8) reaches a terminal string
    a = all(passed for _, passed in determinism(library_machine("id")))
    # (b) a pending left move gives exactly 2 successors; the rotation
    # branch sticks in one step
    m = library_machine("not")
    pcomp = compile_pcp(m, 3)
    x = pcp_encode_input(pcomp, "101")
    us, vs = kernels.pair_index(pcomp.pairs.lhs), pcomp.pairs.rhs
    b = False
    for _ in range(ptf_budget(len(x))):
        succ = kernels.pcp_applications(us, vs, x)
        if len(succ) == 2:
            dead = [y for _, y in succ
                    if not kernels.pcp_applications(us, vs, y)]
            b = len(dead) == 1
            break
        if len(succ) != 1:
            break
        x = succ[0][1]
    # (c) unsplit compile of a two-direction machine is ambiguous
    from test_tiling import two_direction_machine, unsplit_tileset
    zz = two_direction_machine()
    split = tile_closure(compile_tileset(zz), bottom_row(zz, "01"), 6)
    unsplit = tile_closure(unsplit_tileset(zz), bottom_row(zz, "01"), 6)
    c = isinstance(split, Completed) and isinstance(unsplit, AmbiguousRow)
    verdict(7, a and b and c,
            f"regressions: strict-identity/lookahead-success {a}, "
            f"pcp 2-successor dead rotation {b}, "
            f"tiling split-vs-unsplit {c}")


def _staf_target(comp, x):
    """The target invert_case builds for x: staf on comp's instance."""
    return staf(serialize_instance(comp.system, staf_payload(comp, x)))


def test_acceptance_8_inversion():
    m = library_machine("not")
    rng = random.Random(99)

    # soundness at n in {8, 10, 12}
    sound = True
    for n in (8, 10, 12):
        comp = compile_semithue(m, n)
        x = format(rng.getrandbits(n), f"0{n}b")
        _, out = invert_case(comp, x, 1 << 20)
        if not isinstance(out, Found):
            sound = False
            continue
        _, payload = parse_instance(out.preimage)
        l = comp.table.code_len
        if payload[l:-l] != x:
            sound = False

    # uniqueness cross-check by full forward enumeration at n <= 10
    unique = True
    for n in (8, 10):
        comp = compile_semithue(m, n)
        x = format(rng.getrandbits(n), f"0{n}b")
        target = _staf_target(comp, x)
        hits = 0
        for k in range(1 << n):
            cand = staf_payload(comp, format(k, f"0{n}b"))
            w = serialize_instance(comp.system, cand)
            if staf(w) == target:
                hits += 1
        if hits != 1:
            unique = False

    # mean attempts over >= 50 random targets at n = 8
    n = 8
    comp = compile_semithue(m, n)
    attempts = []
    for _ in range(60):
        x = format(rng.getrandbits(n), f"0{n}b")
        _, out = invert_case(comp, x, 1 << 20)
        assert isinstance(out, Found)
        attempts.append(out.attempts)
    mean = statistics.fmean(attempts)
    # uniform rank over 1..2^n: sigma of the sample mean
    sigma = math.sqrt(((1 << n) ** 2 - 1) / 12 / len(attempts))
    centered = abs(mean - (1 << (n - 1)))
    stats_ok = centered <= 3 * sigma

    # forward 100x faster than inversion at n = 12; the forward side is
    # the median of 5 calls, so one scheduling stall cannot decide it
    comp12 = compile_semithue(m, 12)
    x = format(rng.getrandbits(12), "012b")
    fwds = []
    for _ in range(5):
        t0 = time.perf_counter()
        _staf_target(comp12, x)
        fwds.append(time.perf_counter() - t0)
    fwd = statistics.median(fwds)
    # the inversion's time is invert_case's less its own forward call
    t0 = time.perf_counter()
    forward_us, out = invert_case(comp12, x, 1 << 20)
    inv = time.perf_counter() - t0 - forward_us / 1e6
    ratio = inv / fwd
    speed_ok = isinstance(out, Found) and ratio >= 100

    ok = sound and unique and stats_ok and speed_ok
    verdict(8, ok, f"inversion: sound {sound}, unique {unique}, "
                   f"mean attempts {mean:.1f} vs 128 "
                   f"(|dev| {centered:.1f} <= 3sigma {3 * sigma:.1f}), "
                   f"forward/inverse ratio {ratio:.0f}x (>= 100x)")


def test_acceptance_9_sampler_chi_square():
    from scipy.stats import chisquare
    draws = 100_000
    d = DefaultUniform(max_int=1 << 16, max_len=64, seed=1234)
    rng = make_rng(d)

    # integers against the truncated 1/n^2 law, tail bins merged
    counts = {}
    for _ in range(draws):
        v = sample_int(d, rng)
        counts[v] = counts.get(v, 0) + 1
    z = sum(1.0 / (n * n) for n in range(1, d.max_int + 1))
    obs, exp = [], []
    tail_o = tail_e = 0.0
    for v in range(1, d.max_int + 1):
        e = draws / (v * v) / z
        if e >= 5:
            obs.append(counts.get(v, 0))
            exp.append(e)
        else:
            tail_o += counts.get(v, 0)
            tail_e += e
    obs.append(tail_o)
    exp.append(tail_e)
    p_int = chisquare(obs, f_exp=exp).pvalue

    # strings against the 2^{-l}/l^2 law: exact strings of length <= 3
    # plus one bucket for everything longer
    rng = make_rng(d)
    counts = {}
    longer = 0
    for _ in range(draws):
        s = sample_string(d, rng)
        if len(s) <= 3:
            counts[s] = counts.get(s, 0) + 1
        else:
            longer += 1
    obs, exp = [], []
    covered = 0.0
    for ell in range(1, 4):
        pl = length_probability(d, ell)
        for k in range(1 << ell):
            s = format(k, f"0{ell}b")
            obs.append(counts.get(s, 0))
            exp.append(draws * pl / (1 << ell))
            covered += pl / (1 << ell)
    obs.append(longer)
    exp.append(draws * (1.0 - covered))
    p_str = chisquare(obs, f_exp=exp).pvalue

    ok = p_int > 0.001 and p_str > 0.001
    verdict(9, ok, f"sampler chi-square on {draws} draws: "
                   f"p(1/n^2) = {p_int:.3f}, p(2^-l/l^2) = {p_str:.3f} "
                   f"(both > 0.001)")
