"""The nine acceptance criteria, one test (and one printed verdict line)
each.  Everything is checked against the direct machine runner as oracle.
"""

import math
import random
import statistics
import time

import pytest

from owflab.coding import (
    UNDECOMPOSABLE,
    block_decompose,
    build_code_table,
    verify_properties,
)
from owflab.inverter import (
    Found,
    invert_staf_target,
    staf_payload,
    staf_target,
)
from owflab.machine import Halted, library_machine, run, step_bound
from owflab.pcp import (
    PAPER_POLICY,
    compile_pcp,
    pcp_decode_output,
    pcp_det_closure,
    pcp_encode_input,
    ptf_budget,
    yield_successors,
)
from owflab.sampler import (
    DefaultUniform,
    length_probability,
    make_rng,
    sample_int,
    sample_pcp_instance,
    sample_string,
    sample_sts_instance,
)
from owflab.semithue import (
    LOOKAHEAD8,
    STRICT,
    det_closure,
    parse_instance,
    serialize_instance,
    staf,
    staf_budget,
)
from owflab.stcompile import (
    compile_semithue,
    st_decode_output,
    st_encode_input,
)
from owflab.pcp import ptf
from owflab.tiling import (
    AmbiguousRow,
    Completed,
    Tile,
    TileSet,
    bottom_row,
    compile_tileset,
    extract_output,
    serialize_tiling_instance,
    tile_closure,
    tiling_f,
)


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def decomposable_inputs(max_len):
    for n in range(1, max_len + 1):
        for k in range(1 << n):
            x = format(k, f"0{n}b")
            if block_decompose(x) != UNDECOMPOSABLE:
                yield x


@pytest.fixture(scope="module")
def semithue_suite():
    """Shared run over {id, not, rot-pair} x all decomposable |x| <= 6."""
    t0 = time.perf_counter()
    cases = []
    for name in ("id", "not", "rot-pair"):
        m = library_machine(name)
        comps = {n: compile_semithue(m, n) for n in range(1, 7)}
        for x in decomposable_inputs(6):
            comp = comps[len(x)]
            ref = run(m, x, step_bound(len(x)))
            assert isinstance(ref, Halted)
            w = st_encode_input(comp, x)
            out = det_closure(comp.system, w, staf_budget(len(w)), LOOKAHEAD8)
            cases.append((name, x, comp, ref, w, out))
    return cases, time.perf_counter() - t0


def test_acceptance_1_semithue_lemma(semithue_suite):
    cases, elapsed = semithue_suite
    bad = []
    for name, x, comp, ref, w, out in cases:
        if not out.terminal or st_decode_output(comp, out.result) != ref.output:
            bad.append((name, x))
    ok = not bad and elapsed < 60.0
    verdict(1, ok,
            f"semi-Thue lemma on {len(cases)} cases, "
            f"{len(bad)} mismatches, {elapsed:.1f}s (< 60s)")


def test_acceptance_2_step_budgets(semithue_suite):
    cases, _ = semithue_suite
    bad = []
    for name, x, comp, ref, w, out in cases:
        T = ref.steps
        bound = T + 2 * len(x) + 2 * len(ref.output) + 2 + T
        r1_steps = sum(1 for t in out.trace if t.rule < comp.r1_count)
        blocks = len(block_decompose(x))
        if not (out.steps <= bound and out.steps <= staf_budget(len(w))
                and r1_steps == 2 * blocks + 1):
            bad.append((name, x, out.steps, bound, r1_steps))
    verdict(2, not bad,
            f"step budgets (<= 2T+2|x|+2|y|+2 and <= N^2+4N+2) and "
            f"shuttle phase = 2*blocks+1 on {len(cases)} cases, "
            f"{len(bad)} violations")


def test_acceptance_3_tiling_lemma():
    t0 = time.perf_counter()
    bad = []
    total = 0
    # n = 1 squares are structurally too small to host the halt cell, so
    # the suite covers n = 2..5 (the function falls back to identity there)
    for name in ("id", "not"):
        m = library_machine(name)
        ts = compile_tileset(m)
        for n in range(2, 6):
            for k in range(1 << n):
                x = format(k, f"0{n}b")
                ref = run(m, x, step_bound(n))
                out = tile_closure(ts, bottom_row(m, x), n * n + 2)
                total += 1
                if not (isinstance(out, Completed)
                        and extract_output(out.top, n) == ref.output):
                    bad.append((name, x))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    verdict(3, ok, f"tiling lemma on {total} cases (n=2..5), "
                   f"{len(bad)} mismatches, {elapsed:.1f}s (< 60s)")


def test_acceptance_4_pcp_lemma():
    t0 = time.perf_counter()
    bad = []
    total = 0
    for name in ("id", "not"):
        m = library_machine(name)
        for n in range(1, 6):
            comp = compile_pcp(m, n)
            for k in range(1 << n):
                x = format(k, f"0{n}b")
                ref = run(m, x, step_bound(n))
                w = pcp_encode_input(comp, x)
                out = pcp_det_closure(comp.pairs, w, ptf_budget(len(w)),
                                      PAPER_POLICY, want_trace=False)
                total += 1
                if not (out.terminal
                        and pcp_decode_output(comp, out.result) == ref.output):
                    bad.append((name, x))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    verdict(4, ok, f"pcp lemma (cap 2, lookahead 1, budget |w|^4) on "
                   f"{total} cases, {len(bad)} mismatches, "
                   f"{elapsed:.1f}s (< 120s)")


def test_acceptance_5_coding_properties():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    alphabet = ["0", "1", "B", "$", "s1", "s2", "k", "s", "C0", "C1",
                "R0", "R1", "h"]
    n = 256
    trials = 1000
    structural_bad = 0
    p2_fails = 0
    m_width = None
    for t in range(trials):
        table = build_code_table(alphabet, n, salt_seed=t)
        m_width = (table.code_len - 5) // 2
        x = format(rng.getrandbits(n), f"0{n}b")
        y = format(rng.getrandbits(n), f"0{n}b")
        rep = verify_properties(table, x, y)
        if not (rep.prop1.ok and rep.prop3.ok):
            structural_bad += 1
        # structural half of property 4: blocks never prefix codes
        if not rep.prop4.ok and "no block decomposition" not in \
                rep.prop4.witness:
            structural_bad += 1
        if not rep.prop2.ok:
            p2_fails += 1
    bound = 2 * len(alphabet) * n / (1 << m_width)
    slack = 2.576 * math.sqrt(max(bound * (1 - bound), 1e-9) / trials)
    rate = p2_fails / trials
    elapsed = time.perf_counter() - t0
    ok = structural_bad == 0 and rate <= bound + slack and elapsed < 30.0
    verdict(5, ok, f"coding: props 1/3/4-structural always "
                   f"({structural_bad} fails), prop2 rate {rate:.4f} <= "
                   f"{bound:.4f}+{slack:.4f}, {elapsed:.1f}s (< 30s)")


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
    # (a) strict fails on a planted zero-run-3 semi-Thue instance
    m = library_machine("id")
    comp = compile_semithue(m, 5)
    w = st_encode_input(comp, "10001")
    inst = serialize_instance(comp.system, w)
    a = staf(inst, STRICT) == inst and staf(inst, LOOKAHEAD8) != inst
    # (b) a pending left move gives exactly 2 successors; the rotation
    # branch sticks in one step
    m = library_machine("not")
    pcomp = compile_pcp(m, 3)
    x = pcp_encode_input(pcomp, "101")
    b = False
    for _ in range(ptf_budget(len(x))):
        succ = yield_successors(pcomp.pairs, x)
        if len(succ) == 2:
            dead = [s for s in succ
                    if not yield_successors(pcomp.pairs, s.result)]
            b = len(dead) == 1
            break
        if len(succ) != 1:
            break
        x = succ[0].result
    # (c) unsplit compile of a two-direction machine is ambiguous
    from test_tiling import two_direction_machine
    zz = two_direction_machine()
    split = tile_closure(compile_tileset(zz, split=True),
                         bottom_row(zz, "01"), 6)
    unsplit = tile_closure(compile_tileset(zz, split=False),
                           bottom_row(zz, "01"), 6)
    c = isinstance(split, Completed) and isinstance(unsplit, AmbiguousRow)
    verdict(7, a and b and c,
            f"regressions: strict-identity/lookahead-success {a}, "
            f"pcp 2-successor dead rotation {b}, "
            f"tiling split-vs-unsplit {c}")


def test_acceptance_8_inversion():
    m = library_machine("not")
    rng = random.Random(99)

    # soundness at n in {8, 10, 12}
    sound = True
    for n in (8, 10, 12):
        comp = compile_semithue(m, n)
        x = format(rng.getrandbits(n), f"0{n}b")
        target = staf_target(comp, x)
        out = invert_staf_target(comp, target)
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
        target = staf_target(comp, x)
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
        out = invert_staf_target(comp, staf_target(comp, x))
        assert isinstance(out, Found)
        attempts.append(out.attempts)
    mean = statistics.fmean(attempts)
    # uniform rank over 1..2^n: sigma of the sample mean
    sigma = math.sqrt(((1 << n) ** 2 - 1) / 12 / len(attempts))
    centered = abs(mean - (1 << (n - 1)))
    stats_ok = centered <= 3 * sigma

    # forward 100x faster than inversion at n = 12
    comp12 = compile_semithue(m, 12)
    x = format(rng.getrandbits(12), "012b")
    t0 = time.perf_counter()
    target = staf_target(comp12, x)
    fwd = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = invert_staf_target(comp12, target)
    inv = time.perf_counter() - t0
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
