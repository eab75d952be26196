"""The engine (owflab.kernels) against naive references and a pinned digest.

The references (tests/oracles.py) restate each kernel from its definition,
without the engine's shortcuts: a sliding-window scan for the rewrite
matches, the equation u·y = x·v for the pair yields, and the strict and
lookahead steps over those with no index or table.  The closures are
checked as kernels._close driven by the reference steps.  The outputs of
steps and closures on seeded random systems are also pinned by a sha256
digest, so that any change to one of them is seen and declared.
"""

import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import naive_applications, naive_find_matches
from owflab import kernels
from owflab.inverter import staf_payload
from owflab.machine import LIBRARY_NAMES, library_machine
from owflab.pcp import PAPER_POLICY, compile_pcp, pcp_encode_input, ptf_budget
from owflab.semithue import DeterminismPolicy, LOOKAHEAD8, staf_budget
from owflab.stcompile import compile_semithue
from owflab.tiling import Tile, TileSet, tiling_closure

# sha256 of the reprs of _engine_outputs(), one a line
ENGINE_DIGEST = ("05126911865eb4a83cf560e5b089389003f20ace"
                 "0c5c1b0055278580c10ef173")


def bits(rng, lo, hi):
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def random_system(rng, m=4, max_len=4):
    lhs = [bits(rng, 1, max_len) for _ in range(m)]
    rhs = [bits(rng, 0, max_len) for _ in range(m)]
    return lhs, rhs


def random_pairs(rng):
    us = [bits(rng, 1, 3) for _ in range(3)]
    vs = [bits(rng, 0, 3) for _ in range(3)]
    return us, vs


def first_st_step(lhs, rhs, w, cap, depth, max_branch):
    """kernels.st_step as the first step of a closure from w: a fresh rule
    index and table of match lists, and w's length as reference."""
    return kernels.st_step(kernels.RuleIndex(lhs), rhs, w, cap, depth,
                           max_branch, len(w), {})


def kernel_cap(mode, cap):
    """The kernels' successor cap for a reference step's mode (0 strict,
    1 lookahead) and cap: strict is the cap 1."""
    return 1 if mode == 0 else cap


# --- the engine against the references -----------------------------------

def test_backend_name():
    assert kernels.backend_name() == "pure"


def test_st_find_matches_is_a_sliding_window_scan():
    rng = random.Random(0)
    for _ in range(300):
        lhs, _ = random_system(rng)
        w = bits(rng, 0, 12)
        assert kernels.st_find_matches(kernels.RuleIndex(lhs), w) == \
            naive_find_matches(lhs, w)


def bit_text(lo, hi):
    return st.text("01", min_size=lo, max_size=hi)


@st.composite
def systems_and_strings(draw):
    """Left-hand sides that share prefixes (short ones and ones long
    enough to be searched as a group), contain one another as prefixes and
    repeat, as compiled systems do; and a string built from pieces of
    them, so that the sides occur in it."""
    stem = draw(bit_text(0, 12))
    sides = draw(st.lists(
        st.one_of(bit_text(1, 6),
                  bit_text(0, 4).map(lambda t: stem + t).filter(bool)),
        min_size=1, max_size=8))
    if draw(st.booleans()):  # a prefix of a drawn side
        g = draw(st.sampled_from(sides))
        sides.append(g[:draw(st.integers(1, len(g)))])
    if draw(st.booleans()):  # a duplicate
        sides.append(draw(st.sampled_from(sides)))
    sides = draw(st.permutations(sides))
    pieces = st.one_of(st.sampled_from(sides), bit_text(1, 3))
    w = "".join(draw(st.lists(pieces, max_size=6)))
    return sides, w


@settings(max_examples=500, deadline=None)
@given(systems_and_strings())
@example((["0110", "0111", "010", "1"], "0110111"))  # short shared prefixes
@example((["0110101101", "01101011", "0110101110"],
          "011010110101101011100110101101"))  # one group, prefix 8
@example((["0", "01", "011"], "0110"))  # prefix chain, 1-character side
@example((["101", "101", "1010101011", "1010101011"],
          "10101010110101010110"))  # duplicate rules
@example((["11"], "1111"))  # a single rule
@example((["10101010", "1010"], "101"))  # sides longer than w
def test_st_find_matches_equals_sliding_window(system):
    sides, w = system
    assert kernels.st_find_matches(kernels.RuleIndex(sides), w) == \
        naive_find_matches(sides, w)


@st.composite
def bounded_scans(draw):
    """systems_and_strings with a stretch lo <= hi of the string's start
    positions, as a derivation scans."""
    sides, w = draw(systems_and_strings())
    hi = draw(st.integers(0, len(w)))
    return sides, w, draw(st.integers(0, hi)), hi


@settings(max_examples=500, deadline=None)
@given(bounded_scans())
# anchor hits at hi - 1 (a match) and at hi (a match left out)
@example((["0000000001", "00000000001"], "0" * 12 + "1", 0, 3))
# the run's shortest side is its anchor
@example((["10101010", "1010101011"], "1010101011010101010", 0, 12))
# a side that is a prefix of another side of the run
@example((["1100110010", "110011001011", "1100110011"],
          "11001100101101100110011", 0, 23))
# repeated sides, a run and a lone side
@example((["1100110010", "0110", "1100110010", "0110", "1100110011"],
          "011001100101100110011", 0, 21))
# sides longer than the string
@example((["101010101010", "10101010111", "10"], "1010101", 0, 7))
@example((["0110101101", "01101011", "1"], "0110101101", 2, 2))  # lo == hi
def test_bounded_scan_keeps_the_matches_that_start_in_bounds(scan):
    sides, w, lo, hi = scan
    assert kernels._scan(kernels.RuleIndex(sides), w, lo, hi) == \
        [(q, i) for q, i in naive_find_matches(sides, w) if lo <= q < hi]


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_compiled_systems_scan_one_anchor(name):
    """Every compiled left side shares the code table's prefix, so the
    index of a library machine's system is one needle, and a closure keeps
    a list of up to one match per distinct head (13 for not at n = 7)."""
    for n in range(4, 13):
        sides = compile_semithue(library_machine(name), n).system.lhs
        lhs = kernels.RuleIndex(sides)
        assert not lhs.lone and len(lhs.shared) == 1, (name, n)
        h = min(map(len, sides))
        assert lhs.keep_max == len({g[:h] for g in sides}), (name, n)
    assert kernels.RuleIndex(
        compile_semithue(library_machine("not"), 7).system.lhs).keep_max == 13


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(bit_text(1, 5), bit_text(0, 5)), min_size=1,
                max_size=6),
       bit_text(0, 8))
@example([("0110", "10"), ("01", "10")], "01")  # len(x) < len(u)
@example([("011", "1"), ("0", "")], "01")  # u = x·v, y empty
@example([], "01")  # no pairs
@example([("01", "1"), ("1", "0"), ("01", ""), ("01", "1")], "011")  # same u
@example([("0", "1"), ("01100", "0"), ("0110", "01")], "011")  # |u0| < |x| < |u2|
@example([("0", "1"), ("01", "0"), ("0", "")], "01")  # hits 0, 2 then 1
def test_pcp_applications_equal_the_yield_equation(pairs, x):
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    assert kernels.pcp_applications(kernels.pair_index(us), vs, x) == \
        naive_applications(us, vs, x)


def test_strict_st_step_matches_reference():
    rng = random.Random(1)
    for _ in range(400):
        lhs, rhs = random_system(rng)
        w = bits(rng, 0, 10)
        assert first_st_step(lhs, rhs, w, 1, 3, 16) == \
            oracles.st_step(lhs, rhs, w, 0, 3, 16, len(w), 0), (lhs, rhs, w)


def test_pcp_applications_solve_the_yield_equation():
    rng = random.Random(3)
    for _ in range(300):
        us, vs = random_pairs(rng)
        x = bits(rng, 0, 8)
        index = kernels.pair_index(us)
        assert kernels.pcp_applications(index, vs, x) == \
            naive_applications(us, vs, x)
        assert kernels.pcp_step(index, vs, x, 1, 16, 1) == \
            oracles.pcp_step(us, vs, x, 0, 1, 16, 2), (us, vs, x)


def test_lookahead_step_is_a_reference_step():
    """A unique lookahead step takes one of the steps the references list."""
    rng = random.Random(4)
    for _ in range(300):
        lhs, rhs = random_system(rng)
        w = bits(rng, 0, 10)
        kind, y, p, i, _ = first_st_step(lhs, rhs, w, 0, 3, 16)
        if kind is None:
            assert (p, i) in naive_find_matches(lhs, w)
            assert y == w[:p] + rhs[i] + w[p + len(lhs[i]):]
        us, vs = random_pairs(rng)
        kind, y, _, i, _ = kernels.pcp_step(kernels.pair_index(us), vs, w,
                                            1, 16, 2)
        if kind is None:
            assert (i, y) in naive_applications(us, vs, w)


def test_one_pcp_closure_indexes_its_pairs_once(monkeypatch):
    comp = compile_pcp(library_machine("not"), 4)
    us, vs = comp.pairs.lhs, comp.pairs.rhs
    x = pcp_encode_input(comp, "1010")
    args = (x, ptf_budget(len(x)), PAPER_POLICY, False)
    want = kernels.pcp_closure(us, vs, *args)

    built = []
    calls = []
    original_index = kernels.pair_index
    original_apply = kernels.pcp_applications

    def counting_index(us):
        built.append(len(us))
        return original_index(us)

    def counting_apply(us, vs, x):
        calls.append(1)
        return original_apply(us, vs, x)

    monkeypatch.setattr(kernels, "pair_index", counting_index)
    monkeypatch.setattr(kernels, "pcp_applications", counting_apply)
    assert kernels.pcp_closure(us, vs, *args) == want
    assert want.steps > 10  # each with at least one lookup
    assert built == [len(us)] and len(calls) > want.steps


# --- pinned outputs -------------------------------------------------------

def _engine_outputs():
    """Steps and closures, strict (cap 1) then lookahead, on the seeded
    systems above."""
    out = []
    rng = random.Random(1)
    for _ in range(400):
        lhs, rhs = random_system(rng)
        w = bits(rng, 0, 10)
        for cap in (1, 0):
            out.append(first_st_step(lhs, rhs, w, cap, 3, 16))
    rng = random.Random(2)
    for _ in range(200):
        lhs, rhs = random_system(rng, m=3, max_len=3)
        w = bits(rng, 0, 8)
        for cap in (1, 0):
            out.append(kernels.st_closure(kernels.RuleIndex(lhs), rhs, w, 50,
                                          DeterminismPolicy(3, cap), True))
    rng = random.Random(3)
    for _ in range(300):
        us, vs = random_pairs(rng)
        x = bits(rng, 0, 8)
        index = kernels.pair_index(us)
        for cap in (1, 2):
            out.append(kernels.pcp_step(index, vs, x, 1, 16, cap))
            out.append(kernels.pcp_closure(us, vs, x, 40,
                                           DeterminismPolicy(1, cap), True))
        # deeper lookahead without a successor cap: longer depth searches
        out.append(kernels.pcp_step(index, vs, x, 5, 16, 0))
    return out


def test_engine_outputs_are_pinned(monkeypatch):
    # the branch and work limits the digest was recorded with
    monkeypatch.setattr(kernels, "MAX_BRANCH", 16)
    monkeypatch.setattr(kernels, "WORK_LIMIT", 5000)
    text = "\n".join(map(repr, _engine_outputs()))
    assert hashlib.sha256(text.encode()).hexdigest() == ENGINE_DIGEST


def test_closure_outcomes_keep_the_tracer_contract(monkeypatch):
    """owfbench's layer tracer reads a string closure's steps as out[2]
    and counts its outcomes by reason: "" (terminal), Ambiguous,
    BudgetExceeded or BranchOverflow, and any other reason fails it.  It
    counts tiling's as Completed, Stalled or AmbiguousRow.  Each reason
    occurs here, and a closure is terminal exactly when its reason is
    empty."""
    monkeypatch.setattr(kernels, "MAX_BRANCH", 2)  # so that some overflow
    strings = [o for o in _engine_outputs()
               if isinstance(o, kernels.ClosureOutcome)]
    rng = random.Random(18)
    squares = []
    for _ in range(300):
        k = rng.randint(1, 3)
        tiles = {Tile(*(rng.randrange(k) for _ in range(4)))
                 for _ in range(rng.randint(1, 6))}
        ts = TileSet(tuple(range(k)), tuple(tiles))
        row = [rng.randrange(k) for _ in range(rng.randint(1, 9))]
        squares.append(tiling_closure(ts, row, rng.randint(1, 12)))
    for out in strings + squares:
        assert out[2] == out.steps
        assert out.terminal == (out.reason == "")
    assert {o.reason for o in strings} == {
        "", "Ambiguous", "BudgetExceeded", "BranchOverflow"}
    assert {o.reason for o in squares} == {"", "Stalled", "AmbiguousRow"}


# --- derived match lists ----------------------------------------------------

@st.composite
def rewrite_systems(draw):
    """systems_and_strings with a right side for each rule, empty, one
    character or longer."""
    sides, w = draw(systems_and_strings())
    rhs = [draw(bit_text(0, 5)) for _ in sides]
    return sides, rhs, w


DERIVE_EXAMPLES = [
    # one-character sides, an empty right side; steps at 0 and at the end
    (["1", "0"], ["", "11"], "1001"),
    # shared prefix of 8 searched as a group, right sides shorter and longer
    (["0110101101", "01101011", "1"], ["0", "", "0110101101"],
     "1011010110101101011"),
    # sides longer than the string, and a match ending at the string's end
    (["10101010101", "01", "1"], ["1", "10101010101", ""], "0101"),
]


@settings(max_examples=400, deadline=None)
@given(rewrite_systems())
@example(DERIVE_EXAMPLES[0])
@example(DERIVE_EXAMPLES[1])
@example(DERIVE_EXAMPLES[2])
def test_derived_match_lists_equal_a_full_scan(system):
    """From any string, every single step's derived list is the list a
    full scan of the successor finds."""
    sides, rhs, w = system
    lhs = kernels.RuleIndex(sides)
    matches = kernels.st_find_matches(lhs, w)
    for p, i in matches:
        y = w[:p] + rhs[i] + w[p + len(sides[i]):]
        assert kernels._st_derive(lhs, w, matches, p, i, y) == \
            naive_find_matches(sides, y), (p, i, y)


@settings(max_examples=300, deadline=None)
@given(rewrite_systems(), st.sampled_from([1, 0]), st.booleans())
@example(DERIVE_EXAMPLES[0], 0, True)
@example(DERIVE_EXAMPLES[1], 0, True)
@example(DERIVE_EXAMPLES[2], 1, False)
def test_closure_table_lists_equal_a_full_scan(system, cap, keep_all):
    """Along a closure, the list of each string a step or the lookahead
    expands, whether read from the closure's table, derived or scanned,
    equals a full scan.  keep_all lifts the density limit, so that every
    list is kept in the table."""
    sides, rhs, w = system
    lhs = kernels.RuleIndex(sides)
    if keep_all:
        lhs.keep_max = 1 << 20
    original = kernels._st_successors

    def checked(lhs_, rhs_, s, matches):
        assert matches == naive_find_matches(sides, s), s
        return original(lhs_, rhs_, s, matches)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_st_successors", checked)
        mp.setattr(kernels, "MAX_BRANCH", 8)
        kernels.st_closure(lhs, rhs, w, 20, DeterminismPolicy(2, cap), False)


def _lists_made(mp):
    """Patch the two ways a match list is made, derived or scanned; the
    (string, number of matches) of each list made."""
    made = []
    derive, scan = kernels._st_derive, kernels.st_find_matches

    def derived(lhs, w, matches, p, i, y):
        out = derive(lhs, w, matches, p, i, y)
        made.append((y, len(out)))
        return out

    def scanned(lhs, w):
        out = scan(lhs, w)
        made.append((w, len(out)))
        return out

    mp.setattr(kernels, "_st_derive", derived)
    mp.setattr(kernels, "st_find_matches", scanned)
    return made


@settings(max_examples=300, deadline=None)
@given(rewrite_systems(), st.sampled_from([1, 0]))
@example(DERIVE_EXAMPLES[1], 0)
def _kept_lists_are_made_once(system, cap):
    sides, rhs, w = system
    lhs = kernels.RuleIndex(sides)
    with pytest.MonkeyPatch.context() as mp:
        made = _lists_made(mp)
        mp.setattr(kernels, "MAX_BRANCH", 8)
        kernels.st_closure(lhs, rhs, w, 20, DeterminismPolicy(2, cap), False)
    counts = Counter(s for s, _ in made)
    assert all(n > lhs.keep_max for s, n in made if counts[s] > 1)


def test_one_closure_derives_each_string_once():
    """Within one closure no string's match list is made twice, unless it
    is too dense to keep; on a compiled candidate (not at n = 7, the
    payload of 1111111), whose lists are all kept, no string's is."""
    _kept_lists_are_made_once()
    comp = compile_semithue(library_machine("not"), 7)
    w = staf_payload(comp, "1111111")
    with pytest.MonkeyPatch.context() as mp:
        made = _lists_made(mp)
        out = kernels.st_closure(
            comp.system.index, comp.system.rhs, w, staf_budget(len(w)),
            LOOKAHEAD8, False)
    assert out.terminal and out.steps == 39
    strings = [s for s, _ in made]
    assert len(strings) > 39 and len(set(strings)) == len(strings)


def test_dense_match_lists_stay_out_of_the_closure_table():
    """A sampled system whose strings hold about 1,700 matches each: the
    closure's table keeps no such list, so one closure's allocation peak
    stays that of rescanning every string (about 0.4 MB; 18.9 MB when the
    table keeps every list), and the outcome is unchanged."""
    rules = (("1", "1"), ("110000110100010111111011100", "10"), ("0", "1"),
             ("10001100", "1"), ("0", "011"), ("10", "0"), ("1", "1"),
             ("00", "0"), ("011", "1"), ("0", "1"), ("111", "1"))
    lhs = kernels.RuleIndex([g for g, _ in rules])
    rhs = [h for _, h in rules]
    tracemalloc.start()
    try:
        # staf's closure of the payload "0": budget 7, lookahead depth 8,
        # at most 64 branches
        out = kernels.st_closure(lhs, rhs, "0", 7, LOOKAHEAD8, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == (False, "011", 1, "Ambiguous",
                   (kernels.TraceStep(1, 4, 0, 3),))
    assert peak < 2_000_000, peak


# --- steps and closures against the references ------------------------------

@settings(max_examples=300, deadline=None)
@given(rewrite_systems(), st.sampled_from([(0, 0), (1, 0), (1, 2)]),
       st.integers(1, 3), st.sampled_from([4, 16]))
# a first step that a memo shared across the closure's searches left
# ambiguous, because an earlier candidate's search had filled it
@example((["0001", "011", "00", "1"], ["110", "1", "00", ""], "0100111001"),
         (1, 0), 3, 16)
# a closure whose third step such a memo made unique
@example((["010", "111", "011"], ["101", "000", "11"], "10010101"), (1, 0),
         3, 16)
def test_rewrite_steps_and_closures_equal_the_reference(system, mode_cap,
                                                        depth, branch):
    """st_step, as a closure's first step, is the reference step, and
    st_closure is the closure loop driven by the reference step."""
    sides, rhs, w = system
    mode, cap = mode_cap

    def reference(s):
        return oracles.st_step(sides, rhs, s, mode, depth, branch, len(w),
                               cap)

    step_cap = kernel_cap(mode, cap)
    assert first_st_step(sides, rhs, w, step_cap, depth, branch) == \
        reference(w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "MAX_BRANCH", branch)
        got = kernels.st_closure(kernels.RuleIndex(sides), rhs, w, 20,
                                 DeterminismPolicy(depth, step_cap), True)
    assert got == kernels._close(reference, w, 20, True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(bit_text(1, 4), bit_text(0, 4)), min_size=1,
                max_size=5),
       bit_text(0, 8),
       # (mode, depth, branch, successor cap)
       st.sampled_from([(1, 1, 16, 2), (1, 5, 16, 0), (1, 3, 4, 0),
                        (0, 1, 16, 2)]))
def test_yield_steps_and_closures_equal_the_reference(pairs, x, config):
    """pcp_step is the reference step, and pcp_closure is the closure loop
    driven by the reference step."""
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    mode, depth, branch, cap = config

    def reference(s):
        return oracles.pcp_step(us, vs, s, mode, depth, branch, cap)

    step_cap = kernel_cap(mode, cap)
    assert kernels.pcp_step(kernels.pair_index(us), vs, x, depth, branch,
                            step_cap) == reference(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "MAX_BRANCH", branch)
        got = kernels.pcp_closure(us, vs, x, 40,
                                  DeterminismPolicy(depth, step_cap), True)
    assert got == kernels._close(reference, x, 40, True)
