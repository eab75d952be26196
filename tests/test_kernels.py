"""The engine (owflab.kernels) against naive references and a pinned digest.

The references below restate each kernel from its definition, without the
engine's shortcuts: a sliding-window scan for the rewrite matches, the
equation u·y = x·v for the pair yields, and the strict step rules.  The
lookahead steps and the closures have no independent reference, so their
outputs on seeded random systems are pinned by a sha256 digest; a change
to the matcher or the closure loop that alters any of them fails here.
"""

import hashlib
import random
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from owflab import kernels

# sha256 of _engine_outputs(), recorded from the engine as it was before
# its two closure loops were merged into one
ENGINE_DIGEST = ("b730f6622d98e2f9d9742b9509fd3464e74568c7"
                 "efcc5bf8a3f2214cb301823d")


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


# --- naive references -----------------------------------------------------

def naive_find_matches(lhs, w):
    return [(p, i) for p in range(len(w)) for i, g in enumerate(lhs)
            if w[p:p + len(g)] == g]


def naive_applications(us, vs, x):
    out = []
    for i, (u, v) in enumerate(zip(us, vs)):
        y = (x + v)[len(u):]
        if u + y == x + v:
            out.append((i, y))
    return out


def naive_st_step_strict(lhs, rhs, w):
    matches = naive_find_matches(lhs, w)
    if not matches:
        return (kernels.STEP_STUCK, w, -1, -1, 0)
    if len(matches) > 1:
        return (kernels.STEP_AMBIGUOUS, w, -1, -1, len(matches))
    p, i = matches[0]
    return (kernels.STEP_UNIQUE, w[:p] + rhs[i] + w[p + len(lhs[i]):], p, i, 1)


def naive_pcp_step_strict(us, vs, x):
    apps = naive_applications(us, vs, x)
    if not apps:
        return (kernels.STEP_STUCK, x, -1, -1, 0)
    if len(apps) > 1:
        return (kernels.STEP_AMBIGUOUS, x, -1, -1, len(apps))
    i, y = apps[0]
    return (kernels.STEP_UNIQUE, y, -1, i, 1)


# --- the engine against the references -----------------------------------

def test_backend_name():
    assert kernels.backend_name() == "pure"


def test_st_find_matches_is_a_sliding_window_scan():
    rng = random.Random(0)
    for _ in range(300):
        lhs, _ = random_system(rng)
        w = bits(rng, 0, 12)
        assert kernels.st_find_matches(lhs, w) == naive_find_matches(lhs, w)


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
    want = naive_find_matches(sides, w)
    assert kernels.st_find_matches(sides, w) == want
    assert kernels.st_find_matches(kernels.RuleIndex(sides), w) == want


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(bit_text(1, 5), bit_text(0, 5)), min_size=1,
                max_size=6),
       bit_text(0, 8))
@example([("0110", "10"), ("01", "10")], "01")  # len(x) < len(u)
@example([("011", "1"), ("0", "")], "01")  # u = x·v, y empty
def test_pcp_applications_equal_the_yield_equation(pairs, x):
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    assert kernels.pcp_applications(us, vs, x) == \
        naive_applications(us, vs, x)


def test_strict_st_step_matches_reference():
    rng = random.Random(1)
    for _ in range(400):
        lhs, rhs = random_system(rng)
        w = bits(rng, 0, 10)
        assert kernels.st_step(lhs, rhs, w, 0, 3, 16) == \
            naive_st_step_strict(lhs, rhs, w), (lhs, rhs, w)


def test_pcp_applications_solve_the_yield_equation():
    rng = random.Random(3)
    for _ in range(300):
        us, vs = random_pairs(rng)
        x = bits(rng, 0, 8)
        assert kernels.pcp_applications(us, vs, x) == \
            naive_applications(us, vs, x)
        assert kernels.pcp_step(us, vs, x, 0, 1, 16, 2) == \
            naive_pcp_step_strict(us, vs, x), (us, vs, x)


def test_lookahead_step_is_a_reference_step():
    """A unique lookahead step takes one of the steps the references list."""
    rng = random.Random(4)
    for _ in range(300):
        lhs, rhs = random_system(rng)
        w = bits(rng, 0, 10)
        kind, y, p, i, _ = kernels.st_step(lhs, rhs, w, 1, 3, 16)
        if kind == kernels.STEP_UNIQUE:
            assert (p, i) in naive_find_matches(lhs, w)
            assert y == w[:p] + rhs[i] + w[p + len(lhs[i]):]
        us, vs = random_pairs(rng)
        kind, y, _, i, _ = kernels.pcp_step(us, vs, w, 1, 1, 16, 2)
        if kind == kernels.STEP_UNIQUE:
            assert (i, y) in naive_applications(us, vs, w)


# --- pinned outputs -------------------------------------------------------

def _engine_outputs():
    """Steps and closures, both modes, on the seeded systems above."""
    out = []
    rng = random.Random(1)
    for _ in range(400):
        lhs, rhs = random_system(rng)
        w = bits(rng, 0, 10)
        for mode in (0, 1):
            out.append(kernels.st_step(lhs, rhs, w, mode, 3, 16))
    rng = random.Random(2)
    for _ in range(200):
        lhs, rhs = random_system(rng, m=3, max_len=3)
        w = bits(rng, 0, 8)
        for mode in (0, 1):
            out.append(kernels.st_closure(lhs, rhs, w, 50, mode, 3, 16,
                                          want_trace=True, work_limit=5000))
    rng = random.Random(3)
    for _ in range(300):
        us, vs = random_pairs(rng)
        x = bits(rng, 0, 8)
        for mode in (0, 1):
            out.append(kernels.pcp_step(us, vs, x, mode, 1, 16, 2))
            out.append(kernels.pcp_closure(us, vs, x, 40, mode, 1, 16, 2,
                                           want_trace=True, work_limit=5000))
        # deeper lookahead without a successor cap: longer depth searches
        out.append(kernels.pcp_step(us, vs, x, 1, 5, 16, 0))
    return out


def test_engine_outputs_are_pinned():
    text = "\n".join(repr(r) for r in _engine_outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == ENGINE_DIGEST


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
@given(rewrite_systems(), st.sampled_from([0, 1]), st.booleans())
@example(DERIVE_EXAMPLES[0], 1, True)
@example(DERIVE_EXAMPLES[1], 1, True)
@example(DERIVE_EXAMPLES[2], 0, False)
def test_carried_match_lists_equal_a_full_scan(system, mode, carry_all):
    """Along a closure, the list carried to each step and the list of each
    string the lookahead expands equal a full scan.  carry_all lifts the
    density limit, so that every list is carried."""
    sides, rhs, w = system
    lhs = kernels.RuleIndex(sides)
    if carry_all:
        lhs.carry_max = 1 << 20
    original = kernels._st_successors

    def checked(lhs_, rhs_, s, matches):
        assert matches == naive_find_matches(sides, s), s
        return original(lhs_, rhs_, s, matches)

    kernels._st_successors = checked
    try:
        carry = [w, None]
        memo = {}
        ref_len = len(w)
        for _ in range(20):
            kind, y, _, _, _ = kernels.st_step(lhs, rhs, w, mode, 2, 8,
                                               ref_len, memo, carry)
            if kind != kernels.STEP_UNIQUE:
                break
            assert carry[0] == y
            if carry[1] is not None:
                assert carry[1] == naive_find_matches(sides, y)
            w = y
    finally:
        kernels._st_successors = original


def test_dense_match_lists_are_not_carried():
    """A sampled system whose strings hold about 1,700 matches each: the
    lookahead keeps such lists off its stack, so one closure's allocation
    peak stays that of rescanning every string (0.29 MB; 18.9 MB when
    every list is carried), and the outcome is unchanged."""
    rules = (("1", "1"), ("110000110100010111111011100", "10"), ("0", "1"),
             ("10001100", "1"), ("0", "011"), ("10", "0"), ("1", "1"),
             ("00", "0"), ("011", "1"), ("0", "1"), ("111", "1"))
    lhs = kernels.RuleIndex([g for g, _ in rules])
    rhs = [h for _, h in rules]
    tracemalloc.start()
    try:
        # staf's closure of the payload "0": budget 7, lookahead depth 8,
        # at most 64 branches
        out = kernels.st_closure(lhs, rhs, "0", 7, 1, 8, 64, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == (kernels.CLOSE_AMBIGUOUS, "011", 1, [(4, 0, 3)])
    assert peak < 2_000_000, peak
