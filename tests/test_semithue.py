from sys import modules as sys_modules
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialized_rules
from owflab import kernels
from owflab.bitcodes import gamma_encode
from owflab.semithue import (
    DeterminismPolicy,
    InstanceParseError,
    LOOKAHEAD8,
    RewriteSystem,
    STRICT,
    det_closure,
    instance_from_text,
    instance_to_text,
    parse_instance,
    serialize_instance,
    staf,
    staf_budget,
    trace_to_jsonl,
)
from owflab.tiling import (
    Tile,
    TileSet,
    TilingError,
    parse_tiling_instance,
    serialize_tiling_instance,
    tiling_f,
)


def step(sys, w, policy):
    """One kernels.st_step under policy, as a closure's first step from w
    (w's length as reference, a fresh table of match lists): (reason,
    result), reason None when the step is unique."""
    reason, y, _, _, _ = kernels.st_step(sys.index, sys.rhs, w,
                                         policy.successor_cap, policy.depth,
                                         kernels.MAX_BRANCH, len(w), {})
    return reason, y


def test_strict_step_kinds():
    sys = RewriteSystem((("01", "1"), ("10", "0")))
    assert step(sys, "11", STRICT)[0] == ""  # stuck
    assert step(sys, "011", STRICT) == (None, "11")
    # two rules match at different positions
    assert step(sys, "0110", STRICT)[0] == "Ambiguous"
    # one rule at two positions is already ambiguous in strict mode
    assert step(sys, "0101", STRICT)[0] == "Ambiguous"


def test_lookahead_prunes_dead_branch():
    # "01" -> "10" is stuck at the reference length; "01" -> "0" can only
    # reach shorter stuck strings, so lookahead discards it.
    sys = RewriteSystem((("01", "10"), ("01", "0")))
    assert (step(sys, "01", DeterminismPolicy(depth=3))
            == (None, "10"))
    # strict mode cannot choose
    assert step(sys, "01", STRICT)[0] == "Ambiguous"


def test_lookahead_survivor_requires_reference_length():
    # both branches survive (both reach stuck strings of the start length)
    sys = RewriteSystem((("1", "0"), ("10", "01")))
    assert (step(sys, "10", DeterminismPolicy(depth=2))[0]
            == "Ambiguous")


def test_closure_terminal_and_trace():
    # a single 1 drifting right: every step has a unique match
    sys = RewriteSystem((("10", "01"),))
    out = det_closure(sys, "1000", 100, LOOKAHEAD8)
    assert out.terminal and out.result == "0001"
    assert out.steps == 3
    assert [t.step for t in out.trace] == [1, 2, 3]
    assert out.trace[-1].len_after == 4
    jl = trace_to_jsonl(out.trace)
    assert jl.count("\n") == 2


def test_closure_budget_and_cycle():
    grow = RewriteSystem((("1", "11"),))
    out = det_closure(grow, "1", 5, LOOKAHEAD8)
    assert not out.terminal and out.reason == "BudgetExceeded"
    spin = RewriteSystem((("10", "01"), ("01", "10")))
    out = det_closure(spin, "10", 1000, STRICT)
    assert not out.terminal and out.reason == "BudgetExceeded"
    assert out.steps < 1000  # cycle detected, not exhausted


def test_closure_work_limit(monkeypatch):
    monkeypatch.setattr(kernels, "WORK_LIMIT", 100)
    grow = RewriteSystem((("1", "11"),))
    out = det_closure(grow, "1", 10**6, LOOKAHEAD8, want_trace=False)
    # 2 + 3 + ... + 14 = 104 characters rewritten by step 13
    assert not out.terminal and out.reason == "BudgetExceeded"
    assert out.steps == 13


def test_branch_overflow(monkeypatch):
    # at most one candidate per step: "1" -> "0" and "1" -> "00" overflow
    monkeypatch.setattr(kernels, "MAX_BRANCH", 1)
    sys = RewriteSystem((("1", "0"), ("1", "00")))
    out = det_closure(sys, "111", 100, DeterminismPolicy(depth=2),
                      want_trace=False)
    assert not out.terminal and out.reason == "BranchOverflow"


def test_serialize_parse_round_trip():
    sys = RewriteSystem((("01", "1"), ("1", "")))
    w = serialize_instance(sys, "0110")
    sys2, payload = parse_instance(w)
    assert sys2 == sys and payload == "0110"


@settings(max_examples=60)
@given(st.lists(st.tuples(st.text("01", min_size=1, max_size=6),
                          st.text("01", max_size=6)), max_size=5),
       st.text("01", max_size=12))
def test_round_trip_random(rules, payload):
    sys = RewriteSystem(tuple(rules))
    sys2, payload2 = parse_instance(serialize_instance(sys, payload))
    assert sys2 == sys and payload2 == payload


@settings(max_examples=300)
@given(st.one_of(st.text("01", max_size=200),
                 # a rule count of 1-4 up front, so that more strings parse
                 st.builds(lambda m, tail: gamma_encode(m) + tail,
                           st.integers(2, 5), st.text("01", max_size=200))))
def test_parse_then_serialize_gives_back_the_input(w):
    try:
        parsed = parse_instance(w)
    except InstanceParseError:
        return
    assert serialize_instance(*parsed) == w


@settings(max_examples=60)
@given(st.lists(st.tuples(st.text("01", min_size=1, max_size=6),
                          st.text("01", max_size=6)), max_size=5))
def test_head_is_the_per_rule_gamma_encoding(rules):
    sys = RewriteSystem(tuple(rules))
    assert sys.head == serialized_rules(sys)
    assert serialize_instance(sys, "01") == serialized_rules(sys) + "01"


def test_head_of_no_rules_and_of_empty_right_sides():
    for sys in (RewriteSystem(()), RewriteSystem((("1", ""), ("01", ""))),
                RewriteSystem((("1", ""),))):
        assert sys.head == serialized_rules(sys)
        assert parse_instance(sys.head) == (RewriteSystem(sys.rules), "")
    assert RewriteSystem(()).head == "1"  # gamma(0 + 1)


def test_parse_instance_rejects_junk():
    with pytest.raises(InstanceParseError):
        parse_instance("2x")
    with pytest.raises(InstanceParseError):
        parse_instance("")
    with pytest.raises(InstanceParseError):
        parse_instance("001")  # gamma says 4 rules, then truncated


def test_staf_identity_on_unparseable():
    assert staf("") == ""
    assert staf("00") == "00"


def test_staf_total_and_idempotent_small():
    for k in range(1 << 10):
        w = format(k, "010b")
        y = staf(w)
        assert len(y) == len(w)
        assert staf(y) == y


def test_staf_known_progress():
    sys = RewriteSystem((("10", "01"),))
    w = serialize_instance(sys, "1000")
    y = staf(w)
    assert y == serialize_instance(sys, "0001")
    assert staf(y) == y


def test_staf_budget_formula():
    assert staf_budget(32) == 32 * 32 + 4 * 32 + 2 == 1154


def test_text_format_round_trip():
    sys = RewriteSystem((("01", "1"), ("1", "")))
    text = instance_to_text(sys, "0110")
    sys2, payload = instance_from_text(text)
    assert sys2 == sys and payload == "0110"
    with pytest.raises(InstanceParseError):
        instance_from_text("STS v2\n")
    with pytest.raises(InstanceParseError):
        instance_from_text("STS v1\nrules: 1\n01 1\n")  # missing input line


def test_policy_validation():
    with pytest.raises(ValueError):
        DeterminismPolicy(successor_cap=-1)
    with pytest.raises(ValueError):
        DeterminismPolicy(depth=0)


def test_rule_sides_are_built_once():
    sys = RewriteSystem((("1", "0"), ("01", "")))
    assert sys.lhs == ["1", "01"] and sys.rhs == ["0", ""]
    assert sys.lhs is sys.lhs


def test_one_call_reads_each_instance_bit_once(monkeypatch):
    from owflab import bitcodes
    from owflab.pcp import ptf
    original = bitcodes.is_bits
    read = []

    def counting(s):
        read.append(len(s))
        return original(s)

    for name, module in list(sys_modules.items()):
        if (name.startswith("owflab")
                and getattr(module, "is_bits", None) is original):
            monkeypatch.setattr(module, "is_bits", counting)
    long_pair = RewriteSystem((("1" * 40, "0" * 40),))
    # every south 0 tile turns into a 1: the square's second row is 1 1
    ones = TileSet((0, 1), (Tile(1, 0, 0, 0), Tile(1, 1, 0, 0)))
    for f, w in [(staf, serialize_instance(RewriteSystem((("10", "01"),)),
                                           "1000")),
                 (ptf, serialize_instance(RewriteSystem((("1", "0"),)), "1")),
                 # a second check of the long pair strings overruns len(w)
                 (parse_instance, serialize_instance(long_pair, "1")),
                 (tiling_f, serialize_tiling_instance(ones, [0, 0]))]:
        read.clear()
        assert f(w) != w
        assert sum(read) == len(w), f.__name__


@st.composite
def bit_instances(draw):
    """A serialized instance of either bit format: (bits, its parser, the
    parser's error, the functions that read the format)."""
    from owflab.pcp import ptf
    if draw(st.booleans()):
        rules = draw(st.lists(st.tuples(st.text("01", min_size=1, max_size=6),
                                        st.text("01", max_size=6)),
                              max_size=5))
        w = serialize_instance(RewriteSystem(tuple(rules)),
                               draw(st.text("01", max_size=12)))
        return w, parse_instance, InstanceParseError, (staf, ptf)
    k = draw(st.integers(1, 4))
    sym = st.integers(0, k - 1)
    tiles = draw(st.lists(st.builds(Tile, sym, sym, sym, sym), unique=True,
                          max_size=4))
    w = serialize_tiling_instance(TileSet(tuple(range(k)), tuple(tiles)),
                                  draw(st.lists(sym, max_size=6)))
    return w, parse_tiling_instance, TilingError, (tiling_f,)


@settings(max_examples=300)
@given(bit_instances(), st.sampled_from("2_+- \n"), st.data())
def test_non_bit_character_anywhere_is_rejected(instance, ch, data):
    w, parse, error, functions = instance
    k = data.draw(st.integers(0, len(w)))
    bad = w[:k] + ch + w[k:]
    with pytest.raises(error):
        parse(bad)
    assert all(f(bad) == bad for f in functions)


def test_rule_validation():
    # RewriteSystem checks what both formats can express: an empty left
    # side ("-" in text, the gamma code "1" in bits).  The parsers check
    # the bits, the text ones for every rule or pair line and the payload
    from owflab.pcp import pairs_from_text
    with pytest.raises(InstanceParseError, match="empty left side"):
        RewriteSystem((("", "1"),))
    for lines in ["- 1\ninput: 0", "2 1\ninput: 0", "1 2\ninput: 0",
                  "1 -\n01 x\ninput: 0", "1 0\ninput: 0x"]:
        m = lines.count("\n")
        with pytest.raises(InstanceParseError):
            instance_from_text(f"STS v1\nrules: {m}\n{lines}\n")
        with pytest.raises(InstanceParseError):
            pairs_from_text(f"PCP v1\npairs: {m}\n{lines}\n")
    for rules in [(("", "1"),), (("2", "1"),), (("1", "2"),),
                  (("1 ", "0"),), (("1", "0\n"),),
                  (("1", "0"), ("01", "x"))]:
        with pytest.raises(InstanceParseError):
            parse_instance(serialized_rules(SimpleNamespace(rules=rules))
                           + "0")
