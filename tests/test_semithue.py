from sys import modules as sys_modules

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owflab.semithue import (
    ClosureOutcome,
    DeterminismPolicy,
    InstanceParseError,
    LOOKAHEAD8,
    Match,
    RewriteSystem,
    STRICT,
    apply_match,
    det_closure,
    det_step,
    find_matches,
    instance_from_text,
    instance_to_text,
    parse_instance,
    serialize_instance,
    staf,
    staf_budget,
    trace_to_jsonl,
)


def test_find_matches_sorted_and_complete():
    sys = RewriteSystem((("01", "1"), ("1", "0")))
    ms = find_matches(sys, "011")
    assert [(m.position, m.rule_index) for m in ms] == [(0, 0), (1, 1), (2, 1)]


def test_apply_match():
    sys = RewriteSystem((("01", "1"),))
    assert apply_match(sys, "001", Match(0, 1)) == "01"
    with pytest.raises(ValueError):
        apply_match(sys, "001", Match(0, 0))


def test_strict_step_kinds():
    sys = RewriteSystem((("01", "1"), ("10", "0")))
    assert det_step(sys, "11", STRICT).kind == "stuck"
    out = det_step(sys, "011", STRICT)
    assert out.kind == "unique" and out.result == "11"
    # two rules match at different positions
    assert det_step(sys, "0110", STRICT).kind == "ambiguous"
    # one rule at two positions is already ambiguous in strict mode
    assert det_step(sys, "0101", STRICT).kind == "ambiguous"


def test_lookahead_prunes_dead_branch():
    # "01" -> "10" is stuck at the reference length; "01" -> "0" can only
    # reach shorter stuck strings, so lookahead discards it.
    sys = RewriteSystem((("01", "10"), ("01", "0")))
    out = det_step(sys, "01", DeterminismPolicy("lookahead", depth=3))
    assert out.kind == "unique" and out.result == "10"
    # strict mode cannot choose
    assert det_step(sys, "01", STRICT).kind == "ambiguous"


def test_lookahead_survivor_requires_reference_length():
    # both branches survive (both reach stuck strings of the start length)
    sys = RewriteSystem((("1", "0"), ("10", "01")))
    out = det_step(sys, "10", DeterminismPolicy("lookahead", depth=2))
    assert out.kind == "ambiguous"


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


def test_closure_work_limit():
    grow = RewriteSystem((("1", "11"),))
    out = det_closure(grow, "1", 10**6, LOOKAHEAD8, work_limit=100)
    assert not out.terminal and out.reason == "BudgetExceeded"


def test_branch_overflow():
    sys = RewriteSystem((("1", "0"), ("1", "00")))
    policy = DeterminismPolicy("lookahead", depth=2, max_branch=1)
    out = det_closure(sys, "111", 100, policy)
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
        DeterminismPolicy(mode="magic")
    with pytest.raises(ValueError):
        DeterminismPolicy(mode="lookahead", depth=0)


def test_rule_sides_are_built_once():
    sys = RewriteSystem((("1", "0"), ("01", "")))
    assert sys.lhs == ["1", "01"] and sys.rhs == ["0", ""]
    assert sys.lhs is sys.lhs


def test_one_call_reads_each_instance_bit_once(monkeypatch):
    from owflab import bitcodes
    from owflab.pcp import PairList, parse_pcp_instance, ptf
    original = bitcodes.is_bits
    read = []

    def counting(s):
        read.append(len(s))
        return original(s)

    for name, module in list(sys_modules.items()):
        if (name.startswith("owflab")
                and getattr(module, "is_bits", None) is original):
            monkeypatch.setattr(module, "is_bits", counting)
    long_pair = PairList((("1" * 40, "0" * 40),))
    for f, w in [(staf, serialize_instance(RewriteSystem((("10", "01"),)),
                                           "1000")),
                 (ptf, serialize_instance(PairList((("1", "0"),)), "1")),
                 # a second check of the long pair strings overruns len(w)
                 (parse_pcp_instance, serialize_instance(long_pair, "1"))]:
        read.clear()
        assert f(w) != w
        assert 0 < sum(read) <= len(w), f.__name__


@settings(max_examples=300)
@given(st.lists(st.tuples(st.text("01", min_size=1, max_size=6),
                          st.text("01", max_size=6)), max_size=5),
       st.text("01", max_size=12), st.sampled_from("2_+- \n"), st.data())
def test_non_bit_character_anywhere_is_rejected(rules, payload, ch, data):
    from owflab.pcp import parse_pcp_instance, ptf
    w = serialize_instance(RewriteSystem(tuple(rules)), payload)
    k = data.draw(st.integers(0, len(w)))
    bad = w[:k] + ch + w[k:]
    with pytest.raises(InstanceParseError):
        parse_instance(bad)
    with pytest.raises(InstanceParseError):
        parse_pcp_instance(bad)
    assert staf(bad) == bad and ptf(bad) == bad


def test_rule_validation():
    for rules in [(("", "1"),), (("2", "1"),), (("1", "2"),),
                  (("1 ", "0"),), (("1", "0\n"),),
                  (("1", "0"), ("01", "x"))]:
        with pytest.raises(InstanceParseError):
            RewriteSystem(rules)
