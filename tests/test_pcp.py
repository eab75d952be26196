from types import SimpleNamespace

import pytest

from oracles import serialized_rules
from owflab import kernels
from owflab.inverter import lemma
from owflab.machine import LIBRARY_NAMES, RIGHT, TAPE_SYMBOLS, library_machine
from owflab.pcp import (
    PAPER_POLICY,
    compile_pcp,
    pairs_from_text,
    pairs_to_text,
    pcp_decode_output,
    pcp_det_closure,
    pcp_encode_input,
    ptf,
    ptf_budget,
    serialize_pcp_instance,
)
from owflab.semithue import (DeterminismPolicy, InstanceParseError,
                             RewriteSystem, parse_instance)


def test_yield_relation_examples():
    g = RewriteSystem((("1", "1"), ("10", "01")))
    us = kernels.pair_index(g.lhs)
    # pair 0: 1·y = x·1 -> rotation of a leading 1
    succ = kernels.pcp_applications(us, g.rhs, "10")
    assert set(succ) == {(0, "01"), (1, "01")}
    assert kernels.pcp_applications(us, g.rhs, "0") == []


def test_yield_shrinking_pair():
    g = RewriteSystem((("11", ""),))
    assert kernels.pcp_applications(kernels.pair_index(g.lhs), g.rhs,
                                    "11") == [(0, "")]


def test_closure_rotation_cycle_detected():
    g = RewriteSystem((("1", "1"), ("0", "0")))
    out = pcp_det_closure(g, "10", 1000, PAPER_POLICY)
    assert not out.terminal
    assert out.reason in ("BudgetExceeded", "Ambiguous")


def test_ptf_identity_on_unparseable():
    assert ptf("00") == "00"
    assert ptf("") == ""


def test_ptf_total_idempotent_small():
    for k in range(1 << 10):
        w = format(k, "010b")
        y = ptf(w)
        assert len(y) == len(w)
        assert ptf(y) == y


def test_ptf_total_at_deep_lookahead():
    # every string here has a successor, so each depth search runs the
    # full 3001 levels; a recursive search overflowed the Python stack
    g = RewriteSystem((("0", "0"), ("0", "1"), ("1", "1")))
    w = serialize_pcp_instance(g, "0101")
    assert ptf(w, DeterminismPolicy(depth=3000)) == w


def test_ptf_budget():
    assert ptf_budget(3) == 81


def test_serialize_parse_round_trip():
    g = RewriteSystem((("1", ""), ("10", "01")))
    w = serialize_pcp_instance(g, "110")
    g2, payload = parse_instance(w)
    assert g2.rules == g.rules and payload == "110"


def expected_pair_counts(m):
    """Pair counts (rotation, transition) of compile_pcp(m, n), straight
    from the schema shapes."""
    rot = len(TAPE_SYMBOLS)
    trans = 0
    for (q, a), (p, b, d) in m.transitions.items():
        trans += 1 if d == RIGHT else len(TAPE_SYMBOLS)
    return rot, trans


def test_compile_pair_counts():
    for name in ("id", "not"):
        m = library_machine(name)
        comp = compile_pcp(m, 5)
        rot, trans = expected_pair_counts(m)
        assert comp.rotate_count == rot == 3
        assert comp.transition_count == trans
        assert len(comp.pairs.rules) == rot + trans


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_pcp_simulation_small(name):
    # inverter.lemma's ptf cases: every input, and each closure decodes
    # to M(x)
    m = library_machine(name)
    cases = [(x, out.terminal and got == want) for n in range(1, 5)
             for fn, x, out, got, want in lemma(m, n) if fn.backend == "pcp"]
    assert cases == [(format(k, f"0{n}b"), True) for n in range(1, 5)
                     for k in range(1 << n)]


def test_left_move_has_two_successors_and_dead_rotation():
    # determinism regression: at a pending left move the rotation branch
    # exists but sticks in one step
    m = library_machine("not")
    comp = compile_pcp(m, 3)
    w = pcp_encode_input(comp, "101")
    # drive with the paper policy, checking every intermediate state
    us, vs = kernels.pair_index(comp.pairs.lhs), comp.pairs.rhs
    x = w
    seen_choice = False
    for _ in range(ptf_budget(len(w))):
        succ = kernels.pcp_applications(us, vs, x)
        if not succ:
            break
        if len(succ) == 2:
            seen_choice = True
            # exactly one of the two branches has a follow-up step
            alive = [y for _, y in succ if kernels.pcp_applications(us, vs, y)]
            assert len(alive) == 1
        out = pcp_det_closure(comp.pairs, x, 1, PAPER_POLICY,
                              want_trace=False)
        if out.steps == 0:
            break
        x = out.result
    assert seen_choice


def test_decode_output_rejects_non_halt():
    m = library_machine("id")
    comp = compile_pcp(m, 3)
    w = pcp_encode_input(comp, "101")
    assert pcp_decode_output(comp, w) == \
        __import__("owflab.stcompile", fromlist=["NOT_FINAL"]).NOT_FINAL


def test_text_format_round_trip():
    g = RewriteSystem((("1", ""), ("10", "01")))
    text = pairs_to_text(g, "110")
    g2, payload = pairs_from_text(text)
    assert g2 == g and payload == "110"
    with pytest.raises(InstanceParseError):
        pairs_from_text("PCP v2\n")



def test_pairlist_validation():
    # a pair list is a RewriteSystem: it rejects an empty left side, and
    # the PCP bit and text parsers reject the non-bit pairs; ptf is the
    # identity on each of these instances
    with pytest.raises(InstanceParseError, match="empty left side"):
        RewriteSystem((("", "1"),))
    for pairs in [(("", "1"),), (("2", "1"),), (("1", "2"),),
                  (("1 ", "0"),), (("1", "0\n"),),
                  (("1", "0"), ("01", "x"))]:
        w = serialized_rules(SimpleNamespace(rules=pairs)) + "0"
        with pytest.raises(InstanceParseError):
            parse_instance(w)
        assert ptf(w) == w
    for lines in ["- 1", "2 1", "1 2", "1 0\n01 x"]:
        m = lines.count("\n") + 1
        with pytest.raises(InstanceParseError):
            pairs_from_text(f"PCP v1\npairs: {m}\n{lines}\ninput: 0\n")
