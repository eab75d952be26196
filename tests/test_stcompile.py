import pytest

from owflab.machine import Halted, library_machine, run, step_bound
from owflab.semithue import LOOKAHEAD8, STRICT, det_closure, staf_budget
from owflab.stcompile import (
    CompileError,
    NOT_FINAL,
    compile_semithue,
    expected_schema_counts,
    st_decode_output,
    st_encode_input,
)
from owflab.coding import UNDECOMPOSABLE, block_decompose


def decomposable_inputs(max_len):
    for n in range(1, max_len + 1):
        for k in range(1 << n):
            x = format(k, f"0{n}b")
            if block_decompose(x) != UNDECOMPOSABLE:
                yield x


def test_schema_counts_match():
    for name in ("id", "not", "rot-pair"):
        m = library_machine(name)
        comp = compile_semithue(m, 6)
        assert (comp.r1_count, comp.r2_count, comp.r3_count) == \
            expected_schema_counts(m)
        assert comp.r1_count == 20
        assert len(comp.system.rules) == (comp.r1_count + comp.r2_count
                                          + comp.r3_count)


def test_not_machine_compiles_to_expected_sizes():
    m = library_machine("not")
    comp = compile_semithue(m, 4)
    # 5 non-halt states x 3 symbols: 9 right moves (4 rules), 6 left (3)
    rights = sum(1 for (_, _), (_, _, d) in m.transitions.items() if d == "R")
    lefts = len(m.transitions) - rights
    assert comp.r2_count == 4 * rights + 3 * lefts


def test_encode_decode_round_shape():
    m = library_machine("id")
    comp = compile_semithue(m, 4)
    w = st_encode_input(comp, "1011")
    l = comp.table.code_len
    assert w == comp.table.code("s") + "1011" + comp.table.code("$")
    assert len(w) == 2 * l + 4
    with pytest.raises(CompileError):
        st_encode_input(comp, "0010")  # leading zero run of 2: undecomposable


def test_decode_output_shapes():
    m = library_machine("id")
    comp = compile_semithue(m, 4)
    d = comp.table.code("$")
    assert st_decode_output(comp, d + "1011" + d) == "1011"
    assert st_decode_output(comp, "1011") == NOT_FINAL
    assert st_decode_output(comp, d + "10" + comp.table.code("B") + d) \
        == NOT_FINAL


def test_salt_seed_changes_codes_not_behavior():
    m = library_machine("not")
    a = compile_semithue(m, 4, salt_seed=0)
    b = compile_semithue(m, 4, salt_seed=17)
    assert a.table.salt != b.table.salt
    for comp in (a, b):
        w = st_encode_input(comp, "1101")
        out = det_closure(comp.system, w, staf_budget(len(w)), LOOKAHEAD8,
                          want_trace=False)
        assert out.terminal
        assert st_decode_output(comp, out.result) == "0010"


@pytest.mark.parametrize("name", ["id", "not", "rot-pair", "parity-mark"])
def test_simulation_small(name):
    m = library_machine(name)
    for x in decomposable_inputs(4):
        comp = compile_semithue(m, len(x))
        ref = run(m, x, step_bound(len(x)))
        assert isinstance(ref, Halted)
        w = st_encode_input(comp, x)
        out = det_closure(comp.system, w, staf_budget(len(w)), LOOKAHEAD8,
                          want_trace=False)
        assert out.terminal, (name, x, out.reason)
        assert st_decode_output(comp, out.result) == ref.output, (name, x)


def test_strict_fails_on_block_ambiguity():
    m = library_machine("id")
    comp = compile_semithue(m, 5)
    w = st_encode_input(comp, "10001")
    strict = det_closure(comp.system, w, staf_budget(len(w)), STRICT,
                         want_trace=False)
    assert not strict.terminal and strict.reason == "Ambiguous"
    look = det_closure(comp.system, w, staf_budget(len(w)), LOOKAHEAD8,
                       want_trace=False)
    assert look.terminal


def test_internal_name_clash_rejected():
    from owflab.machine import Machine, TAPE_SYMBOLS
    t = {("s1", a): ("h", a, "R") for a in TAPE_SYMBOLS}
    m = Machine("clash", ("s1", "h"), "s1", "h", t)
    with pytest.raises(CompileError):
        compile_semithue(m, 4)
