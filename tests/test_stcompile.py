import pytest

from oracles import expected_schema_counts
from owflab.inverter import lemma
from owflab.machine import LIBRARY_NAMES, library_machine
from owflab.semithue import LOOKAHEAD8, det_closure, staf_budget
from owflab.stcompile import (
    CompileError,
    NOT_FINAL,
    compile_semithue,
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


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_simulation_small(name):
    # inverter.lemma's staf cases: every decomposable input, and each
    # closure decodes to M(x)
    m = library_machine(name)
    cases = [(x, out.terminal and got == want) for n in range(1, 5)
             for fn, x, out, got, want in lemma(m, n)
             if fn.backend == "semithue"]
    assert cases == [(x, True) for x in decomposable_inputs(4)]


def test_internal_name_clash_rejected():
    from owflab.machine import Machine, TAPE_SYMBOLS
    t = {("s1", a): ("h", a, "R") for a in TAPE_SYMBOLS}
    m = Machine("clash", ("s1", "h"), "s1", "h", t)
    with pytest.raises(CompileError, match="internal names: s1$"):
        compile_semithue(m, 4)
