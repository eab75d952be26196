import pytest

from owflab.machine import (
    Crashed,
    Halted,
    LIBRARY_NAMES,
    Machine,
    MachineParseError,
    library_machine,
    parse_machine,
    run,
    step_bound,
)


def g_id(x):
    return x


def g_not(x):
    return "".join("1" if c == "0" else "0" for c in x)


def g_rot_pair(x):
    out = []
    for i in range(0, len(x) - 1, 2):
        out += [x[i + 1], x[i]]
    if len(x) % 2:
        out.append(x[-1])
    return "".join(out)


def g_parity_mark(x):
    parity = str(sum(map(int, x)) % 2)
    return parity + x[1:]


ORACLES = {"id": g_id, "not": g_not, "rot-pair": g_rot_pair,
           "parity-mark": g_parity_mark}


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_library_machine_matches_reference(name):
    m = library_machine(name)
    g = ORACLES[name]
    for n in range(1, 8):
        for k in range(1 << n):
            x = format(k, f"0{n}b")
            out = run(m, x, step_bound(n))
            assert isinstance(out, Halted)
            assert out.output == g(x), (name, x)


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_library_machine_halts_at_cell_one(name):
    m = library_machine(name)
    for n in range(1, 7):
        for k in range(1 << n):
            x = format(k, f"0{n}b")
            out = run(m, x, step_bound(n))
            assert out.head == 1
            assert out.steps <= step_bound(n)


def test_run_budget_exceeded():
    m = library_machine("not")
    out = run(m, "1" * 8, 3)
    assert not isinstance(out, Halted)
    assert out.steps == 3


def test_machine_requires_total_table():
    with pytest.raises(MachineParseError, match="partial"):
        Machine("bad", ("s", "h"), "s", "h", {("s", "0"): ("h", "0", "R")})


def test_machine_rejects_halt_transitions():
    t = {("s", a): ("h", a, "R") for a in ("0", "1", "B")}
    t[("h", "0")] = ("h", "0", "R")
    with pytest.raises(MachineParseError, match="halt"):
        Machine("bad", ("s", "h"), "s", "h", t)


def test_left_move_off_tape_crashes():
    t = {("s", a): ("s", a, "L") for a in ("0", "1", "B")}
    m = Machine("crash", ("s", "h"), "s", "h", t)
    assert isinstance(run(m, "1", 10), Crashed)


def machine_text(m):
    """m written out in the TM v1 format that parse_machine reads."""
    out = ["TM v1", f"start: {m.start}", f"halt: {m.halt}"]
    for (q, a), (p, b, d) in sorted(m.transitions.items()):
        out.append(f"{q} {a} -> {p} {b} {d}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_source_round_trip(name):
    m = library_machine(name)
    m2 = parse_machine(machine_text(m), name)
    assert m2.start == m.start and m2.halt == m.halt
    assert m2.transitions == m.transitions
    assert run(m2, "1011", step_bound(4)).output == ORACLES[name]("1011")


def test_parse_machine_errors():
    with pytest.raises(MachineParseError, match="header"):
        parse_machine("nope\n", "t")
    with pytest.raises(MachineParseError, match="start"):
        parse_machine("TM v1\nhalt: h\ns 0 -> h 0 R\n", "t")
    with pytest.raises(MachineParseError, match="duplicate"):
        parse_machine("TM v1\nstart: s\nhalt: h\n"
                      "s 0 -> h 0 R\ns 0 -> h 1 R\n"
                      "s 1 -> h 1 R\ns B -> h B R\n", "t")


def test_parse_machine_comments_and_blanks():
    text = ("TM v1\n# a comment\nstart: s\nhalt: h\n\n"
            "s 0 -> h 0 R  # trailing\ns 1 -> h 1 R\ns B -> h B R\n")
    m = parse_machine(text, "t")
    assert run(m, "01", step_bound(2)).output == "01"
