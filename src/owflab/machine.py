"""Deterministic single-tape Turing machines over {0,1,B}.

The runner here is the ground-truth oracle that every compiled system
(semi-Thue, PCP, tiling) is differentially tested against.  The library
machines stand in for the quadratic-time length-preserving function g:
they all halt with the head on cell 1, never move left off the tape and
leave no non-blank symbols at or beyond cell n.
"""

from __future__ import annotations

from dataclasses import dataclass

BLANK = "B"
TAPE_SYMBOLS = ("0", "1", "B")
LEFT = "L"
RIGHT = "R"

LIBRARY_NAMES = ("id", "not", "rot-pair", "parity-mark")


class MachineParseError(ValueError):
    pass


@dataclass(frozen=True)
class Machine:
    name: str
    states: tuple[str, ...]
    start: str
    halt: str
    # (state, symbol) -> (state, symbol, move)
    transitions: dict

    def __post_init__(self):
        if self.start == self.halt:
            raise MachineParseError("start state must differ from halt state")
        missing = []
        for q in self.states:
            if q == self.halt:
                continue
            for a in TAPE_SYMBOLS:
                if (q, a) not in self.transitions:
                    missing.append((q, a))
        if missing:
            q, a = missing[0]
            raise MachineParseError(
                f"partial transition table: no rule for ({q}, {a})"
            )
        for (q, a), (p, b, d) in self.transitions.items():
            if q == self.halt:
                raise MachineParseError("halt state has outgoing transitions")
            if q not in self.states or p not in self.states:
                raise MachineParseError(f"unknown state in transition ({q},{a})")
            if a not in TAPE_SYMBOLS or b not in TAPE_SYMBOLS:
                raise MachineParseError(f"bad tape symbol in transition ({q},{a})")
            if d not in (LEFT, RIGHT):
                raise MachineParseError(f"bad move '{d}' in transition ({q},{a})")


@dataclass(frozen=True)
class Configuration:
    tape: tuple[str, ...]
    head: int
    state: str
    steps: int = 0

    def read(self) -> str:
        if self.head < len(self.tape):
            return self.tape[self.head]
        return BLANK  # semi-infinite tape, implicit blanks to the right


@dataclass(frozen=True)
class Halted:
    output: str
    head: int
    steps: int


@dataclass(frozen=True)
class BudgetExceeded:
    steps: int


@dataclass(frozen=True)
class Crashed:
    reason: str


def step(m: Machine, c: Configuration):
    """Apply one transition.  Returns a Configuration or Crashed."""
    if c.state == m.halt:
        raise ValueError("step on a halted configuration")
    a = c.read()
    p, b, d = m.transitions[(c.state, a)]
    tape = list(c.tape)
    while len(tape) <= c.head:
        tape.append(BLANK)
    tape[c.head] = b
    if d == LEFT:
        if c.head == 0:
            return Crashed("left off tape")
        head = c.head - 1
    else:
        head = c.head + 1
    return Configuration(tuple(tape), head, p, c.steps + 1)


def run(m: Machine, x: str, budget: int):
    """Run m on input x for at most `budget` steps.

    On halt, the output is the content of cells 0..|x|-1.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    c = Configuration(tape=tuple(x), head=0, state=m.start, steps=0)
    while c.state != m.halt:
        if c.steps >= budget:
            return BudgetExceeded(c.steps)
        nxt = step(m, c)
        if isinstance(nxt, Crashed):
            return nxt
        c = nxt
    tape = list(c.tape) + [BLANK] * max(0, len(x) - len(c.tape))
    return Halted("".join(tape[: len(x)]), c.head, c.steps)


# --- machine file format -------------------------------------------------

def parse_machine(text: str, name: str = "<anonymous>") -> Machine:
    """Parse the TM v1 text format.

    TM v1
    start: <name>
    halt: <name>
    <q> <a> -> <p> <b> <L|R>
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines or lines[0][1] != "TM v1":
        raise MachineParseError("line 1: expected 'TM v1' header")
    start = halt = None
    transitions = {}
    order = []
    for lineno, line in lines[1:]:
        if line.startswith("start:"):
            start = line.split(":", 1)[1].strip()
            continue
        if line.startswith("halt:"):
            halt = line.split(":", 1)[1].strip()
            continue
        parts = line.split()
        if len(parts) != 6 or parts[2] != "->":
            raise MachineParseError(f"line {lineno}: bad transition syntax")
        q, a, _, p, b, d = parts
        if (q, a) in transitions:
            raise MachineParseError(f"line {lineno}: duplicate transition ({q},{a})")
        transitions[(q, a)] = (p, b, d)
        for st in (q, p):
            if st not in order:
                order.append(st)
    if start is None or halt is None:
        raise MachineParseError("missing start: or halt: declaration")
    for st in (start, halt):
        if st not in order:
            order.append(st)
    return Machine(name=name, states=tuple(order), start=start, halt=halt,
                   transitions=transitions)


def machine_source(m: Machine) -> str:
    out = ["TM v1", f"start: {m.start}", f"halt: {m.halt}"]
    for (q, a), (p, b, d) in sorted(m.transitions.items()):
        out.append(f"{q} {a} -> {p} {b} {d}")
    return "\n".join(out) + "\n"


# --- library machines ----------------------------------------------------

def _fill_total(states, halt, transitions):
    """Complete the table on unreachable (q,a) combinations."""
    for q in states:
        if q == halt:
            continue
        for a in TAPE_SYMBOLS:
            transitions.setdefault((q, a), (halt, a, RIGHT))
    return transitions


def _machine_id() -> Machine:
    # Copy cell 0 back and halt one cell to the right.
    t = {("s", a): ("h", a, RIGHT) for a in TAPE_SYMBOLS}
    return Machine("id", ("s", "h"), "s", "h", t)


def _machine_not() -> Machine:
    # Remember the flipped first bit in the state, leave a blank marker at
    # cell 0, flip the rest on the way right, then walk back to the marker.
    t = {}
    t[("s", "0")] = ("C1", BLANK, RIGHT)
    t[("s", "1")] = ("C0", BLANK, RIGHT)
    t[("s", BLANK)] = ("h", BLANK, RIGHT)
    for c in "01":
        t[(f"C{c}", "0")] = (f"C{c}", "1", RIGHT)
        t[(f"C{c}", "1")] = (f"C{c}", "0", RIGHT)
        t[(f"C{c}", BLANK)] = (f"R{c}", BLANK, LEFT)
        t[(f"R{c}", "0")] = (f"R{c}", "0", LEFT)
        t[(f"R{c}", "1")] = (f"R{c}", "1", LEFT)
        t[(f"R{c}", BLANK)] = ("h", c, RIGHT)
    states = ("s", "C0", "C1", "R0", "R1", "h")
    return Machine("not", states, "s", "h", t)


def _machine_rot_pair() -> Machine:
    # Swap adjacent pairs: abcd -> badc (last symbol fixed for odd n).
    # Cell 0's replacement travels in the state until the return sweep.
    t = {}
    t[("s", BLANK)] = ("h", BLANK, RIGHT)
    for a in "01":
        t[("s", a)] = (f"A{a}", BLANK, RIGHT)
        for b in "01":
            # first pair: cell1 <- a, owe b to the cell-0 marker
            t[(f"A{a}", b)] = (f"E{b}", a, RIGHT)
        t[(f"A{a}", BLANK)] = (f"X{a}", BLANK, LEFT)    # n = 1
        t[(f"X{a}", BLANK)] = ("h", a, RIGHT)
    for b in "01":
        for a2 in "01":
            t[(f"E{b}", a2)] = (f"P{b}{a2}", a2, RIGHT)
            for b2 in "01":
                t[(f"P{b}{a2}", b2)] = (f"W{b}{b2}", a2, LEFT)
            t[(f"P{b}{a2}", BLANK)] = (f"R{b}", BLANK, LEFT)  # odd n, last fixed
            t[(f"W{b}{a2}", "0")] = (f"S{b}", a2, RIGHT)
            t[(f"W{b}{a2}", "1")] = (f"S{b}", a2, RIGHT)
        for c in "01":
            t[(f"S{b}", c)] = (f"E{b}", c, RIGHT)
        t[(f"E{b}", BLANK)] = (f"R{b}", BLANK, LEFT)    # even n, done
        t[(f"R{b}", "0")] = (f"R{b}", "0", LEFT)
        t[(f"R{b}", "1")] = (f"R{b}", "1", LEFT)
        t[(f"R{b}", BLANK)] = ("h", b, RIGHT)
    states = ["s"]
    states += [f"A{a}" for a in "01"] + [f"X{a}" for a in "01"]
    states += [f"E{b}" for b in "01"]
    states += [f"P{b}{a}" for b in "01" for a in "01"]
    states += [f"W{b}{c}" for b in "01" for c in "01"]
    states += [f"S{b}" for b in "01"] + [f"R{b}" for b in "01"] + ["h"]
    t = _fill_total(states, "h", t)
    return Machine("rot-pair", tuple(states), "s", "h", t)


def _machine_parity_mark() -> Machine:
    # Replace cell 0 with the parity of the whole input.
    t = {}
    t[("s", BLANK)] = ("h", BLANK, RIGHT)
    for a in "01":
        t[("s", a)] = (f"G{a}", BLANK, RIGHT)
    for p in "01":
        for b in "01":
            t[(f"G{p}", b)] = (f"G{int(p) ^ int(b)}", b, RIGHT)
        t[(f"G{p}", BLANK)] = (f"R{p}", BLANK, LEFT)
        t[(f"R{p}", "0")] = (f"R{p}", "0", LEFT)
        t[(f"R{p}", "1")] = (f"R{p}", "1", LEFT)
        t[(f"R{p}", BLANK)] = ("h", p, RIGHT)
    states = ("s", "G0", "G1", "R0", "R1", "h")
    return Machine("parity-mark", states, "s", "h", t)


_BUILDERS = {
    "id": _machine_id,
    "not": _machine_not,
    "rot-pair": _machine_rot_pair,
    "parity-mark": _machine_parity_mark,
}


def library_machine(name: str) -> Machine:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown library machine '{name}'") from None


def step_bound(n: int) -> int:
    """Budget under which every library machine halts on inputs of length n."""
    return n * n + 8 * n + 8
