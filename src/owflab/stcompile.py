"""Compile a Turing machine into a semi-Thue system.

The system has three layers.  The shuttle layer turns the initial string
code(s)·x·code($) into the fully coded configuration $sx$ by carrying raw
payload blocks from {1,10,100,000} across the code boundary.  The machine
layer rewrites coded configurations one transition at a time.  The decode
layer fires when the machine halts with its head on cell 1 and converts
the coded output back to raw bits, ending at code($)·y·code($).

The shuttle layer is kept with its inherent block ambiguity (several
blocks can match at one position), so strict-mode evaluation fails on it
by design; the lookahead policy resolves it because wrong block choices
break code alignment and can never complete the conversion.  The decode
layer uses a
single right-moving scanner with fully coded left-hand sides, which makes
it strictly deterministic and alignment-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcodes import is_bits
from .coding import (
    BLOCKS,
    CodeTable,
    UNDECOMPOSABLE,
    block_decompose,
    build_code_table,
    encode,
)
from .machine import BLANK, Machine, RIGHT, TAPE_SYMBOLS
from .semithue import RewriteSystem

MARKER = "$"
SHUTTLE_FWD = "s1"
SHUTTLE_BACK = "s2"
SCANNER = "k"


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class StCompilation:
    machine: Machine
    system: RewriteSystem
    table: CodeTable
    r1_count: int
    r2_count: int
    r3_count: int


def check_states(m: Machine, internal=()) -> None:
    """Raise CompileError naming each state of m that equals a tape symbol
    or an internal name: one code table cannot tell the two apart."""
    clashes = []
    for what, names in (("tape symbols", TAPE_SYMBOLS),
                        ("internal names", internal)):
        clash = sorted(set(m.states) & set(names))
        if clash:
            clashes.append(f"machine states clash with {what}: "
                           + ", ".join(clash))
    if clashes:
        raise CompileError("; ".join(clashes))


def compile_semithue(m: Machine, n: int, salt_seed: int = 0) -> StCompilation:
    internal = [MARKER, SHUTTLE_FWD, SHUTTLE_BACK, SCANNER]
    check_states(m, internal)
    table = build_code_table(list(TAPE_SYMBOLS) + internal + list(m.states),
                             n, salt_seed=salt_seed)
    c = lambda *syms: encode(table, syms)

    rules = []
    # shuttle layer: one copy of each schema per block, as a 5 x 4 grid
    for u in BLOCKS:
        u_coded = encode(table, u)
        rules.append((c(m.start) + u, c(MARKER) + u_coded + c(SHUTTLE_FWD)))
        rules.append((c(SHUTTLE_FWD) + u, u_coded + c(SHUTTLE_FWD)))
        rules.append((u_coded + c(SHUTTLE_FWD, MARKER),
                      c(SHUTTLE_BACK) + u_coded + c(MARKER)))
        rules.append((u_coded + c(SHUTTLE_BACK), c(SHUTTLE_BACK) + u_coded))
        rules.append((c(MARKER, SHUTTLE_BACK), c(MARKER, m.start)))
    r1 = len(rules)

    # machine layer
    for (q, a), (p, b, d) in sorted(m.transitions.items()):
        if d == RIGHT:
            for ctx in TAPE_SYMBOLS:
                rules.append((c(q, a, ctx), c(b, p, ctx)))
            rules.append((c(q, a, MARKER), c(b, p, BLANK, MARKER)))
        else:
            for ctx in TAPE_SYMBOLS:
                rules.append((c(ctx, q, a), c(p, ctx, b)))
    r2 = len(rules) - r1

    # decode layer
    for b in "01":
        rules.append((c(MARKER, b, m.halt), c(MARKER) + b + c(SCANNER)))
    for b in "01":
        rules.append((c(SCANNER, b), b + c(SCANNER)))
    rules.append((c(SCANNER, BLANK), c(SCANNER)))
    rules.append((c(SCANNER, MARKER), c(MARKER)))
    r3 = len(rules) - r1 - r2

    return StCompilation(m, RewriteSystem(tuple(rules)), table, r1, r2, r3)


def st_encode_input(comp: StCompilation, x: str) -> str:
    if block_decompose(x) == UNDECOMPOSABLE:
        raise CompileError(f"payload {x!r} does not decompose into blocks")
    t = comp.table
    return t.code(comp.machine.start) + x + t.code(MARKER)


class NotFinal:
    def __repr__(self):
        return "NotFinal"

    def __eq__(self, other):
        return isinstance(other, NotFinal)

    def __hash__(self):
        return hash("NotFinal")


NOT_FINAL = NotFinal()


def st_decode_output(comp: StCompilation, w: str):
    """Extract y from code($)·y·code($); NOT_FINAL for anything else."""
    dollar = comp.table.code(MARKER)
    l = comp.table.code_len
    if len(w) < 2 * l or not (w.startswith(dollar) and w.endswith(dollar)):
        return NOT_FINAL
    y = w[l : len(w) - l]
    if not is_bits(y) or any(code in y for code in comp.table.codes.values()):
        return NOT_FINAL
    return y

