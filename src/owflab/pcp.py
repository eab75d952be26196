"""Post-correspondence machinery: the yield relation, its deterministic
closure, the PTF one-way function, and the Turing-machine compiler.

A pair list Γ = ((u₁,v₁),…,(u_m,v_m)) yields y from x under pair i when
uᵢ·y = x·vᵢ.  With pairs ⟨c̲,c̲⟩ per coded tape symbol this relation
rotates a string cyclically, and transition pairs consume the state/read
symbol at the front; iterating it simulates a machine on the coded
configuration.  The paper-faithful policy (successor cap 2, lookahead 1)
is enough determinism: a rotation taken instead of a pending left-move
transition strands the state symbol at the front with nothing applicable,
so that branch dies in one step.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .bitcodes import is_bits
from .coding import CodeTable, build_code_table, decode, encode
from .machine import BLANK, Machine, RIGHT, TAPE_SYMBOLS
from .semithue import (
    DeterminismPolicy,
    RewriteSystem,
    from_text,
    one_way,
    parse_instance,
    serialize_instance,
    to_text,
)
from .stcompile import CompileError, NOT_FINAL, check_states

PAPER_POLICY = DeterminismPolicy(depth=1, successor_cap=2)


def pcp_det_closure(g: RewriteSystem, x: str, budget: int,
                    policy: DeterminismPolicy = PAPER_POLICY,
                    want_trace: bool = True) -> kernels.ClosureOutcome:
    return kernels.pcp_closure(g.lhs, g.rhs, x, budget, policy, want_trace)


# --- the PTF one-way function ---------------------------------------------

def ptf_budget(n: int) -> int:
    return n ** 4


def ptf(w: str, policy: DeterminismPolicy = PAPER_POLICY) -> str:
    """The bounded-PCP one-way function; total and length-preserving."""
    return one_way(w, parse_instance, pcp_det_closure, ptf_budget,
                   serialize_instance, policy)


serialize_pcp_instance = serialize_instance  # the name owfbench calls


# --- Turing machine compiler ----------------------------------------------

@dataclass(frozen=True)
class PcpCompilation:
    machine: Machine
    pairs: RewriteSystem
    table: CodeTable
    rotate_count: int
    transition_count: int


def compile_pcp(m: Machine, n: int, salt_seed: int = 0) -> PcpCompilation:
    check_states(m)
    alphabet = list(TAPE_SYMBOLS) + list(m.states)
    table = build_code_table(alphabet, n, salt_seed=salt_seed)
    c = lambda *syms: encode(table, syms)

    pairs = [(c(a), c(a)) for a in TAPE_SYMBOLS]
    rot = len(pairs)
    for (q, a), (p, b, d) in sorted(m.transitions.items()):
        if d == RIGHT:
            if a == BLANK:
                pairs.append((c(q, a), c(b, p, BLANK)))
            else:
                pairs.append((c(q, a), c(b, p)))
        else:
            for ctx in TAPE_SYMBOLS:
                if a == BLANK:
                    pairs.append((c(ctx, q, a), c(p, ctx, b, BLANK)))
                else:
                    pairs.append((c(ctx, q, a), c(p, ctx, b)))
    return PcpCompilation(m, RewriteSystem(tuple(pairs)), table, rot,
                          len(pairs) - rot)


def pcp_encode_input(comp: PcpCompilation, x: str) -> str:
    if not is_bits(x) or not x:
        raise CompileError("payload must be a nonempty bit string")
    t = comp.table
    return t.code(comp.machine.start) + encode(t, x) + t.code(BLANK)


def pcp_decode_output(comp: PcpCompilation, w: str):
    """Read y out of a halt rotation h̲·tail·B̲·head-prefix; else NOT_FINAL.

    The string is a cyclic rotation of the halt configuration followed by
    the end-marker blank; the rotation that sticks has the halt state at
    the front.  The last blank is the end marker; the cells after it are
    the ones that sat before the head.  Every blank-read pair regenerates
    a blank at the string end, so a machine whose final step reads a blank
    it wrote earlier leaves one phantom blank cell behind; dropping all
    blanks during reassembly removes phantom and trailing blanks alike.
    """
    try:
        syms = decode(comp.table, w)
    except Exception:
        return NOT_FINAL
    if not syms or syms[0] != comp.machine.halt:
        return NOT_FINAL
    rest = syms[1:]
    if BLANK not in rest:
        return NOT_FINAL
    marker = len(rest) - 1 - rest[::-1].index(BLANK)
    tape = rest[marker + 1:] + rest[:marker]
    y = "".join(s for s in tape if s != BLANK)
    if not is_bits(y):
        return NOT_FINAL
    return y


# --- text format ----------------------------------------------------------

def pairs_to_text(g: RewriteSystem, payload: str) -> str:
    return to_text("PCP v1", "pair", g, payload)


def pairs_from_text(text: str):
    return from_text("PCP v1", "pair", text)
