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
    ClosureOutcome,
    DEFAULT_WORK_LIMIT,
    DeterminismPolicy,
    RewriteSystem,
    closure_outcome,
    from_text,
    one_way,
    parse_instance,
    serialize_instance,
    string_close,
    to_text,
)
from .stcompile import CompileError, NOT_FINAL

PAPER_POLICY = DeterminismPolicy(mode="lookahead", depth=1, successor_cap=2)


@dataclass(frozen=True)
class PairList(RewriteSystem):
    """A rewrite-system instance read as pairs (uᵢ, vᵢ): the same rules,
    bit format and text layout, only the names differ."""

    _EMPTY_LHS = "empty pair left string"
    _NOT_BITS = "pair strings must be over {0,1}"

    pairs = property(lambda self: self.rules)
    us = property(lambda self: self.lhs)
    vs = property(lambda self: self.rhs)


@dataclass(frozen=True)
class YieldStep:
    pair_index: int
    result: str


def yield_successors(g: RewriteSystem, x: str):
    """One YieldStep per applicable pair (duplicates across pairs kept)."""
    return [YieldStep(i, y)
            for i, y in kernels.pcp_applications(g.lhs, g.rhs, x)]


def pcp_det_closure(g: RewriteSystem, x: str, budget: int,
                    policy: DeterminismPolicy = PAPER_POLICY,
                    want_trace: bool = True,
                    work_limit: int = DEFAULT_WORK_LIMIT) -> ClosureOutcome:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return closure_outcome(*kernels.pcp_closure(
        g.lhs, g.rhs, x, budget, policy.mode_id, policy.depth,
        policy.max_branch, policy.successor_cap, want_trace, work_limit
    ))


def verify_witness(g: RewriteSystem, x: str, indices) -> bool:
    """Replay an index sequence as yield steps from x."""
    for i in indices:
        if not 0 <= i < len(g.rules):
            return False
        u, v = g.rules[i]
        xv = x + v
        if len(xv) < len(u) or not xv.startswith(u):
            return False
        x = xv[len(u):]
    return True


# --- the PTF one-way function ---------------------------------------------

def ptf_budget(n: int) -> int:
    return n ** 4


def ptf_close(g: RewriteSystem, x: str, policy=PAPER_POLICY):
    """The payload ptf maps x to under g, or None (the identity)."""
    return string_close(pcp_det_closure, ptf_budget, g, x, policy)


def ptf(w: str, policy: DeterminismPolicy = PAPER_POLICY) -> str:
    """The bounded-PCP one-way function; total and length-preserving."""
    return one_way(w, parse_instance, ptf_close, serialize_instance, policy)


serialize_pcp_instance = serialize_instance


def parse_pcp_instance(bits: str):
    return parse_instance(bits, PairList)


# --- Turing machine compiler ----------------------------------------------

@dataclass(frozen=True)
class PcpCompilation:
    machine: Machine
    pairs: PairList
    table: CodeTable
    rotate_count: int
    transition_count: int


def compile_pcp(m: Machine, n: int, salt_seed: int = 0) -> PcpCompilation:
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
    return PcpCompilation(m, PairList(tuple(pairs)), table, rot,
                          len(pairs) - rot)


def expected_pair_counts(m: Machine):
    """Independent pair-count computation straight from the schema shapes."""
    rot = len(TAPE_SYMBOLS)
    trans = 0
    for (q, a), (p, b, d) in m.transitions.items():
        trans += 1 if d == RIGHT else len(TAPE_SYMBOLS)
    return rot, trans


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
    return from_text("PCP v1", "pair", PairList, text)
