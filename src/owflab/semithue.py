"""Semi-Thue rewriting over {0,1}: deterministic closures, the STAF
one-way function, and the string-pair instance format that STAF and PTF
share (bits and text).

A DeterminismPolicy is a lookahead depth d and a successor cap.  A step
with more (rule, position) matches than the cap is Ambiguous; strict is
the cap 1, so two positions of the same rule already count as
nondeterministic.  Among the candidates the cap lets through, the
lookahead discards branches that provably cannot reach a terminal of the
closure's initial length any more (a bounded search per branch, sized by
d and kernels.MAX_BRANCH), which is what makes the compiled
block-shuttling systems evaluable: their raw-bit phase is never strictly
deterministic, but every wrong block choice wrecks the code alignment
and runs into a dead end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .bitcodes import gamma_decode, gamma_encode, is_bits

DEFAULT_LOOKAHEAD = 8


class InstanceParseError(ValueError):
    pass


@dataclass(frozen=True)
class RewriteSystem:
    rules: tuple  # of (lhs, rhs) bit-string pairs, or PCP pairs (u, v)

    def __post_init__(self):
        lhs = [g for g, _ in self.rules]
        rhs = [h for _, h in self.rules]
        # the parsers check the bits; both formats can express an empty
        # side (the gamma code "1", "-" in text), so it is checked here
        if "" in lhs:
            raise InstanceParseError("empty left side")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @cached_property
    def index(self):
        """The left sides as a kernels.RuleIndex, built on first use."""
        return kernels.RuleIndex(self.lhs)

    @cached_property
    def head(self):
        """The rules as bits: gamma(m+1), then gamma(len+1)+bits per side."""
        codes = [gamma_encode(len(s) + 1) + s for r in self.rules for s in r]
        return gamma_encode(len(self.rules) + 1) + "".join(codes)


@dataclass(frozen=True)
class DeterminismPolicy:
    depth: int = DEFAULT_LOOKAHEAD
    # a step with more (rule, position) matches or applicable pairs than
    # this is Ambiguous; 0 = unlimited
    successor_cap: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("lookahead depth must be >= 1")
        if self.successor_cap < 0:
            raise ValueError("successor cap must be >= 0")


STRICT = DeterminismPolicy(successor_cap=1)
LOOKAHEAD8 = DeterminismPolicy(depth=8)


def det_closure(sys: RewriteSystem, w: str, budget: int,
                policy: DeterminismPolicy,
                want_trace: bool = True) -> kernels.ClosureOutcome:
    return kernels.st_closure(sys.index, sys.rhs, w, budget, policy,
                              want_trace)


# --- pure-string instance encoding ---------------------------------------

def serialize_instance(sys: RewriteSystem, payload: str) -> str:
    """sys.head (the rules, encoded once per system), then payload."""
    return sys.head + payload


def parse_instance(bits: str):
    """Inverse of serialize_instance: (RewriteSystem, payload), or raises.

    One is_bits over the whole string checks every character, so the
    gamma codes, the rule strings and the payload are read unchecked.
    """
    if not is_bits(bits):
        raise InstanceParseError("instance must be a bit string")
    got = gamma_decode(bits, 0)
    if got is None:
        raise InstanceParseError("truncated rule count")
    m, pos = got
    rules = []
    for k in range(2 * m - 2):
        got = gamma_decode(bits, pos)
        if got is None:
            raise InstanceParseError(
                f"truncated length of rule string {k}")
        ln, start = got
        pos = start + ln - 1
        if pos > len(bits):
            raise InstanceParseError(f"truncated rule string {k}")
        rules.append(bits[start:pos])
    sys = RewriteSystem(tuple(zip(rules[0::2], rules[1::2])))
    # gamma codes are canonical, so serializing sys gives back this prefix
    object.__setattr__(sys, "head", bits[:pos])
    return sys, bits[pos:]


def one_way(w: str, parse, closure, budget, serialize, policy):
    """The body of staf, ptf and tiling_f: w = serialize(system, x) maps
    to serialize(system, payload_step(system, x, ...)), and to w itself
    where w does not parse or the payload step returns None.  The callers
    pass their module attributes, so owfbench's layer tracer sees them."""
    try:
        sys, x = parse(w)
    except ValueError:  # InstanceParseError, TilingError
        return w
    y = payload_step(sys, x, closure, budget, policy)
    return w if y is None else serialize(sys, y)


def payload_step(sys, x, closure, budget, policy):
    """The payload a one-way function maps x to under a fixed system: the
    closure of x within budget(|x|) steps if it is terminal and as long as
    x, else None (the function is the identity there)."""
    out = closure(sys, x, budget(len(x)), policy, want_trace=False)
    return out.result if out.terminal and len(out.result) == len(x) else None


def staf_budget(n: int) -> int:
    return n * n + 4 * n + 2


def staf(w: str, policy: DeterminismPolicy = LOOKAHEAD8) -> str:
    """The semi-Thue accessibility function; total and length-preserving."""
    return one_way(w, parse_instance, det_closure, staf_budget,
                   serialize_instance, policy)


# --- text format and traces ----------------------------------------------

def to_text(header: str, noun: str, sys: RewriteSystem,
            payload: str) -> str:
    """The text layout shared by STS v1 and PCP v1: header, count line,
    one line per rule or pair, input line."""
    # "-" stands for the empty string (rule strings are over {0,1})
    lines = [header, f"{noun}s: {len(sys.rules)}"]
    lines += [f"{g} {h or '-'}" for g, h in sys.rules]
    lines.append(f"input: {payload}")
    return "\n".join(lines) + "\n"


def from_text(header: str, noun: str, text: str):
    """Inverse of to_text; returns (RewriteSystem, payload) or raises."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != header:
        raise InstanceParseError(f"expected {header!r} header")
    if len(lines) < 2 or not lines[1].startswith(f"{noun}s:"):
        raise InstanceParseError(f"expected '{noun}s: <m>' line")
    try:
        m = int(lines[1].split(":", 1)[1])
    except ValueError:
        raise InstanceParseError(f"bad {noun} count") from None
    if len(lines) != m + 3:
        raise InstanceParseError(f"expected {m} {noun} lines plus input")
    rules = []
    for ln in lines[2 : 2 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise InstanceParseError(f"bad {noun} line: {ln!r}")
        rules.append((parts[0], "" if parts[1] == "-" else parts[1]))
    last = lines[2 + m]
    if not last.startswith("input:"):
        raise InstanceParseError("expected 'input:' line")
    payload = last.split(":", 1)[1].strip()
    if not is_bits("".join([payload, *(s for r in rules for s in r)])):
        raise InstanceParseError(f"{noun} strings and payload must be "
                                 "over {0,1}")
    return RewriteSystem(tuple(rules)), payload


def instance_to_text(sys: RewriteSystem, payload: str) -> str:
    return to_text("STS v1", "rule", sys, payload)


def instance_from_text(text: str):
    return from_text("STS v1", "rule", text)


def trace_to_jsonl(trace) -> str:
    return "\n".join(json.dumps(t._asdict()) for t in trace)
