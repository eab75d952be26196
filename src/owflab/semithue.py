"""Semi-Thue rewriting over {0,1}: deterministic closures, the STAF
one-way function, and the string-pair instance format that STAF and PTF
share (bits and text).

Determinism comes in two flavours.  Strict keeps a step only when exactly
one (rule, position) pair applies; two positions of the same rule already
count as nondeterministic.  Lookahead(d) additionally discards candidate
branches that provably cannot reach a terminal of the closure's initial
length any more (a bounded search per branch, sized by d and max_branch),
which is what makes the compiled block-shuttling systems evaluable: their
raw-bit phase is never strictly deterministic, but every wrong block
choice wrecks the code alignment and runs into a dead end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .bitcodes import gamma_decode, gamma_encode, is_bits

DEFAULT_LOOKAHEAD = 8
DEFAULT_MAX_BRANCH = 64
# Deterministic guard against unbounded growth chains in random instances:
# by default (det_closure, pcp_det_closure) a closure gives up, as
# budget-exceeded, after rewriting this many characters in total.
# Compiled systems stay far below it.
DEFAULT_WORK_LIMIT = 20_000_000


class InstanceParseError(ValueError):
    pass


@dataclass(frozen=True)
class RewriteSystem:
    rules: tuple  # of (lhs, rhs) bit-string pairs

    _EMPTY_LHS = "empty rule left-hand side"
    _NOT_BITS = "rule strings must be over {0,1}"

    def __post_init__(self):
        lhs = [g for g, _ in self.rules]
        rhs = [h for _, h in self.rules]
        if "" in lhs:
            raise InstanceParseError(self._EMPTY_LHS)
        if not is_bits("".join(lhs + rhs)):
            raise InstanceParseError(self._NOT_BITS)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @cached_property
    def index(self):
        """The left sides as a kernels.RuleIndex, built on first use."""
        return kernels.RuleIndex(self.lhs)


@dataclass(frozen=True)
class Match:
    rule_index: int
    position: int


@dataclass(frozen=True)
class DeterminismPolicy:
    mode: str = "lookahead"  # "strict" or "lookahead"
    depth: int = DEFAULT_LOOKAHEAD
    max_branch: int = DEFAULT_MAX_BRANCH
    successor_cap: int = 0  # 0 = unlimited applicable pairs (pcp only)

    def __post_init__(self):
        if self.mode not in ("strict", "lookahead"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if self.mode == "lookahead" and self.depth < 1:
            raise ValueError("lookahead depth must be >= 1")

    @property
    def mode_id(self) -> int:
        return 0 if self.mode == "strict" else 1


STRICT = DeterminismPolicy(mode="strict")
LOOKAHEAD8 = DeterminismPolicy(mode="lookahead", depth=8)


@dataclass(frozen=True)
class StepOutcome:
    kind: str  # unique | stuck | ambiguous | overflow
    result: str | None = None
    match: Match | None = None
    count: int = 0


@dataclass(frozen=True)
class TraceStep:
    step: int
    rule: int
    pos: int
    len_after: int


@dataclass(frozen=True)
class ClosureOutcome:
    terminal: bool
    result: str
    steps: int
    reason: str = ""  # Ambiguous | BudgetExceeded | BranchOverflow
    trace: tuple = ()


_KIND = {
    kernels.STEP_UNIQUE: "unique",
    kernels.STEP_STUCK: "stuck",
    kernels.STEP_AMBIGUOUS: "ambiguous",
    kernels.STEP_OVERFLOW: "overflow",
}

_REASON = {
    kernels.CLOSE_AMBIGUOUS: "Ambiguous",
    kernels.CLOSE_BUDGET: "BudgetExceeded",
    kernels.CLOSE_OVERFLOW: "BranchOverflow",
}


def find_matches(sys: RewriteSystem, w: str):
    return [Match(i, p) for p, i in kernels.st_find_matches(sys.index, w)]


def apply_match(sys: RewriteSystem, w: str, m: Match) -> str:
    g, h = sys.rules[m.rule_index]
    if w[m.position : m.position + len(g)] != g:
        raise ValueError(f"rule {m.rule_index} does not match at {m.position}")
    return w[: m.position] + h + w[m.position + len(g):]


def det_step(sys: RewriteSystem, w: str, policy: DeterminismPolicy) -> StepOutcome:
    kind, y, p, i, count = kernels.st_step(
        sys.index, sys.rhs, w, policy.mode_id, policy.depth, policy.max_branch
    )
    name = _KIND[kind]
    if name == "unique":
        return StepOutcome("unique", result=y, match=Match(i, p), count=1)
    return StepOutcome(name, count=count)


def det_closure(sys: RewriteSystem, w: str, budget: int,
                policy: DeterminismPolicy, want_trace: bool = True,
                work_limit: int = DEFAULT_WORK_LIMIT) -> ClosureOutcome:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return closure_outcome(*kernels.st_closure(
        sys.index, sys.rhs, w, budget, policy.mode_id, policy.depth,
        policy.max_branch, want_trace, work_limit
    ))


def closure_outcome(status, final, steps, raw) -> ClosureOutcome:
    """The ClosureOutcome of a kernel closure's (status, final, steps,
    trace) tuple."""
    trace = tuple(
        TraceStep(k + 1, i, p, n) for k, (i, p, n) in enumerate(raw or ())
    )
    if status == kernels.CLOSE_TERMINAL:
        return ClosureOutcome(True, final, steps, trace=trace)
    return ClosureOutcome(False, final, steps, reason=_REASON[status], trace=trace)


# --- pure-string instance encoding ---------------------------------------

def serialize_instance(sys: RewriteSystem, payload: str) -> str:
    """gamma(m+1), then gamma(len+1)+bits per rule string, then payload."""
    out = [gamma_encode(len(sys.rules) + 1)]
    for g, h in sys.rules:
        out.append(gamma_encode(len(g) + 1) + g)
        out.append(gamma_encode(len(h) + 1) + h)
    out.append(payload)
    return "".join(out)


def parse_instance(bits: str, cls=RewriteSystem):
    """Inverse of serialize_instance: (cls(rules), payload), or raises.

    Each character is checked once: gamma_decode rejects a non-bit code,
    RewriteSystem the rule strings, and the payload is checked here.
    """
    got = gamma_decode(bits, 0)
    if got is None:
        raise InstanceParseError("truncated or non-bit rule count")
    m, pos = got
    m -= 1
    rules = []
    for k in range(2 * m):
        got = gamma_decode(bits, pos)
        if got is None:
            raise InstanceParseError(
                f"truncated or non-bit length of rule string {k}")
        ln, pos = got
        ln -= 1
        if pos + ln > len(bits):
            raise InstanceParseError(f"truncated rule string {k}")
        rules.append(bits[pos : pos + ln])
        pos += ln
    payload = bits[pos:]
    if not is_bits(payload):
        raise InstanceParseError("payload must be a bit string")
    return cls(tuple(zip(rules[0::2], rules[1::2]))), payload


def one_way(w: str, parse, close, serialize, policy):
    """The body of staf, ptf and tiling_f: (system, x) = parse(w) maps to
    serialize(system, close(system, x, policy)), and to w itself where w
    does not parse or close returns None.  The callers pass their module
    attributes on every call, so owfbench's layer tracer sees them."""
    try:
        sys, x = parse(w)
    except ValueError:  # InstanceParseError, TilingError
        return w
    y = close(sys, x, policy)
    return w if y is None else serialize(sys, y)


def string_close(closure, budget, sys, x: str, policy: DeterminismPolicy):
    """The payload step of staf and ptf: the closure of x within
    budget(|x|) steps if it is terminal and as long as x, else None."""
    out = closure(sys, x, budget(len(x)), policy, want_trace=False)
    return out.result if out.terminal and len(out.result) == len(x) else None


def staf_budget(n: int) -> int:
    return n * n + 4 * n + 2


def staf_close(sys: RewriteSystem, x: str, policy=LOOKAHEAD8):
    """The payload staf maps x to under sys, or None (the identity)."""
    return string_close(det_closure, staf_budget, sys, x, policy)


def staf(w: str, policy: DeterminismPolicy = LOOKAHEAD8) -> str:
    """The semi-Thue accessibility function; total and length-preserving."""
    return one_way(w, parse_instance, staf_close, serialize_instance, policy)


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


def from_text(header: str, noun: str, cls, text: str):
    """Inverse of to_text; returns (cls(rules), payload) or raises."""
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
    if not is_bits(payload):
        raise InstanceParseError("payload must be a bit string")
    return cls(tuple(rules)), payload


def instance_to_text(sys: RewriteSystem, payload: str) -> str:
    return to_text("STS v1", "rule", sys, payload)


def instance_from_text(text: str):
    return from_text("STS v1", "rule", RewriteSystem, text)


def trace_to_jsonl(trace) -> str:
    return "\n".join(
        json.dumps({"step": t.step, "rule": t.rule, "pos": t.pos,
                    "len_after": t.len_after})
        for t in trace
    )
