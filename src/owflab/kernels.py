"""The engine: rewrite/yield steps and deterministic closures.

Stop reasons: a step's kind is the reason its closure stops there, or
None when the step is unique and the closure goes on.  "" is stuck, which
is terminal; "Ambiguous" and "BranchOverflow" are the step's; _close adds
"BudgetExceeded".  The closure's ClosureOutcome carries the reason.

A step is capped first: with more (position, rule) matches, or more
applicable pairs, than its policy's successor cap it is Ambiguous.  The
cap 1 is strict determinism; 0 is no cap.  Among the candidates left,
lookahead pruning differs between the two relations, because their
wrong branches die differently.

Rewrite systems (st_*): a candidate successor survives when the bounded
search below it can still reach a *useful* stuck string, one whose length
equals the closure's reference length (a closure only ever accepts such a
terminal, so branches that provably cannot produce one are dead even when
they can keep rewriting for a while).  A branch whose entire bounded
search space is explored without finding one is pruned; running out of
search budget counts as survival, never as death.  This matters for the
compiled shuttling systems: a wrong block choice can keep consuming the
tail of a code for a couple of dozen steps before sticking, so a pure
"dies within d steps" horizon can neither kill it nor keep the live
branch on small inputs.  Each candidate is searched afresh, so a step's
answer depends on the step alone (the system, the string, the reference
length and the budget), not on the searches before it.

Pair lists (pcp_*): a wrong rotation choice sticks almost immediately, so
the deepest-survivor rule suffices: measure each candidate's longest
derivation, capped at depth+1, and keep the step only when one candidate
strictly outlives the rest.

A scan reports the matches that start in given bounds.  Left sides that
share a long prefix, as compiled ones do, are found by one search for it,
each hit looked up in a table of the sides behind it (RuleIndex).

A rewrite step changes one window of its string, so the match list of a
successor is derived from its parent's (_st_derive): the matches before
the window are kept, those after it are shifted, and only the window is
scanned again.  A closure keeps one table from each string to its match
list, read by its steps and their lookahead before they derive or scan.
A full scan (st_find_matches) is left for a closure's first string and
for the successors of a string whose list is too dense to keep.

A pair list is indexed once per closure by the lengths of its left
strings (pair_index: {length: {u: [pair index, ...]}}), so the pairs
that apply to x are found by one slice of x and one lookup per distinct
length instead of a prefix test per pair; compiled lists have three
lengths whatever their size.

Kernels call each other through module globals, so a tracer that rebinds
them sees the inner calls too: each closure step and each full scan.  The
window scans of a derivation are not calls of st_find_matches; they count
as the work of the step that makes them.
"""

from __future__ import annotations

from bisect import bisect_left
from os.path import commonprefix
from typing import NamedTuple

# A step with more candidate successors than this, in itself or anywhere
# in its lookahead, overflows
MAX_BRANCH = 64
# Deterministic guard against unbounded growth chains in random instances:
# a closure gives up, as budget-exceeded, after rewriting this many
# characters in total.  Compiled systems stay far below it.
WORK_LIMIT = 20_000_000


class TraceStep(NamedTuple):
    step: int
    rule: int  # the rule or pair applied
    pos: int  # where a rule applied; -1 for a pair
    len_after: int


class ClosureOutcome(NamedTuple):
    terminal: bool
    result: str  # a row of symbols for tiling.tiling_closure
    steps: int
    reason: str = ""  # "" when terminal; see the stop reasons above, or
                      # for tiling Stalled | AmbiguousRow
    trace: tuple = ()  # of TraceStep


class _Overflow(Exception):
    pass


def backend_name() -> str:
    return "pure"


def _close(step, w, budget, want_trace):
    """Iterate step while unique, at most budget steps.

    step(w) returns a step tuple (reason, y, pos, index, count), reason
    None when the step is unique.  A revisited string can never reach a
    terminal, so cycles short-circuit to BudgetExceeded; so does rewriting
    more than WORK_LIMIT characters in total.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    trace = []
    seen = {w}
    steps = 0
    work = 0
    while True:
        reason, y, p, i, _ = step(w)
        if reason is not None or steps >= budget:
            break
        steps += 1
        w = y
        if want_trace:
            trace.append(TraceStep(steps, i, p, len(w)))
        work += len(w)
        if w in seen or work > WORK_LIMIT:
            break
        seen.add(w)
    if reason is None:
        reason = "BudgetExceeded"
    return ClosureOutcome(reason == "", w, steps, reason, tuple(trace))


# --- semi-Thue ------------------------------------------------------------

# An anchor shorter than this hits so often in a bit string that checking
# every hit costs more than the finds it saves (measured on the sampled
# systems, whose sides are a few characters long): sides that differ within
# their first _SHARED_MIN characters never share an anchor
_SHARED_MIN = 8


class RuleIndex(tuple):
    """The left-hand sides, as needles that one find each serves.

    The distinct sides are sorted, and the sorted list is cut wherever two
    neighbours differ within their first _SHARED_MIN characters.  A run of
    two or more sides is one needle: its anchor, the run's common prefix,
    is found once, and at each hit the string's next h characters, h the
    length of the run's shortest side, are looked up in the run's table of
    heads, which leads to the run's sides by length.  Every other side is a
    lone needle; a repeated side is found once, with all its rule indices.

    longest is the length of the longest side, which bounds how far before
    a rewritten window a match can start and still overlap it.  A closure
    keeps a match list in its table only while it holds at most keep_max
    matches, one per head (a lone side or a head of a run): a denser list
    is dropped and its successors are scanned afresh, so that the table
    never holds long lists.
    """

    def __new__(cls, lhs):
        self = super().__new__(cls, lhs)
        rules = {}
        for i, g in enumerate(self):
            rules.setdefault(g, []).append(i)
        runs = []
        for g in sorted(rules):
            last = runs[-1][-1] if runs else ""
            if len(g) >= _SHARED_MIN and g[:_SHARED_MIN] == last[:_SHARED_MIN]:
                runs[-1].append(g)
            else:
                runs.append([g])
        # lists, not tuple(iterator): a tuple grown from an iterator is
        # resized, and the interpreter's per-size tuple free lists then keep
        # thousands of the resized tuples for the life of the process
        self.lone = []  # (side, [index, ...])
        # (anchor, h, {head: [(length, {side: [index, ...]}), ...]})
        self.shared = []
        self.keep_max = 0
        for run in runs:
            if len(run) == 1:
                self.lone.append((run[0], rules[run[0]]))
                self.keep_max += 1
                continue
            h = min(map(len, run))
            heads = {}
            for g in run:
                heads.setdefault(g[:h], {}).setdefault(len(g), {})[g] = \
                    rules[g]
            # sorted, so the first and last side share what all share
            self.shared.append((commonprefix((run[0], run[-1])), h, {
                head: list(by_len.items()) for head, by_len in heads.items()}))
            self.keep_max += len(heads)
        self.longest = max(map(len, self), default=0)
        return self


def _scan(lhs, w, lo, hi):
    """The (position, rule index) pairs of w that start in [lo, hi),
    sorted."""
    out = []
    find = w.find
    for g, rules in lhs.lone:
        end = hi + len(g) - 1
        p = find(g, lo, end)
        while p >= 0:
            for i in rules:
                out.append((p, i))
            p = find(g, p + 1, end)
    for anchor, h, heads in lhs.shared:
        end = hi + len(anchor) - 1
        p = find(anchor, lo, end)
        while p >= 0:
            for n, sides in heads.get(w[p:p + h], ()):
                for i in sides.get(w[p:p + n], ()):
                    out.append((p, i))
            p = find(anchor, p + 1, end)
    out.sort()
    return out


def st_find_matches(lhs, w):
    """All (position, rule index) pairs of the RuleIndex lhs in w, sorted
    by (position, rule): a full scan."""
    return _scan(lhs, w, 0, len(w))


def _st_derive(lhs, w, matches, p, i, y):
    """The matches of y, which is w with rule i applied at p, from the
    matches of w.

    A match of either string that starts before lo = p - longest + 1 ends
    by p, inside the prefix the two share; one of w that starts at or after
    p + |lhs_i| lies in the suffix they share, which sits |y| - |w| further
    along in y.  The matches of y that start in the window between,
    [lo, p + |rhs_i|), are found by a scan of y bounded to that window.
    """
    a = len(lhs[i])
    d = len(y) - len(w)
    lo = max(0, p - lhs.longest + 1)
    head = bisect_left(matches, (lo,))
    tail = bisect_left(matches, (p + a,), head)
    out = matches[:head]
    out += _scan(lhs, y, lo, p + a + d)
    out += [(q + d, j) for q, j in matches[tail:]] if d else matches[tail:]
    return out


def _st_successors(lhs, rhs, w, matches):
    """Deduplicated successor strings with their first (pos, rule), from
    the match list of w."""
    seen = set()
    out = []
    for p, i in matches:
        y = w[:p] + rhs[i] + w[p + len(lhs[i]):]
        if y not in seen:
            seen.add(y)
            out.append((y, p, i))
    return out


def _st_matches(lhs, lists, w, up, p, i):
    """w's match list (w is up with rule i applied at p): from lists, else
    derived from up's list there, else scanned; kept there unless dense."""
    matches = lists.get(w)
    if matches is None:
        base = lists.get(up)
        matches = (st_find_matches(lhs, w) if base is None
                   else _st_derive(lhs, up, base, p, i, w))
        if len(matches) <= lhs.keep_max:
            lists[w] = matches
    return matches


def _st_alive(lhs, rhs, root, ref_len, max_branch, node_budget, lists):
    """Can root's string still reach a stuck string of length ref_len?

    root, like each entry of the search stack, is (s, w, p, i): s is w
    with rule i applied at p.  lists is the closure's table of match lists
    (_st_matches).  DFS that charges each string it pushes to node_budget;
    exhausting the budget answers True.  The answer depends only on the
    system, root, ref_len and the budget, never on earlier searches.
    """
    stack = [root]
    visited = {root[0]}
    budget = node_budget
    while stack:
        w, up, p, i = stack.pop()
        # the list is not held past this call, so a dense one is freed here
        succ = _st_successors(lhs, rhs, w,
                              _st_matches(lhs, lists, w, up, p, i))
        if len(succ) > max_branch:
            raise _Overflow
        if not succ:
            if len(w) == ref_len:
                return True
            continue
        for y, p, i in succ:
            if y in visited:
                continue
            budget -= 1
            if budget < 0:
                return True  # unproven
            visited.add(y)
            stack.append((y, w, p, i))
    return False


def st_step(lhs, rhs, w, cap, depth, max_branch, ref_len, lists):
    """One deterministic rewrite step.  cap bounds the (position, rule)
    matches; strict is cap 1, 0 is unlimited.  The lookahead keeps a
    branch that can reach a stuck string of length ref_len (_st_alive),
    each branch searched afresh; lists is the closure's table of match
    lists (_st_matches), which only saves work.  A unique step stores its
    successor's list there when w's list is kept."""
    matches = _st_matches(lhs, lists, w, None, -1, -1)
    if cap and len(matches) > cap:
        return ("Ambiguous", w, -1, -1, len(matches))
    succ = _st_successors(lhs, rhs, w, matches)
    if not succ:
        return ("", w, -1, -1, 0)
    if len(succ) > 1:
        if len(succ) > max_branch:
            return ("BranchOverflow", w, -1, -1, len(succ))
        node_budget = max_branch * (depth + 1)
        survivors = []
        try:
            for y, p, i in succ:
                if _st_alive(lhs, rhs, (y, w, p, i), ref_len, max_branch,
                             node_budget, lists):
                    survivors.append((y, p, i))
                    if len(survivors) > 1:
                        break
        except _Overflow:
            return ("BranchOverflow", w, -1, -1, len(succ))
        if len(survivors) != 1:
            return ("Ambiguous", w, -1, -1, len(succ))
        succ = survivors
    y, p, i = succ[0]
    if w in lists:
        _st_matches(lhs, lists, y, w, p, i)
    return (None, y, p, i, 1)


def st_closure(lhs, rhs, w, budget, policy, want_trace):
    """Iterate st_step under policy while unique; see _close.  lhs is a
    RuleIndex.  Every step's lookahead measures usefulness against the
    initial length and reads one table of match lists."""
    cap, depth, branch = policy.successor_cap, policy.depth, MAX_BRANCH
    ref_len = len(w)
    lists = {}
    return _close(
        lambda s: st_step(lhs, rhs, s, cap, depth, branch, ref_len, lists),
        w, budget, want_trace)


# --- Post correspondence --------------------------------------------------

def pair_index(us):
    """The left strings us by length: {length: {u: [pair index, ...]}}.
    A string x at least as long as u starts with u exactly when x[:|u|]
    is a key of the table for |u|.

    Filled in one loop: a sampled instance has one or two pairs and a
    closure of a few steps, so the build is a visible share of its cost.
    """
    table = {}
    for i, u in enumerate(us):
        table.setdefault(len(u), {}).setdefault(u, []).append(i)
    return table


def pcp_applications(us, vs, x):
    """All (pair index, yielded string), one per applicable pair, in pair
    index order.

    us is the pair_index of the left strings.  A pair whose u is longer than
    x applies when x is a prefix of u and v starts with the rest of u;
    only the lengths above |x| are searched that way.  Hits at two lengths
    are sorted back into index order, on which the choice among equal
    successors and lookahead ties depends.
    """
    out = []
    n = len(x)
    for k, heads in us.items():
        if k <= n:
            members = heads.get(x[:k])
            if members:
                tail = x[k:]
                for i in members:
                    out.append((i, tail + vs[i]))
        else:
            for u, members in heads.items():
                if u.startswith(x):
                    rest = u[n:]
                    for i in members:
                        v = vs[i]
                        if v.startswith(rest):
                            out.append((i, v[len(rest):]))
    if len(out) > 1:
        out.sort()
    return out


def _pcp_successors(us, vs, x):
    apps = pcp_applications(us, vs, x)
    seen = set()
    out = []
    for i, y in apps:
        if y not in seen:
            seen.add(y)
            out.append((y, i))
    return out, len(apps)


def _pcp_expand(us, vs, x, budget):
    """The successors of x, charged to budget = [nodes left, max branch]."""
    succ, _ = _pcp_successors(us, vs, x)
    if len(succ) > budget[1]:
        raise _Overflow
    budget[0] -= len(succ)
    if budget[0] < 0:
        raise _Overflow
    return succ


def _pcp_depth(us, vs, x, cap, budget):
    """Longest derivation length from x, capped at `cap`.

    Depth-first in successor order on an explicit stack, since cap comes
    from the caller's lookahead depth; a node stops exploring as soon as
    its best reaches its own cap.
    """
    if cap == 0:
        return 0
    # one frame per open node: [successors, next child, best so far];
    # the node in frame k has cap - k levels left
    stack = [[_pcp_expand(us, vs, x, budget), 0, 0]]
    while True:
        frame = stack[-1]
        succ, k, best = frame
        node_cap = cap - len(stack) + 1
        if k == len(succ) or best >= node_cap:
            stack.pop()
            if not stack:
                return best
            parent = stack[-1]
            if best + 1 > parent[2]:
                parent[2] = best + 1
            continue
        frame[1] = k + 1
        if node_cap == 1:
            frame[2] = 1  # the child has no levels left: depth 0
        else:
            stack.append([_pcp_expand(us, vs, succ[k][0], budget), 0, 0])


def pcp_step(us, vs, x, depth, max_branch, succ_cap):
    """One deterministic yield step on the pair_index us.  succ_cap bounds
    the applicable pairs; strict is cap 1, 0 is unlimited."""
    succ, napps = _pcp_successors(us, vs, x)
    if not succ:
        return ("", x, -1, -1, 0)
    if succ_cap and napps > succ_cap:
        return ("Ambiguous", x, -1, -1, napps)
    if len(succ) == 1:
        y, i = succ[0]
        return (None, y, -1, i, 1)
    if len(succ) > max_branch:
        return ("BranchOverflow", x, -1, -1, len(succ))
    cap = depth + 1
    budget = [max_branch * cap, max_branch]
    best = -1
    winner = -1
    tie = False
    try:
        for k, (y, _) in enumerate(succ):
            d = _pcp_depth(us, vs, y, cap, budget)
            if d > best:
                best = d
                winner = k
                tie = False
            elif d == best:
                tie = True
    except _Overflow:
        return ("BranchOverflow", x, -1, -1, len(succ))
    if tie or winner < 0:
        return ("Ambiguous", x, -1, -1, len(succ))
    y, i = succ[winner]
    return (None, y, -1, i, 1)


def pcp_closure(us, vs, x, budget, policy, want_trace):
    """Iterate pcp_step under policy while unique; see _close.  The pair
    index is built once here and passed to every step in place of us."""
    us = pair_index(us)
    depth, branch, cap = policy.depth, MAX_BRANCH, policy.successor_cap
    return _close(
        lambda s: pcp_step(us, vs, s, depth, branch, cap),
        x, budget, want_trace)
