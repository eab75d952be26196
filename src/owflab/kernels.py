"""The engine: rewrite/yield steps and deterministic closures.

Status codes:
  step kind:      0 unique, 1 stuck, 2 ambiguous, 3 branch overflow
  closure status: 0 terminal, 1 ambiguous, 2 budget exceeded, 3 overflow

Lookahead pruning differs between the two relations, because their wrong
branches die differently.

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
branch on small inputs.

Pair lists (pcp_*): a wrong rotation choice sticks almost immediately, so
the deepest-survivor rule suffices: measure each candidate's longest
derivation, capped at depth+1, and keep the step only when one candidate
strictly outlives the rest.

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

STEP_UNIQUE = 0
STEP_STUCK = 1
STEP_AMBIGUOUS = 2
STEP_OVERFLOW = 3

CLOSE_TERMINAL = 0
CLOSE_AMBIGUOUS = 1
CLOSE_BUDGET = 2
CLOSE_OVERFLOW = 3

_CLOSE = {
    STEP_STUCK: CLOSE_TERMINAL,
    STEP_AMBIGUOUS: CLOSE_AMBIGUOUS,
    STEP_OVERFLOW: CLOSE_OVERFLOW,
}


class _Overflow(Exception):
    pass


def backend_name() -> str:
    return "pure"


def _close(step, w, budget, want_trace, work_limit):
    """Iterate step while unique.  Returns (status, final, steps, trace).

    step(w) returns a step tuple (kind, y, pos, index, count).  A revisited
    string can never reach a terminal, so cycles short-circuit to the
    budget-exceeded status.  work_limit (total characters rewritten,
    0 = off) bounds runaway growth chains the same deterministic way.
    """
    trace = [] if want_trace else None
    seen = {w}
    steps = 0
    work = 0
    while True:
        kind, y, p, i, _ = step(w)
        if kind != STEP_UNIQUE:
            return (_CLOSE[kind], w, steps, trace)
        if steps >= budget:
            return (CLOSE_BUDGET, w, steps, trace)
        steps += 1
        w = y
        if want_trace:
            trace.append((i, p, len(w)))
        if w in seen:
            return (CLOSE_BUDGET, w, steps, trace)
        seen.add(w)
        work += len(w)
        if work_limit and work > work_limit:
            return (CLOSE_BUDGET, w, steps, trace)


# --- semi-Thue ------------------------------------------------------------

# A group prefix shorter than this hits so often in a bit string that
# checking every hit costs more than the scans it saves (measured on the
# sampled systems, whose sides are a few characters long)
_SHARED_MIN = 8


class RuleIndex(tuple):
    """The left-hand sides, grouped so that one scan serves several rules.

    Rules are grouped by their first k characters, k the length of the
    shortest side.  A group whose members share a prefix of at least
    _SHARED_MIN characters is searched once for that prefix, and at each
    hit the string's next n characters are looked up in the group's table
    of sides of length n, one table per length among its members; the
    members of any other group are searched side by side, identical sides
    sharing one scan.  A needle with a single member is a lone rule.

    longest is the length of the longest side, which bounds how far before
    a rewritten window a match can start and still overlap it.  A closure
    keeps a match list in its table only while it holds at most keep_max
    matches, one per needle: a denser list is dropped and its successors
    are scanned afresh, so that the table never holds long lists.
    """

    def __new__(cls, lhs):
        self = super().__new__(cls, lhs)
        k = min(map(len, self), default=0)
        groups = {}
        for i, g in enumerate(self):
            groups.setdefault(g[:k], []).append(i)
        needles = {}
        for members in groups.values():
            if len(members) > 1:
                sides = [self[i] for i in members]
                first, last = min(sides), max(sides)
                n = k
                while n < len(first) and first[n] == last[n]:
                    n += 1
                if n >= _SHARED_MIN:
                    needles[first[:n]] = members
                    continue
            for i in members:
                needles.setdefault(self[i], []).append(i)
        # lists, not tuple(iterator): a tuple grown from an iterator is
        # resized, and the interpreter's per-size tuple free lists then keep
        # thousands of the resized tuples for the life of the process
        self.lone = []  # (rule, index)
        self.shared = []  # (needle, [(length, {rule: [index, ...]}), ...])
        for needle, members in needles.items():
            if len(members) == 1:
                self.lone.append((needle, members[0]))
            else:
                by_len = {}
                for i in members:
                    by_len.setdefault(len(self[i]), {}).setdefault(
                        self[i], []).append(i)
                self.shared.append((needle, list(by_len.items())))
        self.longest = max(map(len, self), default=0)
        self.keep_max = len(needles)
        return self


def _scan(lhs, w):
    """All (position, rule index) pairs of w, sorted."""
    out = []
    find = w.find
    for g, i in lhs.lone:
        p = find(g)
        while p >= 0:
            out.append((p, i))
            p = find(g, p + 1)
    for prefix, members in lhs.shared:
        p = find(prefix)
        while p >= 0:
            for n, rules in members:
                for i in rules.get(w[p:p + n], ()):
                    out.append((p, i))
            p = find(prefix, p + 1)
    out.sort()
    return out


def st_find_matches(lhs, w):
    """All (position, rule index) pairs of the RuleIndex lhs in w, sorted
    by (position, rule): a full scan."""
    return _scan(lhs, w)


def _st_derive(lhs, w, matches, p, i, y):
    """The matches of y, which is w with rule i applied at p, from the
    matches of w.

    A match of either string that starts before lo = p - longest + 1 ends
    by p, inside the prefix the two share; one of w that starts at or after
    p + |lhs_i| lies in the suffix they share, which sits |y| - |w| further
    along in y.  The matches of y that start in the window between,
    [lo, p + |rhs_i|), are found by scanning the window and the
    longest - 1 characters after it, or all of y when that covers it.
    """
    a = len(lhs[i])
    d = len(y) - len(w)
    lo = max(0, p - lhs.longest + 1)
    span = p + a + d - lo
    if lo == 0 and span + lhs.longest > len(y):
        return _scan(lhs, y)
    head = bisect_left(matches, (lo,))
    tail = bisect_left(matches, (p + a,), head)
    out = matches[:head]
    window = y[lo:lo + span + lhs.longest - 1]
    out += [(q + lo, j) for q, j in _scan(lhs, window) if q < span]
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


def _st_alive(lhs, rhs, root, ref_len, max_branch, node_budget, memo, lists):
    """Can root's string still reach a stuck string of length ref_len?

    root, like each entry of the search stack, is (s, w, p, i): s is w
    with rule i applied at p.  memo caches proven answers, and lists match
    lists (_st_matches), across the calls of one closure.  DFS with a node
    budget; exhausting the budget returns True without caching.
    """
    s = root[0]
    got = memo.get(s)
    if got is not None:
        return got
    stack = [root]
    visited = {s}
    parent = {s: None}
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
                node = w
                while node is not None:
                    memo[node] = True
                    node = parent[node]
                return True
            continue
        for y, p, i in succ:
            if y in visited:
                continue
            cached = memo.get(y)
            if cached is False:
                continue
            if cached:
                node = w
                while node is not None:
                    memo[node] = True
                    node = parent[node]
                return True
            budget -= 1
            if budget < 0:
                return True  # unproven; do not cache
            visited.add(y)
            parent[y] = w
            stack.append((y, w, p, i))
    for w in visited:
        memo[w] = False
    return False


def st_step(lhs, rhs, w, mode, depth, max_branch, ref_len, memo, lists):
    """One deterministic rewrite step.  mode: 0 strict, 1 lookahead.
    The lookahead keeps a branch that can reach a stuck string of length
    ref_len (_st_alive); memo and lists are the closure's proven answers
    and its table of match lists (_st_matches).  A unique step stores its
    successor's list there when w's list is kept."""
    matches = _st_matches(lhs, lists, w, None, -1, -1)
    if mode == 0 and len(matches) > 1:
        return (STEP_AMBIGUOUS, w, -1, -1, len(matches))
    succ = _st_successors(lhs, rhs, w, matches)
    if not succ:
        return (STEP_STUCK, w, -1, -1, 0)
    if len(succ) > 1:
        if len(succ) > max_branch:
            return (STEP_OVERFLOW, w, -1, -1, len(succ))
        node_budget = max_branch * (depth + 1)
        survivors = []
        try:
            for y, p, i in succ:
                if _st_alive(lhs, rhs, (y, w, p, i), ref_len, max_branch,
                             node_budget, memo, lists):
                    survivors.append((y, p, i))
                    if len(survivors) > 1:
                        break
        except _Overflow:
            return (STEP_OVERFLOW, w, -1, -1, len(succ))
        if len(survivors) != 1:
            return (STEP_AMBIGUOUS, w, -1, -1, len(succ))
        succ = survivors
    y, p, i = succ[0]
    if w in lists:
        _st_matches(lhs, lists, y, w, p, i)
    return (STEP_UNIQUE, y, p, i, 1)


def st_closure(lhs, rhs, w, budget, mode, depth, max_branch, want_trace,
               work_limit):
    """Iterate st_step while unique; see _close.  lhs is a RuleIndex.
    Every step's lookahead measures usefulness against the initial length
    and shares one memo and one table of match lists."""
    ref_len = len(w)
    memo, lists = {}, {}
    return _close(
        lambda s: st_step(lhs, rhs, s, mode, depth, max_branch, ref_len,
                          memo, lists),
        w, budget, want_trace, work_limit)


# --- Post correspondence --------------------------------------------------

class PairIndex(dict):
    """A pair list's left strings by length: {length: {u: [pair index,
    ...]}}.  A string x at least as long as u starts with u exactly when
    x[:|u|] is a key of the table for |u|."""


def pair_index(us):
    """The PairIndex of the left strings us.

    Filled in one loop, with no __init__ of its own: a sampled instance
    has one or two pairs and a closure of a few steps, so the build is a
    visible share of its cost.
    """
    table = PairIndex()
    for i, u in enumerate(us):
        table.setdefault(len(u), {}).setdefault(u, []).append(i)
    return table


def pcp_applications(us, vs, x):
    """All (pair index, yielded string), one per applicable pair, in pair
    index order.

    us is the PairIndex of the left strings.  A pair whose u is longer than
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


def pcp_step(us, vs, x, mode, depth, max_branch, succ_cap):
    """One deterministic yield step on the PairIndex us.  succ_cap bounds
    applicable pairs."""
    succ, napps = _pcp_successors(us, vs, x)
    if mode == 0:
        if napps == 0:
            return (STEP_STUCK, x, -1, -1, 0)
        if napps == 1:
            y, i = succ[0]
            return (STEP_UNIQUE, y, -1, i, 1)
        return (STEP_AMBIGUOUS, x, -1, -1, napps)
    if not succ:
        return (STEP_STUCK, x, -1, -1, 0)
    if succ_cap and napps > succ_cap:
        return (STEP_AMBIGUOUS, x, -1, -1, napps)
    if len(succ) == 1:
        y, i = succ[0]
        return (STEP_UNIQUE, y, -1, i, 1)
    if len(succ) > max_branch:
        return (STEP_OVERFLOW, x, -1, -1, len(succ))
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
        return (STEP_OVERFLOW, x, -1, -1, len(succ))
    if tie or winner < 0:
        return (STEP_AMBIGUOUS, x, -1, -1, len(succ))
    y, i = succ[winner]
    return (STEP_UNIQUE, y, -1, i, 1)


def pcp_closure(us, vs, x, budget, mode, depth, max_branch, succ_cap,
                want_trace, work_limit):
    """Iterate pcp_step while unique; see _close.  The pair index is built
    once here and passed to every step in place of us."""
    us = pair_index(us)
    return _close(
        lambda s: pcp_step(us, vs, s, mode, depth, max_branch, succ_cap),
        x, budget, want_trace, work_limit)
