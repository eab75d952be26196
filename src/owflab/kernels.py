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
scanned again.  The closure carries each step's list to the next, and the
lookahead derives a node's list when it expands the node.  A full scan
(st_find_matches) is left for a closure's first string and for the
successors of a string whose list is too dense to carry.

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
    a rewritten window a match can start and still overlap it.  A match
    list is carried from a string to its successors only while it holds at
    most carry_max matches, one per needle: a denser list is dropped and
    its successors are scanned afresh, so that the lookahead never keeps
    long lists on its stack.
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
        self.carry_max = len(needles)
        return self


def _indexed(lhs):
    return lhs if type(lhs) is RuleIndex else RuleIndex(lhs)


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
    """All (position, rule index) pairs, sorted by (position, rule).

    lhs is a RuleIndex, or a sequence of left-hand sides indexed here.
    """
    return _scan(_indexed(lhs), w)


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


def _st_alive(lhs, rhs, root, ref_len, max_branch, node_budget, memo):
    """Can root's string still reach a stuck string of length ref_len?

    root, like each entry of the search stack, is (s, w, w's match list or
    None, p, i): s is w with rule i applied at p.  The match list of s is
    derived from w's when s is expanded, not when it is pushed, and
    rescanned when w's was too dense to carry.

    memo caches proven answers across the calls of one closure.  DFS with
    a node budget; exhausting the budget returns True without caching.
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
        w, up, matches, p, i = stack.pop()
        matches = (st_find_matches(lhs, w) if matches is None
                   else _st_derive(lhs, up, matches, p, i, w))
        succ = _st_successors(lhs, rhs, w, matches)
        if len(matches) > lhs.carry_max:
            # not carried, and freed before the next node is scanned: a
            # dense list kept alive here would double the allocation peak
            matches = None
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
            stack.append((y, w, matches, p, i))
    for w in visited:
        memo[w] = False
    return False


def st_step(lhs, rhs, w, mode, depth, max_branch, ref_len=-1, memo=None,
            carry=None):
    """One deterministic rewrite step.  mode: 0 strict, 1 lookahead.

    carry, if given, is [string, its match list or None].  When it holds w
    and a list, the list stands in for a scan of w.  A unique step sets it
    to the successor and the successor's list, derived from w's, or None
    when w's list is too dense to carry.
    """
    lhs = _indexed(lhs)
    if carry is not None and carry[1] is not None and carry[0] == w:
        matches = carry[1]
    else:
        matches = st_find_matches(lhs, w)
    if mode == 0 and len(matches) > 1:
        return (STEP_AMBIGUOUS, w, -1, -1, len(matches))
    succ = _st_successors(lhs, rhs, w, matches)
    if not succ:
        return (STEP_STUCK, w, -1, -1, 0)
    carried = matches if len(matches) <= lhs.carry_max else None
    if len(succ) > 1:
        if len(succ) > max_branch:
            return (STEP_OVERFLOW, w, -1, -1, len(succ))
        if ref_len < 0:
            ref_len = len(w)
        if memo is None:
            memo = {}
        node_budget = max_branch * (depth + 1)
        survivors = []
        try:
            for y, p, i in succ:
                if _st_alive(lhs, rhs, (y, w, carried, p, i), ref_len,
                             max_branch, node_budget, memo):
                    survivors.append((y, p, i))
                    if len(survivors) > 1:
                        break
        except _Overflow:
            return (STEP_OVERFLOW, w, -1, -1, len(succ))
        if len(survivors) != 1:
            return (STEP_AMBIGUOUS, w, -1, -1, len(succ))
        succ = survivors
    y, p, i = succ[0]
    if carry is not None:
        carry[:] = y, (None if carried is None
                       else _st_derive(lhs, w, carried, p, i, y))
    return (STEP_UNIQUE, y, p, i, 1)


def st_closure(lhs, rhs, w, budget, mode, depth, max_branch,
               want_trace=False, work_limit=0):
    """Iterate st_step while unique; see _close.  The rule index is built
    once here, every step's lookahead measures usefulness against the
    initial length and shares one memo, and each step carries its
    successor's match list to the next (see st_step)."""
    lhs = _indexed(lhs)
    ref_len = len(w)
    memo = {}
    carry = [w, None]
    return _close(
        lambda s: st_step(lhs, rhs, s, mode, depth, max_branch, ref_len,
                          memo, carry),
        w, budget, want_trace, work_limit)


# --- Post correspondence --------------------------------------------------

def pcp_applications(us, vs, x):
    """All (pair index, yielded string), one per applicable pair."""
    out = []
    n = len(x)
    for i, u in enumerate(us):
        if n >= len(u):
            if x.startswith(u):
                out.append((i, x[len(u):] + vs[i]))
        elif u.startswith(x):
            rest = u[n:]
            v = vs[i]
            if v.startswith(rest):
                out.append((i, v[len(rest):]))
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


def pcp_step(us, vs, x, mode, depth, max_branch, succ_cap=0):
    """One deterministic yield step.  succ_cap bounds applicable pairs."""
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


def pcp_closure(us, vs, x, budget, mode, depth, max_branch, succ_cap=0,
                want_trace=False, work_limit=0):
    """Iterate pcp_step while unique; see _close."""
    return _close(
        lambda s: pcp_step(us, vs, s, mode, depth, max_branch, succ_cap),
        x, budget, want_trace, work_limit)
