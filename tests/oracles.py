"""References that the tests check the library against, each computed
straight from its definition: the rule counts of the semi-Thue compiler's
schemas, the laws of the default-uniform sampler, the bit format of a
rewrite system's rules, and the engine's rewrite and yield steps, strict
and lookahead, with none of its indexes or tables."""

from owflab.bitcodes import gamma_encode
from owflab.coding import BLOCKS
from owflab.machine import RIGHT


def expected_schema_counts(m):
    """Rule counts (shuttle, machine, decode) of compile_semithue(m, n),
    straight from the schema shapes."""
    r1 = 5 * len(BLOCKS)
    r2 = 0
    for (q, a), (p, b, d) in m.transitions.items():
        r2 += 4 if d == RIGHT else 3
    r3 = 2 + 2 + 1 + 1
    return r1, r2, r3


def _inverse_square_law(k, bound):
    """P(k) under the 1/k² law truncated at bound and renormalized."""
    if not 1 <= k <= bound:
        return 0.0
    return (1.0 / (k * k)) / sum(1.0 / (j * j) for j in range(1, bound + 1))


def int_probability(d, n):
    """P(n) under the sampler d's truncated 1/n² integer law."""
    return _inverse_square_law(n, d.max_int)


def length_probability(d, ell):
    """P(|u| = ell) under the sampler d's truncated 1/ℓ² length law."""
    return _inverse_square_law(ell, d.max_len)


def serialized_rules(sys):
    """The rules of sys in the instance bit format, one gamma code per
    count and length: gamma(m+1), then gamma(len+1)+bits per rule string."""
    out = [gamma_encode(len(sys.rules) + 1)]
    for g, h in sys.rules:
        out.append(gamma_encode(len(g) + 1) + g)
        out.append(gamma_encode(len(h) + 1) + h)
    return "".join(out)


# --- the engine's steps ------------------------------------------------------

class _Overflow(Exception):
    pass


def naive_find_matches(lhs, w):
    """Every (position, rule index) of the left sides lhs in w, by a
    sliding window, sorted."""
    return [(p, i) for p in range(len(w)) for i, g in enumerate(lhs)
            if w[p:p + len(g)] == g]


def naive_applications(us, vs, x):
    """Every (pair index, y) with u·y = x·v, in pair index order."""
    out = []
    for i, (u, v) in enumerate(zip(us, vs)):
        y = (x + v)[len(u):]
        if u + y == x + v:
            out.append((i, y))
    return out


def _distinct(succ):
    """succ, a list of (y, ...), without the later repeats of a y."""
    out = {}
    for s in succ:
        out.setdefault(s[0], s)
    return list(out.values())


def _st_successors(lhs, rhs, w):
    """The distinct successors (y, pos, rule) of w, each with the first
    match, in match order, that makes it."""
    return _distinct([(w[:p] + rhs[i] + w[p + len(lhs[i]):], p, i)
                      for p, i in naive_find_matches(lhs, w)])


def _st_alive(lhs, rhs, s, ref_len, max_branch, budget):
    """Can s reach a stuck string of length ref_len?  A LIFO depth-first
    search that charges each string it pushes to budget and answers True
    when the budget runs out; a string with more than max_branch
    successors overflows."""
    stack = [s]
    visited = {s}
    while stack:
        w = stack.pop()
        succ = _st_successors(lhs, rhs, w)
        if len(succ) > max_branch:
            raise _Overflow
        if not succ and len(w) == ref_len:
            return True
        for y, _, _ in succ:
            if y not in visited:
                budget -= 1
                if budget < 0:
                    return True
                visited.add(y)
                stack.append(y)
    return False


def st_step(lhs, rhs, w, mode, depth, max_branch, ref_len, succ_cap):
    """kernels.st_step from its definition (mode 0 strict, 1 lookahead):
    a step tuple (reason, y, pos, rule, count).  Lookahead is Ambiguous
    past succ_cap matches (0 = no cap), and keeps the candidates whose
    own search (_st_alive, max_branch·(depth+1) nodes) reaches a useful
    stuck string, searching them in order until two survive."""
    matches = naive_find_matches(lhs, w)
    if mode == 0:
        if len(matches) > 1:
            return ("Ambiguous", w, -1, -1, len(matches))
    elif succ_cap and len(matches) > succ_cap:
        return ("Ambiguous", w, -1, -1, len(matches))
    succ = _st_successors(lhs, rhs, w)
    if not succ:
        return ("", w, -1, -1, 0)
    if len(succ) > 1:
        if len(succ) > max_branch:
            return ("BranchOverflow", w, -1, -1, len(succ))
        alive = []
        try:
            for c in succ:
                if _st_alive(lhs, rhs, c[0], ref_len, max_branch,
                             max_branch * (depth + 1)):
                    alive.append(c)
                    if len(alive) > 1:
                        break
        except _Overflow:
            return ("BranchOverflow", w, -1, -1, len(succ))
        if len(alive) != 1:
            return ("Ambiguous", w, -1, -1, len(succ))
        succ = alive
    y, p, i = succ[0]
    return (None, y, p, i, 1)


def _pcp_successors(us, vs, x):
    return _distinct([(y, i) for i, y in naive_applications(us, vs, x)])


def _pcp_longest(us, vs, x, cap, budget):
    """The longest derivation from x, capped at cap.  Each string expanded
    charges its distinct successors to budget = [nodes left, max branch]
    and overflows past either; a string stops trying its successors once
    its best reaches its cap, and one at cap 0 is not expanded."""
    if cap == 0:
        return 0
    succ = _pcp_successors(us, vs, x)
    budget[0] -= len(succ)
    if len(succ) > budget[1] or budget[0] < 0:
        raise _Overflow
    best = 0
    for y, _ in succ:
        if best >= cap:
            break
        best = max(best, 1 + _pcp_longest(us, vs, y, cap - 1, budget))
    return best


def pcp_step(us, vs, x, mode, depth, max_branch, succ_cap):
    """kernels.pcp_step from its definition, on the list of left strings
    us: the candidate with the strictly longest derivation, capped at
    depth + 1 under one budget of max_branch·(depth+1) nodes, wins."""
    apps = naive_applications(us, vs, x)
    succ = _pcp_successors(us, vs, x)
    if mode == 0:
        if len(apps) > 1:
            return ("Ambiguous", x, -1, -1, len(apps))
    elif succ_cap and len(apps) > succ_cap:
        return ("Ambiguous", x, -1, -1, len(apps))
    if not succ:
        return ("", x, -1, -1, 0)
    if len(succ) > 1:
        if len(succ) > max_branch:
            return ("BranchOverflow", x, -1, -1, len(succ))
        budget = [max_branch * (depth + 1), max_branch]
        try:
            lengths = [_pcp_longest(us, vs, y, depth + 1, budget)
                       for y, _ in succ]
        except _Overflow:
            return ("BranchOverflow", x, -1, -1, len(succ))
        if lengths.count(max(lengths)) > 1:
            return ("Ambiguous", x, -1, -1, len(succ))
        succ = [succ[lengths.index(max(lengths))]]
    y, i = succ[0]
    return (None, y, -1, i, 1)
