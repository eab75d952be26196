"""Reference figures that more than one test file checks the library
against, each computed straight from its definition: the rule counts of
the semi-Thue compiler's schemas, the laws of the default-uniform
sampler and the bit format of a rewrite system's rules."""

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
