"""Samplers for the default-uniform input distributions and random
instances: integers with probability proportional to 1/n², strings with
probability proportional to 2^{-ℓ}/ℓ² (a 1/ℓ² length law, then uniform
bits), and whole rewrite-system / pair-list instances built from them.

The heavy-tailed laws are truncated at configurable bounds and
renormalized; the truncated mass is below 1/bound and is reported so
experiments can state it.  All draws flow through random.Random seeded
explicitly, so identical seeds reproduce identical samples.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from .pcp import PairList
from .semithue import RewriteSystem


@dataclass(frozen=True)
class DefaultUniform:
    max_int: int = 1 << 16
    max_len: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.max_int < 1 or self.max_len < 1:
            raise ValueError("truncation bounds must be >= 1")


@dataclass(frozen=True)
class StsSample:
    system: RewriteSystem
    payload: str
    n: int
    target: str  # the decision problem's target string; unused by staf


@dataclass(frozen=True)
class PcpSample:
    pairs: PairList
    payload: str
    n: int
    target: str


def make_rng(d: DefaultUniform) -> random.Random:
    return random.Random(d.seed)


_CUMS: dict = {}


def _cumulative(bound: int):
    got = _CUMS.get(bound)
    if got is None:
        acc = list(itertools.accumulate(1.0 / (n * n)
                                        for n in range(1, bound + 1)))
        got = _CUMS[bound] = acc
    return got


def int_probability(d: DefaultUniform, n: int) -> float:
    """P(n) under the truncated 1/n² law."""
    if not 1 <= n <= d.max_int:
        return 0.0
    cum = _cumulative(d.max_int)
    return (1.0 / (n * n)) / cum[-1]


def length_probability(d: DefaultUniform, ell: int) -> float:
    """P(|u| = ell) under the truncated 1/ℓ² length law."""
    if not 1 <= ell <= d.max_len:
        return 0.0
    cum = _cumulative(d.max_len)
    return (1.0 / (ell * ell)) / cum[-1]


def truncated_mass_bound(bound: int) -> float:
    """Upper bound on the probability mass cut off at `bound` (< 1/bound)."""
    return 1.0 / bound


def sample_int(d: DefaultUniform, rng: random.Random) -> int:
    cum = _cumulative(d.max_int)
    return bisect.bisect_left(cum, rng.random() * cum[-1]) + 1


def sample_string(d: DefaultUniform, rng: random.Random) -> str:
    cum = _cumulative(d.max_len)
    ell = bisect.bisect_left(cum, rng.random() * cum[-1]) + 1
    return format(rng.getrandbits(ell), f"0{ell}b")


def _draw(d: DefaultUniform, rng: random.Random, cls):
    """Random bound n, rule count m, rules, payload and target string, in
    the field order of StsSample and PcpSample."""
    n = sample_int(d, rng)
    m = sample_int(d, rng)
    rules = tuple(
        (sample_string(d, rng), sample_string(d, rng)) for _ in range(m)
    )
    payload = sample_string(d, rng)
    target = sample_string(d, rng)
    return cls(rules), payload, n, target


def sample_sts_instance(d: DefaultUniform, rng: random.Random) -> StsSample:
    return StsSample(*_draw(d, rng, RewriteSystem))


def sample_pcp_instance(d: DefaultUniform, rng: random.Random) -> PcpSample:
    return PcpSample(*_draw(d, rng, PairList))


def instance_size(sample) -> int:
    """The n + |u| + |v| + Σ(|gᵢ|+|hᵢ|) size measure of a sampled instance."""
    rules = (sample.system.rules if isinstance(sample, StsSample)
             else sample.pairs.pairs)
    return (sample.n + len(sample.payload) + len(sample.target)
            + sum(len(g) + len(h) for g, h in rules))
