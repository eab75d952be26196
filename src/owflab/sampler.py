"""Samplers for the default-uniform input distributions and random
instances: integers with probability proportional to 1/n², strings with
probability proportional to 2^{-ℓ}/ℓ² (a 1/ℓ² length law, then uniform
bits), and whole rewrite-system / pair-list instances built from them.

The heavy-tailed laws are truncated at configurable bounds and
renormalized; the mass cut off is below 1/bound.  All draws flow
through random.Random seeded explicitly, so identical seeds reproduce
identical samples.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PcpSample:
    pairs: RewriteSystem
    payload: str


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


def sample_int(d: DefaultUniform, rng: random.Random) -> int:
    cum = _cumulative(d.max_int)
    return bisect.bisect_left(cum, rng.random() * cum[-1]) + 1


def sample_string(d: DefaultUniform, rng: random.Random) -> str:
    cum = _cumulative(d.max_len)
    ell = bisect.bisect_left(cum, rng.random() * cum[-1]) + 1
    return format(rng.getrandbits(ell), f"0{ell}b")


def _draw(d: DefaultUniform, rng: random.Random):
    """Random rules and payload, in the field order of StsSample and
    PcpSample.  The decision problem's bound n and target string are
    drawn too, though nothing reads them, so that a seed gives the
    instances it always gave."""
    sample_int(d, rng)  # n
    m = sample_int(d, rng)
    rules = tuple(
        (sample_string(d, rng), sample_string(d, rng)) for _ in range(m)
    )
    payload = sample_string(d, rng)
    sample_string(d, rng)  # the target
    return RewriteSystem(rules), payload


def sample_sts_instance(d: DefaultUniform, rng: random.Random) -> StsSample:
    return StsSample(*_draw(d, rng))


def sample_pcp_instance(d: DefaultUniform, rng: random.Random) -> PcpSample:
    return PcpSample(*_draw(d, rng))

