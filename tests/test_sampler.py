import math

import pytest

from oracles import int_probability, length_probability
from owflab.sampler import (
    DefaultUniform,
    PcpSample,
    StsSample,
    make_rng,
    sample_int,
    sample_pcp_instance,
    sample_string,
    sample_sts_instance,
)


def test_probability_normalization():
    d = DefaultUniform(max_int=500, max_len=30)
    assert math.isclose(sum(int_probability(d, n) for n in range(1, 501)), 1.0)
    assert math.isclose(
        sum(length_probability(d, l) for l in range(1, 31)), 1.0)
    assert int_probability(d, 0) == 0.0
    assert int_probability(d, 501) == 0.0


def test_probability_shape():
    d = DefaultUniform(max_int=100, max_len=100)
    # 1/n^2 ratios survive normalization
    assert math.isclose(int_probability(d, 1) / int_probability(d, 2), 4.0)
    assert math.isclose(length_probability(d, 2) / length_probability(d, 4),
                        4.0)


def test_seeded_reproducibility():
    d = DefaultUniform(max_int=1000, max_len=40, seed=42)
    a = [sample_int(d, make_rng(d)) for _ in range(1)]
    b = [sample_int(d, make_rng(d)) for _ in range(1)]
    assert a == b
    r1, r2 = make_rng(d), make_rng(d)
    assert [sample_string(d, r1) for _ in range(20)] == \
        [sample_string(d, r2) for _ in range(20)]


def test_sample_ranges():
    d = DefaultUniform(max_int=50, max_len=10, seed=0)
    rng = make_rng(d)
    for _ in range(2000):
        n = sample_int(d, rng)
        assert 1 <= n <= 50
        s = sample_string(d, rng)
        assert 1 <= len(s) <= 10
        assert set(s) <= {"0", "1"}


def test_string_uniform_bits_given_length():
    d = DefaultUniform(max_int=10, max_len=2, seed=1)
    rng = make_rng(d)
    ones = total = 0
    for _ in range(4000):
        s = sample_string(d, rng)
        ones += s.count("1")
        total += len(s)
    assert abs(ones / total - 0.5) < 0.03


def test_instance_samples():
    d = DefaultUniform(max_int=20, max_len=8, seed=3)
    rng = make_rng(d)
    s = sample_sts_instance(d, rng)
    assert isinstance(s, StsSample)
    p = sample_pcp_instance(d, rng)
    assert isinstance(p, PcpSample)


def test_bound_validation():
    with pytest.raises(ValueError):
        DefaultUniform(max_int=0)
    with pytest.raises(ValueError):
        DefaultUniform(max_len=0)
