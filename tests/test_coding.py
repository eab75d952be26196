import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owflab.bitcodes import gamma_decode, gamma_encode, is_bits
from owflab.coding import (
    BLOCKS,
    CodingError,
    UNDECOMPOSABLE,
    block_decompose,
    _properties,
    build_code_table,
    decode,
    encode,
)

ALPHABET = ("0", "1", "B", "$", "s1", "s2", "k", "s", "h")


def test_gamma_round_trip():
    pos = 0
    bits = "".join(gamma_encode(n) for n in range(1, 200))
    for n in range(1, 200):
        got = gamma_decode(bits, pos)
        assert got is not None
        v, pos = got
        assert v == n
    assert pos == len(bits)


def test_gamma_incomplete():
    assert gamma_decode("", 0) is None
    assert gamma_decode("00", 0) is None
    assert gamma_decode("0010", 0) is None  # needs 2 bits after the first 1
    assert gamma_decode("1", 0) == (1, 1)


def reference_gamma_decode(bits, pos):
    """Count the zeros from pos, then read that many bits after a 1."""
    width = 0
    while pos + width < len(bits) and bits[pos + width] == "0":
        width += 1
    start = pos + width
    if start >= len(bits) or start + width + 1 > len(bits):
        return None
    return int(bits[start : start + width + 1], 2), start + width + 1


@settings(max_examples=500)
@given(st.text("01", max_size=40), st.data())
def test_gamma_decode_matches_counting_reference(bits, data):
    # truncated codes, a code at the very end and offsets past the end
    pos = data.draw(st.integers(0, len(bits) + 2))
    assert gamma_decode(bits, pos) == reference_gamma_decode(bits, pos)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_encode(0)


@given(st.text(alphabet="01", max_size=40))
def test_block_decompose_unique_and_faithful(x):
    got = block_decompose(x)
    if got == UNDECOMPOSABLE:
        return
    assert "".join(got) == x
    assert all(b in BLOCKS for b in got)


def test_block_decompose_known():
    assert block_decompose("") == []
    assert block_decompose("110100") == ["1", "10", "100"]
    assert block_decompose("000") == ["000"]
    assert block_decompose("00") == UNDECOMPOSABLE
    assert block_decompose("0001") == ["000", "1"]
    # the zero run after the 1 has length 4, 4 mod 3 = 1 -> block "10",
    # leaving "000"
    assert block_decompose("10000") == ["10", "000"]


def test_code_shape_and_lengths():
    t = build_code_table(ALPHABET, 8, 0)
    assert len(t.codes) == len(ALPHABET)
    for c in t.codes.values():
        assert c.startswith("001") and c.endswith("11")
        assert len(c) == t.code_len
    # the 2 log + O(1) code length guarantee, in concrete form
    bound = 2 * math.ceil(math.log2(len(ALPHABET) * (2 * 8 + 2))) + 9
    assert t.code_len <= bound


def test_encode_decode_round_trip():
    t = build_code_table(ALPHABET, 8, 0)
    syms = ["$", "s", "1", "0", "B", "$"]
    assert decode(t, encode(t, syms)) == syms
    with pytest.raises(CodingError):
        decode(t, encode(t, syms) + "1")
    with pytest.raises(CodingError):
        decode(t, "0" * t.code_len)


def test_properties_hold_on_decomposable_payloads():
    t = build_code_table(ALPHABET, 64, 0)
    assert _properties(t, "110100", "0001") == (True, True, True, True)
    # a payload that does not decompose fails no property of the codes
    assert _properties(t, "110100", "00") == (True, True, True, True)


def test_property2_can_fail_but_structural_never(seeded=7):
    rng = random.Random(seeded)
    t = build_code_table(ALPHABET, 256, 0)
    hits = 0
    for _ in range(300):
        x = format(rng.getrandbits(256), "0256b")
        y = format(rng.getrandbits(256), "0256b")
        p1, p2, p3, p4 = _properties(t, x, y)
        assert p1 and p3
        assert p4  # no block prefixes a code
        if not p2:
            hits += 1
    assert hits < 300  # random codes inside random payloads are rare


def test_salt_seed_reproducible():
    a = build_code_table(ALPHABET, 8, salt_seed=5)
    b = build_code_table(ALPHABET, 8, salt_seed=5)
    assert a == b


def test_build_rejects_bad_alphabets():
    with pytest.raises(CodingError):
        build_code_table(("a", "b"), 8, 0)
    with pytest.raises(CodingError):
        build_code_table(("a", "b", "a"), 8, 0)
    with pytest.raises(CodingError):
        build_code_table(ALPHABET, 0, 0)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=1000))
def test_code_is_bits(n):
    assert is_bits(gamma_encode(n))


@given(st.text())
def test_is_bits_is_membership_in_01(s):
    assert is_bits(s) == all(c in "01" for c in s)


def test_is_bits_rejects_every_other_digit():
    # int(·, 2) accepts the non-ASCII digits; the instance formats do not
    assert is_bits("") and is_bits("0110")
    for s in ("\x00", "\u0661", "\uff101", "\U0001d7ce", "01\ud800"):
        assert not is_bits(s), repr(s)
