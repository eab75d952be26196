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
    build_code_table,
    code_len_bound,
    decode,
    encode,
    table_from_json,
    table_to_json,
    verify_properties,
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


def test_gamma_rejects_non_bits():
    # int(·, 2) accepts "1_1" and "1 "; "12" would raise ValueError
    for bits in ("001_1", "01 ", "01\n", "0012", "2", "0+1"):
        assert gamma_decode(bits, 0) is None, bits


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
    t = build_code_table(ALPHABET, 8)
    assert len(t.codes) == len(ALPHABET)
    for c in t.codes.values():
        assert c.startswith("001") and c.endswith("11")
        assert len(c) == t.code_len
    assert t.code_len <= code_len_bound(len(ALPHABET), 8)


def test_encode_decode_round_trip():
    t = build_code_table(ALPHABET, 8)
    syms = ["$", "s", "1", "0", "B", "$"]
    assert decode(t, encode(t, syms)) == syms
    with pytest.raises(CodingError):
        decode(t, encode(t, syms) + "1")
    with pytest.raises(CodingError):
        decode(t, "0" * t.code_len)


def test_properties_hold_on_decomposable_payloads():
    t = build_code_table(ALPHABET, 64)
    rep = verify_properties(t, "110100", "0001")
    assert rep.all_ok()


def test_property2_can_fail_but_structural_never(seeded=7):
    rng = random.Random(seeded)
    t = build_code_table(ALPHABET, 256)
    hits = 0
    for _ in range(300):
        x = format(rng.getrandbits(256), "0256b")
        y = format(rng.getrandbits(256), "0256b")
        rep = verify_properties(t, x, y)
        assert rep.prop1.ok and rep.prop3.ok
        # structural half of property 4 (blocks vs codes) never fails
        assert "no block decomposition" in rep.prop4.witness or rep.prop4.ok
        if not rep.prop2.ok:
            hits += 1
    assert hits < 300  # random codes inside random payloads are rare


def test_avoid_steers_salt():
    t0 = build_code_table(ALPHABET, 8)
    some_code = t0.code("s")
    t1 = build_code_table(ALPHABET, 8, avoid=(some_code,))
    assert all(c not in some_code for c in t1.codes.values())
    assert t1.salt != t0.salt


def test_salt_seed_reproducible():
    a = build_code_table(ALPHABET, 8, salt_seed=5)
    b = build_code_table(ALPHABET, 8, salt_seed=5)
    assert a == b


def test_json_round_trip():
    t = build_code_table(ALPHABET, 8, salt_seed=3)
    assert table_from_json(table_to_json(t)) == t


def test_build_rejects_bad_alphabets():
    with pytest.raises(CodingError):
        build_code_table(("a", "b"), 8)
    with pytest.raises(CodingError):
        build_code_table(("a", "b", "a"), 8)
    with pytest.raises(CodingError):
        build_code_table(ALPHABET, 0)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=1000))
def test_code_is_bits(n):
    assert is_bits(gamma_encode(n))
