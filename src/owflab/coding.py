"""Fixed-length binary symbol codes and the {1,10,100,000} block calculus.

Codes have the shape 001 (d 1)* 11 with the payload bits d taken from a
salted counter.  The 001 prefix makes "00" occur only at a code start, so
aligned decoding is forced structurally, and no block is a prefix of any
code.  The salt makes compilations reproducible.  check_codes is the one
trial loop over the four code-scheme properties; `owflab verify --suite
coding` and the acceptance tests read it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

BLOCKS = ("1", "10", "100", "000")


class CodingError(ValueError):
    pass


@dataclass(frozen=True)
class CodeTable:
    alphabet: tuple[str, ...]
    code_len: int
    codes: dict  # symbol -> bit string, insertion-ordered like alphabet
    salt: int

    def __post_init__(self):
        object.__setattr__(self, "_decode", {v: k for k, v in self.codes.items()})

    def code(self, symbol: str) -> str:
        try:
            return self.codes[symbol]
        except KeyError:
            raise CodingError(f"unknown symbol {symbol!r}") from None


def _payload_width(n_symbols: int, n: int) -> int:
    return math.ceil(math.log2(n_symbols * (2 * n + 2) + n_symbols)) + 1


def _make_code(value: int, m: int) -> str:
    payload = format(value, f"0{m}b")
    return "001" + "".join(d + "1" for d in payload) + "11"


def build_code_table(alphabet, n: int, salt_seed: int) -> CodeTable:
    """Build a code table for `alphabet` with payload length bound n.

    The codes take |alphabet| consecutive counter values starting at the
    salt, which salt_seed fixes, so compilations are reproducible.
    """
    alphabet = tuple(alphabet)
    if len(alphabet) < 3:
        raise CodingError("alphabet must have more than 2 symbols")
    if len(set(alphabet)) != len(alphabet):
        raise CodingError("alphabet has repeated symbols")
    if n < 1:
        raise CodingError("payload length bound must be >= 1")
    m = _payload_width(len(alphabet), n)
    span = (1 << m) - len(alphabet)  # salts 0..span are valid windows
    salt = salt_seed % (span + 1)
    codes = [_make_code(salt + i, m) for i in range(len(alphabet))]
    return CodeTable(alphabet, 2 * m + 5, dict(zip(alphabet, codes)), salt)


def encode(table: CodeTable, symbols) -> str:
    return "".join(table.code(s) for s in symbols)


def decode(table: CodeTable, bits: str) -> list:
    l = table.code_len
    if len(bits) % l != 0:
        raise CodingError(f"bit length {len(bits)} not a multiple of {l}")
    out = []
    for i in range(0, len(bits), l):
        chunk = bits[i : i + l]
        sym = table._decode.get(chunk)
        if sym is None:
            raise CodingError(f"chunk at offset {i} is not a code: {chunk}")
        out.append(sym)
    return out


class Undecomposable:
    """Marker result: the string has no factorization over the block set."""

    def __repr__(self):
        return "Undecomposable"

    def __eq__(self, other):
        return isinstance(other, Undecomposable)

    def __hash__(self):
        return hash("Undecomposable")


UNDECOMPOSABLE = Undecomposable()


def block_decompose(x: str):
    """Factor x over {1,10,100,000}, or return UNDECOMPOSABLE.

    The factorization, when it exists, is unique: after each 1 the run of
    following zeros fixes how many stay attached (its length mod 3), and a
    leading zero run must have length divisible by 3.
    """
    out = []
    i = 0
    n = len(x)
    while i < n:
        if x[i] == "0":
            if x[i : i + 3] != "000":
                return UNDECOMPOSABLE
            out.append("000")
            i += 3
        else:
            j = i + 1
            while j < n and x[j] == "0":
                j += 1
            zeros = j - i - 1
            take = zeros % 3
            out.append("1" + "0" * take)
            i += 1 + take
    return out


def _properties(table: CodeTable, x: str, y: str):
    """Whether each of the four code-scheme properties holds for table
    against payload strings x and y."""
    codes = list(table.codes.values())
    return (
        # 1: equal lengths
        all(len(c) == table.code_len for c in codes),
        # 2: no code occurs inside x or y
        not any(c in s for s in (x, y) for c in codes),
        # 3: a nonempty suffix of a code that prefixes a code equals both
        not any(v.startswith(u[-k:]) and not (u[-k:] == u == v)
                for u in codes for v in codes for k in range(1, len(u) + 1)),
        # 4: no block prefixes a code
        not any(c.startswith(b) for b in BLOCKS for c in codes),
    )


def check_codes(alphabet, n: int, trials: int, seed: int):
    """The four properties over `trials` code tables for `alphabet` and
    random payloads, as (label, passed) rows.  Table t uses salt_seed t,
    and each trial draws x, then y, as random n-bit payloads.  Properties
    1, 3 and 4 must never fail; property 2 may, at a rate of at most
    2|alphabet|n/2^m (m the counter width) plus a 99% binomial slack.
    Whether x and y decompose into blocks is not a property of the codes
    and is not counted."""
    rng = random.Random(seed)
    fails = [0, 0, 0, 0]
    for t in range(trials):
        table = build_code_table(alphabet, n, salt_seed=t)
        x = format(rng.getrandbits(n), f"0{n}b")
        y = format(rng.getrandbits(n), f"0{n}b")
        for i, ok in enumerate(_properties(table, x, y)):
            fails[i] += not ok
    bound = 2 * len(alphabet) * n / (1 << _payload_width(len(alphabet), n))
    limit = bound + 2.576 * math.sqrt(max(bound * (1 - bound), 0.0) / trials)
    return [
        ("coding property 1 (equal lengths)", fails[0] == 0),
        (f"coding property 2 rate {fails[1]}/{trials} (<= {limit:.4f})",
         fails[1] / trials <= limit),
        ("coding property 3 (cross-bifix-free)", fails[2] == 0),
        ("coding property 4 (blocks vs codes)", fails[3] == 0),
    ]


# --- JSON sidecar --------------------------------------------------------

def table_to_json(table: CodeTable) -> str:
    doc = {
        "alphabet": list(table.alphabet),
        "code_len": table.code_len,
        "salt": table.salt,
        "codes": dict(table.codes),
    }
    return json.dumps(doc, indent=2)
