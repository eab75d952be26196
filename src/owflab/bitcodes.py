"""Self-delimiting bit-level codes used by the pure-string instance formats.

All "bit strings" in this package are Python strings over {'0','1'}.
"""

from __future__ import annotations


def gamma_encode(n: int) -> str:
    """Elias gamma code of a positive integer."""
    if n < 1:
        raise ValueError("gamma code defined for n >= 1")
    b = format(n, "b")
    return "0" * (len(b) - 1) + b


def gamma_decode(bits: str, pos: int) -> tuple[int, int] | None:
    """Decode one gamma code starting at `pos` of a string over {0,1}.

    Returns (value, next_pos), or None if no complete code starts at that
    offset.  The string must already be checked with is_bits, as each
    parser checks its whole input once: int(·, 2) would also accept "_",
    a sign or surrounding spaces.
    """
    i = bits.find("1", pos)  # width = i - pos leading zeros
    if i < 0:
        return None
    end = 2 * i - pos + 1
    if end > len(bits):
        return None
    return int(bits[i:end], 2), end


def is_bits(s: str) -> bool:
    """Whether s is over {0,1}: one C pass (translate deletes the bits),
    where strip("01") made one set lookup per character."""
    return s.isascii() and not s.encode().translate(None, b"01")
