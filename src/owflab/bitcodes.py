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


def gamma_decode(bits: str, pos: int = 0) -> tuple[int, int] | None:
    """Decode one gamma code starting at `pos`.

    Returns (value, next_pos), or None if `bits` does not hold a complete
    code over {0,1} at that offset (int(·, 2) alone would also accept
    "_", a sign or surrounding spaces).
    """
    i = pos
    n = len(bits)
    while i < n and bits[i] == "0":
        i += 1
    if i >= n:
        return None
    width = i - pos  # number of leading zeros
    end = i + width + 1
    if end > n:
        return None
    code = bits[i:end]
    if code.strip("01"):
        return None
    return int(code, 2), end


def is_bits(s: str) -> bool:
    return not s.strip("01")
