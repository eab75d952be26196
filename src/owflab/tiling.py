"""Wang-style tiling: tileset types, the machine compiler, the
row-deterministic evaluator, and the tiling one-way function.

A tile carries one symbol per side and may not be rotated.  The compiled
tileset simulates a machine bottom-up: row i+1 of the unique tiling is
the configuration after step i, with the head cell represented by a
(state, symbol) pair.  Rows advance only while exactly one row of tiles
matches the previous row's north edges, so planted nondeterminism shows
up as AmbiguousRow instead of a wrong answer.  Each row is solved exactly
and iteratively by a dynamic program over columns in O(width·|tiles|).

States are direction-split during compilation (p becomes p_R or p_L per
the move direction of the instruction producing it).  Without the split,
a state produced by both directions admits a spurious pair of adjacent
receiver tiles (east-p beside west-p) and a second legal row; the split
makes the emitted and absorbed edge alphabets disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcodes import gamma_decode, gamma_encode, is_bits
from .machine import BLANK, Machine, RIGHT, TAPE_SYMBOLS
from .semithue import one_way

EMPTY = "."  # the blank edge symbol; an ordinary symbol, not a wildcard
LEFT_BORDER = "$"
RIGHT_BORDER = "#"


class TilingError(ValueError):
    pass


@dataclass(frozen=True)
class Tile:
    north: object
    south: object
    east: object
    west: object


@dataclass(frozen=True)
class TileSet:
    symbols: tuple
    tiles: tuple

    def __post_init__(self):
        if len(set(self.tiles)) != len(self.tiles):
            raise TilingError("tiles must be distinct")
        syms = set(self.symbols)
        for t in self.tiles:
            for edge in (t.north, t.south, t.east, t.west):
                if edge not in syms:
                    raise TilingError(f"edge symbol {edge!r} not in table")
        by_south_west = {}
        for t in self.tiles:
            by_south_west.setdefault((t.south, t.west), []).append(t)
        object.__setattr__(self, "_by_south_west", by_south_west)


@dataclass(frozen=True)
class Completed:
    top: tuple  # north symbols of the top row


@dataclass(frozen=True)
class Stalled:
    row: int  # index of the row that admitted no successor


@dataclass(frozen=True)
class AmbiguousRow:
    row: int  # index of the row with >1 successor


# --- compiler -------------------------------------------------------------

def _variants(m: Machine, split: bool):
    """Occurring name variants of each state (the start state also occurs
    unsplit, as the bottom row writes it before any instruction ran)."""
    v = {q: set() for q in m.states}
    v[m.start].add(m.start)
    for (_, _), (p, _, d) in m.transitions.items():
        v[p].add(f"{p}_{d}" if split else p)
    return v


def compile_tileset(m: Machine, split: bool = True) -> TileSet:
    variants = _variants(m, split)
    tiles = {}

    def add(north, south, east, west):
        tiles[Tile(north, south, east, west)] = None

    for a in TAPE_SYMBOLS:
        add(a, a, EMPTY, EMPTY)
    for hv in sorted(variants[m.halt]):
        for a in TAPE_SYMBOLS:
            add((hv, a), (hv, a), EMPTY, EMPTY)
    for (q, a), (p, b, d) in sorted(m.transitions.items()):
        pv = (f"{p}_{d}" if split else p)
        if d == RIGHT:
            for qv in sorted(variants[q]):
                add(b, (qv, a), pv, EMPTY)
            for c in TAPE_SYMBOLS:
                add((pv, c), c, EMPTY, pv)
        else:
            for qv in sorted(variants[q]):
                add(b, (qv, a), EMPTY, pv)
            for c in TAPE_SYMBOLS:
                add((pv, c), c, pv, EMPTY)
    add(LEFT_BORDER, LEFT_BORDER, EMPTY, LEFT_BORDER)
    add(RIGHT_BORDER, RIGHT_BORDER, RIGHT_BORDER, EMPTY)

    symbols = {}
    for t in tiles:
        for edge in (t.north, t.south, t.east, t.west):
            symbols[edge] = None
    return TileSet(tuple(symbols), tuple(tiles))


def bottom_row(m: Machine, x: str):
    """South symbols [$, (s,x₁), x₂…x_n, B×n(n−1), #]; width n²+2."""
    if not x or not is_bits(x):
        raise TilingError("input must be a nonempty bit string")
    n = len(x)
    return ([LEFT_BORDER, (m.start, x[0])] + list(x[1:])
            + [BLANK] * (n * (n - 1)) + [RIGHT_BORDER])


# --- evaluator ------------------------------------------------------------

def next_rows(ts: TileSet, souths):
    """Count the tile rows whose south edges equal `souths` and whose
    east/west edges agree between neighbors (outer edges free).

    Returns (count, row): count is 0, 1 or 2 (2 means two or more), and
    row is the tile tuple when count == 1, else None.  The forward pass
    maps each column's east-edge symbols to (number of row prefixes
    ending there, saturated at 2; the last tile); column 0 starts from
    every west edge, since the outer edges are free.  The backward pass
    follows west edges from the single end state.  O(width·|tiles|).
    """
    if not souths:
        return 1, ()
    index = ts._by_south_west
    prev = dict.fromkeys({t.west for t in ts.tiles}, (1, None))
    layers = []
    for s in souths:
        layer = {}
        for w, (count, _) in prev.items():
            for t in index.get((s, w), ()):
                old = layer.get(t.east)
                layer[t.east] = (min(2, old[0] + count) if old else count, t)
        if not layer:
            return 0, None
        layers.append(layer)
        prev = layer
    ends = list(prev.values())
    if len(ends) > 1 or ends[0][0] > 1:
        return 2, None
    row = [ends[0][1]]
    for layer in reversed(layers[:-1]):
        row.append(layer[row[-1].west][1])
    return 1, tuple(reversed(row))


def tile_closure(ts: TileSet, bottom, height: int):
    """Advance row by row while the extension is unique.

    A row equal to the one below it is a fixed point: the next row is a
    function of the row alone, so every later row would be the same.
    """
    if height < 1:
        raise TilingError("height must be >= 1")
    souths = list(bottom)
    for i in range(1, height):
        count, row = next_rows(ts, souths)
        if count == 0:
            return Stalled(i)
        if count > 1:
            return AmbiguousRow(i)
        norths = [t.north for t in row]
        if norths == souths:
            break
        souths = norths
    return Completed(tuple(souths))


def extract_output(norths, n: int):
    """Tape cells 0..n−1 from a row's north symbols (pairs yield their
    tape component; borders skipped)."""
    cells = []
    for s in norths:
        if s in (LEFT_BORDER, RIGHT_BORDER):
            continue
        cells.append(s[1] if isinstance(s, tuple) else s)
    return "".join(cells[:n])


# --- the tiling one-way function ------------------------------------------

def _id_width(n_symbols: int) -> int:
    return max(1, (n_symbols - 1).bit_length())


def serialize_tiling_instance(ts: TileSet, row) -> str:
    """gamma(S+1), gamma(#tiles+1), fixed-width edge ids per tile (N,E,S,W),
    gamma(len(row)+1), fixed-width row ids."""
    index = {s: i for i, s in enumerate(ts.symbols)}
    w = _id_width(len(ts.symbols))
    out = [gamma_encode(len(ts.symbols) + 1),
           gamma_encode(len(ts.tiles) + 1)]
    for t in ts.tiles:
        for edge in (t.north, t.east, t.south, t.west):
            out.append(format(index[edge], f"0{w}b"))
    out.append(gamma_encode(len(row) + 1))
    for s in row:
        out.append(format(index[s], f"0{w}b"))
    return "".join(out)


def parse_tiling_instance(bits: str):
    """Inverse of serialize_tiling_instance over index symbols; the whole
    string must be consumed."""
    if not is_bits(bits):
        raise TilingError("instance must be a bit string")
    got = gamma_decode(bits, 0)
    if got is None:
        raise TilingError("truncated symbol count")
    s_count, pos = got
    s_count -= 1
    if s_count < 1:
        raise TilingError("empty symbol table")
    got = gamma_decode(bits, pos)
    if got is None:
        raise TilingError("truncated tile count")
    t_count, pos = got
    t_count -= 1
    w = _id_width(s_count)

    def take_id():
        nonlocal pos
        if pos + w > len(bits):
            raise TilingError("truncated symbol id")
        v = int(bits[pos : pos + w], 2)
        if v >= s_count:
            raise TilingError("symbol id out of range")
        pos += w
        return v

    tiles = []
    for _ in range(t_count):
        n, e, s, ww = take_id(), take_id(), take_id(), take_id()
        tiles.append(Tile(n, s, e, ww))
    got = gamma_decode(bits, pos)
    if got is None:
        raise TilingError("truncated row length")
    r_len, pos = got
    r_len -= 1
    row = [take_id() for _ in range(r_len)]
    if pos != len(bits):
        raise TilingError("trailing bits after instance")
    return TileSet(tuple(range(s_count)), tuple(tiles)), row


def tiling_close(ts: TileSet, row, policy=None):
    """The top row tiling_f maps (ts, row) to, or None where tiling_f is
    the identity.  policy is unused: every row is solved exactly."""
    if not row:
        return None
    out = tile_closure(ts, row, height=len(row))
    return list(out.top) if isinstance(out, Completed) else None


def tiling_f(w: str) -> str:
    """The tiling one-way function; total and length-preserving."""
    return one_way(w, parse_tiling_instance, tiling_close,
                   serialize_tiling_instance, None)


# --- text format ----------------------------------------------------------

def _sym_name(s) -> str:
    if isinstance(s, tuple):
        return f"({s[0]},{s[1]})"
    return str(s)


def _sym_parse(tok: str):
    if tok.startswith("(") and tok.endswith(")") and "," in tok:
        q, _, a = tok[1:-1].rpartition(",")
        return (q, a)
    return tok


def tileset_to_text(ts: TileSet, row) -> str:
    lines = ["TIL v1", f"symbols: {len(ts.symbols)}"]
    lines += [_sym_name(s) for s in ts.symbols]
    lines.append(f"tiles: {len(ts.tiles)}")
    lines += [
        " ".join(_sym_name(e) for e in (t.north, t.east, t.south, t.west))
        for t in ts.tiles
    ]
    lines.append("row: " + " ".join(_sym_name(s) for s in row))
    return "\n".join(lines) + "\n"


def tileset_from_text(text: str):
    """Parse the TIL v1 format; any malformed text raises TilingError."""
    # no comment syntax here: "#" is the right-border symbol
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "TIL v1":
        raise TilingError("expected 'TIL v1' header")

    def field(at, key):
        if at >= len(lines) or not lines[at].startswith(key + ":"):
            raise TilingError(f"expected '{key}:' line")
        return lines[at][len(key) + 1 :]

    def count(at, key):
        value = field(at, key).strip()
        if not value.isdecimal():
            raise TilingError(f"bad count in '{key}:' line")
        return int(value)

    k = count(1, "symbols")
    symbols = tuple(_sym_parse(t) for t in lines[2 : 2 + k])
    at = 2 + k
    m = count(at, "tiles")
    tiles = []
    for ln in lines[at + 1 : at + 1 + m]:
        parts = [_sym_parse(t) for t in ln.split()]
        if len(parts) != 4:
            raise TilingError(f"bad tile line: {ln!r}")
        n, e, s, w = parts
        tiles.append(Tile(n, s, e, w))
    row = [_sym_parse(t) for t in field(at + 1 + m, "row").split()]
    return TileSet(symbols, tuple(tiles)), row
