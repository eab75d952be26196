"""Wang-style tiling: tileset types, the machine compiler, the
row-deterministic evaluator, and the tiling one-way function.

A tile carries one symbol per side and may not be rotated.  The compiled
tileset simulates a machine bottom-up: row i+1 of the unique tiling is
the configuration after step i, with the head cell represented by a
(state, symbol) pair.  Rows advance only while exactly one row of tiles
matches the previous row's north edges, so planted nondeterminism shows
up as AmbiguousRow instead of a wrong answer.  Each row is solved exactly
and iteratively by a dynamic program over columns: the first row of a
square in O(width·|tiles|), each later one in O(stretch·|tiles|), where
the stretch is the run of columns from the first south the last row
changed to where the program's layers agree with the row before again
(a few columns for a compiled machine, whose head changes two cells).

States are direction-split during compilation (p becomes p_R or p_L per
the move direction of the instruction producing it).  Without the split,
a state produced by both directions admits a spurious pair of adjacent
receiver tiles (east-p beside west-p) and a second legal row; the split
makes the emitted and absorbed edge alphabets disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bitcodes import gamma_decode, gamma_encode, is_bits
from .kernels import ClosureOutcome
from .machine import BLANK, Machine, RIGHT, TAPE_SYMBOLS
from .semithue import one_way

EMPTY = "."  # the blank edge symbol; an ordinary symbol, not a wildcard
LEFT_BORDER = "$"
RIGHT_BORDER = "#"


class TilingError(ValueError):
    pass


class Tile(NamedTuple):
    """A tuple, so that a TileSet hashes and compares its tiles in C."""

    north: object
    south: object
    east: object
    west: object


@dataclass(frozen=True)
class TileSet:
    """Tiles over a table that holds every edge, as the parsers check and
    compile_tileset builds it."""

    symbols: tuple  # or range(S), the table of a parsed instance
    tiles: tuple

    def __post_init__(self):
        if len(set(self.tiles)) != len(self.tiles):
            raise TilingError("tiles must be distinct")
        by_south_west = {}
        for t in self.tiles:
            by_south_west.setdefault((t.south, t.west), []).append(t)
        object.__setattr__(self, "_by_south_west", by_south_west)
        # next_rows' layer left of column 0: the outer edges are free, so
        # one (empty) prefix ends at every west edge (a value, not None)
        object.__setattr__(self, "_start",
                           dict.fromkeys([t.west for t in self.tiles], True))


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

def _variants(m: Machine):
    """Occurring name variants of each state (the start state also occurs
    unsplit, as the bottom row writes it before any instruction ran)."""
    v = {q: set() for q in m.states}
    v[m.start].add(m.start)
    for (_, _), (p, _, d) in m.transitions.items():
        v[p].add(f"{p}_{d}")
    return v


def compile_tileset(m: Machine) -> TileSet:
    variants = _variants(m)
    tiles = {}

    def add(north, south, east, west):
        tiles[Tile(north, south, east, west)] = None

    for a in TAPE_SYMBOLS:
        add(a, a, EMPTY, EMPTY)
    for hv in sorted(variants[m.halt]):
        for a in TAPE_SYMBOLS:
            add((hv, a), (hv, a), EMPTY, EMPTY)
    for (q, a), (p, b, d) in sorted(m.transitions.items()):
        pv = f"{p}_{d}"
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

class LastRow:
    """What next_rows keeps of the row it solved last, so that it can
    solve a row that differs from it in a stretch of columns: the forward
    layers (None before the first solve and after a stall), the count,
    and the tile row (a list, None unless the count is 1).  Before the
    next call the caller sets lo and hi, the first and last column whose
    south it changed; next_rows sets span, the columns whose tile it
    chose anew (outside them the row is the last one)."""

    __slots__ = ("layers", "count", "row", "lo", "hi", "span")

    def __init__(self):
        self.layers = self.row = None
        self.count, self.lo, self.hi, self.span = 0, 0, 0, range(0)


def next_rows(ts: TileSet, souths, last: LastRow):
    """Count the tile rows whose south edges equal `souths` and whose
    east/west edges agree between neighbors (outer edges free).

    Returns (count, row): count is 0, 1 or 2 (2 means two or more), and
    row is the tiles when count == 1, else None.  The forward pass maps
    each column's east-edge symbols to the last tile of the one row prefix
    ending there, or to None when two or more do; column 0 starts from
    every west edge, since the outer edges are free.  The backward pass
    follows west edges from the single end tile.  O(width·|tiles|).

    The row is solved from the one before, which `last` keeps (a fresh
    LastRow solves it from scratch): the forward pass restarts at column
    last.lo and stops at the first column past last.hi whose layer is the
    one stored (every later layer, and the count, are then the stored ones
    too); the backward pass stops below last.lo at the first tile the
    stored row has, since the prefix is then the same.  The row comes back
    as last.row, a list that the next call rewrites.
    """
    if not souths:
        return 1, ()
    index = ts._by_south_west
    width = len(souths)
    layers = last.layers
    if layers is None or len(layers) != width:
        layers, lo, hi, row = [None] * width, 0, width, None
    else:
        lo, hi, row = last.lo, last.hi, last.row
    prev = layers[lo - 1] if lo else ts._start
    stop = width
    for j in range(lo, width):
        s = souths[j]
        layer = {}
        for w, before in prev.items():
            for t in index.get((s, w), ()):
                e = t.east
                layer[e] = None if before is None or e in layer else t
        if not layer:
            last.layers = None
            return 0, None
        if j > hi and layer == layers[j]:
            stop = j
            break
        layers[j] = prev = layer
    if stop == width:
        ends = list(prev.values())
        count = 1 if len(ends) == 1 and ends[0] is not None else 2
    else:
        count = last.count
    if count == 1:
        if row is None:
            row, lo = [None] * width, 0
        j = stop - 1
        if stop == width:
            row[j] = t = ends[0]
            j -= 1
        else:
            t = row[stop]
        while j >= 0:
            u = layers[j][t.west]
            if j < lo and u is row[j]:
                break
            row[j] = t = u
            j -= 1
    else:
        row, j = None, stop - 1
    last.layers, last.count, last.row = layers, count, row
    last.span = range(j + 1, stop)
    return count, row


def tile_closure(ts: TileSet, bottom, height: int):
    """Advance row by row while the extension is unique.

    A row equal to the one below it is a fixed point: the next row is a
    function of the row alone, so every later row would be the same.
    Each row after the first is solved from the one before (next_rows
    with a LastRow), and only the columns it re-chose are compared and
    copied: elsewhere its norths are the last row's, which are the souths.
    """
    if height < 1:
        raise TilingError("height must be >= 1")
    souths = list(bottom)
    last = LastRow()
    for i in range(1, height):
        count, row = next_rows(ts, souths, last)
        if count == 0:
            return Stalled(i)
        if count > 1:
            return AmbiguousRow(i)
        changed = [j for j in last.span if row[j].north != souths[j]]
        if not changed:
            break
        for j in changed:
            souths[j] = row[j].north
        last.lo, last.hi = changed[0], changed[-1]
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
    gamma(len(row)+1), fixed-width row ids.  A symbol outside the table
    raises KeyError."""
    syms = ts.symbols
    edges = [e for t in ts.tiles for e in (t.north, t.east, t.south, t.west)]
    if isinstance(syms, range):
        # a parsed table, range(S): each symbol is its own id, and S may
        # be far too large to build the table or take its len()
        count = syms.stop
        ids = {s: s for s in {*edges, *row}
               if isinstance(s, int) and s in syms}
    else:
        count = len(syms)
        ids = {s: i for i, s in enumerate(syms)}
    w = _id_width(count)
    code = {s: format(i, f"0{w}b") for s, i in ids.items()}
    return "".join([gamma_encode(count + 1), gamma_encode(len(ts.tiles) + 1),
                    *[code[e] for e in edges], gamma_encode(len(row) + 1),
                    *[code[s] for s in row]])


def parse_tiling_instance(bits: str):
    """Inverse of serialize_tiling_instance over index symbols; the whole
    string must be consumed.  The symbol table is range(S), never built,
    so its size costs nothing whatever count the string declares."""
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

    def take_ids(count):
        # the length is checked before anything is built, so a huge
        # declared count fails here at once
        nonlocal pos
        end = pos + count * w
        if end > len(bits):
            raise TilingError("truncated symbol id")
        ids = [int(bits[i : i + w], 2) for i in range(pos, end, w)]
        if ids and max(ids) >= s_count:
            raise TilingError("symbol id out of range")
        pos = end
        return ids

    ids = iter(take_ids(4 * t_count))
    tiles = [Tile(n, s, e, ww) for n, e, s, ww in zip(ids, ids, ids, ids)]
    got = gamma_decode(bits, pos)
    if got is None:
        raise TilingError("truncated row length")
    r_len, pos = got
    row = take_ids(r_len - 1)
    if pos != len(bits):
        raise TilingError("trailing bits after instance")
    return TileSet(range(s_count), tuple(tiles)), row


def tiling_closure(ts: TileSet, row, height: int, policy=None,
                   want_trace: bool = False) -> ClosureOutcome:
    """tile_closure as a ClosureOutcome, like det_closure: a completed
    square is terminal with its top row as the result (rows past a fixed
    point repeat it, so all height − 1 steps count as taken); a Stalled or
    AmbiguousRow square keeps the bottom row, with that reason and the row
    where it stopped as steps.  policy and want_trace are unused: every
    row is solved exactly, and there is no trace."""
    out = tile_closure(ts, row, height)
    if isinstance(out, Completed):
        return ClosureOutcome(True, list(out.top), height - 1)
    return ClosureOutcome(False, row, out.row, reason=type(out).__name__)


def tiling_budget(n: int) -> int:
    """Square height for a bottom row of width n (at least one row)."""
    return max(1, n)


def tiling_f(w: str, policy=None) -> str:
    """The tiling one-way function; total and length-preserving."""
    return one_way(w, parse_tiling_instance, tiling_closure, tiling_budget,
                   serialize_tiling_instance, policy)


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
    table = set(symbols)
    if len(table) != len(symbols):
        raise TilingError("repeated symbol name")
    at = 2 + k
    m = count(at, "tiles")
    tiles = []
    for ln in lines[at + 1 : at + 1 + m]:
        parts = [_sym_parse(t) for t in ln.split()]
        if len(parts) != 4:
            raise TilingError(f"bad tile line: {ln!r}")
        if not table.issuperset(parts):
            raise TilingError("tile edge not in table")
        n, e, s, w = parts
        tiles.append(Tile(n, s, e, w))
    row = [_sym_parse(t) for t in field(at + 1 + m, "row").split()]
    if len(lines) > at + 2 + m:
        raise TilingError("unexpected lines after 'row:' line")
    if not table.issuperset(row):
        raise TilingError("row symbol not in table")
    return TileSet(symbols, tuple(tiles)), row
