import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owflab import tiling
from owflab.bitcodes import gamma_encode
from owflab.inverter import lemma
from owflab.machine import LIBRARY_NAMES, library_machine, run, step_bound
from owflab.tiling import (
    AmbiguousRow,
    Completed,
    LastRow,
    Stalled,
    Tile,
    TileSet,
    TilingError,
    bottom_row,
    compile_tileset,
    extract_output,
    next_rows,
    parse_tiling_instance,
    serialize_tiling_instance,
    tile_closure,
    tileset_from_text,
    tileset_to_text,
    tiling_f,
)


def test_tileset_validation():
    t = Tile("a", "a", "e", "e")
    with pytest.raises(TilingError):
        TileSet(("a", "e"), (t, t))  # duplicate tile


def brute_force_rows(ts, souths):
    """(count saturated at 2, the row if unique) by trying every choice of
    tiles with the right south edges and keeping the rows that chain."""
    columns = [[t for t in ts.tiles if t.south == s] for s in souths]
    rows = [row for row in itertools.product(*columns)
            if all(a.east == b.west for a, b in zip(row, row[1:]))]
    return min(2, len(rows)), (rows[0] if len(rows) == 1 else None)


def solve(ts, souths):
    """next_rows from scratch, with the row as a tuple."""
    count, row = next_rows(ts, souths, LastRow())
    return count, (tuple(row) if count == 1 else None)


def test_next_rows_neighbor_constraint():
    # two tiles over south "a": east/west must chain
    ts = TileSet(
        ("a", "b", "x", "."),
        (
            Tile("b", "a", "x", "."),
            Tile("b", "a", ".", "x"),
        ),
    )
    # both orders chain ("x|x" and ". .. ." with free outer edges)
    assert solve(ts, ["a", "a"]) == (2, None)
    # a third column over "c" only accepts west "x", so the row is unique
    c = Tile("d", "c", ".", "x")
    ts = TileSet(("a", "b", "c", "d", "x", "."), ts.tiles + (c,))
    count, row = solve(ts, ["a", "a", "c"])
    assert count == 1
    assert row == (ts.tiles[1], ts.tiles[0], c)
    assert all(a.east == b.west for a, b in zip(row, row[1:]))


def test_next_rows_matches_brute_force():
    rng = random.Random(0)
    for _ in range(3000):
        k = rng.randint(1, 4)
        tiles = {Tile(*(rng.randrange(k) for _ in range(4)))
                 for _ in range(rng.randint(1, 6))}
        ts = TileSet(tuple(range(k)), tuple(tiles))
        souths = [rng.randrange(k) for _ in range(rng.randint(0, 8))]
        assert solve(ts, souths) == brute_force_rows(ts, souths), (
            ts, souths)


def changed_columns(rng, width):
    """Columns to rewrite: column 0, the last column, every column, one
    random column, or a random set of them."""
    pick = rng.randrange(5)
    if pick == 0:
        return [0]
    if pick == 1:
        return [width - 1]
    if pick == 2:
        return list(range(width))
    if pick == 3:
        return [rng.randrange(width)]
    return sorted(rng.sample(range(width), rng.randint(1, width)))


def test_incremental_rows_equal_a_fresh_solve():
    # one LastRow carried through a sequence of rows, each differing from
    # the one before at random columns: every answer is the fresh one, and
    # outside last.span the unique row is the one solved before it
    rng = random.Random(17)
    for _ in range(3000):
        k = rng.randint(1, 3)
        tiles = {Tile(*(rng.randrange(k) for _ in range(4)))
                 for _ in range(rng.randint(1, 6))}
        ts = TileSet(tuple(range(k)), tuple(tiles))
        width = rng.randint(1, 9)
        souths = [rng.randrange(k) for _ in range(width)]
        last, before = LastRow(), None
        for _ in range(8):
            count, row = next_rows(ts, souths, last)
            want = solve(ts, souths)
            got = (count, tuple(row) if count == 1 else None)
            assert got == want, (ts, souths)
            if count == 1 and before is not None:
                assert all(row[j] is before[j] for j in range(width)
                           if j not in last.span)
            before = tuple(row) if count == 1 else None
            cols = changed_columns(rng, width)
            for j in cols:
                souths[j] = rng.randrange(k)
            last.lo, last.hi = cols[0], cols[-1]


def fresh_closure(ts, bottom, height):
    """tile_closure with every row solved afresh."""
    souths = list(bottom)
    for i in range(1, height):
        count, row = next_rows(ts, souths, LastRow())
        if count == 0:
            return Stalled(i)
        if count > 1:
            return AmbiguousRow(i)
        norths = [t.north for t in row]
        if norths == souths:
            break
        souths = norths
    return Completed(tuple(souths))


def test_tile_closure_equals_the_fresh_closure():
    rng = random.Random(18)
    for _ in range(2000):
        k = rng.randint(1, 3)
        tiles = {Tile(*(rng.randrange(k) for _ in range(4)))
                 for _ in range(rng.randint(1, 6))}
        ts = TileSet(tuple(range(k)), tuple(tiles))
        bottom = [rng.randrange(k) for _ in range(rng.randint(0, 9))]
        height = rng.randint(1, 12)
        assert (tile_closure(ts, bottom, height)
                == fresh_closure(ts, bottom, height)), (ts, bottom)
    for name in LIBRARY_NAMES:
        m = library_machine(name)
        ts = compile_tileset(m)
        for n in range(1, 7):
            for k in range(1 << n):
                row = bottom_row(m, format(k, f"0{n}b"))
                assert (tile_closure(ts, row, len(row))
                        == fresh_closure(ts, row, len(row)))


@pytest.mark.parametrize("width, top", [(3, (0, 0, 0)), (4, (1, 1, 1, 1))])
def test_period_two_square_runs_every_row(width, top):
    # rows alternate 0…0 and 1…1 and no row repeats the one below it, so
    # the square's top row depends on the parity of its height
    ts = TileSet((0, 1), (Tile(1, 0, 0, 0), Tile(0, 1, 0, 0)))
    assert tile_closure(ts, [0] * width, width) == Completed(top)


def test_compiled_rows_re_solve_few_columns(monkeypatch):
    # a compiled machine's head changes two adjacent cells per row, so
    # every row after the first re-chooses the tiles of a few columns
    spans = []

    def counted(ts, souths, last):
        out = next_rows(ts, souths, last)
        spans.append(len(last.span))
        return out

    monkeypatch.setattr(tiling, "next_rows", counted)
    for name in LIBRARY_NAMES:
        m = library_machine(name)
        ts = compile_tileset(m)
        for x in ("1011", format(random.Random(32).getrandbits(32), "032b")):
            row = bottom_row(m, x)
            spans.clear()
            assert isinstance(tile_closure(ts, row, len(row)), Completed)
            assert spans[0] == len(row)
            assert max(spans[1:]) <= 3, spans


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_tiling_simulation(name):
    # inverter.lemma's tiling_f cases: every input of length 2 or more
    # (n = 1 has no square), and each top row decodes to M(x)
    m = library_machine(name)
    cases = [(x, out.terminal and got == want) for n in range(1, 5)
             for fn, x, out, got, want in lemma(m, n)
             if fn.backend == "tiling"]
    assert cases == [(format(k, f"0{n}b"), True) for n in range(2, 5)
                     for k in range(1 << n)]


def test_single_cell_square_stalls():
    # a one-cell tape cannot host a halt on cell 1 inside the square
    m = library_machine("id")
    ts = compile_tileset(m)
    out = tile_closure(ts, bottom_row(m, "1"), 1 * 1 + 2)
    assert not isinstance(out, Completed)


def two_direction_machine():
    """State p is entered by both a right and a left move; without the
    direction split its two receiver-tile flavors can sit side by side
    over plain cells, faking a second head."""
    from owflab.machine import Machine
    t = {
        ("s", "0"): ("p", "0", "R"),
        ("s", "1"): ("p", "1", "R"),
        ("s", "B"): ("h", "B", "R"),
        ("p", "0"): ("p", "0", "L"),
        ("p", "1"): ("h", "1", "R"),
        ("p", "B"): ("h", "B", "R"),
    }
    return Machine("zigzag", ("s", "p", "h"), "s", "h", t)


def unsplit_tileset(m):
    """compile_tileset(m) without the direction split: each state variant
    p_R or p_L named p again, and the tiles that then coincide kept once."""
    ts = compile_tileset(m)
    names = {f"{p}_{d}": p for p, _, d in m.transitions.values()}

    def rename(edge):
        if isinstance(edge, tuple):  # a head cell (state, symbol)
            return (names.get(edge[0], edge[0]), edge[1])
        return names.get(edge, edge)

    return TileSet(tuple(dict.fromkeys(map(rename, ts.symbols))),
                   tuple(dict.fromkeys(Tile(*map(rename, t))
                                       for t in ts.tiles)))


def test_unsplit_compile_is_ambiguous_split_is_not():
    m = two_direction_machine()
    x = "01"
    split = tile_closure(compile_tileset(m), bottom_row(m, x), 6)
    unsplit = tile_closure(unsplit_tileset(m), bottom_row(m, x), 6)
    assert isinstance(split, Completed)
    assert isinstance(unsplit, AmbiguousRow)


def test_bottom_row_shape():
    m = library_machine("id")
    row = bottom_row(m, "101")
    assert len(row) == 3 * 3 + 2
    assert row[0] == "$" and row[-1] == "#"
    assert row[1] == ("s", "1")
    with pytest.raises(TilingError):
        bottom_row(m, "")
    with pytest.raises(TilingError):
        bottom_row(m, "12")


def indexed(ts, row):
    """The same tile set and row over symbol indices, the alphabet of the
    bit-level instance format."""
    index = {s: i for i, s in enumerate(ts.symbols)}
    tiles = tuple(Tile(*(index[e] for e in (t.north, t.south, t.east,
                                            t.west)))
                  for t in ts.tiles)
    return (TileSet(tuple(range(len(ts.symbols))), tiles),
            [index[s] for s in row])


def test_serialize_parse_round_trip():
    m = library_machine("id")
    ts = compile_tileset(m)
    its, row = indexed(ts, bottom_row(m, "10"))
    ts2, row2 = parse_tiling_instance(serialize_tiling_instance(its, row))
    assert row2 == row
    assert len(ts2.tiles) == len(ts.tiles)


def test_parse_rejects_junk():
    with pytest.raises(TilingError):
        parse_tiling_instance("zz")
    with pytest.raises(TilingError):
        parse_tiling_instance("")
    with pytest.raises(TilingError):
        parse_tiling_instance("1")  # symbol table of size 0


def test_parse_rejects_malformed_ids():
    # three symbols, so ids are 2 bits wide and "11" is out of range
    head = gamma_encode(4)
    tile = "00" "01" "10" "00"
    for bits in [
        head + gamma_encode(2) + "00" "11" "00" "00" + gamma_encode(1),
        head + gamma_encode(2) + tile + gamma_encode(3) + "10" "11",
        head + gamma_encode(2) + tile[:-1],  # truncated tile id
        head + gamma_encode(2) + tile + gamma_encode(3) + "10" "1",
        head + gamma_encode(2) + tile + gamma_encode(2) + "10" "0",
        head + gamma_encode(3) + tile,  # a second tile declared, none given
    ]:
        with pytest.raises(TilingError):
            parse_tiling_instance(bits)
    assert parse_tiling_instance(
        head + gamma_encode(2) + tile + gamma_encode(2) + "10") == (
        TileSet(range(3), (Tile(0, 2, 1, 0),)), [2])
    # a huge declared tile or row count fails on the length, building
    # nothing
    tracemalloc.start()
    try:
        for bits in [head + gamma_encode((1 << 60) + 1) + tile,
                     head + gamma_encode(1) + gamma_encode((1 << 60) + 1)
                     + "10"]:
            with pytest.raises(TilingError):
                parse_tiling_instance(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


@pytest.mark.parametrize("count", [1 << 28, 1 << 64])
def test_declared_symbol_count_is_not_built(count):
    """An instance that declares 2^28 symbols (59 bits), or more than
    len() can measure (131 bits), and has no tiles and an empty row maps
    to itself without building its symbol table."""
    w = gamma_encode(count + 1) + gamma_encode(1) + gamma_encode(1)
    tracemalloc.start()
    try:
        assert tiling_f(w) == w
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    # an id outside 0..S-1, negative ones included, is no symbol
    ts, _ = parse_tiling_instance(w)
    for bad in (-1, count, "0"):
        with pytest.raises(KeyError):
            serialize_tiling_instance(ts, [bad])


def test_tiling_f_total_length_preserving():
    for k in range(1 << 10):
        w = format(k, "010b")
        y = tiling_f(w)
        assert len(y) == len(w)


def test_tiling_f_progress_on_crafted_instance():
    # one symbol copying itself: every row equals the bottom row
    ts = TileSet((0, 1), (Tile(0, 0, 1, 1),))
    w = serialize_tiling_instance(ts, [0, 0, 0])
    y = tiling_f(w)
    assert y == w  # completed and top row equals the bottom row


def test_tile_closure_stops_at_a_fixed_point(monkeypatch):
    # compiled not halts long before the square's last row; every row
    # after the halt copies the one below it
    m = library_machine("not")
    ts = compile_tileset(m)
    row = bottom_row(m, "1011")
    height = len(row)
    souths = list(row)
    for _ in range(1, height):  # every row solved, as before the stop
        count, solved = next_rows(ts, souths, LastRow())
        assert count == 1
        souths = [t.north for t in solved]
    calls = []

    def counted(ts, souths, last):
        calls.append(len(souths))
        return next_rows(ts, souths, last)

    monkeypatch.setattr(tiling, "next_rows", counted)
    assert tile_closure(ts, row, height) == Completed(tuple(souths))
    assert len(calls) < height - 1


def test_text_format_round_trip():
    m = library_machine("not")
    ts = compile_tileset(m)
    row = bottom_row(m, "10")
    ts2, row2 = tileset_from_text(tileset_to_text(ts, row))
    assert row2 == row
    assert set(ts2.tiles) == set(ts.tiles)
    assert set(ts2.symbols) == set(ts.symbols)


def test_tiling_f_on_wide_compiled_row():
    # compiled not at n=32 has rows 1026 wide; the former recursive row
    # search raised RecursionError here
    m = library_machine("not")
    ts = compile_tileset(m)
    x = format(random.Random(32).getrandbits(32), "032b")
    its, row = indexed(ts, bottom_row(m, x))
    w = serialize_tiling_instance(its, row)
    y = tiling_f(w)
    assert len(y) == len(w) and y != w
    _, top = parse_tiling_instance(y)
    assert (extract_output([ts.symbols[i] for i in top], 32)
            == run(m, x, step_bound(32)).output)


def test_tiling_f_completes_exponentially_branching_row():
    # exponentially many row prefixes over south 0 survive until the last
    # column, where only the all-Tile(1,0,0,0) prefix fits; the former
    # depth-first search gave up after 200,000 placements and returned the
    # input
    ts = TileSet((0, 1, 2, 3), (
        Tile(1, 0, 0, 0), Tile(1, 0, 1, 0), Tile(1, 0, 1, 1),
        Tile(3, 0, 1, 1), Tile(3, 2, 0, 0), Tile(1, 1, 0, 0),
        Tile(3, 3, 0, 0),
    ))
    w = serialize_tiling_instance(ts, [0] * 22 + [2])
    assert tiling_f(w) == serialize_tiling_instance(ts, [1] * 22 + [3])


@st.composite
def wide_instances(draw):
    k = draw(st.integers(1, 4))
    symbol = st.integers(0, k - 1)
    tiles = draw(st.lists(st.builds(Tile, symbol, symbol, symbol, symbol),
                          min_size=1, max_size=6, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    row = [rng.randrange(k) for _ in range(draw(st.integers(1, 3000)))]
    return TileSet(tuple(range(k)), tuple(tiles)), row


@settings(max_examples=10, deadline=None)
@given(wide_instances())
# one tile whose north matches no south: the first row is 3000 tiles wide,
# the second stalls; the former recursive row search raised RecursionError
@example((TileSet((0, 1), (Tile(1, 0, 0, 0),)), [0] * 3000))
def test_tiling_f_total_on_wide_rows(instance):
    w = serialize_tiling_instance(*instance)
    assert len(tiling_f(w)) == len(w)


def test_tileset_from_text_raises_tiling_error_on_malformed_text():
    # a missing 'row:' line used to raise IndexError, a non-numeric count
    # a bare ValueError
    for text in [
        "",
        "TIL v1\n",
        "TIL v1\nsymbols: x\n",
        "TIL v1\nsymbols: -1\ntiles: 0\nrow:\n",
        "TIL v1\nsymbols: 1\na\n",
        "TIL v1\nsymbols: 1\na\ntiles: 1\n",
        "TIL v1\nsymbols: 1\na\ntiles: 1\na a a a\n",
        "TIL v1\nsymbols: 1\na\ntiles: one\na a a a\nrow: a\n",
        "TIL v1\nsymbols: 1\na\ntiles: 1\na a a\nrow: a\n",
        "TIL v1\nsymbols: 1\na\ntiles: 1\na a a b\nrow: a\n",
        # edge "e" missing from the table
        "TIL v1\nsymbols: 1\na\ntiles: 1\na e a e\nrow: a\n",
        # STS v1 rejects lines after its last line too
        "TIL v1\nsymbols: 1\na\ntiles: 1\na a a a\nrow: a\nrow: a\n",
        "TIL v1\nsymbols: 2\na\na\ntiles: 1\na a a a\nrow: a\n",
        "TIL v1\nsymbols: 1\na\ntiles: 1\na a a a\nrow: a b\n",
    ]:
        with pytest.raises(TilingError):
            tileset_from_text(text)
