import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owflab import inverter, kernels, pcp, semithue
from owflab.inverter import (
    CSV_COLUMNS,
    Found,
    LimitExceeded,
    NotFound,
    backward_search,
    brute_invert,
    invert_staf_target,
    owf_experiment,
    rows_to_csv,
    staf_payload,
    staf_target,
)
from owflab.machine import library_machine
from owflab.pcp import PairList, ptf
from owflab.semithue import (
    RewriteSystem,
    parse_instance,
    serialize_instance,
    staf,
)
from owflab.stcompile import compile_semithue
from owflab.tiling import (
    Tile,
    TileSet,
    parse_tiling_instance,
    serialize_tiling_instance,
    tiling_f,
)


def test_brute_invert_unparseable_target_is_fixed_point():
    assert brute_invert("staf", "00") == Found("00", 0)


def test_brute_invert_small_progressing_instance():
    sys = RewriteSystem((("10", "01"),))
    target = serialize_instance(sys, "0001")
    out = brute_invert("staf", target)
    assert isinstance(out, Found)
    # the found preimage forward-evaluates to the target
    assert staf(out.preimage) == target


def test_brute_invert_limit():
    sys = RewriteSystem((("10", "01"),))
    target = serialize_instance(sys, "0001")
    # "0001" is stuck, so it is its own preimage at attempt 2; a limit of 1
    # stops after the failing candidate "0000"
    out = brute_invert("staf", target, limit=1)
    assert out == LimitExceeded(1)
    with pytest.raises(ValueError):
        brute_invert("staf", target, limit=0)


def test_brute_invert_ptf_and_tiling_dispatch():
    assert brute_invert("ptf", "00") == Found("00", 0)
    assert brute_invert("tiling", "00") == Found("00", 0)
    with pytest.raises(ValueError):
        brute_invert("nope", "00")


def test_bad_tiling_candidates_are_skipped():
    # row [0, 1] stalls (no tile has south 1), so it is its own preimage
    ts = TileSet((0, 1), (Tile(1, 0, 0, 0),))
    target = serialize_tiling_instance(ts, [0, 1])
    assert tiling_f(target) == target
    out = brute_invert("tiling", target,
                       candidates=iter([[0, 5], [0, 2], [0], [0, 1]]))
    assert out == Found(target, 4)


def _reference_invert(f, parse, serialize, target, candidates, limit):
    """brute_invert as a loop over whole instances: serialize each
    candidate and compare f of it with the target."""
    try:
        sys, _ = parse(target)
    except ValueError:
        return Found(target, 0)
    attempts = 0
    for cand in candidates:
        if attempts >= limit:
            return LimitExceeded(attempts)
        attempts += 1
        try:
            w = serialize(sys, cand)
        except KeyError:  # a tiling symbol id outside the table
            continue
        if f(w) == target:
            return Found(w, attempts)
    return NotFound(attempts)


# no right side longer than its left: every closure then stays small (on
# growing rules one lookahead can take seconds)
_rules = st.lists(st.text("01", min_size=1, max_size=3).flatmap(
    lambda g: st.tuples(st.just(g), st.text("01", max_size=len(g)))),
    max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["staf", "ptf", "tiling"]), st.data())
def test_brute_invert_equals_the_instance_loop(kind, data):
    if kind == "tiling":
        n_syms = data.draw(st.integers(1, 3))
        sym = st.integers(0, n_syms - 1)
        tiles = data.draw(st.lists(st.builds(Tile, sym, sym, sym, sym),
                                   unique=True, max_size=6))
        sys = TileSet(tuple(range(n_syms)), tuple(tiles))
        x0 = data.draw(st.lists(sym, max_size=3))
        f, parse, serialize = tiling_f, parse_tiling_instance, \
            serialize_tiling_instance
        symbols = range(n_syms)
        # ids past the table and wrong lengths are not payloads
        cand = st.lists(st.integers(0, n_syms), max_size=4)
    else:
        cls, f = (RewriteSystem, staf) if kind == "staf" else (PairList, ptf)
        sys = cls(tuple(data.draw(_rules)))
        x0 = data.draw(st.text("01", max_size=5))
        parse, serialize = parse_instance, serialize_instance
        symbols = "01"
        cand = st.text("012", max_size=6)
    w = serialize(sys, x0)
    target = f(w) if data.draw(st.booleans()) else w
    x = parse(target)[1]
    if data.draw(st.booleans()):
        given_cands = None
        cands = [list(c) if kind == "tiling" else "".join(c)
                 for c in itertools.product(symbols, repeat=len(x))]
    else:
        given_cands = cands = data.draw(st.lists(
            st.one_of(cand, st.just(x)), max_size=8))
    limit = data.draw(st.integers(1, len(cands) + 1))
    want = _reference_invert(f, parse, serialize, target, cands, limit)
    got = brute_invert(kind, target, limit=limit,
                       candidates=None if given_cands is None
                       else iter(given_cands))
    assert got == want


def test_one_inversion_parses_the_target_once(monkeypatch):
    comp = compile_semithue(library_machine("not"), 4)
    cands = [staf_payload(comp, format(k, "04b")) for k in range(16)]
    # the instance before evaluation is not an image: no candidate maps to it
    unevaluated = serialize_instance(comp.system, cands[15])
    image = staf(unevaluated)
    pcp_target = serialize_instance(PairList((("1", "0"),)), "0")

    parses = []
    original = semithue.parse_instance

    def counting(*args):
        parses.append(1)
        return original(*args)

    class CountedIndex(kernels.RuleIndex):
        built = 0

        def __new__(cls, lhs):
            CountedIndex.built += 1
            return super().__new__(cls, lhs)

    for module in (semithue, pcp, inverter):
        monkeypatch.setattr(module, "parse_instance", counting)
    monkeypatch.setattr(kernels, "RuleIndex", CountedIndex)
    assert brute_invert("staf", unevaluated, candidates=iter(cands)) == \
        NotFound(16)
    assert (len(parses), CountedIndex.built) == (1, 1)
    # a hit is confirmed by one staf call, which parses and indexes again
    assert brute_invert("staf", image, candidates=iter(cands)) == \
        Found(unevaluated, 16)
    assert (len(parses), CountedIndex.built) == (3, 3)
    # ptf never indexes its pairs
    assert brute_invert("ptf", pcp_target) == Found(pcp_target, 1)
    assert (len(parses), CountedIndex.built) == (5, 3)


def test_backward_search_inverts_steps():
    sys = RewriteSystem((("0", "1"),))
    anc = backward_search(sys, "11", 2)
    assert {"11", "01", "10", "00"} <= anc
    with pytest.raises(ValueError):
        backward_search(sys, "1", -1)


def test_backward_search_node_cap():
    sys = RewriteSystem((("0", "1"), ("1", "0")))
    anc = backward_search(sys, "0" * 12, 12, max_nodes=50)
    assert len(anc) <= 50


def test_staf_target_attempt_rank():
    # candidates are enumerated in lexicographic payload order, so the
    # number of attempts equals value(x) + 1
    m = library_machine("not")
    comp = compile_semithue(m, 6)
    for x in ("000000", "000101", "110011"):
        target = staf_target(comp, x)
        out = invert_staf_target(comp, target)
        assert isinstance(out, Found)
        assert out.attempts == int(x, 2) + 1
        _, payload = parse_instance(out.preimage)
        l = comp.table.code_len
        assert payload[l:-l] == x


def test_machine_targeted_inversion_parses_the_target_once(monkeypatch):
    comp = compile_semithue(library_machine("not"), 4)
    unevaluated = serialize_instance(comp.system, staf_payload(comp, "1111"))
    image = staf(unevaluated)
    parses = []
    original = semithue.parse_instance

    def counting(*args):
        parses.append(1)
        return original(*args)

    for module in (semithue, inverter):
        monkeypatch.setattr(module, "parse_instance", counting)
    assert invert_staf_target(comp, unevaluated) == NotFound(16)
    assert len(parses) == 1
    # the second parse is the confirming staf call's
    assert invert_staf_target(comp, image) == Found(unevaluated, 16)
    assert len(parses) == 3


def test_machine_targeted_inversion_of_unparseable_target():
    comp = compile_semithue(library_machine("not"), 4)
    assert invert_staf_target(comp, "00") == Found("00", 0)
    assert invert_staf_target(comp, "00") == brute_invert("staf", "00")


def test_undecomposable_input_is_staf_fixed_point():
    m = library_machine("not")
    comp = compile_semithue(m, 5)
    x = "00101"  # leading zero run of 2: no block decomposition
    w = serialize_instance(comp.system, staf_payload(comp, x))
    assert staf(w) == w
    out = invert_staf_target(comp, w)
    assert isinstance(out, Found)
    assert out.preimage == w


def test_experiment_rows_and_csv():
    m = library_machine("not")
    rows = owf_experiment(m, "not", [4], 2, seed=9, identity_samples=20)
    assert len(rows) == 2
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == ("kind,machine,n,seed,forward_us,attempts,found,"
                        "identity_rate,policy")
    assert len(lines) == 3
    for r in rows:
        assert r.found and r.attempts >= 1
        assert 0.0 <= r.identity_rate <= 1.0


def test_experiment_jobs_parallel_matches_sequential():
    m = library_machine("not")
    seq = owf_experiment(m, "not", [4], 2, seed=5, identity_samples=5)
    par = owf_experiment(m, "not", [4], 2, seed=5, identity_samples=5, jobs=2)
    assert [(r.n, r.attempts, r.found) for r in seq] == \
        [(r.n, r.attempts, r.found) for r in par]
