import csv
import io
import json

import pytest

from owflab import inverter
from owflab.cli import main
from owflab.machine import LIBRARY_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_semithue(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compile", "--backend", "semithue",
                           "--machine", "not", "--n", "4",
                           "--out", str(tmp_path))
    assert code == 0
    assert "shuttle 20" in out
    assert (tmp_path / "system.sts").read_text().startswith("STS v1")
    doc = json.loads((tmp_path / "codes.json").read_text())
    assert "codes" in doc and "salt" in doc


def test_compile_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "compile", "--backend", "pcp", "--machine", "id",
            "--n", "4", "--salt-seed", "3", "--out", str(a))
    run_cli(capsys, "compile", "--backend", "pcp", "--machine", "id",
            "--n", "4", "--salt-seed", "3", "--out", str(b))
    assert (a / "system.pcp").read_text() == (b / "system.pcp").read_text()


def test_compile_tiling(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compile", "--backend", "tiling",
                           "--machine", "id", "--n", "3",
                           "--out", str(tmp_path))
    assert code == 0 and "tiles:" in out
    assert (tmp_path / "system.til").read_text().startswith("TIL v1")


def test_unknown_machine_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compile", "--backend", "semithue",
                           "--machine", "/nonexistent/machine.tm",
                           "--n", "4", "--out", str(tmp_path))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    "invert --n 0",
    "compile --backend semithue --machine not --n 0 --out {dir}/d",
    "experiment --n 0",
    "experiment --n x",
    "sample --kind sts --max-len 0",
    "sample --kind int --max-int 0",
    "invert --n 4 --limit 0",
    "verify --suite lemma --n-max 0",  # would check nothing and pass
    "sample --kind int --count -3",  # would print nothing and pass
    "experiment --n 4 --jobs -2",  # would run sequentially
])
def test_nonpositive_numbers_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv.format(dir=tmp_path).split())
    _, err = capsys.readouterr()
    assert e.value.code == 2
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_unknown_backend_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["compile", "--backend", "magic", "--machine", "id",
              "--n", "4", "--out", str(tmp_path)])
    assert e.value.code == 2


def test_eval_pipeline(tmp_path, capsys):
    from owflab.machine import library_machine
    from owflab.semithue import instance_to_text
    from owflab.stcompile import compile_semithue, st_encode_input
    m = library_machine("not")
    comp = compile_semithue(m, 4)
    w = st_encode_input(comp, "1010")
    inst = tmp_path / "i.sts"
    inst.write_text(instance_to_text(comp.system, w))
    trace = tmp_path / "t.jsonl"
    code, out, _ = run_cli(capsys, "eval", "--backend", "semithue",
                           "--instance", str(inst),
                           "--semantics", "lookahead:8",
                           "--trace", str(trace))
    assert code == 0
    d = comp.table.code("$")
    assert f"input: {d}0101{d}" in out
    first = json.loads(trace.read_text().splitlines()[0])
    assert set(first) == {"step", "rule", "pos", "len_after"}


def test_eval_strict_identity_note(tmp_path, capsys):
    from owflab.machine import library_machine
    from owflab.semithue import instance_to_text
    from owflab.stcompile import compile_semithue, st_encode_input
    m = library_machine("id")
    comp = compile_semithue(m, 5)
    w = st_encode_input(comp, "10001")
    inst = tmp_path / "i.sts"
    inst.write_text(instance_to_text(comp.system, w))
    code, out, err = run_cli(capsys, "eval", "--backend", "semithue",
                             "--instance", str(inst), "--semantics", "strict")
    assert code == 0
    assert f"input: {w}" in out  # identity
    assert "Ambiguous" in err and "step 0" in err


def test_eval_successor_cap_bounds_rewrite_matches(tmp_path, capsys):
    # paper-pcp's successor cap 2 holds on the rewrite relation too: the
    # first string of compiled not has more matches, so the closure stops
    # there, while the same lookahead depth without a cap moves
    from owflab.machine import library_machine
    from owflab.semithue import instance_to_text
    from owflab.stcompile import MARKER, compile_semithue, st_encode_input
    comp = compile_semithue(library_machine("not"), 4)
    w = st_encode_input(comp, "1000")
    inst = tmp_path / "i.sts"
    inst.write_text(instance_to_text(comp.system, w))
    code, out, err = run_cli(capsys, "eval", "--backend", "semithue",
                             "--instance", str(inst),
                             "--semantics", "paper-pcp")
    assert code == 0
    assert f"input: {w}\n" in out
    assert err == "note: Ambiguous at step 0; identity\n"
    code, out, _ = run_cli(capsys, "eval", "--backend", "semithue",
                           "--instance", str(inst),
                           "--semantics", "lookahead:1")
    d = comp.table.code(MARKER)
    assert code == 0 and f"input: {d}0111{d}\n" in out


def test_eval_pcp(tmp_path, capsys):
    from owflab.machine import library_machine
    from owflab.pcp import (PAPER_POLICY, compile_pcp, pairs_to_text,
                            pcp_det_closure, pcp_encode_input, ptf_budget)
    comp = compile_pcp(library_machine("not"), 4)
    w = pcp_encode_input(comp, "1010")
    inst = tmp_path / "i.pcp"
    inst.write_text(pairs_to_text(comp.pairs, w))
    code, out, err = run_cli(capsys, "eval", "--backend", "pcp",
                             "--instance", str(inst),
                             "--semantics", "paper-pcp")
    assert code == 0
    got = pcp_det_closure(comp.pairs, w, ptf_budget(len(w)), PAPER_POLICY)
    if got.terminal and len(got.result) == len(w):
        assert out == pairs_to_text(comp.pairs, got.result) and not err
    else:
        assert out == pairs_to_text(comp.pairs, w)
        reason = got.reason or "wrong length"
        assert err == f"note: {reason} at step {got.steps}; identity\n"


def test_eval_pcp_deep_lookahead_is_identity(tmp_path, capsys):
    inst = tmp_path / "i.pcp"
    text = "PCP v1\npairs: 3\n0 0\n0 1\n1 1\ninput: 0101\n"
    inst.write_text(text)
    code, out, err = run_cli(capsys, "eval", "--backend", "pcp",
                             "--instance", str(inst),
                             "--semantics", "lookahead:3000")
    assert code == 0
    assert out == text and "identity" in err


@pytest.mark.parametrize("backend, text", [
    # ptf's paper-pcp policy finds three applicable pairs at step 0
    ("pcp", "PCP v1\npairs: 3\n0 0\n0 0\n0 0\ninput: 011100\n"),
    # walking the 1 to the end rewrites 25 M characters, past the limit
    ("semithue", "STS v1\nrules: 1\n10 01\ninput: 1" + "0" * 5000 + "\n"),
], ids=["pcp", "semithue"])
def test_eval_prints_the_functions_output(tmp_path, capsys, backend, text):
    from owflab import pcp, semithue
    parse, to_text, f = {
        "semithue": (semithue.instance_from_text, semithue.instance_to_text,
                     semithue.staf),
        "pcp": (pcp.pairs_from_text, pcp.pairs_to_text, pcp.ptf),
    }[backend]
    system, payload = parse(text)
    y = f(semithue.serialize_instance(system, payload))
    want = to_text(system, semithue.parse_instance(y)[1])
    inst = tmp_path / "i.txt"
    inst.write_text(text)
    code, out, _ = run_cli(capsys, "eval", "--backend", backend,
                           "--instance", str(inst))
    assert code == 0 and out == want == text


def test_eval_unparseable_is_identity(tmp_path, capsys):
    inst = tmp_path / "junk.sts"
    inst.write_text("not a system\n")
    code, out, err = run_cli(capsys, "eval", "--backend", "semithue",
                             "--instance", str(inst))
    assert code == 0 and out == "not a system\n"
    assert err.startswith("note: unparseable instance") and "identity" in err


def test_eval_unparseable_writes_an_empty_trace(tmp_path, capsys):
    # a non-bit rule: no step is taken, and the trace says so
    inst = tmp_path / "bad.sts"
    text = "STS v1\nrules: 1\n12 01\ninput: 1\n"
    inst.write_text(text)
    trace = tmp_path / "t.jsonl"
    code, out, err = run_cli(capsys, "eval", "--backend", "semithue",
                             "--instance", str(inst), "--trace", str(trace))
    assert code == 0 and out == text
    assert err == ("note: unparseable instance (rule strings and payload "
                   "must be over {0,1}); identity\n")
    assert trace.read_text() == ""


def test_eval_tiling_wide_compiled_row(tmp_path, capsys):
    # compiled not at n=32 has rows 1026 wide; the former recursive row
    # search made this command fail with RecursionError
    import random
    from owflab.machine import library_machine, run, step_bound
    from owflab.tiling import (bottom_row, compile_tileset, extract_output,
                               tileset_from_text, tileset_to_text)
    m = library_machine("not")
    ts = compile_tileset(m)
    x = format(random.Random(32).getrandbits(32), "032b")
    inst = tmp_path / "i.til"
    inst.write_text(tileset_to_text(ts, bottom_row(m, x)))
    code, out, err = run_cli(capsys, "eval", "--backend", "tiling",
                             "--instance", str(inst))
    assert code == 0 and not err
    _, top = tileset_from_text(out)
    assert extract_output(top, 32) == run(m, x, step_bound(32)).output


def test_eval_truncated_tiling_is_identity(tmp_path, capsys):
    # no 'row:' line: the parser used to fail with IndexError, reported
    # as "list index out of range"
    inst = tmp_path / "cut.til"
    text = "TIL v1\nsymbols: 1\na\ntiles: 1\na a a a\n"
    inst.write_text(text)
    code, out, err = run_cli(capsys, "eval", "--backend", "tiling",
                             "--instance", str(inst))
    assert code == 0 and out == text
    assert err == ("note: unparseable instance (expected 'row:' line); "
                   "identity\n")


def test_eval_tiling_identity_note(tmp_path, capsys):
    # no tile has south edge b: the square stalls at its first row
    inst = tmp_path / "t.til"
    text = "TIL v1\nsymbols: 2\na\nb\ntiles: 1\na a a a\nrow: b b\n"
    inst.write_text(text)
    code, out, err = run_cli(capsys, "eval", "--backend", "tiling",
                             "--instance", str(inst))
    assert code == 0 and out == text
    assert err == "note: Stalled at step 1; identity\n"


@pytest.mark.parametrize("flag, value", [("--trace", "{dir}/t.jsonl"),
                                         ("--semantics", "strict")],
                         ids=["trace", "semantics"])
def test_eval_tiling_rejects_string_backend_flags(tmp_path, capsys, flag,
                                                  value):
    # tiling has no trace and no policy; both flags used to be ignored
    inst = tmp_path / "t.til"
    inst.write_text("TIL v1\nsymbols: 1\na\ntiles: 1\na a a a\nrow: a a\n")
    code, out, err = run_cli(capsys, "eval", "--backend", "tiling",
                             "--instance", str(inst), flag,
                             value.format(dir=tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: ") and flag in err
    assert not (tmp_path / "t.jsonl").exists()


def test_eval_undecodable_instance_exits_2(tmp_path, capsys):
    # not UTF-8: the command used to end in a UnicodeDecodeError traceback
    inst = tmp_path / "bad.sts"
    inst.write_bytes(b"STS v1\nrules: 1\n1 0\ninput: \xff\n")
    code, out, err = run_cli(capsys, "eval", "--backend", "semithue",
                             "--instance", str(inst))
    assert code == 2 and not out
    assert err.startswith("error: ") and "decode" in err


def test_eval_bad_semantics(tmp_path, capsys):
    inst = tmp_path / "i.sts"
    inst.write_text("STS v1\nrules: 0\ninput: 1\n")
    code, _, err = run_cli(capsys, "eval", "--backend", "semithue",
                           "--instance", str(inst), "--semantics", "woo")
    assert code == 2 and "semantics" in err


def test_verify_determinism_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "determinism",
                           "--machine", "id")
    assert code == 0
    assert "EXPECTED-FAIL" in out and "PASS" in out


def test_verify_coding_suite(capsys):
    # a random payload that does not decompose into blocks is not a fault
    # of the codes, so it does not fail property 4's row (blocks vs codes)
    code, out, _ = run_cli(capsys, "verify", "--suite", "coding")
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("suite, want", [
    ("coding", 0), ("lemma", 2), ("determinism", 2)])
def test_verify_reads_machine_only_for_suites_that_use_it(
        capsys, monkeypatch, suite, want):
    from owflab import coding
    monkeypatch.setattr(coding, "check_codes",
                        lambda *args, **kwargs: [("coding", True)])
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--machine", "does-not-exist")
    assert code == want
    if want == 0:
        assert out == "PASS  coding\n" and not err
    else:
        assert "cannot read machine file" in err


@pytest.mark.parametrize("machine", LIBRARY_NAMES)
def test_verify_lemma_suite(capsys, machine):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma",
                           "--machine", machine, "--n-max", "4")
    assert code == 0
    # semithue and pcp at n = 1..4, tiling at n = 2..4
    assert out == "".join(
        f"PASS  {backend} {machine} n={n}\n" for n in range(1, 5)
        for backend in ("semithue", "pcp", "tiling")
        if backend != "tiling" or n >= 2)


def test_verify_lemma_checks_undecomposable_inputs(capsys, monkeypatch):
    # an input that does not decompose into blocks has no semithue
    # payload, but pcp and tiling still check it: a pcp decoder that is
    # wrong on exactly those inputs must fail its rows (under id, M(x) = x)
    from owflab import pcp
    from owflab.coding import UNDECOMPOSABLE, block_decompose
    decode = pcp.pcp_decode_output

    def wrong_when_undecomposable(comp, w):
        y = decode(comp, w)
        if isinstance(y, str) and block_decompose(y) == UNDECOMPOSABLE:
            return y + "1"
        return y

    monkeypatch.setattr(pcp, "pcp_decode_output", wrong_when_undecomposable)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma",
                           "--machine", "id", "--n-max", "2")
    assert code == 1
    assert out == ("PASS  semithue id n=1\nFAIL  pcp id n=1\n"
                   "PASS  semithue id n=2\nFAIL  pcp id n=2\n"
                   "PASS  tiling id n=2\n")


# machines the compilers reject: state s1 is a name of the rewrite
# compiler's shuttle layer, halt state B a tape symbol
CLASH_MACHINES = {
    "s1": "TM v1\nstart: s1\nhalt: h\ns1 0 -> h 0 R\ns1 1 -> h 1 R\n"
          "s1 B -> h B R\n",
    "B": "TM v1\nstart: q\nhalt: B\nq 0 -> B 0 R\nq 1 -> B 1 R\n"
         "q B -> B B R\n",
}
KIND = {"s1": "internal names", "B": "tape symbols"}


@pytest.mark.parametrize("state, argv", [
    (state, argv) for state in CLASH_MACHINES for argv in (
        "compile --backend semithue --n 3 --out {dir}/d",
        "verify --suite lemma --n-max 2",
        "verify --suite determinism",
        "invert --n 3",
        "experiment --n 3 --targets 1",
    )] + [("B", "compile --backend pcp --n 3 --out {dir}/d")])
def test_rejected_machine_exits_2(tmp_path, capsys, state, argv):
    # these used to end in a CompileError or CodingError traceback with
    # exit 1, the code of a verification failure
    machine = tmp_path / "clash.tm"
    machine.write_text(CLASH_MACHINES[state])
    code, out, err = run_cli(capsys, *argv.format(dir=tmp_path).split(),
                             "--machine", str(machine))
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"clash with {KIND[state]}: {state}\n" in err
    assert not (tmp_path / "d").exists()


def test_pcp_compiles_state_named_like_rewrite_internal(tmp_path, capsys):
    # s1 clashes only with the rewrite compiler's own names
    machine = tmp_path / "clash.tm"
    machine.write_text(CLASH_MACHINES["s1"])
    code, out, err = run_cli(capsys, "compile", "--backend", "pcp",
                             "--machine", str(machine), "--n", "3",
                             "--out", str(tmp_path / "d"))
    assert code == 0 and not err
    assert out.startswith("pairs: 6 ")
    assert (tmp_path / "d" / "system.pcp").exists()


def test_rejected_experiment_fails_before_sampling(tmp_path, capsys,
                                                   monkeypatch):
    # the inputs are drawn and the cases run only after every n compiles
    def no_case(*args):
        raise AssertionError("ran a case before compiling")

    monkeypatch.setattr(inverter, "invert_case", no_case)
    machine = tmp_path / "clash.tm"
    machine.write_text(CLASH_MACHINES["B"])
    code, _, err = run_cli(capsys, "experiment", "--machine", str(machine),
                           "--n", "3", "--targets", "1")
    assert code == 2 and err.startswith("error: ")


def test_sample_reproducible(capsys):
    code, out1, _ = run_cli(capsys, "sample", "--kind", "string",
                            "--count", "5", "--seed", "11")
    assert code == 0
    _, out2, _ = run_cli(capsys, "sample", "--kind", "string",
                         "--count", "5", "--seed", "11")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "sample", "--kind", "string",
                         "--count", "5", "--seed", "12")
    assert out1 != out3


def test_sample_pcp_text(capsys):
    code, out, _ = run_cli(capsys, "sample", "--kind", "pcp", "--count", "1",
                           "--seed", "0")
    assert code == 0 and out.startswith("PCP v1")


def test_invert_command(capsys):
    code, out, _ = run_cli(capsys, "invert", "--machine", "not", "--n", "6",
                           "--seed", "1")
    assert code == 0
    assert "Found" in out and "recovered payload bits:" in out


def test_invert_matches_experiment_row(capsys):
    # both draw x from random.Random(seed) and run inverter.invert_case
    for seed in range(4):
        _, out, _ = run_cli(capsys, "invert", "--machine", "not", "--n", "5",
                            "--seed", str(seed))
        attempts = out.split("attempts=")[1].split()[0]
        _, out, _ = run_cli(capsys, "experiment", "--machine", "not",
                            "--n", "5", "--targets", "1", "--seed", str(seed))
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["attempts"] == attempts


def test_experiment_command(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "experiment", "--machine", "not",
                           "--n", "4", "--targets", "1", "--seed", "0",
                           "--out", str(out_csv))
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "kind,machine,n,seed,forward_us,attempts,found,policy"
