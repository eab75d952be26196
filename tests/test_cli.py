import json
from pathlib import Path

import pytest

from owflab.cli import main


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
    code, out, _ = run_cli(capsys, "eval", "--backend", "semithue",
                           "--instance", str(inst))
    assert code == 0 and "identity" in out and "not a system" in out


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
    assert code == 0 and not err
    assert out == ("note: unparseable instance (expected 'row:' line); "
                   "identity\n" + text)


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


def test_verify_lemma_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma",
                           "--machine", "id", "--n-max", "2")
    assert code == 0
    assert out.count("PASS") >= 5 and "FAIL " not in out


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


def test_experiment_command(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "experiment", "--machine", "not",
                           "--n", "4", "--targets", "1", "--seed", "0",
                           "--out", str(out_csv))
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == ("kind,machine,n,seed,forward_us,attempts,found,"
                      "identity_rate,policy")
