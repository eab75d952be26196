"""Command-line interface: compile, eval, verify, sample, invert,
experiment.

Exit codes: 0 success (identity outputs included — the functions are
total, so identity is a value, not an error), 1 verification failure,
2 usage or input parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import inverter, sampler
from .coding import verify_properties
from .machine import (
    LIBRARY_NAMES,
    Machine,
    library_machine,
    parse_machine,
    run,
    step_bound,
)
from .pcp import (
    PAPER_POLICY,
    compile_pcp,
    pairs_from_text,
    pairs_to_text,
    pcp_decode_output,
    pcp_det_closure,
    pcp_encode_input,
    ptf_budget,
)
from .semithue import (
    DeterminismPolicy,
    InstanceParseError,
    LOOKAHEAD8,
    STRICT,
    det_closure,
    instance_from_text,
    instance_to_text,
    staf_budget,
    trace_to_jsonl,
)
from .stcompile import (
    NOT_FINAL,
    compile_semithue,
    st_decode_output,
    st_encode_input,
)
from .coding import table_to_json
from .tiling import (
    Completed,
    TilingError,
    bottom_row,
    compile_tileset,
    extract_output,
    tile_closure,
    tileset_from_text,
    tileset_to_text,
)


class CliError(Exception):
    pass


def _load_machine(spec: str) -> Machine:
    if spec in LIBRARY_NAMES:
        return library_machine(spec)
    try:
        return parse_machine(Path(spec).read_text())
    except OSError as e:
        raise CliError(f"cannot read machine file {spec}: {e}") from None
    except ValueError as e:
        raise CliError(f"bad machine file {spec}: {e}") from None


def _parse_semantics(text: str) -> DeterminismPolicy:
    if text == "strict":
        return STRICT
    if text == "paper-pcp":
        return PAPER_POLICY
    if text.startswith("lookahead:"):
        try:
            return DeterminismPolicy(mode="lookahead",
                                     depth=int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise CliError(f"unknown semantics {text!r} "
                   "(strict | lookahead:D | paper-pcp)")


def _cmd_compile(args) -> int:
    m = _load_machine(args.machine)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.backend == "semithue":
        comp = compile_semithue(m, args.n, args.salt_seed)
        (out / "system.sts").write_text(instance_to_text(comp.system, ""))
        (out / "codes.json").write_text(table_to_json(comp.table))
        print(f"rules: {len(comp.system.rules)} "
              f"(shuttle {comp.r1_count}, machine {comp.r2_count}, "
              f"decode {comp.r3_count})")
        print(f"code length: {comp.table.code_len}")
    elif args.backend == "pcp":
        comp = compile_pcp(m, args.n, args.salt_seed)
        (out / "system.pcp").write_text(pairs_to_text(comp.pairs, ""))
        (out / "codes.json").write_text(table_to_json(comp.table))
        print(f"pairs: {len(comp.pairs.pairs)} "
              f"(rotate {comp.rotate_count}, "
              f"transition {comp.transition_count})")
        print(f"code length: {comp.table.code_len}")
    else:
        ts = compile_tileset(m)
        (out / "system.til").write_text(tileset_to_text(ts, []))
        print(f"tiles: {len(ts.tiles)} symbols: {len(ts.symbols)}")
    return 0


# per string relation: text parser, closure, step budget, text writer,
# and the default policy of its one-way function (staf, ptf)
_STRING_BACKENDS = {
    "semithue": (instance_from_text, det_closure, staf_budget,
                 instance_to_text, LOOKAHEAD8),
    "pcp": (pairs_from_text, pcp_det_closure, ptf_budget, pairs_to_text,
            PAPER_POLICY),
}


def _cmd_eval(args) -> int:
    if args.backend == "tiling":
        for flag, value in (("--trace", args.trace),
                            ("--semantics", args.semantics)):
            if value is not None:
                raise CliError(f"{flag} is not supported by the tiling "
                               "backend")
    else:
        parse, closure, budget, to_text, policy = _STRING_BACKENDS[
            args.backend]
        if args.semantics is not None:
            policy = _parse_semantics(args.semantics)
    text = Path(args.instance).read_text()
    if args.backend != "tiling":
        try:
            system, payload = parse(text)
        except InstanceParseError as e:
            print(f"note: unparseable instance ({e}); identity")
            print(text, end="")
            return 0
        out = closure(system, payload, budget(len(payload)), policy)
        if out.terminal and len(out.result) == len(payload):
            print(to_text(system, out.result), end="")
        else:
            print(to_text(system, payload), end="")
            print(f"note: {out.reason or 'wrong length'} at step {out.steps};"
                  " identity", file=sys.stderr)
        if args.trace:
            Path(args.trace).write_text(trace_to_jsonl(out.trace))
    else:
        try:
            ts, row = tileset_from_text(text)
        except TilingError as e:
            print(f"note: unparseable instance ({e}); identity")
            print(text, end="")
            return 0
        out = tile_closure(ts, row, height=max(1, len(row)))
        if isinstance(out, Completed):
            print(tileset_to_text(ts, list(out.top)), end="")
        else:
            print(tileset_to_text(ts, row), end="")
            print(f"note: {type(out).__name__} at row {out.row}; identity",
                  file=sys.stderr)
    return 0


def _verify_lemma(m: Machine, name: str, n_max: int):
    rows = []
    for n in range(1, n_max + 1):
        st_ok = pc_ok = True
        ti_ok = True
        comp = compile_semithue(m, n)
        pcomp = compile_pcp(m, n)
        ts = compile_tileset(m)
        for k in range(1 << n):
            x = format(k, f"0{n}b")
            want = run(m, x, step_bound(n)).output
            try:
                w = st_encode_input(comp, x)
            except ValueError:
                continue
            got = det_closure(comp.system, w, staf_budget(len(w)), LOOKAHEAD8,
                              want_trace=False)
            if not (got.terminal
                    and st_decode_output(comp, got.result) == want):
                st_ok = False
            pw = pcp_encode_input(pcomp, x)
            pgot = pcp_det_closure(pcomp.pairs, pw, ptf_budget(len(pw)),
                                   PAPER_POLICY, want_trace=False)
            if not (pgot.terminal
                    and pcp_decode_output(pcomp, pgot.result) == want):
                pc_ok = False
            if n >= 2:
                tgot = tile_closure(ts, bottom_row(m, x), n * n + 2)
                if not (isinstance(tgot, Completed)
                        and extract_output(tgot.top, n) == want):
                    ti_ok = False
        rows.append((f"semithue {name} n={n}", st_ok))
        rows.append((f"pcp {name} n={n}", pc_ok))
        if n >= 2:
            rows.append((f"tiling {name} n={n}", ti_ok))
    return rows


def _verify_coding(m: Machine, n_max: int):
    import random

    from .coding import build_code_table
    rng = random.Random(0)
    alphabet = [f"a{i}" for i in range(12)]
    n = 256
    fails = {1: 0, 2: 0, 3: 0, 4: 0}
    trials = 1000
    for t in range(trials):
        table = build_code_table(alphabet, n, salt_seed=t)
        x = format(rng.getrandbits(n), f"0{n}b")
        y = format(rng.getrandbits(n), f"0{n}b")
        rep = verify_properties(table, x, y)
        for i, p in enumerate((rep.prop1, rep.prop2, rep.prop3, rep.prop4), 1):
            if not p.ok:
                fails[i] += 1
    m_payload = (table.code_len - 5) // 2
    bound = 2 * len(alphabet) * n / (1 << m_payload)
    rows = [
        ("coding property 1 (equal lengths)", fails[1] == 0),
        (f"coding property 2 rate {fails[2]}/{trials}",
         fails[2] / trials <= bound + 3 * (bound / trials) ** 0.5 + 0.01),
        ("coding property 3 (cross-bifix-free)", fails[3] == 0),
        ("coding property 4 (blocks vs codes)", fails[4] == 0),
    ]
    return rows


def _verify_determinism(m: Machine, n_max: int):
    from .semithue import staf, serialize_instance
    x = "10001"
    comp = compile_semithue(m, len(x))
    w = st_encode_input(comp, x)
    strict = det_closure(comp.system, w, staf_budget(len(w)), STRICT,
                         want_trace=False)
    look = det_closure(comp.system, w, staf_budget(len(w)), LOOKAHEAD8,
                       want_trace=False)
    inst = serialize_instance(comp.system, w)
    rows = [
        ("strict fails on zero-run-3 input (EXPECTED-FAIL of strict)",
         not strict.terminal and staf(inst, STRICT) == inst),
        ("lookahead(8) succeeds on the same input",
         look.terminal and staf(inst, LOOKAHEAD8) != inst),
    ]
    return rows


def _cmd_verify(args) -> int:
    m = _load_machine(args.machine)
    name = args.machine
    if args.suite == "lemma":
        rows = _verify_lemma(m, name, args.n_max)
    elif args.suite == "coding":
        rows = _verify_coding(m, args.n_max)
    else:
        rows = _verify_determinism(m, args.n_max)
    ok = True
    for label, passed in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    return 0 if ok else 1


def _cmd_sample(args) -> int:
    d = sampler.DefaultUniform(max_int=args.max_int, max_len=args.max_len,
                               seed=args.seed)
    rng = sampler.make_rng(d)
    for _ in range(args.count):
        if args.kind == "int":
            print(sampler.sample_int(d, rng))
        elif args.kind == "string":
            print(sampler.sample_string(d, rng))
        elif args.kind == "sts":
            s = sampler.sample_sts_instance(d, rng)
            print(instance_to_text(s.system, s.payload), end="")
        else:
            s = sampler.sample_pcp_instance(d, rng)
            print(pairs_to_text(s.pairs, s.payload), end="")
    return 0


def _cmd_invert(args) -> int:
    import random
    m = _load_machine(args.machine)
    comp = compile_semithue(m, args.n)
    rng = random.Random(args.seed)
    x = format(rng.getrandbits(args.n), f"0{args.n}b")
    target = inverter.staf_target(comp, x)
    out = inverter.invert_staf_target(comp, target, limit=args.limit)
    print(f"target from x={x}: {type(out).__name__} "
          f"attempts={getattr(out, 'attempts', 0)}")
    if isinstance(out, inverter.Found):
        from .semithue import parse_instance
        _, payload = parse_instance(out.preimage)
        l = comp.table.code_len
        print(f"recovered payload bits: {payload[l:-l]}")
    return 0


def _cmd_experiment(args) -> int:
    m = _load_machine(args.machine)
    ns = [int(t) for t in args.n.split(",")]
    rows = inverter.owf_experiment(m, args.machine, ns, args.targets,
                                   args.seed, limit=args.limit,
                                   jobs=args.jobs)
    text = inverter.rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="owflab",
        description="Rewrite-system, pair-list, and tiling one-way function "
                    "laboratory.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="compile a machine into a system")
    c.add_argument("--backend", required=True,
                   choices=["semithue", "tiling", "pcp"])
    c.add_argument("--machine", required=True,
                   help="library name or TM v1 file")
    c.add_argument("--n", type=int, required=True,
                   help="input length bound for the code table")
    c.add_argument("--salt-seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_compile)

    e = sub.add_parser("eval", help="evaluate a deterministic closure")
    e.add_argument("--backend", required=True,
                   choices=["semithue", "tiling", "pcp"])
    e.add_argument("--instance", required=True)
    e.add_argument("--semantics",
                   help="strict | lookahead:D | paper-pcp (default: the "
                        "policy of staf or ptf, lookahead:8 for semithue, "
                        "paper-pcp for pcp; string backends only)")
    e.add_argument("--trace", help="trace JSONL file (string backends only)")
    e.set_defaults(fn=_cmd_eval)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("--suite", required=True,
                   choices=["coding", "lemma", "determinism"])
    v.add_argument("--machine", default="not")
    v.add_argument("--n-max", type=int, default=4)
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sample", help="draw from the default distributions")
    s.add_argument("--kind", required=True,
                   choices=["int", "string", "sts", "pcp"])
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-int", type=int, default=1 << 16)
    s.add_argument("--max-len", type=int, default=64)
    s.set_defaults(fn=_cmd_sample)

    i = sub.add_parser("invert", help="brute-force invert a compiled target")
    i.add_argument("--machine", default="not")
    i.add_argument("--n", type=int, default=8)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--limit", type=int, default=1 << 20)
    i.set_defaults(fn=_cmd_invert)

    x = sub.add_parser("experiment", help="forward/inverse cost experiment")
    x.add_argument("--machine", default="not")
    x.add_argument("--n", default="8", help="comma-separated lengths")
    x.add_argument("--targets", type=int, default=5)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--limit", type=int, default=1 << 22)
    x.add_argument("--jobs", type=int, default=1)
    x.add_argument("--out")
    x.set_defaults(fn=_cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
