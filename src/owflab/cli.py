"""Command-line interface: compile, eval, verify, sample, invert,
experiment.

Exit codes: 0 success (identity outputs included — the functions are
total, so identity is a value, not an error), 1 verification failure,
2 usage or input parse error, or a machine the compilers reject.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import coding, inverter, sampler
from .machine import LIBRARY_NAMES, Machine, library_machine, parse_machine
from .pcp import PAPER_POLICY, compile_pcp, pairs_to_text
from .semithue import (
    DeterminismPolicy,
    STRICT,
    instance_to_text,
    parse_instance,
    trace_to_jsonl,
)
from .stcompile import CompileError, compile_semithue
from .tiling import compile_tileset, tileset_to_text


class CliError(Exception):
    pass


def _load_machine(spec: str) -> Machine:
    if spec in LIBRARY_NAMES:
        return library_machine(spec)
    try:
        return parse_machine(Path(spec).read_text(), spec)
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
            return DeterminismPolicy(depth=int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise CliError(f"unknown semantics {text!r} "
                   "(strict | lookahead:D | paper-pcp)")


def _cmd_compile(args) -> int:
    m = _load_machine(args.machine)
    # compile before creating --out, so a rejected machine leaves nothing
    if args.backend == "semithue":
        comp = compile_semithue(m, args.n, args.salt_seed)
        files = {"system.sts": instance_to_text(comp.system, "")}
        summary = (f"rules: {len(comp.system.rules)} "
                   f"(shuttle {comp.r1_count}, machine {comp.r2_count}, "
                   f"decode {comp.r3_count})")
    elif args.backend == "pcp":
        comp = compile_pcp(m, args.n, args.salt_seed)
        files = {"system.pcp": pairs_to_text(comp.pairs, "")}
        summary = (f"pairs: {len(comp.pairs.rules)} "
                   f"(rotate {comp.rotate_count}, "
                   f"transition {comp.transition_count})")
    else:
        ts = compile_tileset(m)
        files = {"system.til": tileset_to_text(ts, [])}
        summary = f"tiles: {len(ts.tiles)} symbols: {len(ts.symbols)}"
    if args.backend != "tiling":
        files["codes.json"] = coding.table_to_json(comp.table)
        summary += f"\ncode length: {comp.table.code_len}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    print(summary)
    return 0


def _functions():
    """inverter.functions() keyed by the --backend name of each relation."""
    return {fn.backend: fn for fn in inverter.functions().values()}


def _cmd_eval(args) -> int:
    fn = _functions()[args.backend]
    policy = fn.policy
    if policy is None:  # tiling: every row is solved exactly, no trace
        for flag, value in (("--trace", args.trace),
                            ("--semantics", args.semantics)):
            if value is not None:
                raise CliError(f"{flag} is not supported by the "
                               f"{args.backend} backend")
    elif args.semantics is not None:
        policy = _parse_semantics(args.semantics)
    text = Path(args.instance).read_text()
    try:
        system, payload = fn.from_text(text)
    except ValueError as e:  # InstanceParseError, TilingError
        print(text, end="")
        print(f"note: unparseable instance ({e}); identity", file=sys.stderr)
        if args.trace:
            Path(args.trace).write_text("")  # no step was taken
        return 0
    out = fn.closure(system, payload, fn.budget(len(payload)), policy,
                     want_trace=bool(args.trace))
    if out.terminal and len(out.result) == len(payload):
        print(fn.to_text(system, out.result), end="")
    else:
        print(fn.to_text(system, payload), end="")
        print(f"note: {out.reason or 'wrong length'} at step {out.steps};"
              " identity", file=sys.stderr)
    if args.trace:
        Path(args.trace).write_text(trace_to_jsonl(out.trace))
    return 0


def _verify_lemma(m: Machine, n_max: int):
    """inverter.lemma folded into one row per relation and input length:
    PASS when every input the relation can encode decodes to M(x)."""
    rows = []
    for n in range(1, n_max + 1):
        ok = {}
        for fn, _, out, got, want in inverter.lemma(m, n):
            ok[fn.backend] = (ok.get(fn.backend, True) and out.terminal
                              and got == want)
        rows += [(f"{backend} {m.name} n={n}", passed)
                 for backend, passed in ok.items()]
    return rows


def _cmd_verify(args) -> int:
    if args.suite == "coding":
        rows = coding.check_codes([f"a{i}" for i in range(12)], 256,
                                  trials=1000, seed=0)
    elif args.suite == "lemma":
        rows = _verify_lemma(_load_machine(args.machine), args.n_max)
    else:
        rows = inverter.determinism(_load_machine(args.machine))
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
    comp = compile_semithue(_load_machine(args.machine), args.n)
    x = format(random.Random(args.seed).getrandbits(args.n), f"0{args.n}b")
    _, out = inverter.invert_case(comp, x, args.limit)
    print(f"target from x={x}: {type(out).__name__} attempts={out.attempts}")
    if isinstance(out, inverter.Found):
        _, payload = parse_instance(out.preimage)
        l = comp.table.code_len
        print(f"recovered payload bits: {payload[l:-l]}")
    return 0


def _cmd_experiment(args) -> int:
    rows = inverter.owf_experiment(_load_machine(args.machine), args.n,
                                   args.targets, args.seed, args.limit,
                                   args.jobs)
    text = inverter.rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _positive_ints(text: str):
    return [_positive_int(t) for t in text.split(",")]


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
    c.add_argument("--n", type=_positive_int, required=True,
                   help="input length bound for the code table "
                        "(tiling ignores --n and --salt-seed)")
    c.add_argument("--salt-seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_compile)

    e = sub.add_parser("eval", help="evaluate a deterministic closure")
    e.add_argument("--backend", required=True,
                   choices=["semithue", "tiling", "pcp"])
    e.add_argument("--instance", required=True)
    e.add_argument("--semantics",
                   help="strict | lookahead:D | paper-pcp (strict is a "
                        "successor cap of 1, paper-pcp lookahead:1 with a "
                        "cap of 2; default: the policy of staf or ptf, "
                        "lookahead:8 for semithue, paper-pcp for pcp; "
                        "string backends only)")
    e.add_argument("--trace", help="trace JSONL file (string backends only)")
    e.set_defaults(fn=_cmd_eval)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("--suite", required=True,
                   choices=["coding", "lemma", "determinism"])
    v.add_argument("--machine", default="not",
                   help="library name or TM v1 file (lemma and "
                        "determinism suites)")
    v.add_argument("--n-max", type=_positive_int, default=4,
                   help="largest input length (lemma suite)")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sample", help="draw from the default distributions")
    s.add_argument("--kind", required=True,
                   choices=["int", "string", "sts", "pcp"])
    s.add_argument("--count", type=_positive_int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-int", type=_positive_int, default=1 << 16)
    s.add_argument("--max-len", type=_positive_int, default=64)
    s.set_defaults(fn=_cmd_sample)

    i = sub.add_parser("invert", help="brute-force invert a compiled target")
    i.add_argument("--machine", default="not")
    i.add_argument("--n", type=_positive_int, default=8)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--limit", type=_positive_int, default=1 << 20)
    i.set_defaults(fn=_cmd_invert)

    x = sub.add_parser(
        "experiment", help="forward/inverse cost experiment",
        description="One CSV row per inverted target: kind, machine, n, "
        "seed, forward_us, attempts, found, policy.  The inputs are drawn "
        "from --seed.")
    x.add_argument("--machine", default="not")
    x.add_argument("--n", type=_positive_ints, default="8",
                   help="comma-separated lengths")
    x.add_argument("--targets", type=_positive_int, default=5)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--limit", type=_positive_int, default=1 << 22)
    x.add_argument("--jobs", type=_positive_int, default=1)
    x.add_argument("--out")
    x.set_defaults(fn=_cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, CompileError, coding.CodingError, OSError,
            UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
