"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest owfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer, layer_metrics  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_wrong_evaluator_counts_as_failed():
    pool = workloads.compiled_ptf(1)
    honest = pool.run
    pool.run = lambda item: ("1" + honest(item)[0][1:], [1e-3])
    tally = run.Tally(pool)
    run.run_pass(tally)
    assert run.check(tally) == len(pool.items)


def test_raising_evaluator_counts_as_failed():
    pool = workloads.compiled_staf(1)

    def broken(item):
        raise RecursionError("too deep")

    pool.run = broken
    tally = run.Tally(pool)
    run.run_pass(tally)
    assert tally.latencies == [[] for _ in pool.items]
    assert run.check(tally) == len(pool.items)
    assert tally.identity == 0


def test_changed_answer_between_passes_counts_as_failed():
    pool = workloads.compiled_ptf(2)
    honest = pool.run
    calls = []

    def flaky(item):
        out, lat = honest(item)
        calls.append(item)
        if len(calls) == len(pool.items) + 1:  # the second pass's first call
            out = ("0" if out[0] == "1" else "1") + out[1:]
        return out, lat

    pool.run = flaky
    tally = run.Tally(pool)
    run.run_pass(tally)
    run.run_pass(tally)
    assert run.check(tally) == 1
    assert tally.attempted() == 2 * len(pool.items)


def test_compiled_mixes_the_three_functions_evenly():
    pool = workloads.compiled(1)
    parts = [workloads.compiled_staf(1), workloads.compiled_ptf(1),
             workloads.compiled_tiling(1)]
    assert len(pool.items) == sum(len(p.items) for p in parts)
    for k, part in enumerate(parts):
        assert [i.w for i in pool.items[k::3]] == [i.w for i in part.items]


def test_timed_phase_makes_a_whole_pass_and_typical_latency_is_a_median():
    pool = workloads.Pool([workloads.Item("0", None),
                           workloads.Item("1", None)],
                          lambda item: (item.w, [0.0]), lambda i, o: True)
    tally = run.Tally(pool)
    assert run.timed_phase(tally, 0.0) == 1.0
    tally.latencies = [[[1.0], [5.0], [2.0]], [[3.0, 4.0], [3.0, 6.0]]]
    assert run.typical_latencies(tally) == [2.0, 3.0, 5.0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    build = workloads.WORKLOADS[name][0]
    a = run.input_digest(build(3))
    assert a == run.input_digest(build(3))
    assert a != run.input_digest(build(4))


def test_percentile_counts_samples_beyond():
    values = sorted(range(1, 201))
    assert run.percentile(values, 95.0) == (190, 10)
    assert run.percentile(values, 50.0) == (100, 100)


def test_tracer_restores_bindings_and_counts_layers():
    from owflab import pcp, semithue

    original = semithue.parse_instance
    pool = workloads.compiled_ptf(1)
    tracer = Tracer()
    with tracer.installed():
        assert semithue.parse_instance is not original
        assert pcp.parse_instance is semithue.parse_instance
        run.run_pass(run.Tally(pool))
    assert semithue.parse_instance is original
    assert pcp.parse_instance is original
    assert tracer.calls["ptf"] == len(pool.items)
    assert tracer.calls["semithue.parse_instance"] == len(pool.items)
    assert tracer.calls["kernels.pcp_step"] > 0
    for layer, spent in tracer.self_time.items():
        assert 0 <= spent <= tracer.total[layer] + 1e-9


def test_layer_metrics_match_benchmark_json():
    names = {m["name"] for m in _spec()["per_layer"]}
    assert set(layer_metrics(Tracer(), Tracer(), 1, 1.0)) == names


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "owfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_named_metric(trace, kind):
    done = _bench(ROOT, "compiled", trace)
    assert done.returncode == 0, done.stderr
    env, result = [json.loads(line) for line in done.stdout.splitlines()[-2:]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert env["backend"] in ("pure", "compiled") and env["seed"] == 5
    spec = {m["name"]: m["unit"] for m in _spec()[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == spec


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "owfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench(str(tmp_path), "compiled", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
