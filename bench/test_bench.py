"""Tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from smallcuts import covering, wgmv  # noqa: E402
from smallcuts.covering import Instance, Link  # noqa: E402
from smallcuts.multigraph import MultiGraph  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402


def four_node_instance() -> Instance:
    g = MultiGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 1)])
    links = (Link(0, 2, 1), Link(1, 3, 2), Link(0, 1, 1), Link(2, 3, 3))
    return Instance(graph=g, k=3, links=links)


def test_tracer_counts_covers_calls_bound_by_name_in_wgmv():
    inst = four_node_instance()
    tracer = Tracer()
    for _ in range(2):  # installed once per operation, as run.py does
        with tracer.installed(), tracer.op():
            result = wgmv.run(inst, policy=wgmv.TiePolicy.INPUT_ORDER)
    # phase1 tests coverage before each iteration and once more at the end,
    # reverse_delete once per appended link, run once on the final set.
    expected = (len(result.iterations) + 1) + len(result.added) + 1
    assert tracer.totals()["covering.covers"]["calls"] == 2 * expected
    assert tracer.child_calls("wgmv.reverse_delete", "covering.covers") == 2 * len(result.added)


def test_tracer_restores_every_binding():
    original = covering.covers
    tracer = Tracer()
    with tracer.installed():
        assert wgmv.covers is not original
        assert wgmv.covers.__wrapped__ is original
    assert wgmv.covers is original and covering.covers is original


def test_self_times_sum_to_operation_wall_time(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(inputs._text(inputs.random_instance(random.Random(3), 12)))
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed(), tracer.op():
        assert run.cli_main(["solve", str(path)]) == 0
    wall = time.perf_counter() - start
    totals = tracer.totals()
    self_sum = sum(row["self_s"] for row in totals.values())
    assert totals["op"]["calls"] == 1
    assert self_sum == pytest.approx(totals["op"]["s"], rel=1e-9)
    assert self_sum == pytest.approx(wall, rel=0.05, abs=0.002)


def test_generator_is_a_function_of_the_seed():
    for workload in inputs.WORKLOADS:
        assert inputs.build(workload, 7) == inputs.build(workload, 7)
    assert inputs.build("solve_random", 7).files != inputs.build("solve_random", 8).files


def test_every_default_seed_operation_has_a_golden():
    goldens = checks.load_goldens()
    for workload in inputs.WORKLOADS:
        inp = inputs.build(workload, run.DEFAULT_SEED)
        for argv in inp.ops:
            assert checks.golden_key(argv, inp.files) in goldens, (workload, argv)


def test_check_rejects_a_wrong_solve_result(tmp_path, monkeypatch):
    inp = inputs.build("solve_random", run.DEFAULT_SEED)
    argv = inp.ops[0]
    monkeypatch.chdir(tmp_path)
    inputs.write(inp, tmp_path)
    _, good = run.run_op(argv)
    golden = checks.load_goldens()[checks.golden_key(argv, inp.files)]
    assert checks.check(argv, inp.files, good, golden) == []
    trace = json.loads(good.trace)
    trace["final"] = trace["final"][:-1]
    bad = checks.Outcome(good.rc, good.stdout, good.stderr, json.dumps(trace).encode())
    problems = checks.check(argv, inp.files, bad, None)
    assert "final selection leaves a small cut uncovered" in problems
    assert any("golden" in p for p in checks.check(argv, inp.files, bad, golden))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit in run.END_TO_END if name in run.REPORTED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]


def test_refuses_jobs_other_than_one():
    assert run.refusals([("verify", "--jobs", "2")])
    assert not run.refusals([("verify", "--jobs", "1")])


@pytest.mark.parametrize(
    "flags, env",
    [(["-O"], {}), ([], {"SCC_ENUM_BOUND": "30"})],
)
def test_refuses_a_different_program(flags, env):
    proc = subprocess.run(
        [sys.executable, *flags, str(BENCH / "run.py"), "--workload", "sweep_family", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, **env},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "refusing to run" in proc.stderr
