import contextlib
import gc
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from smallcuts import tightgen
from smallcuts.cli import main
from smallcuts.covering import Instance, Link
from smallcuts.multigraph import MultiGraph
from smallcuts.serialize import instance_to_text, read_instance, write_instance
from smallcuts.tightgen import generate_instance


GOLDEN = Path(__file__).resolve().parent / "golden"


def _write(tmp_path, name, params=(1, 2, 5), eps=0):
    path = tmp_path / name
    path.write_text(instance_to_text(generate_instance(*params, eps).instance))
    return str(path)


def test_generate_to_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["generate", "--q", "1", "--p", "2", "--k", "5", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    inst = read_instance(str(out))
    assert inst.n == 11
    assert main(["generate", "--k", "3"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["k"] == 3


def test_generate_invalid_params_exit_3(capsys):
    assert main(["generate", "--q", "1", "--p", "2", "--k", "4"]) == 3
    assert "k >= 2pq+1" in capsys.readouterr().err


def test_unknown_flag_exit_3(capsys):
    assert main(["generate", "--k", "5", "--frobnicate"]) == 3
    assert main(["no-such-command"]) == 3


def test_solve_adversarial_output(tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    trace = tmp_path / "trace.json"
    assert main(["solve", path, "--policy", "adversarial", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "cost 10, dual 4" in out
    assert "ratio vs dual bound: 5/2" in out
    data = json.loads(trace.read_text())
    assert data["final"] == [3, 4, 5, 6, 7, 8]


def test_solve_helpful_output(tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    assert main(["solve", path, "--policy", "helpful"]) == 0
    out = capsys.readouterr().out
    assert "cost 4, dual 4" in out


def test_solve_perturbed_trace_has_no_blue(tmp_path, capsys):
    path = _write(tmp_path, "ge.json", eps=Fraction(1, 100))
    trace = tmp_path / "trace.json"
    assert main(["solve", path, "--trace", str(trace)]) == 0
    inst = read_instance(path)
    data = json.loads(trace.read_text())
    for rec in data["iterations"]:
        for idx in rec["newly_tight"]:
            assert inst.links[idx].tag != "blue"
    assert sorted(data["final"]) == [3, 4, 5, 6, 7, 8]


def test_solve_trivial_instance(tmp_path, capsys):
    from smallcuts.covering import Instance
    from smallcuts.multigraph import MultiGraph
    from smallcuts.serialize import write_instance

    g = MultiGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
    path = tmp_path / "triv.json"
    write_instance(str(path), Instance(graph=g, k=1, links=()))
    assert main(["solve", str(path)]) == 0
    assert "cost 0, empty solution" in capsys.readouterr().out


def test_solve_infeasible_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    obj = json.loads(Path(path).read_text())
    obj["links"] = []
    Path(path).write_text(json.dumps(obj))
    assert main(["solve", path]) == 2
    # the stranded cut is named by its labels, as verify names cuts
    assert "small cut {t1} is crossed by no available link" in capsys.readouterr().err


def test_solve_missing_file_exit_3(capsys):
    assert main(["solve", "/definitely/not/here.json"]) == 3


def test_verify_params_ok(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--q", "1", "--p", "2", "--k", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "all checks passed" in printed
    assert "gap: alg 10, opt 4, dual 4, ratio 5/2" in printed
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["gap"]["ratio"] == "5/2"
    assert len(report["reports"]) == 2


def test_verify_requires_params_or_path(capsys):
    assert main(["verify"]) == 3


def test_verify_instance_file_ok(tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    assert main(["verify", path]) == 0


def test_verify_corrupted_instance_exit_1(tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    obj = json.loads(Path(path).read_text())
    for e in obj["edges"]:
        if {e["u"], e["v"]} == {9, 10}:
            e["mult"] += 1
    Path(path).write_text(json.dumps(obj))
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "d(r) = k-p" in out


def _move_red_link_5(tmp_path, v):
    """The p=2 family with its red link 5, y1-r, ending at node v instead."""
    path = _write(tmp_path, "g.json")
    obj = json.loads(Path(path).read_text())
    assert (obj["links"][5]["u"], obj["links"][5]["v"]) == (3, 10)
    obj["links"][5]["v"] = v
    Path(path).write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize(
    "v, failure",
    [
        (2, "red is feasible\n     leaves {t2,a2,x2,y2,z,b,r} uncovered\n"),
        (4, "red is inclusion-minimal\n     link 6 {t2,x2} can be dropped\n"),
        (8, "only red link covering Y_1 is y_1r\n     crossing links [5], expected [5], but link 5 joins {y1,z}\n"),
    ],
    ids=["to_x1", "to_t2", "to_z"],
)
def test_verify_names_what_a_moved_red_link_breaks(v, failure, tmp_path, capsys):
    """Link 5 is red y1-r.  Ending it at x1 leaves a cut uncovered, which the
    report names; ending it at t2 still covers, but then link 6 is redundant;
    ending it at z keeps it the one red link across Y_1, but it is no longer
    the y1-r link the check names."""
    assert main(["verify", _move_red_link_5(tmp_path, v)]) == 1
    assert f"FAIL feasibility lemma at q=1, p=2, k=5: {failure}" in capsys.readouterr().out


def test_verify_failure_output_is_pinned(tmp_path, capsys):
    """The whole report for link 5 moved to x1.  The core it names is the
    last row of the first Stoer-Wagner phase below k, so this pins the
    phase order end to end."""
    assert main(["verify", _move_red_link_5(tmp_path, 2)]) == 1
    want = (GOLDEN / "verify_q1_p2_k5_link5_to_x1.txt").read_bytes()
    assert capsys.readouterr().out.encode() == want


def _retag(tmp_path, i, tag):
    """The p=2 family with link i tagged `tag`; a link's color is its tag."""
    path = _write(tmp_path, "g.json")
    obj = json.loads(Path(path).read_text())
    obj["links"][i]["tag"] = tag
    Path(path).write_text(json.dumps(obj))
    return path


def test_verify_reads_the_colors_from_the_tags(tmp_path, capsys):
    """Link 3 is red t1-x1.  Tagged blue, it leaves red short of {t1} and
    blue with a link to spare, and the file is no longer an exact build,
    so the gap run is skipped."""
    assert main(["verify", _retag(tmp_path, 3, "blue")]) == 1
    want = (GOLDEN / "verify_q1_p2_k5_link3_blue.txt").read_bytes()
    assert capsys.readouterr().out.encode() == want


def test_verify_untagged_link_exit_3(tmp_path, capsys):
    assert main(["verify", _retag(tmp_path, 3, None)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance has untagged links; cannot split red from blue\n"


def test_verify_unrecognized_instance_exit_3(tmp_path, capsys):
    from smallcuts.covering import Instance, Link
    from smallcuts.multigraph import MultiGraph
    from smallcuts.serialize import write_instance

    g = MultiGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    path = tmp_path / "foreign.json"
    write_instance(str(path), Instance(graph=g, k=2, links=(Link(0, 3, 1),)))
    assert main(["verify", str(path)]) == 3


def test_verify_garbage_json_exit_3(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{{{{")
    assert main(["verify", str(path)]) == 3


def test_experiment_table_and_json(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["experiment", "--k", "5", "6", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "5/2" in printed
    rows = json.loads(out.read_text())
    assert [r["k"] for r in rows] == [5, 6]
    assert all(r["matches"] for r in rows)


def test_export_dot(tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    out = tmp_path / "g.dot"
    assert main(["export-dot", path, "--out", str(out)]) == 0
    dot = out.read_text()
    assert "color=green" in dot
    assert 'label="3"' in dot  # br multiplicity k-pq
    assert main(["export-dot", path]) == 0
    assert "graph instance {" in capsys.readouterr().out


def test_epsilon_flag_bare_uses_default_surcharge(tmp_path):
    out = tmp_path / "ge.json"
    assert main(["generate", "--q", "1", "--p", "2", "--k", "5", "--epsilon", "--out", str(out)]) == 0
    inst = read_instance(str(out))
    assert inst.links[0].cost == Fraction(101, 100)
    out2 = tmp_path / "ge2.json"
    assert main(["generate", "--q", "1", "--p", "2", "--k", "5", "--epsilon", "1/7", "--out", str(out2)]) == 0
    assert read_instance(str(out2)).links[0].cost == 1 + Fraction(1, 7)


def test_epsilon_decimal_string_is_exact(tmp_path):
    # "0.01" on the command line is a decimal string, parsed exactly
    out = tmp_path / "gd.json"
    assert main(["generate", "--k", "3", "--epsilon", "0.01", "--out", str(out)]) == 0
    assert read_instance(str(out)).links[0].cost == Fraction(101, 100)
    assert main(["generate", "--k", "3", "--epsilon", "nonsense"]) == 3


@pytest.mark.parametrize(
    "argv,message",
    [
        (["generate", "--k", "3", "--epsilon", "-1"], "error: bad epsilon: negative cost -1 is not allowed"),
        (["verify", "--q", "1", "--p", "1", "--k", "3", "--epsilon", "abc"], "error: bad epsilon: cannot parse cost 'abc'"),
        (["generate", "--k", "3", "--epsilon", "nonsense"], "error: bad epsilon: cannot parse cost 'nonsense'"),
    ],
    ids=["negative", "unparsable", "nonsense"],
)
def test_epsilon_errors_name_epsilon(argv, message, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("k", ["2", "0"])
def test_experiment_rejects_k_below_3_by_name(k, capsys):
    assert main(["experiment", "--k", "5", k]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: the sweep requires k >= 3, got k={k}\n"
    assert captured.out == ""


def test_bound_exceeded_exit_4(tmp_path, monkeypatch):
    monkeypatch.setenv("SCC_ENUM_BOUND", "5")
    assert main(["verify", "--q", "1", "--p", "2", "--k", "5"]) == 4


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["experiment", "--k", "5"], 0, ""),
        (["generate", "--k", "2"], 3, "error: "),
        (["verify", "--q", "1", "--p", "5", "--k", "11"], 4, "bound exceeded: "),
    ],
    ids=["success", "invalid", "bound"],
)
def test_module_entry_point_exits_with_mains_code(argv, code, err):
    """`python -m smallcuts` runs `cli.entry`, which hands main's code to
    sys.exit; p = 5 has 23 nodes, one past the default enumeration bound."""
    env = {name: value for name, value in os.environ.items() if name != "SCC_ENUM_BOUND"}
    env["PYTHONPATH"] = str(Path(tightgen.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "smallcuts", *argv], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(err) and bool(proc.stderr) == bool(err)


@pytest.mark.parametrize("q,p,k", [(1, 1, 3), (1, 2, 5)])
def test_verify_output_is_pinned(q, p, k, capsys):
    assert main(["verify", "--q", str(q), "--p", str(p), "--k", str(k)]) == 0
    want = (GOLDEN / f"verify_q{q}_p{p}_k{k}.txt").read_bytes()
    assert capsys.readouterr().out.encode() == want


@pytest.mark.parametrize("q,p,k", [(1, 1, 3), (1, 2, 5)])
def test_verify_report_is_pinned(q, p, k, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--q", str(q), "--p", str(p), "--k", str(k), "--out", str(out)]) == 0
    want = (GOLDEN / f"verify_q{q}_p{p}_k{k}.json").read_bytes()
    assert out.read_bytes() == want


def test_verify_past_the_default_node_bound_is_pinned(monkeypatch, capsys):
    """The family at p = 5 has 23 nodes, one past DEFAULT_ENUM_BOUND."""
    monkeypatch.setenv("SCC_ENUM_BOUND", "23")
    assert main(["verify", "--q", "1", "--p", "5", "--k", "11"]) == 0
    want = (GOLDEN / "verify_q1_p5_k11.txt").read_bytes()
    assert capsys.readouterr().out.encode() == want


SWEEP_KS = ["5", "6", "7", "8", "9", "10", "11", "12"]


def test_experiment_output_is_pinned(capsys):
    assert main(["experiment", "--k", *SWEEP_KS]) == 0
    want = (GOLDEN / "experiment_k5-12.txt").read_bytes()
    assert capsys.readouterr().out.encode() == want


def test_experiment_table_is_pinned(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["experiment", "--k", *SWEEP_KS, "--out", str(out)]) == 0
    want = (GOLDEN / "experiment_k5-12.json").read_bytes()
    assert out.read_bytes() == want


def _random_instance(seed: int, n: int = 8) -> Instance:
    """A seeded random graph with a link on every pair, so it is feasible."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(u, v, rng.randint(1, 3)) for u, v in pairs if rng.random() < 0.4]
    links = tuple(Link(u, v, rng.randint(1, 9)) for u, v in pairs)
    return Instance(graph=MultiGraph(n, edges), k=rng.randint(2, 5), links=links)


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--k", "5", "6"],
        ["verify", "--q", "1", "--p", "2", "--k", "5"],
        pytest.param(["solve", "family.json"], id="solve-family"),
        pytest.param(["solve", "random.json"], id="solve-random"),
        pytest.param(["generate", "--q", "1", "--p", "2", "--k", "5", "--out", "g.json"], id="generate-out"),
        pytest.param(["solve", "random.json", "--trace", "t.json"], id="solve-trace"),
        pytest.param(["experiment", "--k", "5", "6", "--out", "e.json"], id="experiment-out"),
        pytest.param(["verify", "--q", "1", "--p", "2", "--k", "5", "--out", "v.json"], id="verify-out"),
    ],
)
def test_command_leaves_no_cyclic_garbage(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "family.json")
    (tmp_path / "random.json").write_text(instance_to_text(_random_instance(5)))
    assert main(argv) == 0  # warm-up: first-use caches may build cycles once
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_experiment_does_not_grow_the_heap():
    """Repeated runs leave no blocks behind on the interpreter's free lists:
    a tuple built from a generator is resized, and freeing it parks one more
    block on its length's list, which only a full collection empties."""
    argv = ["experiment", "--k", "5", "6", "7", "8"]
    runs = 100
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for _ in range(3):
            assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(runs):
                main(argv)
            growth = (sys.getallocatedblocks() - before) / runs
        finally:
            gc.enable()
    assert growth < 10  # about 3 a run on CPython 3.10 to 3.13; 29 to 31 with resized tuples


def test_jobs_flag_is_rejected(capsys):
    assert main(["verify", "--q", "1", "--p", "2", "--k", "5", "--jobs", "1"]) == 3
    assert main(["experiment", "--k", "5", "--jobs", "2"]) == 3


@pytest.mark.parametrize("flag", [["--q", "3"], ["--p", "9"], ["--k", "2"], ["--epsilon", "1/2"]])
def test_verify_rejects_instance_path_with_params(flag, tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    assert main(["verify", path, *flag]) == 3
    assert "pass an instance path or --q/--p/--k/--epsilon, not both" in capsys.readouterr().err


@pytest.mark.parametrize("from_file", [False, True])
def test_verify_builds_the_family_once(from_file, tmp_path, monkeypatch, capsys):
    if from_file:
        argv = ["verify", _write(tmp_path, "g.json")]
    else:
        argv = ["verify", "--q", "1", "--p", "4", "--k", "9"]
    builds = []
    build = tightgen._build
    monkeypatch.setattr(tightgen, "_build", lambda params: builds.append(params) or build(params))
    assert main(argv) == 0
    assert len(builds) == 1


def test_export_dot_escapes_labels(tmp_path, capsys):
    path = tmp_path / "labels.json"
    g = MultiGraph(2, [(0, 1, 1)], labels=['t1" shape=box color="red', "back\\slash"])
    write_instance(str(path), Instance(graph=g, k=1, links=()))
    assert main(["export-dot", str(path)]) == 0
    out = capsys.readouterr().out
    assert '  0 [label="t1\\" shape=box color=\\"red"];' in out
    assert '  1 [label="back\\\\slash"];' in out


@pytest.mark.parametrize(
    "source,policy",
    [
        (["1", "2", "5"], "adversarial"),
        (["1", "6", "13"], "adversarial"),  # n = 27: only the first-cores path can run it
        (["1", "6", "13"], "helpful"),
        ("n7", "adversarial"),  # not a family member; phase 1 runs 3 iterations
    ],
)
def test_solve_output_is_pinned(source, policy, tmp_path, capsys):
    if source == "n7":
        path, name = str(GOLDEN / "solve_n7.json"), "solve_n7"
    else:
        q, p, k = source
        path, name = str(tmp_path / "g.json"), f"solve_q{q}_p{p}_k{k}"
        assert main(["generate", "--q", q, "--p", p, "--k", k, "--out", path]) == 0
        capsys.readouterr()
    assert main(["solve", path, "--policy", policy]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}_{policy}.txt").read_bytes()
    trace = tmp_path / "trace.json"
    assert main(["solve", path, "--policy", policy, "--trace", str(trace)]) == 0
    assert trace.read_bytes() == (GOLDEN / f"{name}_{policy}.json").read_bytes()


@pytest.mark.parametrize("relabel", ["rename_r", "rotate"])
def test_verify_ignores_node_labels(relabel, tmp_path, capsys):
    path = _write(tmp_path, "g.json")
    assert main(["verify", path]) == 0
    want = capsys.readouterr().out
    obj = json.loads(Path(path).read_text())
    labels = [node["label"] for node in obj["nodes"]]
    if relabel == "rename_r":
        labels = ["R" if lb == "r" else lb for lb in labels]
    else:
        labels = labels[-1:] + labels[:-1]  # node 0 is now named "r"
    for node, lb in zip(obj["nodes"], labels):
        node["label"] = lb
    moved = tmp_path / "relabeled.json"
    moved.write_text(json.dumps(obj))
    assert main(["verify", str(moved)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["solve", "export-dot"])
@pytest.mark.parametrize("field", ["cost", "k"])
def test_malformed_numbers_exit_3(command, field, tmp_path, capsys):
    obj = json.loads(instance_to_text(generate_instance(1, 1, 3).instance))
    if field == "cost":
        obj["links"][0]["cost"] = "1e5000"
        text = json.dumps(obj)
    else:  # an integer past Python's 4300-digit string conversion limit
        text = json.dumps(obj).replace('"k": 3', '"k": ' + "9" * 5000)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "verify", "export-dot"])
@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200000], ids=["not_utf8", "nested_too_deep"])
def test_malformed_files_exit_3(command, content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("trace", [False, True])
def test_solve_prints_totals_past_the_digit_limit(trace, tmp_path, capsys):
    """Each cost parses, but their sum has a 4401-digit denominator, past
    the 4300 digits Python converts from int to str by default."""
    big = "1" + "0" * 2200
    obj = json.loads(instance_to_text(Instance(MultiGraph(3, []), 1, ())))
    obj["links"] = [
        {"u": 0, "v": 1, "cost": f"1/{big[:-1]}1", "tag": None},
        {"u": 1, "v": 2, "cost": f"1/{big[:-1]}3", "tag": None},
    ]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    # 1/(10^2200+1) + 1/(10^2200+3) = (2*10^2200+4)/(10^4400+4*10^2200+3), already in lowest terms
    total = "2" + "0" * 2199 + "4/1" + "0" * 2199 + "4" + "0" * 2199 + "3"
    argv = ["solve", str(path)] + (["--trace", str(tmp_path / "t.json")] if trace else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"\ncost {total}, dual " in out
    if trace:
        assert json.loads((tmp_path / "t.json").read_text())["cost"] == total
