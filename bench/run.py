#!/usr/bin/env python3
"""Benchmark of the smallcuts command line.

Run from the repository root:

    python3 bench/run.py --workload solve_random --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one interpreter each
    python3 bench/run.py --record-goldens          # rewrite bench/goldens.json

One run is one workload in a fresh interpreter: a closed loop with a single
client that calls ``smallcuts.cli.main(argv)`` in process, stdout captured,
one operation after another until ``--seconds`` have passed.  Every output
is checked after the loop (see checks.py).  The workloads and why each was
chosen are described in inputs.py.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``ops_per_s``: operations completed per second of operation time;
* ``op_s_p50``: median wall time of one operation;
* ``setup_s``: median, over several fresh interpreters, of the time from
  starting the interpreter through ``import smallcuts.cli`` and building the
  workload's input files;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the loop;
* ``failed_frac``: failed / attempted operations, also given as ``failed``
  and ``attempted`` in the result line.

With ``--trace 1`` each operation runs once untraced and once under the
tracer (tracer.py), and the run reports the per-layer metrics, including
the tracing overhead.  The last line of stdout is one JSON object; the full
result, with every operation's time, goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Sequence

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"

if not (SRC / "smallcuts" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'smallcuts'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import smallcuts  # noqa: E402

if Path(smallcuts.__file__).resolve().parent != SRC / "smallcuts":
    sys.exit(f"error: imported smallcuts from {smallcuts.__file__}, not from {SRC}")

import checks  # noqa: E402
import inputs  # noqa: E402
from smallcuts.cli import main as cli_main  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
# Set-up takes 0.2-0.7 s and is noisy on a shared host, so setup_s is the
# median of SETUP_PROBES set-ups, half of them before the loop and half after.
SETUP_PROBES = 9
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "fraction"),
)
# failed_frac is 0 whenever the program is correct, so the result line
# carries it as `failed` / `attempted` rather than as a metric.
REPORTED = ("ops_per_s", "op_s_p50", "setup_s", "peak_rss_mb")


def refusals(ops: Sequence[Sequence[str]]) -> list[str]:
    """Reasons the measured program would not be the program as shipped."""
    out = []
    if sys.flags.optimize:
        out.append("running under python -O strips the invariant asserts, which measures another program")
    if "SCC_ENUM_BOUND" in os.environ:
        out.append("SCC_ENUM_BOUND is set; the benchmark measures the default enumeration bound")
    for argv in ops:
        if "--jobs" in argv and argv[argv.index("--jobs") + 1] != "1":
            out.append(f"operation {' '.join(argv)} asks for --jobs other than 1")
    return out


def conditions() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    src = hashlib.sha256()
    for path in sorted((SRC / "smallcuts").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_op(argv: Sequence[str], tracer: Tracer | None = None) -> tuple[float, checks.Outcome]:
    """Run one operation in process; returns its wall time and output."""
    trace_path = Path(inputs.TRACE_FILE)
    trace_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    rc, error = -1, None
    installed = tracer.installed() if tracer is not None else nullcontext()
    span = tracer.op() if tracer is not None else nullcontext()
    with installed, redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            with span:
                rc = cli_main(list(argv))
        except Exception:  # a crash is a failed operation, kept with its traceback
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    trace = trace_path.read_bytes() if "--trace" in argv and trace_path.exists() else None
    return seconds, checks.Outcome(rc, out.getvalue(), err.getvalue(), trace, error)


def closed_loop(
    ops: Sequence[Sequence[str]], seconds: float, tracer: Tracer | None
) -> list[tuple[tuple[str, ...], float, checks.Outcome, bool]]:
    """One client, next operation only after the last returned.

    With a tracer, each operation runs untraced and then traced, so the
    two times compare the same inputs.
    """
    done = []
    start = time.perf_counter()
    i = 0
    while True:
        argv = tuple(ops[i % len(ops)])
        done.append((argv, *run_op(argv), False))
        if tracer is not None:
            done.append((argv, *run_op(argv, tracer), True))
        i += 1
        if time.perf_counter() - start >= seconds:
            return done


def setup_times(workload: str, seed: int, work: Path, count: int) -> list[float]:
    """Seconds of `count` fresh-interpreter set-ups, timed from outside."""
    cmd = [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(seed), "--setup-only", str(work / "setup")]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # No timeout: with one, the wait polls the child with sleeps of up to
        # 50 ms, which would add up to 50 ms to every reading.
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - start)
    return times


def check_all(done, files: dict[str, str]) -> list[list[str]]:
    """Problems per operation.  Each distinct operation is checked in full
    once; a repeat must then give the same output."""
    goldens = checks.load_goldens()
    first: dict[tuple[str, ...], tuple[dict, list[str]]] = {}
    out = []
    for argv, _, outcome, _ in done:
        if argv not in first:
            golden = goldens.get(checks.golden_key(argv, files))
            first[argv] = (outcome.digest(), checks.check(argv, files, outcome, golden))
            out.append(first[argv][1])
        elif outcome.error is None and outcome.digest() == first[argv][0]:
            out.append(first[argv][1])
        else:
            out.append(["output differs from an earlier run of the same operation"] + ([outcome.error] if outcome.error else []))
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args: argparse.Namespace) -> int:
    inp = inputs.build(args.workload, args.seed)
    reasons = refusals(inp.ops)
    if reasons:
        for reason in reasons:
            print(f"refusing to run: {reason}", file=sys.stderr)
        return 2
    cond = conditions()
    work = WORK / f"{args.workload}-{os.getpid()}"
    home = Path.cwd()
    try:
        inputs.write(inp, work)
        setups = setup_times(args.workload, args.seed, work, SETUP_PROBES - SETUP_PROBES // 2)
        os.chdir(work)
        tracer = Tracer() if args.trace else None
        done = closed_loop(inp.ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_all(done, inp.files)
        os.chdir(home)
        setups += setup_times(args.workload, args.seed, work, SETUP_PROBES // 2)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    attempted = len(done)
    plain = [secs for _, secs, _, traced in done if not traced]
    print(f"workload {args.workload}  seed {args.seed}  python {cond['python']}  nproc {cond['nproc']}  commit {cond['commit']}")
    for (argv, _, _, traced), p in zip(done, problems):
        if p:
            print(f"FAILED {'traced ' if traced else ''}{' '.join(argv)}: {'; '.join(p)}")
    e2e = {
        "ops_per_s": len(plain) / sum(plain),
        "op_s_p50": statistics.median(plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
    }
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<12} {_fmt(value):>12} {units[name]}")
    print(f"  ({len(plain)} untraced operations, set-up median of {len(setups)})")
    if tracer is not None:
        traced = [secs for _, secs, _, is_traced in done if is_traced]
        layers = tracer.layer_metrics(overhead_frac=sum(traced) / sum(plain) - 1)
        op_mean = sum(traced) / len(traced)
        print(f"  per traced operation ({len(traced)} traced, mean {_fmt(op_mean)} s); share = of traced time")
        for name, unit, _, target in LAYER_METRICS:
            share = f"{layers[name] / op_mean:6.1%}" if unit == "s/op" else "      "
            print(f"  {name:<44} {_fmt(layers[name]):>12} {unit:<10} {share}  moves: {target}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name in REPORTED}

    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "conditions": cond,
        "end_to_end": e2e,
        "setup_runs_s": setups,
        "operations": [
            {"argv": list(argv), "seconds": secs, "traced": traced, "rc": outcome.rc, "problems": p}
            for (argv, secs, outcome, traced), p in zip(done, problems)
        ],
    }
    if tracer is not None:
        detail["per_layer"] = {name: m["value"] for name, m in metrics.items()}
        detail["functions"] = tracer.totals()
        detail["span_names"] = tracer.names
        detail["spans"] = tracer.spans
    # Traced runs keep every span, megabytes of JSON, so they are compressed.
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    opener = gzip.open if tracer is not None else open
    with opener(RESULTS / (name + ".gz" if tracer is not None else name), "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(detail) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def record_goldens() -> int:
    """Write goldens.json from this commit: every distinct operation of the
    default seed, which for the family workloads is every operation any
    seed can draw.  Refuses when an output fails its reference checks."""
    goldens = {}
    work = WORK / f"goldens-{os.getpid()}"
    home = Path.cwd()
    for workload in inputs.WORKLOADS:
        inp = inputs.build(workload, DEFAULT_SEED)
        shutil.rmtree(work, ignore_errors=True)
        inputs.write(inp, work)
        os.chdir(work)
        try:
            for argv in dict.fromkeys(inp.ops):
                _, outcome = run_op(argv)
                problems = checks.check(argv, inp.files, outcome, None)
                if problems:
                    print(f"not recording {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                goldens[checks.golden_key(argv, inp.files)] = outcome.digest()
        finally:
            os.chdir(home)
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {len(goldens)} goldens so far")
    checks.GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        inputs.write(inputs.build(args.workload, args.seed), Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
