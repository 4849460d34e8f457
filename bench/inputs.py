"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload name and the seed.  The
program under test only ever receives the argument lists and JSON files
built here; it never sees the seed.

Why each workload exists, and which layer it isolates:

* ``solve_random``: ``solve FILE --policy P`` on random instances.  They
  are not of the generated family, so the brute-force core oracle
  enumerates every cut in every phase-1 iteration: the cut-degree table and
  the violated-cut filter dominate.
* ``verify_family``: ``verify --q 1 --p 4 --k K --epsilon E``, the command
  that checks the paper (n = 19, 17 links).  The full cut table is built
  twice and the exact optimum is searched once, so a shared or faster
  table shows here, but an output-sensitive core oracle cannot.
* ``sweep_family``: ``experiment --k 5 .. 12``.  The analytic core oracle
  means nothing is enumerated; the time goes to the Fraction-heavy optimum
  search and to thousands of small ``covers`` min cuts.
* ``solve_family_large``: ``solve FILE --policy P`` on the generated family
  with p = 16 (n = 67, 65 links).  Stoer-Wagner dominates, over a few large
  calls, so a min-cut change that helps ``sweep_family`` and costs this one
  (or the reverse) shows.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from smallcuts.cli import main as cli_main
from smallcuts.covering import covers
from smallcuts.serialize import instance_from_obj

WORKLOADS = ("solve_random", "verify_family", "sweep_family", "solve_family_large")
POLICIES = ("adversarial", "helpful", "input-order", "cost-ascending")
TRACE_FILE = "trace.json"

# solve_random.  One brute-force enumeration takes about 0.02 s at n = 15
# and doubles per node, and an operation enumerates once per phase-1
# iteration, so its time takes a few discrete values: (1-4 iterations) x
# 2^n.  Seven of every ten operations are at n = 15 and one each at 16, 17
# and 18.  The median operation is then an n = 15 solve with 3 iterations,
# a class holding roughly the 30th to the 66th percentile, so the median
# does not jump between classes from seed to seed; the larger sizes still
# take two thirds of the time.
RANDOM_PASS = (15,) * 7 + (16, 17, 18)
# 140 distinct instances, more than one run gets through, so the measured
# rate averages over many instances rather than a few repeated ones.
RANDOM_PASSES = 14
# Ring edges give every node degree >= 2, chords of multiplicity 1-2 lift
# most cuts above k = 5, so a handful of cuts stay small and phase 1 runs a
# few iterations (1-6) rather than one or dozens.
RANDOM_K = 5
# Exactly 4 nodes below degree k: phase 1 then starts from 4 singleton
# cores, which narrows the spread of iteration counts (and so of operation
# times) between instances of one size, so runs on different seeds agree.
RANDOM_LOW_DEGREE_NODES = 4
# 3n links: enough that almost every draw is feasible, few enough that the
# dual raising in phase 1 still has to choose between links.
RANDOM_LINKS_PER_NODE = 3
# Costs a/b with b in {1, 2, 3} keep phase 1 in genuine Fraction arithmetic
# (non-unit denominators in every increment) with small numbers.
RANDOM_COST_NUMERATORS = range(1, 7)
RANDOM_COST_DENOMINATORS = (1, 2, 3)

# verify_family: p = 4 is the largest family member whose 17 links the exact
# optimum search accepts (bound 20).  K and E change the numbers in the
# report but not the amount of work, so the seed only shuffles the combos.
VERIFY_KS = (9, 10, 11)
VERIFY_EPSILONS = ("0", "1/100", "1/20", "1/2")

SWEEP_KS = tuple(str(k) for k in range(5, 13))

# solve_family_large: p = 16 (n = 67) keeps one operation near one second.
# Only epsilon = 0: a surcharge halves the phase-1 work, and mixing both
# would put the median operation on the boundary between two classes.
LARGE_P = 16
LARGE_KS = (33, 34, 35)

# Closed-loop ops listed per seed; the loop cycles when a run gets further.
OPS_REPEATS = 4


@dataclass(frozen=True)
class Inputs:
    """What one workload run needs: files to write, then argv lists to run."""

    files: dict[str, str]
    ops: tuple[tuple[str, ...], ...]


def _text(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sorted_pair(rng: random.Random, n: int) -> tuple[int, int]:
    u, v = rng.sample(range(n), 2)
    return (u, v) if u < v else (v, u)


def random_instance(rng: random.Random, n: int) -> dict:
    """A ring plus n chords, k = 5 and 3n links, as an instance document.

    Draws again until exactly RANDOM_LOW_DEGREE_NODES nodes have degree
    below k (so phase 1 runs at least one iteration) and all links together
    cover every small cut (so no operation fails as infeasible).
    """
    while True:
        edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)): rng.randint(1, 2) for i in range(n)}
        while len(edges) < 2 * n:
            edges.setdefault(_sorted_pair(rng, n), rng.randint(1, 2))
        degree = [0] * n
        for (u, v), m in edges.items():
            degree[u] += m
            degree[v] += m
        if sum(d < RANDOM_K for d in degree) != RANDOM_LOW_DEGREE_NODES:
            continue
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < RANDOM_LINKS_PER_NODE * n:
            pairs.add(_sorted_pair(rng, n))
        links = []
        for u, v in sorted(pairs):
            cost = Fraction(rng.choice(RANDOM_COST_NUMERATORS), rng.choice(RANDOM_COST_DENOMINATORS))
            links.append({"u": u, "v": v, "cost": f"{cost.numerator}/{cost.denominator}", "tag": None})
        obj = {
            "k": RANDOM_K,
            "nodes": [{"id": v, "label": str(v)} for v in range(n)],
            "edges": [{"u": u, "v": v, "mult": m} for (u, v), m in sorted(edges.items())],
            "links": links,
        }
        inst = instance_from_obj(obj)
        if covers(inst, inst.links):
            return obj


def _shuffled_rounds(rng: random.Random, combos: list) -> list:
    out = []
    for _ in range(OPS_REPEATS):
        round_ = list(combos)
        rng.shuffle(round_)
        out += round_
    return out


def _generated_family(p: int, k: int) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["generate", "--q", "1", "--p", str(p), "--k", str(k)])
    if rc != 0:
        raise RuntimeError(f"generate --p {p} --k {k} exited {rc}")
    return buf.getvalue()


def build(workload: str, seed: int) -> Inputs:
    """The files and operations of `workload` for `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    files: dict[str, str] = {}
    ops: list[tuple[str, ...]] = []
    if workload == "solve_random":
        for i, n in enumerate(RANDOM_PASS * RANDOM_PASSES):
            path = f"in/r{i:03d}.json"
            files[path] = _text(random_instance(rng, n))
            ops.append(("solve", path, "--policy", POLICIES[i % len(POLICIES)], "--trace", TRACE_FILE))
    elif workload == "verify_family":
        combos = [(k, e) for k in VERIFY_KS for e in VERIFY_EPSILONS]
        for k, e in _shuffled_rounds(rng, combos):
            ops.append(("verify", "--q", "1", "--p", "4", "--k", str(k), "--epsilon", e))
    elif workload == "sweep_family":
        ops.append(("experiment", "--k", *SWEEP_KS))
    elif workload == "solve_family_large":
        combos = [(k, policy) for k in LARGE_KS for policy in POLICIES]
        for k, policy in _shuffled_rounds(rng, combos):
            path = f"in/family_p{LARGE_P}_k{k}.json"
            if path not in files:
                files[path] = _generated_family(LARGE_P, k)
            ops.append(("solve", path, "--policy", policy, "--trace", TRACE_FILE))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(files=files, ops=tuple(ops))


def write(inputs: Inputs, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for rel, text in inputs.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
