"""Mutation checks: each mutant breaks the package in one place, and the
tests named for it must then fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # only these, and the no-op

For each mutant the driver copies ``src/`` to a temporary directory,
replaces the mutant's exact old text by its new text in one file of the
copy, and runs ``python -m pytest -x -q`` on the mutant's tests against the
copy, one subprocess at a time, each with its address space capped at
``MEMORY_CAP``.  It exits 1 when a mutant survives (its tests pass), or
when a mutant's old text does not occur exactly once, so a refactor has to
re-anchor a mutant rather than lose it.

The no-op mutant changes nothing and runs every test the table names, so it
must survive.  If it is killed, a named test is missing or fails on the
unmutated package, and no kill below can be trusted; the run fails then too.
Once it survives, any nonzero pytest exit under a mutant is the mutant's
doing, a collection error included.  The file's name keeps pytest from
collecting it.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# A mutant's pytest may use this much address space, so a mutant that loops
# allocating dies with a MemoryError instead of filling a shared host.
MEMORY_CAP = 2 << 30


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/smallcuts
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root


# Under one slack mutant no link may reach zero slack, so a run never ends.
# This test bounds phase 1's `covers` calls and fails such a run; the other
# tests in tests/test_wgmv.py would loop with memory growing until the
# child's address-space cap (MEMORY_CAP) stops them with a MemoryError.
REPLAY = "tests/test_wgmv.py::test_every_phase1_iteration_replays_against_the_dual"
# It pins every mask's cut degree, so it kills each cut-walk mutant by itself.
WALK = "tests/test_covering.py::test_small_masks_returns_exactly_the_masks_below_each_k_on_random_graphs"

MUTANTS = (
    Mutant(
        "the family's k bound accepts k = 2pq",
        "tightgen.py",
        "if self.k < 2 * self.p * self.q + 1:",
        "if self.k < 2 * self.p * self.q:",
        ("tests/test_tightgen.py::test_k_bound_is_2pq_plus_1_at_every_p",),
    ),
    Mutant(
        "phase kernel ties to the largest row",
        "multigraph.py",
        "prev, last = last, weight.index(value)",
        "prev, last = last, len(weight) - 1 - weight[::-1].index(value)",
        ("tests/test_multigraph.py",),
    ),
    Mutant(
        "optimum search counts degree k as below k",
        "covering.py",
        "if d < self.k)",
        "if d <= self.k)",
        ("tests/test_covering.py", "tests/test_oracle.py"),
    ),
    Mutant(
        "uncovered core is the last phase below k, not the first",
        "covering.py",
        """    for value, rows in min_cut_phases(_weights(g, group, size)):
        if value < k:
            return sum(1 << v for v in range(n) if rows >> group[v] & 1)
    return None""",
        """    found = None
    for value, rows in min_cut_phases(_weights(g, group, size)):
        if value < k:
            found = sum(1 << v for v in range(n) if rows >> group[v] & 1)
    return found""",
        ("tests/test_covering.py",),
    ),
    Mutant(
        "covers drops the degree screen",
        "covering.py",
        "    if left:\n        return left & -left\n",
        "",
        ("tests/test_cli.py::test_verify_reads_the_colors_from_the_tags",),
    ),
    Mutant(
        "phase 1 never filters its violated-cut list",
        "wgmv.py",
        "link_crosses(links[i], s) for i in newly)]",
        "link_crosses(links[i], s) for i in ())]",
        ("tests/test_wgmv.py::test_phase1_lists_the_violated_cuts_once_per_run",),
    ),
    Mutant(
        "phase 1 filters its list by the first appended link only",
        "wgmv.py",
        "link_crosses(links[i], s) for i in newly)]",
        "link_crosses(links[i], s) for i in newly[:1])]",
        ("tests/test_wgmv.py::test_phase1_lists_the_violated_cuts_once_per_run",),
    ),
    Mutant(
        "optimum search's second prune lets ties through",
        "oracle.py",
        "total + cheapest[i + 1][r - 1] >= best[0]",
        "total + cheapest[i + 1][r - 1] > best[0]",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "optimum search never clears the chosen link's nodes",
        "oracle.py",
        "left = untouched & ~ends[i]",
        "left = untouched",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "optimum search clears one end of each link",
        "oracle.py",
        "(1 << ln.u | 1 << ln.v) & low",
        "(1 << ln.u) & low",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "optimum search lets a link clear one node",
        "oracle.py",
        "if left.bit_count() > most[i + 1] * (r - 1):",
        "if left.bit_count() > r - 1:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "optimum search cuts a branch one link late",
        "oracle.py",
        "if left.bit_count() > most[i + 1] * (r - 1):",
        "if left.bit_count() > most[i + 1] * r:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "optimum search's bound forgets later links",
        "oracle.py",
        "max(most[i + 1], ends[i].bit_count())",
        "ends[i].bit_count()",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "covers contracts the first link only",
        "covering.py",
        "_groups(n, ((ln.u, ln.v) for ln in sel))",
        "_groups(n, ((ln.u, ln.v) for ln in sel[:1]))",
        ("tests/test_covering.py",),
    ),
    Mutant(
        "_groups drops every union",
        "multigraph.py",
        "parent[_root(parent, u)] = _root(parent, v)",
        "_root(parent, v)",
        ("tests/test_multigraph.py",),
    ),
    Mutant(
        "MultiGraph counts each degree at one end",
        "multigraph.py",
        "degrees[u] += m\n            degrees[v] += m\n",
        "degrees[u] += m\n",
        ("tests/test_multigraph.py",),
    ),
    Mutant(
        "the cut walk subtracts each crossing edge once",
        "covering.py",
        "deg[v] - 2 * cross[v]",
        "deg[v] - cross[v]",
        (WALK,),
    ),
    Mutant(
        "the cut walk keeps the cuts of degree k",
        "covering.py",
        "if d < k:",
        "if d <= k:",
        (WALK,),
    ),
    Mutant(
        "each block of the cut walk stops one set short",
        "covering.py",
        "for j in range(1, 1 << b))",
        "for j in range(1, (1 << b) - 1))",
        (WALK,),
    ),
    Mutant(
        "the cut walk never marks a leaving row as out",
        "covering.py",
        "inside[v] = False",
        "inside[v] = True",
        (WALK,),
    ),
    Mutant(
        "a block of the cut walk skips its boundary step",
        "covering.py",
        "steps = (((base & -base).bit_length() - 1, 0), *table)",
        "steps = table",
        (WALK,),
    ),
    Mutant(
        "the cut walk adds a leaving row's multiplicities",
        "covering.py",
        "cross[u] -= x",
        "cross[u] += x",
        (WALK,),
    ),
    Mutant(
        "the cut walk's adjacency drops multiplicity-1 edges",
        "covering.py",
        "enumerate(row) if x]",
        "enumerate(row) if x > 1]",
        (WALK,),
    ),
    Mutant(
        "reverse delete walks forward",
        "wgmv.py",
        "for idx in reversed(list(added)):",
        "for idx in list(added):",
        ("tests/test_wgmv.py",),
    ),
    Mutant(
        "minimal_cuts skips the complements",
        "covering.py",
        "        family.add(s.mask)\n        family.add(s.mask ^ full)\n",
        "        family.add(s.mask)\n",
        ("tests/test_covering.py",),
    ),
    Mutant(
        "dual_feasible returns True",
        "wgmv.py",
        "return all(dual.load(ln) <= ln.cost for ln in inst.links)",
        "return True",
        ("tests/test_wgmv.py",),
    ),
    Mutant(
        "phase 1 appends a zero-cost link only once it crosses a core",
        "wgmv.py",
        "if left == 0), key=key)",
        "if left == 0 and crossings[i]), key=key)",
        ("tests/test_wgmv.py::test_zero_cost_link_crossing_no_core_is_appended_at_once",),
    ),
    Mutant(
        "phase 1 takes each raise off a slack once",
        "wgmv.py",
        "slack[i] -= delta * c",
        "slack[i] -= delta",
        (REPLAY,),
    ),
    Mutant(
        "phase 1 keeps appended links open",
        "wgmv.py",
        "        for i in newly:\n            del slack[i]\n",
        "",
        (REPLAY,),
    ),
    Mutant(
        "phase 1 raises by the least slack, not slack / c",
        "wgmv.py",
        "min(slack[i] / c for",
        "min(slack[i] for",
        (REPLAY,),
    ),
)

NO_OP = Mutant(
    "no-op",
    "wgmv.py",
    "def phase1(",
    "def phase1(",
    tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)),
)


def run_mutant(mutant: Mutant) -> tuple[str, float, str]:
    """Apply `mutant` to a fresh copy of src/ and run its tests: returns
    ("killed" | "survived" | an error, seconds, the end of pytest's output)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "smallcuts" / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return "stale", 0.0, f"old text found {count} times in {mutant.file}; re-anchor the mutant"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q",
            "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}",  # the copy, not the checkout's src/
            *mutant.tests,
        ]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=TIMEOUT_S, env=_env(), preexec_fn=_cap_memory,
            )
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, f"tests ran past {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    tail = "\n".join(proc.stdout.splitlines()[-5:])
    return ("killed" if proc.returncode else "survived"), seconds, tail


def _cap_memory() -> None:
    """Runs in the child between fork and exec, so the cap is the child's alone."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # nothing may shadow the mutated copy
    return env


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for mutant in (NO_OP, *chosen):
        verdict, seconds, tail = run_mutant(mutant)
        ok = verdict == ("survived" if mutant is NO_OP else "killed")
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {verdict:8} {seconds:6.1f}s  {mutant.name}", flush=True)
        if not ok:
            print(tail, flush=True)
    print(f"{len(chosen)} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
