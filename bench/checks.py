"""Output checks for benchmark operations, run outside the timed region.

An operation is checked twice over:

* against its golden, when one exists: the exit code and SHA-256 digests of
  stdout and of the ``--trace`` file, recorded at a known-good commit
  (``goldens.json``, keyed by the argv with each input file replaced by the
  digest of its content);
* against the program's brute-force references, for any seed: a ``solve``
  result must be a minimal cover (checked by cut enumeration where the
  instance is within the enumeration bound), its dual feasible, and its
  cost within 5 times the dual; ``verify`` must pass every check and
  ``experiment`` must exit 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from smallcuts.covering import covers, covers_by_enumeration, enumeration_bound, is_minimal_cover
from smallcuts.multigraph import Cut
from smallcuts.serialize import instance_from_text
from smallcuts.wgmv import DualSolution, dual_feasible

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


@dataclass(frozen=True)
class Outcome:
    """What one operation produced."""

    rc: int
    stdout: str
    stderr: str
    trace: bytes | None
    error: str | None = None

    def digest(self) -> dict:
        return {
            "rc": self.rc,
            "stdout": _sha(self.stdout.encode()),
            "trace": _sha(self.trace) if self.trace is not None else None,
        }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_key(argv: Sequence[str], files: dict[str, str]) -> str:
    return json.dumps([f"sha256:{_sha(files[a].encode())}" if a in files else a for a in argv])


def load_goldens() -> dict[str, dict]:
    if not GOLDENS.exists():
        return {}
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def _check_solve(argv: Sequence[str], files: dict[str, str], out: Outcome) -> list[str]:
    inst = instance_from_text(files[argv[1]])
    if out.trace is None:
        return ["no trace file written"]
    trace = json.loads(out.trace)
    final = [inst.links[i] for i in trace["final"]]
    dual = DualSolution(
        {Cut.of([int(v) for v in key.split(",")], inst.n): Fraction(y) for key, y in trace["duals"].items()}
    )
    cost = sum((ln.cost for ln in final), Fraction(0))
    dual_obj = dual.objective()
    problems = []
    enumerable = inst.n <= enumeration_bound()
    if not (covers_by_enumeration(inst, final) if enumerable else covers(inst, final)):
        problems.append("final selection leaves a small cut uncovered")
    if not is_minimal_cover(inst, final):
        problems.append("final selection is not a minimal cover")
    if not dual_feasible(inst, dual):
        problems.append("dual is infeasible")
    if Fraction(trace["cost"]) != cost or Fraction(trace["dual_objective"]) != dual_obj:
        problems.append("trace cost or dual objective disagrees with its own sets")
    if cost > 5 * dual_obj:
        problems.append(f"cost {cost} exceeds 5 x dual {dual_obj}")
    if f"cost {cost}, dual {dual_obj}" not in out.stdout.splitlines():
        problems.append("stdout cost line disagrees with the trace")
    return problems


def check(argv: Sequence[str], files: dict[str, str], out: Outcome, golden: dict | None) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    if out.error is not None:
        return [out.error]
    problems = []
    if golden is not None and golden != out.digest():
        problems.append(f"output differs from golden {golden} != {out.digest()}")
    if out.rc != 0:
        problems.append(f"exit code {out.rc}: {out.stderr.strip()}")
    elif argv[0] == "solve":
        problems += _check_solve(argv, files, out)
    elif argv[0] == "verify" and not out.stdout.endswith("all checks passed\n"):
        problems.append("verify did not print 'all checks passed'")
    return problems
