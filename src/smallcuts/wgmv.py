"""Two-phase primal-dual cover construction with exact rational duals.

Phase 1 grows a dual solution: each iteration raises y_S uniformly on the
active cores (the inclusion-minimal uncovered small cuts), by the largest
increment that keeps every link's slack (its cost minus the duals of the
cuts it crosses) nonnegative, then appends every link whose slack hit zero.
Phase 2 walks the appended links in exact reverse order and drops each one
whose removal keeps the selection feasible.

The order tight links are appended within one iteration is the only freedom
in the procedure; a TiePolicy pins it down, and on instances built to be
adversarial it is what separates the cheap cover from the expensive one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .covering import Instance, Link, _fmt_cut, covers, link_crosses, minimal_cuts, violated_cuts
from .errors import InfeasibleError, InvalidParameterError, VerificationError
from .multigraph import Cut, cut_degree


class TiePolicy(str, enum.Enum):
    """How to order links that go tight in the same iteration.

    Appending later means being considered earlier in reverse delete.
    ADVERSARIAL appends blue-tagged links last so they are deleted first;
    HELPFUL is the mirror image; INPUT_ORDER and COST_ASCENDING ignore tags.
    """

    ADVERSARIAL = "adversarial"
    HELPFUL = "helpful"
    INPUT_ORDER = "input-order"
    COST_ASCENDING = "cost-ascending"

    @classmethod
    def _missing_(cls, value: object) -> "TiePolicy":
        raise InvalidParameterError(f"unknown tie policy {value!r}")


_TAG_RANKS = {
    TiePolicy.ADVERSARIAL: {"red": 0, None: 1, "blue": 2},
    TiePolicy.HELPFUL: {"blue": 0, None: 1, "red": 2},
}


def _append_key(policy: TiePolicy, links: Sequence[Link]) -> Callable[[int], object]:
    if policy is TiePolicy.COST_ASCENDING:
        return lambda i: (links[i].cost, i)
    ranks = _TAG_RANKS.get(policy)
    if ranks is None:
        return lambda i: i
    return lambda i: (ranks[links[i].tag], i)


@dataclass(frozen=True)
class DualSolution:
    """Dual variables keyed by cut, all exact Fractions."""

    entries: dict[Cut, Fraction] = field(default_factory=dict)

    def objective(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def load(self, link: Link) -> Fraction:
        """Total dual weight of cuts this link crosses."""
        return sum(
            (y for s, y in self.entries.items() if link_crosses(link, s)),
            Fraction(0),
        )


@dataclass(frozen=True)
class IterationRecord:
    active_cores: tuple[Cut, ...]
    delta: Fraction
    newly_tight: tuple[int, ...]


@dataclass(frozen=True)
class RunResult:
    """Everything both phases produced, enough to replay or audit the run."""

    policy: TiePolicy
    added: tuple[int, ...]
    iterations: tuple[IterationRecord, ...]
    dual: DualSolution
    deleted: tuple[int, ...]
    final: tuple[int, ...]


def cost_of(inst: Instance, indices: Sequence[int]) -> Fraction:
    return sum((inst.links[i].cost for i in indices), Fraction(0))


def phase1(
    inst: Instance,
    policy: TiePolicy | str = TiePolicy.INPUT_ORDER,
    first_cores: Sequence[Cut] | None = None,
) -> tuple[list[int], DualSolution, list[IterationRecord]]:
    """Grow duals until the appended links cover every small cut.

    Returns (added link indices in append order, dual solution, iteration
    records).  Raises InfeasibleError when some core is crossed by no
    remaining link and so can never be covered.

    An iteration raises the cores by the least slack / c over the links not
    yet appended that cross c > 0 of them, then appends in the policy's order
    every link at zero slack, a zero-cost one even if it crosses no core.

    Cores are the minimal cuts of the violated-cut list.  The first
    iteration that needs it enumerates that list once; each later iteration
    keeps the listed cuts that no newly appended link crosses, which are
    exactly the cuts the grown selection leaves uncovered, in the same
    order.  `first_cores`, when given, are taken as the cores of the empty
    selection, which only the first iteration sees.  Each must be a small
    cut and no two may overlap; otherwise VerificationError.
    """
    policy = TiePolicy(policy)
    if first_cores is not None:
        first_cores = list(first_cores)
        for i, s in enumerate(first_cores):
            if cut_degree(inst.graph, s) >= inst.k:
                raise VerificationError(f"supplied core {s} is not a small cut")
            if any(s.mask & t.mask for t in first_cores[:i]):
                raise VerificationError(f"supplied core {s} overlaps an earlier one")
    links = inst.links
    key = _append_key(policy, links)
    added: list[int] = []
    slack = {i: ln.cost for i, ln in enumerate(links)}  # of the links not yet appended
    y: dict[Cut, Fraction] = {}
    records: list[IterationRecord] = []
    listed: list[Cut] | None = None  # violated cuts of the current selection
    # The exact min-cut test decides termination, so cores are only looked
    # for while violated cuts exist: a run that starts from supplied first
    # cores and is covered after one iteration never enumerates.
    while not covers(inst, [links[i] for i in added]):
        if not records and first_cores is not None:
            cores = first_cores
        else:
            if listed is None:
                listed = violated_cuts(inst, [links[i] for i in added])
            cores = minimal_cuts(inst, listed)
        if not cores:
            raise VerificationError("coverage test found a violated cut but there are no cores")
        crossings = {i: sum(1 for s in cores if link_crosses(links[i], s)) for i in slack}
        for s in cores:
            if not any(link_crosses(links[i], s) for i in slack):
                raise InfeasibleError(
                    f"small cut {_fmt_cut(s, inst)} is crossed by no available link; no feasible cover exists"
                )
        delta = min(slack[i] / c for i, c in crossings.items() if c > 0)
        if delta < 0:
            raise VerificationError("dual increment went negative, loads exceeded costs earlier")
        for s in cores:
            y[s] = y.get(s, Fraction(0)) + delta
        for i, c in crossings.items():
            slack[i] -= delta * c
            if slack[i] < 0:
                raise VerificationError("dual load exceeded cost, increment was too large")
        newly = sorted((i for i, left in slack.items() if left == 0), key=key)
        for i in newly:
            del slack[i]
        added += newly
        if listed is not None:
            listed = [s for s in listed if not any(link_crosses(links[i], s) for i in newly)]
        records.append(IterationRecord(active_cores=tuple(cores), delta=delta, newly_tight=tuple(newly)))
    return added, DualSolution(dict(y)), records


def reverse_delete(inst: Instance, added: Sequence[int]) -> tuple[list[int], list[int]]:
    """Drop links in exact reverse append order when removal stays feasible.

    Returns (kept indices in original append order, deleted indices in the
    order they were removed).
    """
    kept = list(added)
    deleted: list[int] = []
    for idx in reversed(list(added)):
        trial = [j for j in kept if j != idx]
        if covers(inst, [inst.links[j] for j in trial]):
            kept = trial
            deleted.append(idx)
    return kept, deleted


def run(
    inst: Instance,
    policy: TiePolicy | str = TiePolicy.INPUT_ORDER,
    first_cores: Sequence[Cut] | None = None,
) -> RunResult:
    """Both phases end to end; the result's final set is a minimal cover."""
    policy = TiePolicy(policy)
    added, dual, records = phase1(inst, policy=policy, first_cores=first_cores)
    final, deleted = reverse_delete(inst, added)
    if not covers(inst, [inst.links[i] for i in final]):
        raise VerificationError("reverse delete left a selection that is not a cover")
    return RunResult(
        policy=policy,
        added=tuple(added),
        iterations=tuple(records),
        dual=dual,
        deleted=tuple(deleted),
        final=tuple(final),
    )


def dual_feasible(inst: Instance, dual: DualSolution) -> bool:
    """Check the dual: supported on small cuts, nonnegative, within costs.

    A dual supported on a non-small cut is malformed rather than merely
    infeasible, so that raises; negative values or an overloaded link
    return False.
    """
    for s in dual.entries:
        if cut_degree(inst.graph, s) >= inst.k:
            raise VerificationError(f"dual is supported on {s}, which is not a small cut")
    if any(v < 0 for v in dual.entries.values()):
        return False
    return all(dual.load(ln) <= ln.cost for ln in inst.links)
