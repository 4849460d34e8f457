"""Ground-truth machinery: exhaustive optima, lemma verifiers, gap runs.

The predictions (node sets, link indices, degree identities) come from
`tightgen`; every measurement is recomputed from the graph, so a build that
drifts from its own layout fails here.  Verifiers return reports that name
each check, so a regression points at the exact identity or cut that broke.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .covering import (
    Instance,
    _droppable_link,
    _fmt_cut,
    _uncovered_core,
    covers,
    link_crosses,
    minimal_cuts,
    violated_cuts,
)
from .errors import BoundExceededError, InfeasibleError, InvalidParameterError, VerificationError
from .multigraph import Cut, cut_degree
from .tightgen import (
    GadgetParams,
    LabeledInstance,
    a_union,
    analytic_cores,
    axis,
    c_set,
    degree_identities,
    degree_sums,
    expected_slice,
    generate_instance,
    unique_covers,
)
from .wgmv import RunResult, TiePolicy, cost_of, dual_feasible, run

DEFAULT_LINK_BOUND = 20


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifierReport:
    title: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class GapResult:
    params: GadgetParams
    alg_cost: Fraction
    opt_cost: Fraction
    opt_is_analytic: bool
    run: RunResult

    @property
    def ratio(self) -> Fraction:
        return self.alg_cost / self.opt_cost


def brute_force_optimum(inst: Instance) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum-cost cover by lexicographic branch-and-bound.

    Deterministic tie break: cheapest cost, then fewest links, then
    lexicographically smallest index tuple.  Costs are scaled once by the
    LCM of their denominators, so the search adds plain ints.  Sizes run in
    increasing order; once the sum of the `size` smallest costs cannot beat
    the incumbent, no larger subset can either, and the search stops.
    Within a size, combinations are walked depth first in lexicographic
    order, and a branch is cut when its cheapest completion is not strictly
    cheaper than the incumbent.  A node of `inst.below_k` is a small cut on
    its own that only a link at it covers, so a branch is also cut when its
    untouched such nodes outnumber what the links left to pick can touch:
    `most[j]`, the most of them any one of links j..m-1 touches, times the
    links left.  So `covers` is asked, in lexicographic order, about exactly
    the combinations that would beat the incumbent and touch every node
    below k: the full enumeration's questions minus those its degree screen
    answers False.  The first cover found wins ties.
    """
    links = inst.links
    m = len(links)
    if m > DEFAULT_LINK_BOUND:
        raise BoundExceededError(f"{m} links exceed the enumeration bound {DEFAULT_LINK_BOUND}")
    if covers(inst, []):
        return Fraction(0), ()
    if not covers(inst, links):
        raise InfeasibleError("no feasible cover exists: all links together leave a small cut")
    # a list, not a generator: *args of unknown length build a resized tuple
    scale = math.lcm(*[ln.cost.denominator for ln in links])
    costs = [ln.cost.numerator * (scale // ln.cost.denominator) for ln in links]
    # cheapest[i][r]: the sum of the r smallest costs among links i..m-1.
    cheapest = [[0, *itertools.accumulate(sorted(costs[i:]))] for i in range(m + 1)]
    # Every subset costs at most sum(costs), so this incumbent loses to any.
    best: tuple[int, tuple[int, ...]] = (sum(costs) + 1, ())
    low = inst.below_k
    ends = [(1 << ln.u | 1 << ln.v) & low for ln in links]  # the nodes below k each link touches
    most = [0] * (m + 1)  # most[j]: the most nodes below k any one of links j..m-1 touches
    for i in reversed(range(m)):
        most[i] = max(most[i + 1], ends[i].bit_count())
    for size in range(1, m + 1):
        if cheapest[0][size] >= best[0]:
            break
        best = _cheapest_cover_of_size(inst, costs, cheapest, ends, most, [], 0, low, size, best)
    cost, combo = best
    if not combo:
        raise VerificationError("feasible overall but no subset found; enumeration is broken")
    if not covers(inst, [links[i] for i in combo]):
        raise VerificationError(f"optimum {combo} does not cover the instance")
    return Fraction(cost, scale), combo


def _cheapest_cover_of_size(
    inst: Instance,
    costs: list[int],
    cheapest: list[list[int]],
    ends: list[int],
    most: list[int],
    chosen: list[int],
    cost: int,
    untouched: int,
    r: int,
    best: tuple[int, tuple[int, ...]],
) -> tuple[int, tuple[int, ...]]:
    """Extend `chosen` (costing `cost`, leaving the nodes below k in the
    mask `untouched` untouched) by r more increasing indices.

    Returns the incumbent after every extension strictly cheaper than it
    that touches every node below k has been checked, in lexicographic
    order.
    """
    start = chosen[-1] + 1 if chosen else 0
    for i in range(start, len(costs) - r + 1):
        if cost + cheapest[i][r] >= best[0]:
            break  # no extension from i onwards is cheap enough
        total = cost + costs[i]
        if total + cheapest[i + 1][r - 1] >= best[0]:
            continue
        left = untouched & ~ends[i]
        if left.bit_count() > most[i + 1] * (r - 1):
            continue  # each link still to pick touches at most most[i + 1] of them
        chosen.append(i)
        if r > 1:
            best = _cheapest_cover_of_size(inst, costs, cheapest, ends, most, chosen, total, left, r - 1, best)
        elif covers(inst, [inst.links[j] for j in chosen]):
            best = (total, tuple(chosen))
        chosen.pop()
    return best


def _fmt_cuts(cuts: Sequence[Cut], inst: Instance) -> str:
    return "[" + ", ".join(_fmt_cut(s, inst) for s in cuts) + "]"


def _row_checks(rows: list[tuple[str, int, int]]) -> list[Check]:
    return [Check(name, got == want, f"got {got}, want {want}") for name, got, want in rows]


def _non_membership_checks(labeled: LabeledInstance) -> list[Check]:
    """Degree facts the characterizations use to exclude cuts from the family."""
    params = labeled.params
    q, p, k = params.q, params.p, params.k
    g = labeled.instance.graph
    _, b, _ = axis(p)

    out = [Check("d(b) >= k", g.node_degree(b) >= k, f"d(b)={g.node_degree(b)}, k={k}")]
    out += _row_checks(degree_sums(labeled))
    bad = []
    for size in range(1, p + 1):
        for subset in itertools.combinations(range(p), size):
            d = cut_degree(g, a_union(params, subset))
            if d != size * (2 * q - 1) or d >= k:
                bad.append((subset, d))
    out.append(
        Check(
            "d(union of A_i over I) = |I|(2q-1) < k",
            not bad,
            "all unions pass" if not bad else f"failed at {bad[0]}",
        )
    )
    return out


def verify_cores_lemma(labeled: LabeledInstance) -> VerifierReport:
    """Check the core characterization against exhaustive enumeration.

    The predictions come from `labeled.params` and every measurement from
    `labeled.instance`, so a corrupted copy of a build fails by name.
    """
    params = labeled.params
    inst = labeled.instance
    checks = _row_checks(degree_identities(labeled))

    # enumerate first: past the node bound this raises before the 2^p predictions are built
    fr = violated_cuts(inst, ())
    got_cores = minimal_cuts(inst, fr)
    want_cores = analytic_cores(params)
    checks.append(
        Check(
            "cores of the empty selection",
            got_cores == want_cores,
            f"got {_fmt_cuts(got_cores, inst)}, want {_fmt_cuts(want_cores, inst)}",
        )
    )

    c_mask = c_set(params).mask
    got_slice = [s for s in fr if s.mask & c_mask != c_mask]
    want_slice = expected_slice(params)
    missing = [s for s in want_slice if s not in got_slice]
    extra = [s for s in got_slice if s not in want_slice]
    detail = f"{len(got_slice)} enumerated, {len(want_slice)} predicted"
    if missing:
        detail += f"; missing {_fmt_cuts(missing, inst)}"
    if extra:
        detail += f"; extra {_fmt_cuts(extra, inst)}"
    checks.append(Check("small cuts avoiding r and not containing C", not missing and not extra, detail))

    if params.p >= 2:
        union = a_union(params, (0, 1))
        checks.append(
            Check(
                "A_1 u A_2 appears in the enumerated family",
                any(s == union for s in fr),
                _fmt_cut(union, inst),
            )
        )
    checks += _non_membership_checks(labeled)
    title = f"cores lemma at q={params.q}, p={params.p}, k={params.k}"
    return VerifierReport(title, tuple(checks))


def verify_feasibility_lemma(labeled: LabeledInstance) -> VerifierReport:
    """Check minimal feasibility of both solutions and the uniqueness facts."""
    params = labeled.params
    inst = labeled.instance
    checks: list[Check] = []

    all_indices = sorted(labeled.red_links + labeled.blue_links)
    checks.append(
        Check(
            "red and blue partition the link set",
            all_indices == list(range(len(inst.links))),
            f"red {labeled.red_links}, blue {labeled.blue_links}",
        )
    )
    minimality = []
    for color, indices in (("red", labeled.red_links), ("blue", labeled.blue_links)):
        links = [inst.links[i] for i in indices]
        core = _uncovered_core(inst, links)
        detail = "" if core is None else f"leaves {_fmt_cut(Cut(core, inst.n), inst)} uncovered"
        checks.append(Check(f"{color} is feasible", core is None, detail))
        if core is not None:
            minimal, detail = False, "not a cover"
        else:
            drop = _droppable_link(inst, links)
            minimal = drop is None
            if not minimal:
                ends = _fmt_cut(Cut.of(links[drop].endpoints(), inst.n), inst)
                detail = f"link {indices[drop]} {ends} can be dropped"
        minimality.append(Check(f"{color} is inclusion-minimal", minimal, detail))
    checks += minimality

    pools = {"red": labeled.red_links, "blue": labeled.blue_links}
    for name, cut, color, expect, ends in unique_covers(params):
        crossing = [i for i in pools[color] if link_crosses(inst.links[i], cut)]
        ok = crossing == [expect]
        detail = f"crossing links {crossing}, expected [{expect}]"
        if ok and inst.links[expect].endpoints() != ends:
            ok = False
            detail += f", but link {expect} joins {_fmt_cut(Cut.of(inst.links[expect].endpoints(), inst.n), inst)}"
        checks.append(Check(name, ok, detail))
    title = f"feasibility lemma at q={params.q}, p={params.p}, k={params.k}"
    return VerifierReport(title, tuple(checks))


def gap_experiment(
    labeled: LabeledInstance,
    policy: TiePolicy | str = TiePolicy.ADVERSARIAL,
) -> GapResult:
    """Run the two-phase algorithm against the exact optimum.

    Phase 1 starts from the closed-form cores of `labeled.params`.  The
    optimum is enumerated by brute_force_optimum.  When that search refuses
    the instance as too large, the optimum is certified instead, and flagged
    as analytic: when the feasible dual's objective equals the cost of the
    blue links and they cover, weak duality makes that cost the optimum.
    Otherwise the search's BoundExceededError is raised again.
    """
    params = labeled.params
    inst = labeled.instance
    result = run(inst, policy=policy, first_cores=analytic_cores(params))
    alg_cost = cost_of(inst, result.final)
    dual_obj = result.dual.objective()
    if not dual_feasible(inst, result.dual):
        raise VerificationError("phase 1 produced an infeasible dual")
    try:
        opt_cost, _ = brute_force_optimum(inst)
        analytic = False
    except BoundExceededError as e:
        opt_cost = cost_of(inst, labeled.blue_links)
        if opt_cost != dual_obj or not covers(inst, [inst.links[i] for i in labeled.blue_links]):
            raise BoundExceededError(
                f"{e}, and the dual objective does not certify the blue links as an optimal cover"
            ) from None
        analytic = True
    if dual_obj > opt_cost:
        raise VerificationError(f"dual objective {dual_obj} exceeds the optimum {opt_cost}")
    if alg_cost > 5 * dual_obj:
        raise VerificationError(f"cost {alg_cost} exceeds 5 times the dual bound {dual_obj}")
    return GapResult(params=params, alg_cost=alg_cost, opt_cost=opt_cost, opt_is_analytic=analytic, run=result)


def gap_sweep(k_list: Sequence[int]) -> list[GapResult]:
    """The adversarial gap run per threshold, at q=1 and the largest
    admissible p, in the order given.

    p = floor((k-1)/2), so `tightgen.predicted_ratio` of each result's
    params is 5(k-1)/(k+3) at odd k and 5(k-2)/(k+2) at even k.
    """
    gaps = []
    for k in k_list:
        if k < 3:
            raise InvalidParameterError(f"the sweep requires k >= 3, got k={k}")
        gaps.append(gap_experiment(generate_instance(1, (k - 1) // 2, k), policy=TiePolicy.ADVERSARIAL))
    return gaps
