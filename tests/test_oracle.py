import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from smallcuts import oracle
from smallcuts.covering import Instance, Link, covers, covers_by_enumeration
from smallcuts.errors import BoundExceededError, InfeasibleError, VerificationError
from smallcuts.multigraph import MultiGraph
from smallcuts.oracle import (
    brute_force_optimum,
    gap_experiment,
    gap_sweep,
    verify_cores_lemma,
    verify_feasibility_lemma,
)
from smallcuts.tightgen import generate_instance
from smallcuts.wgmv import TiePolicy


def test_optimum_single_gadget():
    cost, witness = brute_force_optimum(generate_instance(1, 1, 3).instance)
    assert cost == 3
    assert witness == (0, 1)


def test_optimum_glued_is_blue():
    cost, witness = brute_force_optimum(generate_instance(1, 2, 5).instance)
    assert cost == 4
    assert witness == (0, 1, 2)


def test_optimum_trivial_when_already_connected():
    g = MultiGraph(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    inst = Instance(graph=g, k=3, links=(Link(0, 2, 5),))
    assert brute_force_optimum(inst) == (Fraction(0), ())


def test_optimum_infeasible():
    g = MultiGraph(3, [(0, 1, 1), (1, 2, 1)])
    inst = Instance(graph=g, k=3, links=(Link(0, 1, 1),))
    with pytest.raises(InfeasibleError):
        brute_force_optimum(inst)


def test_optimum_link_bound():
    inst = generate_instance(1, 5, 11).instance
    assert len(inst.links) == 21
    with pytest.raises(BoundExceededError, match="21 links exceed the enumeration bound 20"):
        brute_force_optimum(inst)
    twenty = Instance(graph=MultiGraph(2, [(0, 1, 1)]), k=1, links=(Link(0, 1, 1),) * 20)
    assert brute_force_optimum(twenty) == (Fraction(0), ())


def test_optimum_deterministic_tiebreak():
    g = MultiGraph(2, [(0, 1, 1)])
    inst = Instance(graph=g, k=2, links=(Link(0, 1, 1), Link(0, 1, 1), Link(0, 1, 2)))
    cost, witness = brute_force_optimum(inst)
    assert cost == 1
    assert witness == (0,)


def _naive_optimum(inst: Instance):
    """Blind scan over all subsets using the enumeration route for coverage,
    keeping (cost, popcount, lex) order by construction of the scan."""
    m = len(inst.links)
    best = None
    for size in range(0, m + 1):
        for combo in itertools.combinations(range(m), size):
            if not covers_by_enumeration(inst, [inst.links[i] for i in combo]):
                continue
            cost = sum((inst.links[i].cost for i in combo), Fraction(0))
            if best is None or cost < best[0]:
                best = (cost, combo)
    return best


def test_optimum_matches_naive_on_random_instances():
    rng = random.Random(424242)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        edges = [
            (u, v, rng.randint(1, 3))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.6
        ]
        links = tuple(
            Link(u, v, rng.randint(0, 3))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.6
        )
        inst = Instance(graph=MultiGraph(n, edges), k=rng.randint(1, 4), links=links)
        naive = _naive_optimum(inst)
        if naive is None:
            with pytest.raises(InfeasibleError):
                brute_force_optimum(inst)
            continue
        got = brute_force_optimum(inst)
        assert got == naive
        checked += 1
    assert checked >= 20


def _enumerated_optimum(inst: Instance, covers):
    """The subset enumerator with Fraction sums that the branch-and-bound
    search replaced, kept as the reference for its result and its calls."""
    links = inst.links
    m = len(links)
    if covers(inst, []):
        return Fraction(0), ()
    if not covers(inst, links):
        raise InfeasibleError("no feasible cover exists: all links together leave a small cut")
    prefix = [Fraction(0)] + list(itertools.accumulate(sorted(ln.cost for ln in links)))
    best = None
    for size in range(1, m + 1):
        if best is not None and prefix[size] >= best[0]:
            break
        for combo in itertools.combinations(range(m), size):
            cost = sum((links[i].cost for i in combo), Fraction(0))
            if best is not None and cost >= best[0]:
                continue
            if covers(inst, [links[i] for i in combo]):
                best = (cost, combo)
    if best is None:
        raise VerificationError("feasible overall but no subset found; enumeration is broken")
    cost, combo = best
    if not covers(inst, [links[i] for i in combo]):
        raise VerificationError(f"optimum {combo} does not cover the instance")
    return cost, combo


_GATE_COSTS = tuple(
    Fraction(c) for c in ("0", "0", "1", "1", "2", "3", "1/2", "1/3", "5/6", "7/4", "3/10", "11/7")
)


def _gate_instance(rng: random.Random) -> Instance:
    """A small instance whose links include a spanning tree, so it is feasible,
    with costs of mixed denominators, zeros and repeated values."""
    n = rng.randint(3, 8)
    edges = [
        (u, v, rng.randint(1, 2)) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4
    ]
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 14 - len(pairs)))]
    rng.shuffle(pairs)
    links = tuple(Link(u, v, rng.choice(_GATE_COSTS)) for u, v in pairs)
    return Instance(graph=MultiGraph(n, edges), k=rng.randint(2, 5), links=links)


def _touches_every_node_below_k(inst: Instance, selection) -> bool:
    """False exactly when `covers`' degree screen answers the selection:
    some node of degree below k is an endpoint of no selected link."""
    touched = {v for ln in selection for v in (ln.u, ln.v)}
    g = inst.graph
    return all(v in touched for v in range(g.n) if g.node_degree(v) < inst.k)


def _fixed_gate_instances() -> list[Instance]:
    # n = 1: no link fits, and the empty selection already covers
    one = Instance(graph=MultiGraph(1, []), k=3, links=())
    # node 4 is isolated, so every cover holds one of the three links at it
    g = MultiGraph(5, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 1)])
    costs = ("1", "1/2", "2", "1/3", "1", "3/4", "1/2", "1")
    pairs = ((0, 4), (1, 2), (4, 2), (0, 2), (1, 3), (3, 4), (0, 1), (2, 3))
    isolated = Instance(graph=g, k=4, links=tuple(Link(u, v, c) for (u, v), c in zip(pairs, costs)))
    return [one, isolated]


def test_optimum_matches_enumerator_and_its_covers_calls(monkeypatch):
    """The search asks `covers` the reference enumerator's questions, in
    order, minus exactly those its degree screen answers False; the first
    two calls (none and all links) and the final check are asked as-is."""
    rng = random.Random(20251018)
    calls: list[tuple[Link, ...]] = []

    def recording_covers(inst, selected):
        calls.append(tuple(selected))
        return covers(inst, selected)

    monkeypatch.setattr(oracle, "covers", recording_covers)
    nontrivial = enumerated = asked = 0
    instances = _fixed_gate_instances() + [_gate_instance(rng) for _ in range(300)]
    for inst in instances:
        want = _enumerated_optimum(inst, recording_covers)
        want_calls = calls[:]
        calls.clear()
        if len(want_calls) > 1:
            search = want_calls[2:-1]
            kept = [sel for sel in search if _touches_every_node_below_k(inst, sel)]
            want_calls[2:-1] = kept
            enumerated += len(search)
            asked += len(kept)
        got = brute_force_optimum(inst)
        assert got == want
        assert type(got[0]) is Fraction
        assert calls == want_calls
        calls.clear()
        nontrivial += len(want[1]) >= 2
    assert nontrivial >= 200
    assert asked * 5 < enumerated  # the screen answers most of the enumeration


@pytest.mark.parametrize(
    "epsilon,optimum,calls",
    [(0, (6, (0, 1, 2, 3, 4)), 20), (Fraction(1, 100), (Fraction(151, 25), (0, 1, 2, 3, 7)), 107)],
)
def test_optimum_search_bounds_a_branch_by_the_most_any_later_link_touches(monkeypatch, epsilon, optimum, calls):
    """At p = 4 a link touches at most one node below k, not two, so each
    link still to pick clears one of them: a constant bound of two per link
    makes 308 and 626 searches here."""
    count = 0
    search = oracle._cheapest_cover_of_size

    def counting_search(*args):
        nonlocal count
        count += 1
        return search(*args)

    monkeypatch.setattr(oracle, "_cheapest_cover_of_size", counting_search)
    inst = generate_instance(1, 4, 9, epsilon).instance
    assert brute_force_optimum(inst) == optimum
    assert count == calls


@pytest.mark.parametrize("q,p,k", [(1, 1, 3), (1, 2, 5), (2, 2, 9)])
def test_cores_lemma_verifier_passes(q, p, k):
    report = verify_cores_lemma(generate_instance(q, p, k))
    assert report.passed, report.failures()


def test_cores_lemma_verifier_hits_the_node_bound_before_predicting(monkeypatch):
    # the 2^p - 1 predicted unions must not be built for a family that cannot be enumerated
    def predict(params):
        raise AssertionError("predictions built before the enumeration bound was checked")

    monkeypatch.delenv("SCC_ENUM_BOUND", raising=False)
    for name in ("analytic_cores", "c_set", "expected_slice"):
        monkeypatch.setattr(oracle, name, predict)
    with pytest.raises(BoundExceededError, match="23 nodes"):
        verify_cores_lemma(generate_instance(1, 5, 11))


def test_cores_lemma_verifier_catches_br_mutation():
    lab = generate_instance(1, 2, 5)
    edges = [(u, v, m + (1 if (u, v) == (9, 10) else 0)) for u, v, m in lab.instance.graph.edges]
    graph = MultiGraph(11, edges, labels=lab.instance.graph.labels)
    mutated = dataclasses.replace(lab, instance=dataclasses.replace(lab.instance, graph=graph))
    report = verify_cores_lemma(mutated)
    assert not report.passed
    names = {c.name for c in report.failures()}
    assert "d(r) = k-p" in names
    assert "d(b) = 2k-2pq-1" in names


def test_mutation_sensitivity_every_sampled_edge():
    lab = generate_instance(1, 2, 5)
    base = lab.instance.graph.edges
    sampled = [(0, 1), (2, 3), (8, 9), (9, 10), (3, 8)]
    for target in sampled:
        for delta in (+1, -1):
            mult = dict(((u, v), m) for u, v, m in base)[target]
            if mult + delta < 0:
                continue
            edges = [
                (u, v, m + (delta if (u, v) == target else 0)) for u, v, m in base
            ]
            graph = MultiGraph(11, edges, labels=lab.instance.graph.labels)
            mutated = dataclasses.replace(
                lab, instance=dataclasses.replace(lab.instance, graph=graph)
            )
            report = verify_cores_lemma(mutated)
            assert not report.passed, (target, delta)


@pytest.mark.parametrize("q,p,k", [(1, 1, 3), (1, 2, 5), (2, 2, 9)])
def test_feasibility_lemma_verifier_passes(q, p, k):
    report = verify_feasibility_lemma(generate_instance(q, p, k))
    assert report.passed, report.failures()


def test_red_without_yr_leaves_y_cut_uncovered():
    from smallcuts.covering import covers, violated_cuts
    from smallcuts.multigraph import Cut

    lab = generate_instance(1, 2, 5)
    inst = lab.instance
    red = [inst.links[i] for i in lab.red_links]
    short = [ln for ln in red if (ln.u, ln.v) != (3, 10)]  # drop y_1 r
    assert len(short) == len(red) - 1
    assert not covers(inst, short)
    leftovers = violated_cuts(inst, short)
    assert Cut.of([0, 1, 2, 3], 11) in leftovers  # Y_1


def test_gap_experiment_values():
    adv = gap_experiment(generate_instance(1, 2, 5), TiePolicy.ADVERSARIAL)
    assert (adv.alg_cost, adv.opt_cost, adv.dual_obj) == (10, 4, 4)
    assert adv.ratio == Fraction(5, 2)
    assert not adv.opt_is_analytic
    hlp = gap_experiment(generate_instance(1, 2, 5), TiePolicy.HELPFUL)
    assert hlp.ratio == 1
    assert hlp.alg_cost == 4
    three = gap_experiment(generate_instance(1, 3, 7), TiePolicy.ADVERSARIAL)
    assert three.ratio == 3


def test_gap_experiment_at_p_32():
    """n = 131: reverse delete's coverage tests run past enumeration."""
    res = gap_experiment(generate_instance(1, 32, 65))
    assert res.ratio == Fraction(80, 17)
    assert res.opt_is_analytic


def test_gap_experiment_past_the_link_bound_needs_a_certificate():
    """Above 20 links the optimum is the dual objective only when it equals
    the cost of a blue cover; otherwise the experiment refuses."""
    lab = generate_instance(1, 5, 11)
    res = gap_experiment(lab)
    assert (res.opt_cost, res.dual_obj, res.opt_is_analytic) == (7, 7, True)
    swap = {"red": "blue", "blue": "red"}
    links = tuple([dataclasses.replace(ln, tag=swap[ln.tag]) for ln in lab.instance.links])
    swapped = dataclasses.replace(lab, instance=dataclasses.replace(lab.instance, links=links))
    assert swapped.blue_links == lab.red_links
    with pytest.raises(BoundExceededError, match="does not certify"):
        gap_experiment(swapped)
    with pytest.raises(BoundExceededError, match="does not certify"):
        gap_experiment(generate_instance(1, 5, 11, "1/100"))


def test_gap_experiment_perturbed_optimum_is_exact():
    res = gap_experiment(generate_instance(1, 2, 5, Fraction(1, 100)), TiePolicy.HELPFUL)
    # cheapest perturbed cover swaps rz out for a single y_i r link
    assert res.opt_cost == 4 + Fraction(2, 100)
    assert res.alg_cost == 10


def test_gap_sweep_rows():
    rows = gap_sweep([5, 6, 9, 11])
    by_k = {row.k: row for row in rows}
    assert by_k[5].ratio == Fraction(5, 2) and by_k[5].p == 2
    assert by_k[6].ratio == Fraction(5, 2)
    assert by_k[9].ratio == Fraction(10, 3) and by_k[9].p == 4
    assert by_k[11].ratio == Fraction(25, 7) and by_k[11].opt_is_analytic
    assert all(row.matches for row in rows)
    assert not by_k[9].opt_is_analytic


def test_gap_sweep_even_odd_formulas():
    for k in (5, 7, 9, 11):
        (row,) = gap_sweep([k])
        assert row.formula_value == Fraction(5 * (k - 1), k + 3)
    for k in (6, 8, 10):
        (row,) = gap_sweep([k])
        assert row.formula_value == Fraction(5 * (k - 2), k + 2)


def test_generated_optimum_is_p_plus_2():
    for q, p, k in [(1, 1, 3), (2, 1, 5), (1, 2, 5), (1, 3, 7), (2, 2, 9)]:
        inst = generate_instance(q, p, k).instance
        cost, witness = brute_force_optimum(inst)
        assert cost == p + 2
        assert witness == tuple(range(p + 1))  # the blue links
