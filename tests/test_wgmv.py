import ast
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import smallcuts

from smallcuts.covering import Instance, Link, covers, is_minimal_cover, link_crosses
from smallcuts.errors import InfeasibleError, InvalidParameterError, VerificationError
from smallcuts.multigraph import Cut, MultiGraph
from smallcuts.oracle import gap_experiment
from smallcuts.serialize import trace_to_obj
from smallcuts.tightgen import GadgetParams, analytic_cores, generate_instance
from smallcuts.wgmv import (
    DualSolution,
    TiePolicy,
    cost_of,
    dual_feasible,
    phase1,
    reverse_delete,
    run,
)

from cores_reference import cores_bruteforce

GADGET_EDGES = [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 2), (4, 5, 1), (5, 6, 2)]
LABELS = ["t", "a", "x", "y", "z", "b", "r"]


def gadget_instance(eps=Fraction(0)) -> Instance:
    g = MultiGraph(7, GADGET_EDGES, labels=LABELS)
    links = (
        Link(0, 5, 1 + eps, tag="blue"),
        Link(6, 4, 2 + eps, tag="blue"),
        Link(0, 2, 2, tag="red"),
        Link(1, 3, 1, tag="red"),
        Link(3, 6, 2, tag="red"),
    )
    return Instance(graph=g, k=3, links=links)


def test_phase1_gadget_single_iteration():
    inst = gadget_instance()
    added, dual, records = phase1(inst)
    assert len(records) == 1
    rec = records[0]
    assert rec.delta == 1
    assert [s.nodes() for s in rec.active_cores] == [(0,), (2, 3, 4), (6,)]
    assert sorted(rec.newly_tight) == [0, 1, 2, 3, 4]
    assert dual.objective() == 3
    assert dual.entries == {
        Cut.of([0], 7): Fraction(1),
        Cut.of([2, 3, 4], 7): Fraction(1),
        Cut.of([6], 7): Fraction(1),
    }


def test_append_order_per_policy():
    inst = gadget_instance()
    orders = {
        TiePolicy.ADVERSARIAL: (2, 3, 4, 0, 1),
        TiePolicy.HELPFUL: (0, 1, 2, 3, 4),
        TiePolicy.INPUT_ORDER: (0, 1, 2, 3, 4),
        TiePolicy.COST_ASCENDING: (0, 3, 1, 2, 4),
    }
    for policy, want in orders.items():
        added, _, _ = phase1(inst, policy=policy)
        assert tuple(added) == want, policy


def test_policy_given_by_name_runs_that_policy():
    labeled = generate_instance(1, 2, 5)
    inst = labeled.instance
    for policy in TiePolicy:
        by_name = run(inst, policy=policy.value)
        assert by_name == run(inst, policy=policy) and by_name.policy is policy
        assert trace_to_obj(by_name, inst)["policy"] == policy.value
    assert run(inst, policy="cost-ascending").added == (0, 1, 4, 7, 2, 3, 5, 6, 8)
    assert gap_experiment(labeled, policy="helpful").run.policy is TiePolicy.HELPFUL
    for call in (phase1, run):
        with pytest.raises(InvalidParameterError, match="unknown tie policy 'bogus'"):
            call(inst, policy="bogus")


def test_reverse_delete_order_decides_survivor():
    inst = gadget_instance()
    final, deleted = reverse_delete(inst, (2, 3, 4, 0, 1))
    assert final == [2, 3, 4]
    assert deleted == [1, 0]
    final, deleted = reverse_delete(inst, (0, 1, 2, 3, 4))
    assert final == [0, 1]
    assert deleted == [4, 3, 2]


def test_run_adversarial_vs_helpful():
    inst = gadget_instance()
    adv = run(inst, policy=TiePolicy.ADVERSARIAL)
    assert adv.final == (2, 3, 4)
    assert cost_of(inst, adv.final) == 5
    hlp = run(inst, policy=TiePolicy.HELPFUL)
    assert hlp.final == (0, 1)
    assert cost_of(inst, hlp.final) == 3
    for res in (adv, hlp):
        sel = [inst.links[i] for i in res.final]
        assert covers(inst, sel)
        assert is_minimal_cover(inst, sel)
        assert dual_feasible(inst, res.dual)
        assert res.dual.objective() == 3


def test_perturbed_blue_never_selected():
    inst = gadget_instance(eps=Fraction(1, 100))
    for policy in TiePolicy:
        res = run(inst, policy=policy)
        assert set(res.added) == {2, 3, 4}
        assert set(res.final) == {2, 3, 4}
        for rec in res.iterations:
            assert all(inst.links[i].tag != "blue" for i in rec.newly_tight)


def test_phase1_infeasible():
    inst = gadget_instance()
    crippled = Instance(graph=inst.graph, k=3, links=(inst.links[0],))
    with pytest.raises(InfeasibleError):
        phase1(crippled)


def test_phase1_rejects_empty_first_cores():
    with pytest.raises(VerificationError, match="there are no cores"):
        phase1(gadget_instance(), first_cores=())


def test_phase1_rejects_empty_first_cores_under_optimize():
    # the invariant must hold without asserts, which python -O strips
    code = """
from smallcuts.covering import Instance, Link
from smallcuts.errors import VerificationError
from smallcuts.multigraph import MultiGraph
from smallcuts.wgmv import phase1

try:
    phase1(Instance(graph=MultiGraph(2, []), k=1, links=(Link(0, 1, 1),)), first_cores=())
except VerificationError:
    raise SystemExit(0)
"""
    src = str(Path(smallcuts.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_no_assert_statements_in_package():
    # python -O strips asserts, so every invariant in the package must raise
    package = Path(smallcuts.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_zero_cost_link_tight_at_delta_zero():
    g = MultiGraph(2, [(0, 1, 1)])
    inst = Instance(graph=g, k=2, links=(Link(0, 1, 0),))
    added, dual, records = phase1(inst)
    assert added == [0]
    assert records[0].delta == 0
    assert dual.objective() == 0
    res = run(inst)
    assert res.final == (0,)
    assert cost_of(inst, res.final) == 0


def test_zero_cost_link_crossing_no_core_is_appended_at_once():
    # cores {0} and {3}; link 0 joins them, link 1 = (1,2) crosses neither and costs 0
    g = MultiGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
    inst = Instance(graph=g, k=2, links=(Link(0, 3, 1), Link(1, 2, 0)))
    added, dual, records = phase1(inst)
    assert [(r.active_cores, r.delta, r.newly_tight) for r in records] == [
        ((Cut.of([0], 4), Cut.of([3], 4)), Fraction(1, 2), (0, 1))
    ]
    assert added == [0, 1]
    res = run(inst)
    assert (res.deleted, res.final) == ((1,), (0,))


def test_cost_of():
    inst = gadget_instance()
    assert cost_of(inst, (0, 1)) == 3
    assert cost_of(inst, ()) == 0
    assert isinstance(cost_of(inst, (3,)), Fraction)


def test_dual_feasible_checks():
    inst = gadget_instance()
    good = DualSolution({Cut.of([0], 7): Fraction(1)})
    assert dual_feasible(inst, good)
    assert good.objective() == 1
    negative = DualSolution({Cut.of([0], 7): Fraction(-1)})
    assert not dual_feasible(inst, negative)
    overloaded = DualSolution({Cut.of([0], 7): Fraction(5)})
    assert not dual_feasible(inst, overloaded)
    not_small = DualSolution({Cut.of([1], 7): Fraction(1)})
    with pytest.raises(VerificationError):
        dual_feasible(inst, not_small)


def test_dual_load():
    inst = gadget_instance()
    dual = DualSolution({Cut.of([0], 7): Fraction(2), Cut.of([6], 7): Fraction(1, 2)})
    # tb crosses {t} only; yr crosses {r} only; ay crosses neither
    assert dual.load(inst.links[0]) == 2
    assert dual.load(inst.links[4]) == Fraction(1, 2)
    assert dual.load(inst.links[3]) == 0


def test_random_instances_respect_weak_duality_and_bound():
    rng = random.Random(55441)
    policies = list(TiePolicy)
    for _ in range(60):
        n = rng.randint(2, 6)
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.6:
                edges.append((u, v, rng.randint(1, 4)))
        g = MultiGraph(n, edges)
        links = tuple(
            Link(u, v, rng.randint(0, 4)) for u, v in itertools.combinations(range(n), 2)
        )
        inst = Instance(graph=g, k=rng.randint(1, 5), links=links)
        res = run(inst, policy=rng.choice(policies))
        sel = [inst.links[i] for i in res.final]
        assert covers(inst, sel)
        assert is_minimal_cover(inst, sel)
        assert dual_feasible(inst, res.dual)
        assert cost_of(inst, res.final) <= 5 * res.dual.objective()
        # phase 2 only ever removes, in reverse order, what phase 1 added
        assert set(res.final) | set(res.deleted) == set(res.added)
        assert [i for i in res.added if i in res.final] == list(res.final)


@pytest.mark.parametrize("q,p,k", [(1, 1, 3), (2, 1, 5), (1, 2, 5), (1, 3, 7), (2, 2, 9)])
@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 100)])
def test_first_cores_run_equals_enumerated_run(q, p, k, eps):
    lab = generate_instance(q, p, k, eps)
    first = analytic_cores(lab.params)
    for policy in TiePolicy:
        assert run(lab.instance, policy, first_cores=first) == run(lab.instance, policy), policy


def test_phase1_rejects_bad_first_cores():
    lab = generate_instance(1, 2, 5)
    inst = lab.instance
    cores = analytic_cores(lab.params)
    a1 = Cut.of([1], inst.n)  # d(a_1) = k
    with pytest.raises(VerificationError, match="not a small cut"):
        phase1(inst, first_cores=[*cores, a1])
    t1, a_set = Cut.of([0], inst.n), Cut.of([0, 1], inst.n)  # both small, they share t_1
    with pytest.raises(VerificationError, match="overlaps"):
        phase1(inst, first_cores=[t1, a_set])
    with pytest.raises(InvalidParameterError, match="cut over 7 nodes"):
        phase1(inst, first_cores=analytic_cores(GadgetParams(q=1, p=1, k=3)))


def _enumerations(monkeypatch) -> list[int]:
    """Counts phase 1's calls of `violated_cuts`, one entry per call."""
    calls: list[int] = []
    original = smallcuts.wgmv.violated_cuts

    def counted(inst, selected):
        calls.append(1)
        return original(inst, selected)

    monkeypatch.setattr(smallcuts.wgmv, "violated_cuts", counted)
    return calls


def _assert_cores_are_the_reference(inst: Instance, added: list[int], records) -> None:
    """Each iteration's cores are the minimal cuts the links appended
    before it leave uncovered."""
    before = 0
    for index, rec in enumerate(records, 1):
        chosen = [inst.links[i] for i in added[:before]]
        assert list(rec.active_cores) == cores_bruteforce(inst, chosen), index
        before += len(rec.newly_tight)
    assert before == len(added)


def _feasible_random_instance(rng: random.Random, n: int) -> Instance:
    """Sparse edges and links with small integer costs, so most runs take
    several iterations and several links often go tight together; a link
    path makes it feasible."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(u, v, rng.randint(1, 3)) for u, v in pairs if rng.random() < 0.3]
    extra = rng.sample(pairs, rng.randint(0, len(pairs) // 2))
    links = [Link(v, v + 1, rng.randint(1, 6)) for v in range(n - 1)]
    links += [Link(u, v, rng.randint(1, 6)) for u, v in extra]
    rng.shuffle(links)
    return Instance(graph=MultiGraph(n, edges), k=rng.randint(2, 6), links=tuple(links))


def test_phase1_lists_the_violated_cuts_once_per_run(monkeypatch):
    """Phase 1 enumerates once and filters the list by each iteration's new
    links; every iteration's cores must still be `cores_bruteforce` of the
    selection so far."""
    calls = _enumerations(monkeypatch)
    rng = random.Random(16016)
    filtered_by_several = 0  # runs whose list is filtered by two or more new links at once
    for _ in range(300):
        inst = _feasible_random_instance(rng, rng.randint(3, 12))
        for policy in TiePolicy:
            calls.clear()
            added, dual, records = phase1(inst, policy)
            _assert_cores_are_the_reference(inst, added, records)
            assert len(calls) == (1 if records else 0)
            filtered_by_several += any(len(rec.newly_tight) > 1 for rec in records[:-1])
            # supplied first cores: the list is made at the second iteration
            calls.clear()
            first = cores_bruteforce(inst)
            assert phase1(inst, policy, first_cores=first) == (added, dual, records)
            assert len(calls) == (1 if len(records) > 1 else 0)
    assert filtered_by_several > 300


@pytest.mark.parametrize("p", [1, 2, 3])
def test_family_run_with_first_cores_never_enumerates(monkeypatch, p):
    """The analytic cores cover the family member in one iteration, so
    phase 1 never lists the violated cuts."""
    calls = _enumerations(monkeypatch)
    for k in range(2 * p + 1, 2 * p + 4):
        for eps in (Fraction(0), Fraction(1, 100)):
            lab = generate_instance(1, p, k, eps)
            for policy in TiePolicy:
                added, _, records = phase1(lab.instance, policy, first_cores=analytic_cores(lab.params))
                _assert_cores_are_the_reference(lab.instance, added, records)
                assert len(records) == 1
    assert calls == []


_POLICY_RANKS = {
    TiePolicy.ADVERSARIAL: {"red": 0, None: 1, "blue": 2},
    TiePolicy.HELPFUL: {"blue": 0, None: 1, "red": 2},
}


def _policy_order(inst: Instance, policy: TiePolicy, indices) -> list[int]:
    """`indices` in the order `policy` appends links that go tight together."""
    if policy is TiePolicy.COST_ASCENDING:
        return sorted(indices, key=lambda i: (inst.links[i].cost, i))
    ranks = _POLICY_RANKS.get(policy)
    if ranks is None:
        return sorted(indices)
    return sorted(indices, key=lambda i: (ranks[inst.links[i].tag], i))


def test_every_phase1_iteration_replays_against_the_dual(monkeypatch):
    """Replays each run from its records with loads summed afresh: every
    delta is the least (cost - load) / c over the open links crossing c > 0
    cores, every tight set is the open links that reach their cost, in the
    policy's order, and the dual is the sum of the raises."""
    # every iteration appends a link, so a run asks `covers` at most once per
    # link and once more; failing past that stops a run that never ends
    asked: list[int] = []
    original = smallcuts.wgmv.covers

    def bounded(inst, selected):
        asked.append(1)
        assert len(asked) <= len(inst.links) + 1, "a phase-1 iteration appended no link"
        return original(inst, selected)

    monkeypatch.setattr(smallcuts.wgmv, "covers", bounded)
    rng = random.Random(17017)
    costs = [Fraction(c, 2) for c in range(5)]
    feasible = several = zero_cost = 0  # minimizers crossing two or more cores; zero-cost links
    while feasible < 300:
        n = rng.randint(3, 10)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [(u, v, rng.randint(1, 3)) for u, v in pairs if rng.random() < 0.35]
        links = tuple(
            Link(u, v, rng.choice(costs), tag=rng.choice((None, "red", "blue")))
            for u, v in rng.sample(pairs, rng.randint(1, min(len(pairs), 2 * n)))
        )
        inst = Instance(graph=MultiGraph(n, edges), k=rng.randint(1, 4), links=links)
        if not covers(inst, links):
            continue
        feasible += 1
        zero_cost += sum(1 for ln in links if ln.cost == 0)
        for policy in TiePolicy:
            asked.clear()
            added, dual, records = phase1(inst, policy)
            load = [Fraction(0)] * len(links)
            appended: list[int] = []
            for index, rec in enumerate(records, 1):
                open_ = [i for i in range(len(links)) if i not in appended]
                c = {i: sum(1 for s in rec.active_cores if link_crosses(links[i], s)) for i in open_}
                ratios = {i: (links[i].cost - load[i]) / c[i] for i in open_ if c[i] > 0}
                assert rec.delta == min(ratios.values()), index
                several += any(c[i] > 1 and ratios[i] == rec.delta for i in ratios)
                for i in open_:
                    load[i] += rec.delta * c[i]
                tight = [i for i in open_ if load[i] == links[i].cost]
                assert list(rec.newly_tight) == _policy_order(inst, policy, tight), index
                appended += rec.newly_tight
            assert added == appended
            raised = {}
            for rec in records:
                for s in rec.active_cores:
                    raised[s] = raised.get(s, Fraction(0)) + rec.delta
            assert dual.entries == raised
    assert several >= 50
    assert zero_cost >= 20
