"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py`; the terminal summary ends with
one `[PASS] criterion N: ...` (or `[FAIL]`) line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from smallcuts.covering import (
    Instance,
    Link,
    covers,
    covers_by_enumeration,
    is_minimal_cover,
    violated_cuts,
)
from smallcuts.multigraph import Cut, MultiGraph, cut_degree
from smallcuts.oracle import brute_force_optimum, gap_experiment, gap_sweep
from smallcuts.tightgen import analytic_cores, expected_slice, generate_instance
from smallcuts.wgmv import TiePolicy, cost_of, dual_feasible, run

from cores_reference import cores_bruteforce


def criterion(num, desc):
    return pytest.mark.criterion(num, desc)


DEGREE_TRIPLES = [(1, 1, 3), (2, 1, 5), (1, 2, 5), (1, 3, 7), (2, 2, 9), (1, 4, 9)]
LEMMA_TRIPLES = [(1, 1, 3), (1, 2, 5), (1, 3, 7)]


@criterion(1, "quoted degree identities hold exactly on all six parameter triples")
def test_criterion_01_degree_fidelity():
    start = time.monotonic()
    for q, p, k in DEGREE_TRIPLES:
        g = generate_instance(q, p, k).instance.graph
        n = g.n
        z, b, r = 4 * p, 4 * p + 1, 4 * p + 2
        assert g.node_degree(r) == k - p  # k-1 when p=1
        assert g.node_degree(b) == 2 * k - 2 * p * q - 1
        c_nodes = [z]
        for i in range(p):
            t, a, x, y = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
            assert g.node_degree(t) == k - 1
            assert g.node_degree(x) == k
            assert g.node_degree(y) == 2 * k - 2 * q
            assert cut_degree(g, Cut.of([t, a], n)) == 2 * q - 1
            assert cut_degree(g, Cut.of([t, a, x], n)) == k - 1
            assert cut_degree(g, Cut.of([t, a, x, y], n)) == k - 1
            c_nodes += [x, y]
        assert cut_degree(g, Cut.of(c_nodes, n)) == k - 1
        if p == 1:
            assert g.node_degree(z) == 2 * k - 2 * q - 1
    assert time.monotonic() - start < 1.0


@criterion(2, "cores and the family slice match enumeration, with all 2^p-1 union cuts")
def test_criterion_02_cores_lemma():
    start = time.monotonic()
    for q, p, k in LEMMA_TRIPLES:
        lab = generate_instance(q, p, k)
        inst = lab.instance
        params = lab.params
        assert cores_bruteforce(inst, ()) == analytic_cores(params)

        c_mask = 1 << (4 * p)
        for i in range(p):
            c_mask |= 0b11 << (4 * i + 2)
        enumerated = violated_cuts(inst, ())
        got = {s.mask for s in enumerated if s.mask & c_mask != c_mask}
        assert got == {s.mask for s in expected_slice(params)}
        union_masks = set()
        for size in range(1, p + 1):
            for subset in itertools.combinations(range(p), size):
                m = 0
                for i in subset:
                    m |= 0b11 << (4 * i)
                union_masks.add(m)
        assert len(union_masks) == 2**p - 1
        assert union_masks <= got
    assert time.monotonic() - start < 10.0


@criterion(3, "red and blue are minimal feasible and every uniqueness witness holds")
def test_criterion_03_feasibility_lemma():
    from smallcuts.covering import link_crosses

    start = time.monotonic()
    for q, p, k in LEMMA_TRIPLES:
        lab = generate_instance(q, p, k)
        inst = lab.instance
        n = inst.n
        red = [inst.links[i] for i in lab.red_links]
        blue = [inst.links[i] for i in lab.blue_links]
        assert covers(inst, red) and is_minimal_cover(inst, red)
        assert covers(inst, blue) and is_minimal_cover(inst, blue)
        r = 4 * p + 2
        for i in range(p):
            t = 4 * i
            t_cut = Cut.of([t], n)
            x_cut = Cut.of([t, t + 1, t + 2], n)
            y_cut = Cut.of([t, t + 1, t + 2, t + 3], n)
            red_idx = list(lab.red_links)
            assert [j for j in red_idx if link_crosses(inst.links[j], t_cut)] == [p + 1 + 3 * i]
            assert [j for j in red_idx if link_crosses(inst.links[j], x_cut)] == [p + 2 + 3 * i]
            assert [j for j in red_idx if link_crosses(inst.links[j], y_cut)] == [p + 3 + 3 * i]
            blue_idx = list(lab.blue_links)
            assert [j for j in blue_idx if link_crosses(inst.links[j], t_cut)] == [i]
        r_cut = Cut.of([r], n)
        assert [j for j in lab.blue_links if link_crosses(inst.links[j], r_cut)] == [p]
    assert time.monotonic() - start < 10.0


@criterion(4, "adversarial runs cost exactly 5p against enumerated optimum p+2")
def test_criterion_04_gap_exact():
    expected_ratios = {2: Fraction(5, 2), 3: Fraction(3), 4: Fraction(10, 3)}
    for p in (2, 3, 4):
        k = 2 * p + 1
        start = time.monotonic()
        res = gap_experiment(generate_instance(1, p, k), TiePolicy.ADVERSARIAL)
        elapsed = time.monotonic() - start
        assert res.alg_cost == 5 * p
        assert res.opt_cost == p + 2
        assert not res.opt_is_analytic, "optimum must come from enumeration here"
        assert res.ratio == Fraction(5 * p, p + 2) == expected_ratios[p]
        if p == 4:
            assert elapsed < 60.0


@criterion(5, "duals are 1 on exactly the p+2 cores, feasible, and equal to opt")
def test_criterion_05_dual_certificate():
    for p in (2, 3, 4):
        k = 2 * p + 1
        lab = generate_instance(1, p, k)
        res = gap_experiment(lab, TiePolicy.ADVERSARIAL)
        inst = lab.instance
        entries = res.run.dual.entries
        assert entries == {s: Fraction(1) for s in analytic_cores(lab.params)}
        assert len(entries) == p + 2
        assert dual_feasible(inst, res.run.dual)
        assert res.dual_obj == p + 2 == res.opt_cost


@criterion(6, "perturbed variant never tightens blue and outputs red under all policies")
def test_criterion_06_epsilon_variant():
    lab = generate_instance(1, 2, 5, Fraction(1, 100))
    inst = lab.instance
    for policy in TiePolicy:
        res = run(inst, policy=policy)
        for rec in res.iterations:
            assert all(inst.links[i].tag != "blue" for i in rec.newly_tight)
        assert set(res.final) == set(lab.red_links)


@criterion(7, "helpful ordering on the exact instance returns blue at ratio 1")
def test_criterion_07_policy_sensitivity():
    res = gap_experiment(generate_instance(1, 2, 5), TiePolicy.HELPFUL)
    assert set(res.run.final) == {0, 1, 2}
    assert res.alg_cost == 4
    assert res.ratio == 1


@criterion(8, "sweep ratios equal the odd and even closed forms exactly")
def test_criterion_08_gap_formula_sweep():
    rows = {row.k: row for row in gap_sweep([5, 6, 7, 8, 9, 10, 11])}
    for k in (5, 7, 9, 11):
        assert rows[k].ratio == Fraction(5 * (k - 1), k + 3)
        assert rows[k].matches
    for k in (6, 8, 10):
        assert rows[k].ratio == Fraction(5 * (k - 2), k + 2)
        assert rows[k].matches
    for row in rows.values():
        assert row.p == (row.k - 1) // 2


@criterion(9, "500 random complete-link instances: feasible, minimal, certified")
def test_criterion_09_property_suite():
    start = time.monotonic()
    rng = random.Random(190523)
    cost_pool = [0, 1, 1, 2, 2, 3, 5, Fraction(1, 2), Fraction(5, 2)]
    policies = list(TiePolicy)
    violations = 0
    for trial in range(500):
        n = rng.randint(3, 5)
        edges = [
            (u, v, rng.randint(0, 5))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.7
        ]
        g = MultiGraph(n, edges)
        links = tuple(
            Link(u, v, rng.choice(cost_pool)) for u, v in itertools.combinations(range(n), 2)
        )
        inst = Instance(graph=g, k=rng.randint(1, 6), links=links)
        res = run(inst, policy=policies[trial % len(policies)])
        sel = [inst.links[i] for i in res.final]
        opt, _ = brute_force_optimum(inst)
        ok = (
            covers(inst, sel)
            and is_minimal_cover(inst, sel)
            and dual_feasible(inst, res.dual)
            and res.dual.objective() <= opt
            and cost_of(inst, res.final) <= 5 * res.dual.objective()
        )
        if not ok:
            violations += 1
    assert violations == 0
    assert time.monotonic() - start < 120.0


@criterion(10, "coverage oracles agree on 1000 pairs; core oracles agree up to p=4")
def test_criterion_10_oracle_equivalence():
    rng = random.Random(777001)
    for _ in range(1000):
        n = rng.randint(2, 10)
        edges = [
            (u, v, rng.randint(1, 4))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        g = MultiGraph(n, edges)
        links = tuple(
            Link(u, v, rng.randint(0, 3))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        )
        inst = Instance(graph=g, k=rng.randint(1, 6), links=links)
        subset = [ln for ln in links if rng.random() < 0.5]
        assert covers(inst, subset) == covers_by_enumeration(inst, subset)

    for q, p, k in [(1, 1, 3), (2, 1, 5), (3, 1, 7), (1, 2, 5), (2, 2, 9), (1, 3, 7), (2, 3, 13), (1, 4, 9)]:
        lab = generate_instance(q, p, k)
        assert cores_bruteforce(lab.instance, ()) == analytic_cores(lab.params)
