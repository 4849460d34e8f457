import dataclasses
from fractions import Fraction

import pytest

from smallcuts.errors import ConstructionError, InvalidParameterError
from smallcuts.multigraph import MultiGraph
from smallcuts.tightgen import (
    GadgetParams,
    analytic_cores,
    detect_generated,
    expected_slice,
    generate_instance,
    infer_params,
)

from cores_reference import cores_bruteforce


def test_params_validation_names_the_inequality():
    with pytest.raises(InvalidParameterError, match="q >= 1"):
        GadgetParams(q=0, p=1, k=3)
    with pytest.raises(InvalidParameterError, match="p >= 1"):
        GadgetParams(q=1, p=0, k=3)
    with pytest.raises(InvalidParameterError, match="k >= 2pq\\+1 = 3"):
        GadgetParams(q=1, p=1, k=2)
    with pytest.raises(InvalidParameterError, match="k >= 2pq\\+1 = 5"):
        GadgetParams(q=1, p=2, k=4)
    with pytest.raises(InvalidParameterError, match="k >= 2pq\\+1 = 9"):
        GadgetParams(q=2, p=2, k=8)
    with pytest.raises(InvalidParameterError):
        GadgetParams(q=1, p=1, k=3, epsilon=0.01)  # float epsilon rejected
    with pytest.raises(InvalidParameterError):
        GadgetParams(q=1, p=1, k=3, epsilon=Fraction(-1, 2))


@pytest.mark.parametrize("q,p", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_k_bound_is_2pq_plus_1_at_every_p(q, p):
    bound = 2 * p * q + 1
    with pytest.raises(InvalidParameterError, match=f"k >= 2pq\\+1 = {bound}, got k={bound - 1}"):
        GadgetParams(q=q, p=p, k=bound - 1)
    assert GadgetParams(q=q, p=p, k=bound).k == bound


def test_single_gadget_q1_k3_exact_shape():
    lab = generate_instance(1, 1, 3)
    inst = lab.instance
    assert inst.n == 7
    assert inst.graph.labels == ("t", "a", "x", "y", "z", "b", "r")
    # q-1 = 0 so the tx and ar records are simply absent
    assert inst.graph.edges == (
        (0, 1, 2),
        (1, 2, 1),
        (2, 3, 2),
        (3, 4, 2),
        (4, 5, 1),
        (5, 6, 2),
    )
    assert lab.blue_links == (0, 1)
    assert lab.red_links == (2, 3, 4)
    assert [(ln.u, ln.v, ln.cost, ln.tag) for ln in inst.links] == [
        (0, 5, 1, "blue"),
        (6, 4, 2, "blue"),
        (0, 2, 2, "red"),
        (1, 3, 1, "red"),
        (3, 6, 2, "red"),
    ]
    assert sum(inst.links[i].cost for i in lab.red_links) == 5
    assert sum(inst.links[i].cost for i in lab.blue_links) == 3


def test_single_gadget_q2_k5():
    lab = generate_instance(2, 1, 5)
    g = lab.instance.graph
    assert g.multiplicity(0, 2) == 1  # tx now present
    assert g.multiplicity(1, 6) == 1  # ar now present
    from smallcuts.multigraph import Cut, cut_degree

    assert cut_degree(g, Cut.of([0, 1], 7)) == 3  # d(A) = 2q-1


def test_glued_1_2_5_shape():
    lab = generate_instance(1, 2, 5)
    inst = lab.instance
    assert inst.n == 11
    assert inst.graph.labels[:4] == ("t1", "a1", "x1", "y1")
    assert inst.graph.labels[8:] == ("z", "b", "r")
    assert len(inst.links) == 9
    assert lab.blue_links == (0, 1, 2)
    assert lab.red_links == (3, 4, 5, 6, 7, 8)
    assert sum(inst.links[i].cost for i in lab.red_links) == 10
    assert sum(inst.links[i].cost for i in lab.blue_links) == 4
    # shared axis multiplicities use the glued formulas
    assert inst.graph.multiplicity(8, 9) == 5 - 2 - 1  # zb = k-pq-1
    assert inst.graph.multiplicity(9, 10) == 5 - 2  # br = k-pq
    # no edges between the two gadget blocks
    for u, v, _ in inst.graph.edges:
        assert not (u < 4 <= v < 8) and not (v < 4 <= u < 8)


def test_glued_degree_spot_checks():
    g19 = generate_instance(1, 4, 9).instance.graph
    assert g19.n == 19
    assert g19.node_degree(18) == 5  # d(r) = k-p
    g29 = generate_instance(2, 2, 9).instance.graph
    assert g29.node_degree(9) == 9  # d(b) = 2k-2pq-1


def test_epsilon_variant_costs():
    lab = generate_instance(1, 2, 5, Fraction(1, 100))
    blue = [lab.instance.links[i] for i in lab.blue_links]
    assert [ln.cost for ln in blue] == [Fraction(101, 100), Fraction(101, 100), Fraction(201, 100)]
    assert all(lab.instance.links[i].cost in (1, 2) for i in lab.red_links)
    assert sum(ln.cost for ln in blue) == 4 + Fraction(3, 100)


def test_construction_validation_catches_bad_multiplicity():
    lab = generate_instance(1, 1, 3)
    from smallcuts.tightgen import _validate_construction

    bad_edges = [(u, v, m + (1 if (u, v) == (5, 6) else 0)) for u, v, m in lab.instance.graph.edges]
    bad_graph = MultiGraph(7, bad_edges, labels=lab.instance.graph.labels)
    bad_inst = dataclasses.replace(lab.instance, graph=bad_graph)
    bad = dataclasses.replace(lab, instance=bad_inst)
    with pytest.raises(ConstructionError, match="d\\(r\\)"):
        _validate_construction(bad)


@pytest.mark.parametrize("q,p,k", [(1, 1, 3), (2, 1, 5), (1, 2, 5), (1, 3, 7), (2, 2, 9)])
def test_analytic_cores_match_bruteforce(q, p, k):
    lab = generate_instance(q, p, k)
    assert analytic_cores(lab.params) == cores_bruteforce(lab.instance, ())


def test_expected_family_slices_counts():
    s1 = expected_slice(GadgetParams(q=1, p=1, k=3))
    assert len(s1) == 4
    assert {c.mask for c in s1} == {0b1, 0b11, 0b111, 0b1111}
    s2 = expected_slice(GadgetParams(q=1, p=2, k=5))
    assert len(s2) == 9
    assert any(c.mask == 0b11 | 0b11 << 4 for c in s2)  # A_1 u A_2
    p3 = GadgetParams(q=1, p=3, k=7)
    assert len(expected_slice(p3)) == 16
    assert len(analytic_cores(p3)) == 5


def test_infer_and_detect_roundtrip():
    for q, p, k, eps in [(1, 1, 3, 0), (1, 2, 5, 0), (2, 2, 9, 0), (1, 2, 5, Fraction(1, 100))]:
        lab = generate_instance(q, p, k, eps)
        params = infer_params(lab.instance)
        assert params == lab.params
        redetected = detect_generated(lab.instance)
        assert redetected is not None
        assert redetected.params == lab.params
        assert redetected.red_links == lab.red_links


def test_detect_rejects_foreign_and_mutated():
    g = MultiGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    from smallcuts.covering import Instance, Link

    foreign = Instance(graph=g, k=2, links=(Link(0, 3, 1),))
    assert detect_generated(foreign) is None

    lab = generate_instance(1, 2, 5)
    edges = [(u, v, m + (1 if (u, v) == (0, 1) else 0)) for u, v, m in lab.instance.graph.edges]
    mutated_graph = MultiGraph(11, edges, labels=lab.instance.graph.labels)
    mutated = dataclasses.replace(lab.instance, graph=mutated_graph)
    assert detect_generated(mutated) is None
