import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcuts.errors import InvalidParameterError
from smallcuts.multigraph import Cut, MultiGraph, cut_degree, global_min_cut, min_cut_phases

# 7-node instance used as a fixed reference throughout: the q=1, k=3 build.
# Edge list written out by hand so these tests do not depend on the generator.
GADGET_EDGES = [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 2), (4, 5, 1), (5, 6, 2)]
GADGET_N = 7


def gadget() -> MultiGraph:
    return MultiGraph(GADGET_N, GADGET_EDGES, labels=["t", "a", "x", "y", "z", "b", "r"])


def test_cut_rejects_degenerate_masks():
    with pytest.raises(InvalidParameterError):
        Cut(0, 4)
    with pytest.raises(InvalidParameterError):
        Cut(0b1111, 4)
    with pytest.raises(InvalidParameterError):
        Cut(1, 1)
    with pytest.raises(InvalidParameterError, match="must be integers"):
        Cut(True, 3)
    with pytest.raises(InvalidParameterError, match="must be integers"):
        Cut(5, 3.0)
    with pytest.raises(InvalidParameterError, match="must be integers"):
        Cut.of([True], 3)


def test_cut_of_roundtrip():
    s = Cut.of([0, 2, 5], 7)
    assert s.nodes() == (0, 2, 5)
    assert s.size() == 3
    assert s.contains(2) and not s.contains(1)
    assert s.complement().nodes() == (1, 3, 4, 6)
    assert s.complement().complement() == s


def test_cut_of_range_check():
    with pytest.raises(InvalidParameterError):
        Cut.of([7], 7)
    with pytest.raises(InvalidParameterError):
        Cut.of([-1], 7)


def test_multigraph_folds_parallel_records():
    g = MultiGraph(3, [(0, 1, 2), (1, 0, 3), (1, 2, 1)])
    assert g.edges == ((0, 1, 5), (1, 2, 1))
    assert g.multiplicity(0, 1) == 5
    assert g.multiplicity(1, 0) == 5


def test_multigraph_drops_zero_keeps_order_rejects_bad():
    g = MultiGraph(4, [(2, 3, 0), (0, 1, 1)])
    assert g.edges == ((0, 1, 1),)
    with pytest.raises(InvalidParameterError):
        MultiGraph(3, [(0, 0, 1)])
    with pytest.raises(InvalidParameterError):
        MultiGraph(3, [(0, 1, -1)])
    with pytest.raises(InvalidParameterError):
        MultiGraph(3, [(0, 3, 1)])
    with pytest.raises(InvalidParameterError):
        MultiGraph(0, [])
    with pytest.raises(InvalidParameterError):
        MultiGraph(3, [], labels=["a"])


@pytest.mark.parametrize("edge", [(0, 1, 1.5), (0, 1, True), (0.0, 1, 1), (False, 1, 1)])
def test_multigraph_rejects_non_integer(edge):
    with pytest.raises(InvalidParameterError, match="must be integers"):
        MultiGraph(3, [edge])


@pytest.mark.parametrize("n", [True, 2.5])
def test_multigraph_rejects_non_integer_node_count(n):
    with pytest.raises(InvalidParameterError, match="node count must be an integer"):
        MultiGraph(n, [])


def test_labels():
    g = gadget()
    assert g.label_of(0) == "t"
    unlabeled = MultiGraph(2, [(0, 1, 1)])
    assert unlabeled.label_of(1) == "1"
    assert unlabeled.labels == ("0", "1")


@pytest.mark.parametrize("labels", [[1, 2], ["a", None], ("a", b"b")])
def test_multigraph_rejects_non_string_labels(labels):
    # such a graph could be written but not read back, or printed as dot
    with pytest.raises(InvalidParameterError, match="label must be a string"):
        MultiGraph(2, [(0, 1, 1)], labels=labels)


def test_gadget_degrees():
    g = gadget()
    # k=3, q=1: d(t)=k-1, d(a)=k, d(x)=k, d(y)=2k-2q, d(z)=d(b)=2k-2q-1, d(r)=k-1
    assert [g.node_degree(v) for v in range(7)] == [2, 3, 3, 4, 3, 3, 2]
    assert sum(m for _, _, m in g.edges) == 10


def test_gadget_cut_degrees():
    g = gadget()
    assert cut_degree(g, Cut.of([0], 7)) == 2
    assert cut_degree(g, Cut.of([0, 1], 7)) == 1
    assert cut_degree(g, Cut.of([0, 1, 2], 7)) == 2
    assert cut_degree(g, Cut.of([0, 1, 2, 3], 7)) == 2
    assert cut_degree(g, Cut.of([2, 3, 4], 7)) == 2


def test_cut_degree_ambient_mismatch():
    with pytest.raises(InvalidParameterError):
        cut_degree(gadget(), Cut.of([0], 5))


def test_delta_edges_sum_matches():
    # the crossing edge records, picked out by endpoint, sum to cut_degree
    g = gadget()
    for nodes in ([0], [0, 1], [2, 3, 4], [1, 5]):
        s = Cut.of(nodes, 7)
        crossing = [m for u, v, m in g.edges if (u in nodes) != (v in nodes)]
        assert sum(crossing) == cut_degree(g, s)


def test_global_min_cut_two_nodes():
    g = MultiGraph(2, [(0, 1, 4)])
    value, witness = global_min_cut(g)
    assert value == 4
    assert witness.contains(0)


def test_global_min_cut_disconnected():
    cases = [
        (4, [(0, 1, 2), (2, 3, 5)], (0, 1)),
        (6, [(0, 3, 1), (1, 4, 2), (2, 5, 1)], (0, 3)),
        (5, [(1, 2, 1), (3, 4, 2)], (0,)),
        (7, [(4, 6, 1), (0, 6, 3), (2, 3, 1), (1, 5, 2)], (0, 4, 6)),
    ]
    for n, edges, component in cases:
        value, witness = global_min_cut(MultiGraph(n, edges))
        assert value == 0
        assert witness.nodes() == component


def test_global_min_cut_single_node_rejected():
    with pytest.raises(InvalidParameterError):
        global_min_cut(MultiGraph(1, []))


def test_gadget_min_cut_value_and_attainment():
    # The minimum is 1; it is attained by {t,a} among others, so the
    # contract is value plus a witness attaining it, not a unique witness.
    g = gadget()
    value, witness = global_min_cut(g)
    assert value == 1
    assert cut_degree(g, witness) == 1
    assert witness.contains(0)


def _enum_min_cut(g: MultiGraph) -> int:
    best = None
    for mask in range(1, (1 << g.n) - 1):
        d = cut_degree(g, Cut(mask, g.n))
        if best is None or d < best:
            best = d
    return best


def test_min_cut_matches_enumeration_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(2, 8)
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.55:
                edges.append((u, v, rng.randint(1, 5)))
        g = MultiGraph(n, edges)
        value, witness = global_min_cut(g)
        assert value == _enum_min_cut(g)
        assert cut_degree(g, witness) == value
        assert witness.contains(0)


def test_min_cut_and_every_phase_match_brute_force_up_to_10_nodes():
    """The value is the minimum over all cuts and the witness attains it
    with node 0 inside; every phase of the loop is the capacity of a real
    cut, which is what lets `covers` stop at the first phase below k."""
    rng = random.Random(1997)
    for _ in range(150):
        n = rng.randint(2, 10)
        density = rng.choice([0.2, 0.5, 0.8])
        edges = [
            (u, v, rng.randint(1, 5)) for u, v in itertools.combinations(range(n), 2) if rng.random() < density
        ]
        g = MultiGraph(n, edges)
        cuts = [cut_degree(g, Cut(mask, n)) for mask in range(1, (1 << n) - 1)]
        value, witness = global_min_cut(g)
        assert value == min(cuts)
        assert cut_degree(g, witness) == value and witness.contains(0)
        w = [[0] * n for _ in range(n)]
        for u, v, m in g.edges:
            w[u][v] = w[v][u] = m
        phases = list(min_cut_phases(w))
        assert len(phases) == n - 1
        assert all(cut_degree(g, Cut(mask, n)) == phase for phase, mask in phases)
        assert min(phase for phase, _ in phases) == min(cuts)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = list(itertools.combinations(range(n), 2))
    mults = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=len(pairs), max_size=len(pairs)))
    return MultiGraph(n, [(u, v, m) for (u, v), m in zip(pairs, mults)])


@given(multigraphs())
@settings(max_examples=120, deadline=None)
def test_handshake(g):
    assert sum(g.node_degree(v) for v in range(g.n)) == 2 * sum(m for _, _, m in g.edges)
    records = {(u, v): m for u, v, m in g.edges}
    for v in range(g.n):
        assert g.node_degree(v) == sum(m for (a, b), m in records.items() if v in (a, b))
    for u, v in itertools.combinations(range(g.n), 2):
        assert g.multiplicity(u, v) == g.multiplicity(v, u) == records.get((u, v), 0)


@given(multigraphs(), st.integers(min_value=1))
@settings(max_examples=120, deadline=None)
def test_cut_degree_complement_symmetric(g, raw):
    mask = raw % ((1 << g.n) - 2) + 1
    s = Cut(mask, g.n)
    assert cut_degree(g, s) == cut_degree(g, s.complement())


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_fold_idempotent(g):
    assert MultiGraph(g.n, g.edges).edges == g.edges
