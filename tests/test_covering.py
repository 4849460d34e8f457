import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from smallcuts.covering import (
    Instance,
    _small_masks,
    _uncovered_core,
    Link,
    as_cost,
    covers,
    covers_by_enumeration,
    enumeration_bound,
    is_minimal_cover,
    link_crosses,
    violated_cuts,
)
from smallcuts.errors import BoundExceededError, InvalidParameterError
from smallcuts.multigraph import Cut, MultiGraph, _groups, _weights, cut_degree
from smallcuts.tightgen import generate_instance

from cores_reference import cores_bruteforce
from min_cut_reference import global_min_cut

GADGET_EDGES = [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 2), (4, 5, 1), (5, 6, 2)]
LABELS = ["t", "a", "x", "y", "z", "b", "r"]
# blue tb, rz then red tx, ay, yr, matching the generated layout
GADGET_LINKS = (
    Link(0, 5, 1, tag="blue"),
    Link(6, 4, 2, tag="blue"),
    Link(0, 2, 2, tag="red"),
    Link(1, 3, 1, tag="red"),
    Link(3, 6, 2, tag="red"),
)


def gadget_instance() -> Instance:
    g = MultiGraph(7, GADGET_EDGES, labels=LABELS)
    return Instance(graph=g, k=3, links=GADGET_LINKS)


def test_as_cost_accepts_exact_forms():
    assert as_cost(3) == Fraction(3)
    assert as_cost("5/2") == Fraction(5, 2)
    assert as_cost("4") == Fraction(4)
    assert as_cost(Fraction(1, 3)) == Fraction(1, 3)
    assert as_cost(0) == 0


@pytest.mark.parametrize("bad", [1.5, -1, "-2/3", "abc", "1/0", None, True, [2]])
def test_as_cost_rejects(bad):
    with pytest.raises(InvalidParameterError):
        as_cost(bad)


@pytest.mark.parametrize("bad", ["1e5000", "1e-2", "2E3", "1.5e1/2"])
def test_as_cost_rejects_exponent_notation(bad):
    with pytest.raises(InvalidParameterError, match="exponent notation"):
        as_cost(bad)


@pytest.mark.parametrize(
    "graph,links,field",
    [
        (MultiGraph(3, []), ((0, 1, 2),), "links"),
        (MultiGraph(3, []), ("x",), "links"),
        ("g", (), "graph"),
    ],
    ids=["tuple-link", "str-link", "str-graph"],
)
def test_instance_rejects_wrong_field_types_by_name(graph, links, field):
    with pytest.raises(InvalidParameterError, match=f"^{field} must"):
        Instance(graph=graph, k=2, links=links)


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: Instance(graph=MultiGraph(3, []), k=2, links=None), "links"),
        (lambda: Instance(graph=MultiGraph(3, []), k=2, links=5), "links"),
        (lambda: MultiGraph(3, None), "edges"),
        (lambda: MultiGraph(3, 5), "edges"),
        (lambda: MultiGraph(3, [(0, 1)]), "edges"),
    ],
    ids=["links-none", "links-int", "edges-none", "edges-int", "edge-pair"],
)
def test_wrongly_shaped_containers_raise_by_name(build, field):
    with pytest.raises(InvalidParameterError, match=f"^{field} must"):
        build()


def test_link_validation():
    with pytest.raises(InvalidParameterError):
        Link(2, 2, 1)
    with pytest.raises(InvalidParameterError):
        Link(-1, 0, 1)
    with pytest.raises(InvalidParameterError):
        Link(0, 1, 1, tag="green")
    ln = Link(3, 1, "7/2")
    assert ln.cost == Fraction(7, 2)
    assert ln.endpoints() == (1, 3)
    assert Link(0, 1, 2).tag is None


def test_instance_validation():
    g = MultiGraph(3, [(0, 1, 1)])
    with pytest.raises(InvalidParameterError):
        Instance(graph=g, k=0, links=())
    with pytest.raises(InvalidParameterError):
        Instance(graph=g, k=2, links=(Link(0, 3, 1),))
    inst = Instance(graph=g, k=2, links=(Link(0, 2, 1),))
    assert inst.n == 3


@pytest.mark.parametrize("k", [2.5, True, "2"])
def test_instance_rejects_non_integer_k(k):
    with pytest.raises(InvalidParameterError, match="threshold k must be an integer"):
        Instance(graph=MultiGraph(3, [(0, 1, 1)]), k=k, links=())


@pytest.mark.parametrize("u,v", [(True, 2), (0, 1.0), (None, 1)])
def test_link_rejects_non_integer_endpoints(u, v):
    with pytest.raises(InvalidParameterError, match="link endpoint must be an integer"):
        Link(u, v, 1)


def test_default_root_is_last_node():
    assert gadget_instance().default_root() == 6
    g = MultiGraph(3, [(0, 1, 1)])
    assert Instance(graph=g, k=1, links=()).default_root() == 2
    labeled = MultiGraph(3, [(0, 1, 1)], labels=["r", "a", "b"])
    assert Instance(graph=labeled, k=1, links=()).default_root() == 2


def test_link_crosses():
    s = Cut.of([0, 1], 7)
    assert link_crosses(Link(0, 5, 1), s)
    assert not link_crosses(Link(0, 1, 1), s)
    assert not link_crosses(Link(4, 5, 1), s)


def test_is_small_cut_gadget():
    inst = gadget_instance()

    def small(nodes):
        return cut_degree(inst.graph, Cut.of(nodes, 7)) < inst.k

    assert small([0])  # d=2 < 3
    assert small([0, 1])  # d=1
    assert not small([1])  # d=3
    assert not small([2, 3])  # d=3


def _small_cuts_avoiding_root(inst: Instance) -> set[int]:
    """Independent route: literal subset loop, no shared code with the library."""
    root = inst.default_root()
    others = [v for v in range(inst.n) if v != root]
    out = set()
    for size in range(1, len(others) + 1):
        for nodes in itertools.combinations(others, size):
            s = Cut.of(nodes, inst.n)
            if cut_degree(inst.graph, s) < inst.k:
                out.add(s.mask)
    return out


def test_violated_cuts_empty_selection_matches_inline_enumeration():
    inst = gadget_instance()
    got = {s.mask for s in violated_cuts(inst, ())}
    assert got == _small_cuts_avoiding_root(inst)
    # {t}, A={t,a}, X, Y, C={x,y,z}, C u A, and V minus {r}
    assert len(got) == 7


def _assert_walk_returns_masks_below_every_k(w, degree):
    """`degree[mask]` is the cut degree of every nonempty row mask.  The walk
    must return exactly the masks below k, each once, at k = 1 and at k =
    d + 1 for every degree d that occurs, which pins each mask's degree."""
    for k in {1} | {d + 1 for d in degree.values()}:
        assert sorted(_small_masks(w, k)) == sorted(m for m, d in degree.items() if d < k)


def test_small_masks_returns_exactly_the_masks_below_each_k_on_random_graphs():
    """Every mask's degree, not only those below one k, on graphs that are
    often disconnected or leave the last node isolated; then on the same
    graph with nodes grouped at random, where a row mask's degree is the
    cut degree of the nodes its groups make up; then on a few graphs with
    multiplicities above 2^64."""
    rng = random.Random(2046)
    group_rng = random.Random(2047)
    disconnected = isolated_last = grouped = 0
    for trial in range(120):
        n = rng.randint(2, 12)
        density = rng.choice([0.1, 0.3, 0.6, 0.9])
        edges = [
            (u, v, rng.randint(1, 6)) for u, v in itertools.combinations(range(n), 2) if rng.random() < density
        ]
        if trial % 3 == 0:
            edges = [(u, v, m) for u, v, m in edges if v != n - 1]
        g = MultiGraph(n, edges)
        degree = {mask: cut_degree(g, Cut(mask, n)) for mask in range(1, 1 << (n - 1))}
        _assert_walk_returns_masks_below_every_k(_weights(g, range(n), n), degree)
        disconnected += global_min_cut(g)[0] == 0
        isolated_last += g.node_degree(n - 1) == 0
        pairs = [tuple(group_rng.sample(range(n), 2)) for _ in range(group_rng.randint(0, n - 1))]
        group, size = _groups(n, pairs)
        degree = {
            mask: cut_degree(g, Cut.of([v for v in range(n) if mask >> group[v] & 1], n))
            for mask in range(1, 1 << (size - 1))
        }
        _assert_walk_returns_masks_below_every_k(_weights(g, group, size), degree)
        grouped += 2 < size < n
    assert disconnected >= 40 and isolated_last >= 40 and grouped >= 40
    # Multiplicities are unbounded ints: a few above 2^64 beside small ones,
    # so a walk that kept machine-width crossing weights would wrap.
    wide_rng = random.Random(2048)
    for n in range(4, 10):
        edges = [
            (u, v, wide_rng.randint(1, 6) + wide_rng.choice([0, 1 << 64, 3 << 64]))
            for u, v in itertools.combinations(range(n), 2)
            if wide_rng.random() < 0.6
        ]
        assert max(m for _, _, m in edges) > 1 << 64
        g = MultiGraph(n, edges)
        degree = {mask: cut_degree(g, Cut(mask, n)) for mask in range(1, 1 << (n - 1))}
        _assert_walk_returns_masks_below_every_k(_weights(g, range(n), n), degree)


def _small_cuts_by_branching(inst, selected):
    """Reference for `violated_cuts` at sizes the definition cannot reach.
    Nodes are decided one at a time, in BFS order from the root over edges
    and selected links, into S or out of it; a selected link ties its ends
    to one side.  The weight between the nodes decided in and those decided
    out never decreases and is d(S) once every node is decided, so a branch
    stops when it reaches k."""
    n, k, root = inst.n, inst.k, inst.default_root()
    w = [[0] * n for _ in range(n)]
    for u, v, m in inst.graph.edges:
        w[u][v] = w[v][u] = m
    tied = [[ln.v if ln.u == v else ln.u for ln in selected if v in (ln.u, ln.v)] for v in range(n)]
    order = [root]
    for v in order:
        order += [u for u in range(n) if (w[v][u] or u in tied[v]) and u not in order]
    order += [v for v in range(n) if v not in order]
    side = [None] * n
    side[root] = False
    found = []

    def branch(i, weight):
        if weight >= k:
            return
        if i == n:
            mask = sum(1 << v for v in range(n) if side[v])
            if mask:
                found.append(mask)
            return
        v = order[i]
        for joins in (True, False):
            if all(side[u] in (None, joins) for u in tied[v]):
                side[v] = joins
                branch(i + 1, weight + sum(w[v][u] for u in range(n) if side[u] is (not joins)))
                side[v] = None

    branch(1, 0)
    return sorted(found, key=lambda mask: (mask.bit_count(), mask))


def test_violated_cuts_match_branching_reference_at_realistic_sizes(monkeypatch):
    """The walk's random-graph test stops at 12 nodes, 32 blocks of steps;
    the p = 4 family walks 4096 and p = 5 walks 65,536.  Then seeded rings
    with chords at n = 14..18, k = 5, some with links selected."""
    monkeypatch.setenv("SCC_ENUM_BOUND", "23")
    for p in range(1, 6):
        inst = generate_instance(1, p, 2 * p + 1).instance
        got = [s.mask for s in violated_cuts(inst, ())]
        assert got == _small_cuts_by_branching(inst, ())
    rng = random.Random(20261020)
    nonempty = selected = 0
    for _ in range(30):
        n = rng.randint(14, 18)
        edges = [(v, (v + 1) % n, rng.randint(1, 2)) for v in range(n)]
        edges += [(*rng.sample(range(n), 2), 1) for _ in range(rng.randint(0, n // 2))]
        links = tuple(Link(*rng.sample(range(n), 2), 1) for _ in range(3))
        inst = Instance(graph=MultiGraph(n, edges), k=5, links=links)
        chosen = links[: rng.choice([0, 0, 1, 3])]
        got = [s.mask for s in violated_cuts(inst, chosen)]
        assert got == _small_cuts_by_branching(inst, chosen)
        nonempty += bool(got)
        selected += bool(chosen) and bool(got)
    assert nonempty >= 20 and selected >= 10


def test_violated_cuts_memory_stays_linear_in_the_nodes():
    """The p = 3 family has 15 nodes, so one entry per cut avoiding the root
    is 2^14 list slots, 128 KiB; the walk keeps a few rows and the 31 cuts.
    One call before tracing fills the interpreter's per-code caches, which
    would otherwise be allocated inside the traced call (3.10 adds several
    KiB there), so the peak does not depend on which tests ran first."""
    inst = generate_instance(1, 3, 7).instance
    violated_cuts(inst, ())
    tracemalloc.start()
    try:
        cuts = violated_cuts(inst, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cuts) == 31
    assert peak < 12 * 1024


def test_violated_cuts_sorted_and_selection_aware():
    inst = gadget_instance()
    cuts = violated_cuts(inst, ())
    keys = [(s.size(), s.mask) for s in cuts]
    assert keys == sorted(keys)
    blue = [inst.links[0], inst.links[1]]
    assert violated_cuts(inst, blue) == []
    # tb alone leaves every cut around y and r uncovered
    leftover = violated_cuts(inst, [inst.links[0]])
    assert leftover
    assert all(
        not link_crosses(inst.links[0], s) for s in leftover
    )


def test_covers_matches_enumeration_on_gadget_subsets():
    inst = gadget_instance()
    for size in range(0, len(inst.links) + 1):
        for combo in itertools.combinations(range(5), size):
            sel = [inst.links[i] for i in combo]
            assert covers(inst, sel) == covers_by_enumeration(inst, sel)


def test_covers_random_equivalence():
    rng = random.Random(987123)
    for _ in range(150):
        n = rng.randint(2, 7)
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                edges.append((u, v, rng.randint(1, 4)))
        g = MultiGraph(n, edges)
        k = rng.randint(1, 5)
        links = tuple(
            Link(u, v, rng.randint(0, 3))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.4
        )
        inst = Instance(graph=g, k=k, links=links)
        chosen = [ln for ln in links if rng.random() < 0.5]
        assert covers(inst, chosen) == covers_by_enumeration(inst, chosen)


def test_covers_matches_min_cut_of_augmented_graph_on_large_instances():
    """n = 30..60, past enumeration: the verdict equals "min cut of G + k*F
    is at least k" from a full Stoer-Wagner on the augmented graph.  The
    base graph is a ring of heavy arcs joined by single edges, so each run
    of arcs is a small cut that only the selected links can cover."""
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(120):
        n = rng.randint(30, 60)
        k = rng.randint(2, 5)
        joins = set(rng.sample(range(1, n), rng.randint(1, 5)))
        edges = [(v, v + 1, 1 if v + 1 in joins else k) for v in range(n - 1)] + [(n - 1, 0, 1)]
        edges += [tuple(rng.sample(range(n), 2)) + (1,) for _ in range(rng.randint(0, 3))]
        g = MultiGraph(n, edges)
        chosen = [Link(*rng.sample(range(n), 2), 1) for _ in range(rng.randint(0, 6))]
        inst = Instance(graph=g, k=k, links=tuple(chosen))
        aug = MultiGraph(n, list(g.edges) + [(ln.u, ln.v, k) for ln in chosen])
        want = global_min_cut(aug)[0] >= k
        assert covers(inst, chosen) == want
        verdicts.append(want)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_covers_past_the_degree_screen_matches_enumeration():
    """Every node the selection leaves untouched has degree >= k, so the
    contracted min cut decides.  Nodes fall into up to three blocks, dense
    inside and sparse or absent between; disconnected base graphs, k = 1
    and selections that merge every node into one group all occur."""
    rng = random.Random(4242)
    verdicts = []
    disconnected = merged_all = k1_uncovered = 0
    for _ in range(400):
        n = rng.randint(2, 9)
        k = rng.randint(1, 4)
        block = [rng.randrange(3) for _ in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        edges = [
            (u, v, rng.randint(1, k + 1) if block[u] == block[v] else 1)
            for u, v in pairs
            if rng.random() < (0.6 if block[u] == block[v] else 0.15)
        ]
        g = MultiGraph(n, edges)
        chosen = [Link(u, v, 1) for u, v in pairs if rng.random() < 0.05]
        touched = {ln.u for ln in chosen} | {ln.v for ln in chosen}
        for v in range(n):
            if v not in touched and g.node_degree(v) < k:
                mates = [u for u in range(n) if u != v and block[u] == block[v]]
                chosen.append(Link(v, rng.choice(mates or [u for u in range(n) if u != v]), 1))
        if rng.random() < 0.15:  # a spanning path: one group, no phase left
            chosen += [Link(v, v + 1, 1) for v in range(n - 1)]
            merged_all += 1
        inst = Instance(graph=g, k=k, links=tuple(Link(u, v, 1) for u, v in pairs))
        want = covers_by_enumeration(inst, chosen)
        assert covers(inst, chosen) == want
        verdicts.append(want)
        disconnected += global_min_cut(g)[0] == 0
        k1_uncovered += k == 1 and not want
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 80
    assert disconnected >= 100 and merged_all >= 30 and k1_uncovered >= 5


def test_cores_bruteforce_gadget():
    inst = gadget_instance()
    cores = cores_bruteforce(inst, ())
    assert [s.nodes() for s in cores] == [(0,), (2, 3, 4), (6,)]
    for a, b in itertools.combinations(cores, 2):
        assert a.mask & b.mask == 0


def test_cores_respect_selection():
    inst = gadget_instance()
    # after buying tx and rz, only cuts separating y's neighborhood remain
    sel = [inst.links[2], inst.links[1]]
    cores = cores_bruteforce(inst, sel)
    reps = violated_cuts(inst, sel)
    full = (1 << 7) - 1
    family = {s.mask for s in reps} | {s.mask ^ full for s in reps}
    for c in cores:
        assert c.mask in family
        for member in family:
            assert not (member & c.mask == member and member != c.mask)


def _cores_by_definition(inst: Instance, selected) -> list[int]:
    """Inclusion-minimal uncovered small cuts, from a literal loop over every
    proper nonempty subset; no root, no shared code with the library."""
    n = inst.n
    uncovered = []
    for size in range(1, n):
        for nodes in itertools.combinations(range(n), size):
            s = Cut.of(nodes, n)
            if cut_degree(inst.graph, s) < inst.k and not any(link_crosses(ln, s) for ln in selected):
                uncovered.append(s.mask)
    return sorted(m for m in uncovered if not any(o != m and o & m == o for o in uncovered))


def test_cores_match_definition_on_random_instances():
    rng = random.Random(20261018)
    names = ["r", "R", "t", "a", "x", "y", "z", "b", "q"]
    for _ in range(150):
        n = rng.randint(2, 9)
        edges = [(u, v, rng.randint(1, 3)) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = MultiGraph(n, edges, labels=rng.sample(names, n))
        links = tuple(
            Link(u, v, 1) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.3
        )
        inst = Instance(graph=g, k=rng.randint(1, 5), links=links)
        chosen = [ln for ln in links if rng.random() < 0.5]
        want = [Cut(m, n) for m in _cores_by_definition(inst, chosen)]
        assert cores_bruteforce(inst, chosen) == want


def test_uncovered_core_is_one_of_the_cores_on_random_instances():
    """None exactly when there is no core, otherwise one of the cores.  Half
    the selections pair up every node, so the degree screen passes and
    several phases can fall below k; the witness must be the first."""
    rng = random.Random(20261020)
    uncovered = from_phases = spanning = disconnected = 0
    for trial in range(2000):
        paired = trial % 2 == 1
        n = rng.randint(4, 11) if paired else rng.randint(2, 11)
        k = rng.randint(2, 7) if paired else rng.randint(1, 8)
        low, high = (1, 4) if paired else (0, 3)
        density = rng.choice([0.2, 0.4, 0.7])
        edges = [
            (u, v, rng.randint(low, high)) for u, v in itertools.combinations(range(n), 2) if rng.random() < density
        ]
        g = MultiGraph(n, edges)
        if paired:
            order = rng.sample(range(n), n)
            pairs = [(order[i], order[i + 1]) for i in range(0, n - 1, 2)] + [(order[0], order[-1])] * (n % 2)
        else:
            keep = rng.choice([0.1, 0.25, 0.5])
            pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < keep]
        chosen = [Link(u, v, 1) for u, v in pairs]
        inst = Instance(graph=g, k=k, links=tuple(chosen))
        assert inst.below_k == sum(1 << v for v in range(n) if g.node_degree(v) < k)
        core = _uncovered_core(inst, chosen)
        cores = [s.mask for s in cores_bruteforce(inst, chosen)]
        assert (core is None) == (not cores)
        lone = [v for v in range(n) if g.node_degree(v) < k and not any(v in pair for pair in pairs)]
        if n >= 2 and lone:
            assert core == 1 << lone[0]  # the screen returns the smallest untouched node below k
        disconnected += _groups(n, ((u, v) for u, v, _ in g.edges))[1] > 1
        if core is None:
            continue
        assert core in cores
        uncovered += 1
        from_phases += core.bit_count() > 1  # a phase's last row is never one untouched node
        group, _ = _groups(n, pairs)
        spanning += len({group[v] for v in range(n) if core >> v & 1}) > 1
    assert uncovered >= 600 and from_phases >= 150 and spanning >= 20 and disconnected >= 100


def _uncovered_small_cuts(inst: Instance, chosen) -> list[Cut]:
    """Every proper subset avoiding the last node that is small and crossed
    by no chosen link, from a literal loop; sorted by (size, mask)."""
    n = inst.n
    out = []
    for mask in range(1, 1 << (n - 1)):
        s = Cut(mask, n)
        if cut_degree(inst.graph, s) < inst.k and not any(link_crosses(ln, s) for ln in chosen):
            out.append(s)
    return sorted(out, key=lambda s: (s.size(), s.mask))


def test_violated_cuts_match_literal_reference_on_random_instances():
    """The contracted enumeration against the definition, on selections that
    merge the last node into a group, merge every node, or neither."""
    rng = random.Random(20261019)
    root_merged = all_merged = disconnected = root_merged_nonempty = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        density = rng.choice([0.15, 0.4, 0.7])
        edges = [(u, v, rng.randint(1, 3)) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
        g = MultiGraph(n, edges)
        links = tuple(Link(u, v, 1) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5)
        inst = Instance(graph=g, k=rng.randint(1, 6), links=links)
        keep = rng.choice([0.1, 0.3, 0.6, 0.9])
        chosen = [ln for ln in links if rng.random() < keep]
        got = violated_cuts(inst, chosen)
        assert got == _uncovered_small_cuts(inst, chosen)
        merged = any(n - 1 in (ln.u, ln.v) for ln in chosen)
        root_merged += merged
        root_merged_nonempty += merged and bool(got)
        if global_min_cut(MultiGraph(n, [(ln.u, ln.v, 1) for ln in chosen]))[0] > 0:
            all_merged += 1
            assert got == []
        disconnected += global_min_cut(g)[0] == 0
    assert root_merged >= 50 and all_merged >= 20 and disconnected >= 30
    assert root_merged_nonempty >= 20


def test_selected_link_outside_instance_rejected():
    inst = generate_instance(1, 1, 3).instance
    assert inst.n == 7
    stray = [Link(0, 99, 1)]
    for check in (violated_cuts, cores_bruteforce, covers_by_enumeration, covers, is_minimal_cover):
        with pytest.raises(InvalidParameterError, match="out of range for 7 nodes"):
            check(inst, stray)


def test_is_minimal_cover():
    inst = gadget_instance()
    red = [inst.links[i] for i in (2, 3, 4)]
    blue = [inst.links[i] for i in (0, 1)]
    assert is_minimal_cover(inst, red)
    assert is_minimal_cover(inst, blue)
    assert not is_minimal_cover(inst, list(inst.links))
    assert not is_minimal_cover(inst, red[:2])


def test_require_feasible():
    inst = gadget_instance()
    assert covers(inst, inst.links)
    bare = Instance(graph=inst.graph, k=3, links=(inst.links[0],))
    assert not covers(bare, bare.links)


def test_enumeration_bound_env(monkeypatch):
    monkeypatch.delenv("SCC_ENUM_BOUND", raising=False)
    assert enumeration_bound() == 22
    monkeypatch.setenv("SCC_ENUM_BOUND", "10")
    assert enumeration_bound() == 10
    monkeypatch.setenv("SCC_ENUM_BOUND", "junk")
    with pytest.raises(InvalidParameterError):
        enumeration_bound()
    monkeypatch.setenv("SCC_ENUM_BOUND", "1")
    with pytest.raises(InvalidParameterError):
        enumeration_bound()


def test_enumeration_refuses_above_bound(monkeypatch):
    monkeypatch.setenv("SCC_ENUM_BOUND", "5")
    inst = gadget_instance()
    with pytest.raises(BoundExceededError):
        violated_cuts(inst, ())
    with pytest.raises(BoundExceededError):
        covers_by_enumeration(inst, [])
    # the min-cut route has no such limit
    assert covers(inst, list(inst.links))
