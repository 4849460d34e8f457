"""Stoer-Wagner references the tests check `covers` and the phase kernel
against: the global minimum cut, and the dict-based phase loop the kernel
`multigraph.min_cut_phases` replaced.  The package itself only runs phases
until one falls below k (`covering._uncovered_core`)."""

from typing import Iterator

from smallcuts.errors import InvalidParameterError
from smallcuts.multigraph import Cut, MultiGraph, _groups, _weights, min_cut_phases


def reference_phases(w: list[list[int]]) -> Iterator[tuple[int, int]]:
    """Stoer-Wagner phases over the symmetric matrix `w`, contracted in place:
    yields (value, mask of the last supernode over the rows of `w`) per
    phase.  Each value is the cut of its mask and the least cut separating
    the two rows the phase merges, so the least value is the global min cut.
    A phase adds rows in maximum-adjacency order, ties to the smallest row,
    and merges the last row into the one before it."""
    merged = [1 << i for i in range(len(w))]  # rows absorbed into supernode i
    active = list(range(len(w)))
    while len(active) > 1:
        start = active[0]
        weight = {v: w[start][v] for v in active[1:]}
        last = prev = start
        while weight:
            v = max(weight, key=lambda x: (weight[x], -x))
            prev, last = last, v
            value = weight.pop(v)
            for u in weight:
                weight[u] += w[v][u]
        merged[prev] |= merged[last]
        active.remove(last)
        for u in active:
            if u != prev:
                w[prev][u] += w[last][u]
                w[u][prev] = w[prev][u]
        yield value, merged[last]


def global_min_cut(g: MultiGraph) -> tuple[int, Cut]:
    """Exact global minimum cut by Stoer-Wagner over multiplicities.

    Returns (value, witness) with witness normalized to the side containing
    node 0.  A disconnected graph has value 0 with the component of node 0
    as witness.  Deterministic: ties in the maximum-adjacency order are
    broken by smallest node id, and the first minimal phase wins.
    """
    n = g.n
    if n < 2:
        raise InvalidParameterError("global minimum cut needs at least 2 nodes")
    group, size = _groups(n, ((u, v) for u, v, _ in g.edges))
    if size > 1:
        return 0, Cut(sum(1 << v for v in range(n) if group[v] == 0), n)
    full = (1 << n) - 1
    best_value, best_mask = min(min_cut_phases(_weights(g, range(n), n)), key=lambda phase: phase[0])
    if not best_mask & 1:
        best_mask ^= full
    return best_value, Cut(best_mask, n)
