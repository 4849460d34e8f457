"""Stoer-Wagner global minimum cut, the reference the tests check `covers`
and the phase loop against.  The package itself only runs phases until one
falls below k (`covering._uncovered_core`)."""

from smallcuts.errors import InvalidParameterError
from smallcuts.multigraph import Cut, MultiGraph, _groups, _weights, min_cut_phases


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
