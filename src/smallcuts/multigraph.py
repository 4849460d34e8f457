"""Capacitated undirected multigraphs, cuts, and exact global minimum cut.

Nodes are dense integer ids in [0, n).  Parallel edges are folded into a
single record per unordered pair carrying an integer multiplicity, so degree
sums and min-cut phases run over stored records, not repeated edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Cut:
    """A proper nonempty node subset, stored as a bitmask over dense ids.

    Degenerate subsets (empty or the full node set) are rejected at
    construction, so every Cut in circulation is a genuine cut.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        # checked inline, not with require_int: a Cut is built per violated cut
        if type(self.mask) is not int or type(self.n) is not int:
            raise InvalidParameterError(f"cut mask and node count must be integers, got {self.mask!r}, {self.n!r}")
        if self.n < 2:
            raise InvalidParameterError("cuts need an ambient graph with at least 2 nodes")
        if not 0 < self.mask < (1 << self.n) - 1:
            raise InvalidParameterError(
                f"cut must be a proper nonempty subset: mask={self.mask:#x}, n={self.n}"
            )

    @classmethod
    def of(cls, nodes: Iterable[int], n: int) -> "Cut":
        mask = 0
        for v in nodes:
            if type(v) is not int:
                raise InvalidParameterError(f"node ids must be integers, got {v!r}")
            if not 0 <= v < n:
                raise InvalidParameterError(f"node {v} out of range [0, {n})")
            mask |= 1 << v
        return cls(mask, n)

    def contains(self, v: int) -> bool:
        return bool(self.mask >> v & 1)

    def nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.mask >> v & 1)

    def size(self) -> int:
        return self.mask.bit_count()

    def complement(self) -> "Cut":
        return Cut(self.mask ^ ((1 << self.n) - 1), self.n)

    def __repr__(self) -> str:
        return f"Cut({{{','.join(map(str, self.nodes()))}}}, n={self.n})"


class MultiGraph:
    """Undirected multigraph with folded integer edge multiplicities.

    Records with multiplicity zero are dropped (a pair that degenerates to
    zero copies is simply not an edge), self-loops and negative
    multiplicities are rejected, and repeated records for one unordered pair
    are folded by summing.  Labels are strings and default to the node ids.
    Instances are immutable after construction, so node degrees are summed
    once here.
    """

    __slots__ = ("n", "edges", "labels", "_degrees")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        labels: Sequence[str] | None = None,
    ) -> None:
        if type(n) is not int:
            raise InvalidParameterError(f"node count must be an integer, got n={n!r}")
        if n < 1:
            raise InvalidParameterError(f"graph needs at least 1 node, got n={n}")
        folded: dict[tuple[int, int], int] = {}
        for u, v, mult in edges:
            # checked inline, not with require_int, so one message names the whole record
            if type(u) is not int or type(v) is not int or type(mult) is not int:
                raise InvalidParameterError(
                    f"node ids and multiplicities must be integers, got edge ({u!r},{v!r},{mult!r})"
                )
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u},{v}) out of range [0, {n})")
            if u == v:
                raise InvalidParameterError(f"self-loop at node {u} is not allowed")
            if mult < 0:
                raise InvalidParameterError(f"negative multiplicity {mult} on edge ({u},{v})")
            if mult == 0:
                continue
            key = (u, v) if u < v else (v, u)
            folded[key] = folded.get(key, 0) + mult
        self.n = n
        self.edges: tuple[tuple[int, int, int], ...] = tuple(
            (u, v, m) for (u, v), m in sorted(folded.items())
        )
        labels = tuple(map(str, range(n))) if labels is None else tuple(labels)
        if len(labels) != n:
            raise InvalidParameterError(f"expected {n} labels, got {len(labels)}")
        for v, label in enumerate(labels):
            if type(label) is not str:
                raise InvalidParameterError(f"node {v} label must be a string, got {label!r}")
        self.labels: tuple[str, ...] = labels
        degrees = [0] * n
        for u, v, m in self.edges:
            degrees[u] += m
            degrees[v] += m
        self._degrees = tuple(degrees)

    def node_degree(self, v: int) -> int:
        return self._degrees[v]

    def multiplicity(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return next((m for a, b, m in self.edges if (a, b) == key), 0)

    def label_of(self, v: int) -> str:
        return self.labels[v]

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, edges={len(self.edges)})"


def _check_ambient(g: MultiGraph, s: Cut) -> None:
    if s.n != g.n:
        raise InvalidParameterError(f"cut over {s.n} nodes applied to graph with {g.n} nodes")


def cut_degree(g: MultiGraph, s: Cut) -> int:
    """Total multiplicity of edges with exactly one endpoint in s."""
    _check_ambient(g, s)
    mask = s.mask
    return sum(m for u, v, m in g.edges if (mask >> u & 1) != (mask >> v & 1))


def _root(parent: list[int], v: int) -> int:
    """Union-find root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _groups(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Union-find over nodes 0..n-1 merging the ends of each pair: a dense
    group id per node, numbered by each group's first node, and the count."""
    parent = list(range(n))
    for u, v in pairs:
        parent[_root(parent, u)] = _root(parent, v)
    index: dict[int, int] = {}
    group = [index.setdefault(_root(parent, v), len(index)) for v in range(n)]
    return group, len(index)


def _weights(g: MultiGraph, group: Sequence[int], size: int) -> list[list[int]]:
    """Symmetric size x size matrix of the multiplicity between groups;
    edges inside a group are dropped."""
    w = [[0] * size for _ in range(size)]
    for u, v, m in g.edges:
        a, b = group[u], group[v]
        if a != b:
            w[a][b] += m
            w[b][a] += m
    return w


def min_cut_phases(w: list[list[int]]) -> Iterator[tuple[int, int]]:
    """Stoer-Wagner phases over the symmetric matrix `w`, contracted in place:
    yields (value, mask of the last supernode over the rows of `w`) per
    phase.  Each value is a real cut's and the least is the global min cut.
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
