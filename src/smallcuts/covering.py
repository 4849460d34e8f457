"""Small cuts, links, covers, and brute-force core discovery.

A cut S is *small* when its crossing multiplicity in the base graph is below
the threshold k.  A link covers S when exactly one of its endpoints lies in
S, so the cuts a selection leaves uncovered are those of the base graph with
each selected link's endpoints contracted.  A set of links is a cover when
every small cut is covered; equivalently, the contracted graph has no cut
below k.  `covers` tests that at any size with Stoer-Wagner phases, the
first of which below k is an uncovered core, and `violated_cuts` lists
the contracted graph's small cuts by a Gray-code walk over all its cuts
that keeps one crossing weight and one in-or-out flag per row, not one
entry per cut, and whose step touches only the toggled row's neighbours.
Blocks of 2^6 steps toggle the same rows in the same order after their
first step, so one table built once per call serves every block; six
bits already leave a block boundary at only 1 step in 64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BoundExceededError, InvalidParameterError, VerificationError, require_int
from .multigraph import Cut, MultiGraph, _groups, _weights, min_cut_phases

LINK_TAGS = (None, "red", "blue")

DEFAULT_ENUM_BOUND = 22
# The cut walk replays its steps in blocks of 2^_BLOCK_BITS; see `_small_masks`.
_BLOCK_BITS = 6
_ENUM_BOUND_VAR = "SCC_ENUM_BOUND"


def enumeration_bound() -> int:
    """Node-count ceiling for exhaustive cut enumeration.

    Controlled by the SCC_ENUM_BOUND environment variable; anything above it
    raises BoundExceededError instead of silently degrading.
    """
    raw = os.environ.get(_ENUM_BOUND_VAR)
    if raw is None:
        return DEFAULT_ENUM_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise InvalidParameterError(f"{_ENUM_BOUND_VAR} must be an integer, got {raw!r}")
    if bound < 2:
        raise InvalidParameterError(f"{_ENUM_BOUND_VAR} must be at least 2, got {bound}")
    return bound


def _check_enum_ok(n: int, what: str) -> None:
    bound = enumeration_bound()
    if n > bound:
        raise BoundExceededError(
            f"{what} enumerates all cuts over {n} nodes, above the bound {bound}; "
            f"raise {_ENUM_BOUND_VAR} to allow it"
        )


def as_cost(value: object) -> Fraction:
    """Normalize a cost to an exact nonnegative Fraction.

    Accepts int, Fraction (returned as handed), and strings like "3", "5/2",
    or "0.01" (decimal strings are exact).  Float objects are rejected:
    costs feed exact dual arithmetic and must not arrive already rounded to
    binary, and exponent notation is rejected.
    """
    if isinstance(value, bool):
        raise InvalidParameterError(f"cost must be a number, got {value!r}")
    if isinstance(value, float):
        raise InvalidParameterError(f"float cost {value!r} rejected; pass an exact fraction")
    if isinstance(value, Fraction):
        cost = value
    elif isinstance(value, int):
        cost = Fraction(value)
    elif isinstance(value, str):
        # Fraction would expand "1e10000000" in full; it reads an e only after a digit or "."
        if "e" in value.lower() and any(c in "eE" and (a == "." or a.isdecimal()) for a, c in zip(value, value[1:])):
            raise InvalidParameterError(f"cost {value!r} uses exponent notation; write a fraction or decimal")
        try:
            cost = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidParameterError(f"cannot parse cost {value!r}")
    else:
        raise InvalidParameterError(f"cost must be int, Fraction, or string, got {type(value).__name__}")
    if cost < 0:
        raise InvalidParameterError(f"negative cost {cost} is not allowed")
    return cost


@dataclass(frozen=True)
class Link:
    """A purchasable edge between two distinct nodes with an exact cost.

    The optional tag records which family a generated link belongs to and is
    what tie policies key on; arbitrary instances leave it None.
    """

    u: int
    v: int
    cost: Fraction
    tag: str | None = None

    def __post_init__(self) -> None:
        require_int(self.u, "link endpoint")
        require_int(self.v, "link endpoint")
        if self.u == self.v:
            raise InvalidParameterError(f"link endpoints must differ, got ({self.u},{self.v})")
        if self.u < 0 or self.v < 0:
            raise InvalidParameterError(f"link endpoints must be nonnegative: ({self.u},{self.v})")
        if self.tag not in LINK_TAGS:
            raise InvalidParameterError(f"unknown link tag {self.tag!r}")
        object.__setattr__(self, "cost", as_cost(self.cost))

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class Instance:
    """A covering problem: base graph, threshold k, and candidate links.

    `below_k`, the mask of the nodes of degree below k, is derived here
    once.  Such a node is a small cut on its own that only a link at it
    covers; `covers`' screen and the optimum search's prune both read it.
    """

    graph: MultiGraph
    k: int
    links: tuple[Link, ...]
    below_k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.graph, MultiGraph):
            raise InvalidParameterError(f"graph must be a MultiGraph, got {type(self.graph).__name__}")
        require_int(self.k, "threshold k")
        if self.k < 1:
            raise InvalidParameterError(f"threshold k must be at least 1, got k={self.k}")
        links = tuple(self.links)
        for ln in links:
            if not isinstance(ln, Link):
                raise InvalidParameterError(f"links must hold Link objects, got {type(ln).__name__}")
            if ln.u >= self.graph.n or ln.v >= self.graph.n:
                raise _out_of_range(ln, self.graph.n)
        object.__setattr__(self, "links", links)
        degrees = map(self.graph.node_degree, range(self.graph.n))
        object.__setattr__(self, "below_k", sum(1 << v for v, d in enumerate(degrees) if d < self.k))

    @property
    def n(self) -> int:
        return self.graph.n

    def default_root(self) -> int:
        """Node left out when enumerating one side per cut: the last, whatever the labels."""
        return self.n - 1


def _out_of_range(ln: Link, n: int) -> InvalidParameterError:
    return InvalidParameterError(f"link ({ln.u},{ln.v}) endpoints out of range for {n} nodes")


def link_crosses(link: Link, s: Cut) -> bool:
    return s.contains(link.u) != s.contains(link.v)


def _fmt_cut(s: Cut, inst: Instance) -> str:
    return "{" + ",".join(inst.graph.labels[v] for v in s.nodes()) + "}"


def _small_masks(w: list[list[int]], k: int) -> list[int]:
    """Masks of the row sets S of `w` avoiding its last row with d(S) below k.

    `w` is as `_weights` builds it, so a row's degree is its sum.  Every S is
    walked in Gray-code order (Knuth, TAOCP 4A, 7.2.1.1): step i toggles the
    row v at the lowest set bit of i, to S = i ^ (i >> 1).  A flag per row
    says whether it is in S, so it decides whether v joins or leaves.  d(S)
    moves by ±(deg(v) - 2w(v, S - v)), and cross[u] = w(u, S) is kept per
    row, so memory is linear in the rows and edges.  A step touches only the
    toggled row's neighbours: their (row, multiplicity) pairs are listed
    once per call.

    The m walked rows are all but the last.  The steps go in blocks of 2^b,
    b = min(_BLOCK_BITS, m): within the block at `base`, step base | j for
    j > 0 toggles the same row as step j, so one table of (row, j) steps
    serves every block, and only a block's first step, which toggles a row
    at or above b, is worked out from `base`.  At b = 6 that is 1 step in
    64, so a larger table would only spend more of the 12 KiB that
    `test_violated_cuts_memory_stays_linear_in_the_nodes` allows a call.
    """
    m = len(w) - 1
    if m < 1:
        return []
    deg = [sum(row) for row in w]
    adj = [[(u, x) for u, x in enumerate(row) if x] for row in w]
    cross = [0] * len(w)
    inside = [False] * m
    d = 0
    out = []
    b = min(_BLOCK_BITS, m)
    table = tuple(((j & -j).bit_length() - 1, j) for j in range(1, 1 << b))
    for base in range(0, 1 << m, 1 << b):
        steps = table
        if base:
            steps = (((base & -base).bit_length() - 1, 0), *table)
        for v, j in steps:
            step = deg[v] - 2 * cross[v]
            if not inside[v]:
                inside[v] = True
                d += step
                for u, x in adj[v]:
                    cross[u] += x
            else:
                inside[v] = False
                d -= step
                for u, x in adj[v]:
                    cross[u] -= x
            if d < k:
                i = base | j
                out.append(i ^ i >> 1)
    return out


def violated_cuts(inst: Instance, selected: Iterable[Link]) -> list[Cut]:
    """All small cuts not covered by `selected`, one side per cut.

    The cuts no selected link crosses are exactly the unions of the groups
    that merge each link's endpoints, so these are the small cuts of the
    contracted graph: walked over the groups avoiding the root
    `inst.default_root()`, the last node, one group toggled per step, and
    lifted to node sets.  Results sorted by (size, mask).
    """
    n = inst.n
    _check_enum_ok(n, "violated_cuts")
    pairs = []
    for ln in selected:
        if ln.u >= n or ln.v >= n:
            raise _out_of_range(ln, n)
        pairs.append((ln.u, ln.v))
    group, size = _groups(n, pairs)
    last, root = size - 1, group[inst.default_root()]
    group = [last if x == root else root if x == last else x for x in group]  # root's group last
    out = []
    for mask in _small_masks(_weights(inst.graph, group, size), inst.k):
        out.append(Cut(sum(1 << v for v in range(n) if mask >> group[v] & 1), n))
    out.sort(key=lambda s: (s.size(), s.mask))
    return out


def covers_by_enumeration(inst: Instance, selected: Iterable[Link]) -> bool:
    """Reference coverage check: no violated cut survives enumeration."""
    return not violated_cuts(inst, selected)


def _uncovered_core(inst: Instance, selected: Iterable[Link]) -> int | None:
    """Node mask of a core `selected` leaves uncovered, or None if it covers.

    An untouched node of `inst.below_k` is a core by itself, and the lowest
    such node is returned.  Otherwise the selected links are contracted,
    since no uncovered cut separates a link's ends, and Stoer-Wagner phases
    run until one falls below k.  Each earlier phase merged two rows that no
    cut below k separates, so every core is a union of rows; the last row
    of that phase is below k, so it holds a core and is one.
    """
    sel = list(selected)
    g = inst.graph
    k = inst.k
    n = g.n
    touched = 0
    for ln in sel:
        if ln.u >= n or ln.v >= n:
            raise _out_of_range(ln, n)
        touched |= 1 << ln.u | 1 << ln.v
    if n < 2:
        return None
    left = inst.below_k & ~touched
    if left:
        return left & -left
    group, size = _groups(n, ((ln.u, ln.v) for ln in sel))
    for value, rows in min_cut_phases(_weights(g, group, size)):
        if value < k:
            return sum(1 << v for v in range(n) if rows >> group[v] & 1)
    return None


def covers(inst: Instance, selected: Iterable[Link]) -> bool:
    """Whether the min cut of G + k*F is at least k, without enumerating
    cuts: `selected` covers when it leaves no core uncovered."""
    return _uncovered_core(inst, selected) is None


def _droppable_link(inst: Instance, cover: Sequence[Link]) -> int | None:
    """Position in `cover` of the first link it still covers without, or None."""
    for i in range(len(cover)):
        if covers(inst, [*cover[:i], *cover[i + 1 :]]):
            return i
    return None


def is_minimal_cover(inst: Instance, selected: Sequence[Link]) -> bool:
    """True when `selected` covers and no single link can be dropped."""
    sel = list(selected)
    return covers(inst, sel) and _droppable_link(inst, sel) is None


def minimal_cuts(inst: Instance, reps: Iterable[Cut]) -> list[Cut]:
    """Inclusion-minimal sets among the cuts `reps` and their complements.

    Each representative from violated_cuts is rejoined with its complement
    before the minimality sweep, since a cut and its complement are violated
    together but minimality is a property of node sets.  The returned cores
    are pairwise disjoint; that is checked, not assumed.
    """
    full = (1 << inst.n) - 1
    family = set()
    for s in reps:
        family.add(s.mask)
        family.add(s.mask ^ full)
    cores: list[int] = []
    for mask in sorted(family, key=lambda m: (m.bit_count(), m)):
        if not any(mask & c == c for c in cores):
            cores.append(mask)
    for i, a in enumerate(cores):
        for b in cores[i + 1 :]:
            if a & b:
                raise VerificationError("minimal violated cuts must be pairwise disjoint")
    return [Cut(mask, inst.n) for mask in sorted(cores)]

