"""Small cuts, links, covers, and brute-force core discovery.

A cut S is *small* when its crossing multiplicity in the base graph is below
the threshold k.  A link covers S when exactly one of its endpoints lies in
S.  A set of links is a cover when every small cut is covered; equivalently,
adding each selected link as a capacity-k edge lifts the global minimum cut
of the augmented graph to at least k, which `covers` tests at any size by
contraction and Stoer-Wagner phases, with no enumeration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BoundExceededError, InvalidParameterError, VerificationError, require_int
from .multigraph import Cut, MultiGraph, _groups, _weights, min_cut_phases

LINK_TAGS = (None, "red", "blue")

DEFAULT_ENUM_BOUND = 22
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

    Accepts int, Fraction, and strings like "3", "5/2", or "0.01" (decimal
    strings are exact).  Float objects are rejected: costs feed exact dual
    arithmetic and must not arrive already rounded to binary, and exponent
    notation is rejected.
    """
    if isinstance(value, bool):
        raise InvalidParameterError(f"cost must be a number, got {value!r}")
    if isinstance(value, float):
        raise InvalidParameterError(f"float cost {value!r} rejected; pass an exact fraction")
    if isinstance(value, (int, Fraction)):
        cost = Fraction(value)
    elif isinstance(value, str):
        if "e" in value.lower():  # Fraction would expand "1e10000000" in full
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
    """A covering problem: base graph, threshold k, and candidate links."""

    graph: MultiGraph
    k: int
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        require_int(self.k, "threshold k")
        if self.k < 1:
            raise InvalidParameterError(f"threshold k must be at least 1, got k={self.k}")
        links = tuple(self.links)
        for ln in links:
            if ln.u >= self.graph.n or ln.v >= self.graph.n:
                raise InvalidParameterError(
                    f"link ({ln.u},{ln.v}) endpoints out of range for {self.graph.n} nodes"
                )
        object.__setattr__(self, "links", links)

    @property
    def n(self) -> int:
        return self.graph.n

    def default_root(self) -> int:
        """Node left out when enumerating one side per cut: the last, whatever the labels."""
        return self.n - 1


def link_crosses(link: Link, s: Cut) -> bool:
    return s.contains(link.u) != s.contains(link.v)


def _cut_degrees(g: MultiGraph) -> list[int]:
    """Crossing multiplicity for every node subset avoiding the last node.

    Returns dp indexed by node masks over 0..n-2.  dp[mask | lowbit] extends
    dp[mask] by one node in O(n) via the identity
    d(S + v) = d(S) + deg(v) - 2 * mult(v, S).
    """
    m = g.n - 1
    deg = [g.node_degree(v) for v in range(m)]
    w = _weights(g, range(g.n), g.n)
    dp = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        prev = mask & (mask - 1)
        cross = 0
        row = w[low]
        rest = prev
        while rest:
            j = (rest & -rest).bit_length() - 1
            cross += row[j]
            rest &= rest - 1
        dp[mask] = dp[prev] + deg[low] - 2 * cross
    return dp


def violated_cuts(inst: Instance, selected: Iterable[Link]) -> list[Cut]:
    """All small cuts not covered by `selected`, one representative per side.

    Exhaustive over subsets avoiding the root `inst.default_root()`, the
    last node, so each cut appears as the side excluding it.  Results
    sorted by (size, mask).
    """
    n = inst.n
    _check_enum_ok(n, "violated_cuts")
    dp = _cut_degrees(inst.graph)
    nonroot = (1 << (n - 1)) - 1
    epmasks = [(1 << ln.u | 1 << ln.v) & nonroot for ln in selected]
    out = []
    for mask in range(1, 1 << (n - 1)):
        if dp[mask] >= inst.k:
            continue
        if any((mask & ep).bit_count() == 1 for ep in epmasks):
            continue
        out.append(Cut(mask, n))
    out.sort(key=lambda s: (s.size(), s.mask))
    return out


def covers_by_enumeration(inst: Instance, selected: Iterable[Link]) -> bool:
    """Reference coverage check: no violated cut survives enumeration."""
    return not violated_cuts(inst, selected)


def covers(inst: Instance, selected: Iterable[Link]) -> bool:
    """Coverage as "min cut of G + k*F is at least k", no cut enumeration.

    A per-node degree screen runs first.  No cut below k separates the ends
    of a selected link (a capacity-k edge in G + k*F), so contracting them
    keeps every cut below k.  Every Stoer-Wagner phase is a real cut and the
    least is the min cut, so the first phase below k answers False.
    """
    sel = list(selected)
    g = inst.graph
    k = inst.k
    n = g.n
    if n < 2:
        return True
    touched = [0] * n
    for ln in sel:
        touched[ln.u] = 1
        touched[ln.v] = 1
    for v in range(n):
        if not touched[v] and g.node_degree(v) < k:
            return False
    group, size = _groups(n, ((ln.u, ln.v) for ln in sel))
    return all(value >= k for value, _ in min_cut_phases(_weights(g, group, size)))


def is_minimal_cover(inst: Instance, selected: Sequence[Link]) -> bool:
    """True when `selected` covers and no single link can be dropped."""
    sel = list(selected)
    if not covers(inst, sel):
        return False
    for i in range(len(sel)):
        if covers(inst, sel[:i] + sel[i + 1 :]):
            return False
    return True


def cores_bruteforce(inst: Instance, selected: Sequence[Link] = ()) -> list[Cut]:
    """Inclusion-minimal violated cuts by exhaustive enumeration."""
    return minimal_cuts(inst, violated_cuts(inst, selected))


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

