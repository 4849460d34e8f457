"""Generator for the adversarial instance family and its analytic cores.

The family glues p copies of a 7-node gadget along a shared 3-node axis
(z, b, r), giving 4p+3 nodes; p=1 is the plain gadget.  Red links form the
expensive minimal cover (total 5p), blue links the cheap one (total p+2),
and an optional epsilon surcharge on blue keeps blue strictly slack in
phase 1.  Every build is validated against an exact degree battery; a
mismatch is a construction bug, never a warning.

Node ids: gadget i (0-based) occupies 4i..4i+3 as t, a, x, y; then z=4p,
b=4p+1, r=4p+2.  So r is the last node, the one cut enumeration leaves out.
Node labels are t, a, x, y, z, b, r at p=1 and 1-based (t1, a1, ...) for
the gadget nodes at p>=2; they affect printing only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .covering import Instance, Link, as_cost
from .errors import ConstructionError, InvalidParameterError, require_int
from .multigraph import Cut, MultiGraph, cut_degree

@dataclass(frozen=True)
class GadgetParams:
    """Parameters (q, p, k, epsilon); p=1 is the single gadget."""

    q: int
    p: int
    k: int
    epsilon: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("q", "p", "k"):
            require_int(getattr(self, name), name)
        if self.q < 1:
            raise InvalidParameterError(f"requires q >= 1, got q={self.q}")
        if self.p < 1:
            raise InvalidParameterError(f"requires p >= 1, got p={self.p}")
        if self.p == 1:
            if self.k < 2 * self.q + 1:
                raise InvalidParameterError(
                    f"single gadget requires k >= 2q+1 = {2 * self.q + 1}, got k={self.k}"
                )
        elif self.k < 2 * self.p * self.q + 1:
            raise InvalidParameterError(
                f"glued form requires k >= 2pq+1 = {2 * self.p * self.q + 1}, got k={self.k}"
            )
        object.__setattr__(self, "epsilon", as_cost(self.epsilon))

    @property
    def n(self) -> int:
        return 4 * self.p + 3


@dataclass(frozen=True)
class LabeledInstance:
    """An instance and its family parameters.  A link's color is its tag."""

    instance: Instance
    params: GadgetParams

    @property
    def red_links(self) -> tuple[int, ...]:
        return tuple([i for i, ln in enumerate(self.instance.links) if ln.tag == "red"])

    @property
    def blue_links(self) -> tuple[int, ...]:
        return tuple([i for i, ln in enumerate(self.instance.links) if ln.tag == "blue"])

    def red(self) -> list[Link]:
        return [self.instance.links[i] for i in self.red_links]

    def blue(self) -> list[Link]:
        return [self.instance.links[i] for i in self.blue_links]


def axis(p: int) -> tuple[int, int, int]:
    return 4 * p, 4 * p + 1, 4 * p + 2  # z, b, r


def _gadget_nodes(i: int) -> tuple[int, int, int, int]:
    return 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3  # t, a, x, y


def _suffix(p: int, i: int) -> str:
    return f"_{i + 1}" if p > 1 else ""


def _gadget_sets(params: GadgetParams, i: int) -> tuple[Cut, ...]:
    """{t_i}, A_i = {t_i,a_i}, X_i = A_i+x_i and Y_i = X_i+y_i."""
    nodes = _gadget_nodes(i)
    return tuple([Cut.of(nodes[:size], params.n) for size in (1, 2, 3, 4)])  # a list: see MultiGraph.__init__


def a_union(params: GadgetParams, subset: tuple[int, ...]) -> Cut:
    """A_I, the union of the A_i over the 0-based gadget indices in I."""
    return Cut.of([v for i in subset for v in _gadget_nodes(i)[:2]], params.n)


def _c_set(params: GadgetParams) -> Cut:
    """C = {z} with every x_i and y_i."""
    z, _, _ = axis(params.p)
    return Cut.of([z] + [v for i in range(params.p) for v in _gadget_nodes(i)[2:]], params.n)


def _build(params: GadgetParams) -> LabeledInstance:
    q, p, k, eps = params.q, params.p, params.k, params.epsilon
    z, b, r = axis(p)
    n = params.n

    edges: list[tuple[int, int, int]] = []
    for i in range(p):
        t, a, x, y = _gadget_nodes(i)
        edges += [
            (t, a, k - q),
            (a, r, q - 1),
            (t, x, q - 1),
            (a, x, 1),
            (x, y, k - q),
            (y, z, k - q),
        ]
    edges += [(z, b, k - p * q - 1), (b, r, k - p * q)]

    if p == 1:
        labels = ["t", "a", "x", "y", "z", "b", "r"]
    else:
        labels = []
        for i in range(p):
            labels += [f"t{i + 1}", f"a{i + 1}", f"x{i + 1}", f"y{i + 1}"]
        labels += ["z", "b", "r"]
    graph = MultiGraph(n, edges, labels=labels)

    blue = [Link(_gadget_nodes(i)[0], b, 1 + eps, tag="blue") for i in range(p)]
    blue.append(Link(r, z, 2 + eps, tag="blue"))
    red: list[Link] = []
    for i in range(p):
        t, a, x, y = _gadget_nodes(i)
        red += [Link(t, x, 2, tag="red"), Link(a, y, 1, tag="red"), Link(y, r, 2, tag="red")]
    labeled = LabeledInstance(Instance(graph=graph, k=k, links=tuple(blue + red)), params)
    _validate_construction(labeled)
    return labeled


def unique_covers(params: GadgetParams) -> list[tuple[str, Cut, str, int, tuple[int, int]]]:
    """Rows (name, cut, color, link index, endpoints) for the cuts exactly
    one link of that color crosses; the endpoints are the ones the name
    states, ordered as `Link.endpoints` orders them.  The indices follow
    `_build`'s link order: blue t_i b at i and rz at p, then red t_i x_i,
    a_i y_i, y_i r from p+1+3i."""
    p = params.p
    z, b, r = axis(p)
    rows = []
    for i in range(p):
        s = _suffix(p, i)
        t, a, x, y = _gadget_nodes(i)
        t_set, _, x_set, y_set = _gadget_sets(params, i)
        tx = p + 1 + 3 * i
        rows += [
            (f"only red link covering {{t{s}}} is t{s}x{s}", t_set, "red", tx, (t, x)),
            (f"only red link covering X{s} is a{s}y{s}", x_set, "red", tx + 1, (a, y)),
            (f"only red link covering Y{s} is y{s}r", y_set, "red", tx + 2, (y, r)),
            (f"only blue link covering {{t{s}}} is t{s}b", t_set, "blue", i, (t, b)),
        ]
    rows.append(("only blue link covering the complement of {r} is rz", Cut.of((r,), params.n), "blue", p, (z, r)))
    return rows


def _dcut(g: MultiGraph, *nodes: int) -> int:
    return cut_degree(g, Cut.of(nodes, g.n))


def degree_identities(labeled: LabeledInstance) -> list[tuple[str, int, int]]:
    """The degree identities the core characterization quotes, in order.

    Each row is (name, got, want), with `got` measured on the labeled
    instance's own graph, so a corrupted graph shows up as got != want.
    """
    params = labeled.params
    q, p, k = params.q, params.p, params.k
    g = labeled.instance.graph
    z, b, r = axis(p)
    rows = [
        ("d(r) = k-p", g.node_degree(r), k - p),
        ("d(b) = 2k-2pq-1", g.node_degree(b), 2 * k - 2 * p * q - 1),
    ]
    for i in range(p):
        t, a, x, y = _gadget_nodes(i)
        _, a_set, x_set, y_set = _gadget_sets(params, i)
        s = _suffix(p, i)
        rows += [
            (f"d(t{s}) = k-1", g.node_degree(t), k - 1),
            (f"d(a{s}) = k", g.node_degree(a), k),
            (f"d(x{s}) = k", g.node_degree(x), k),
            (f"d(y{s}) = 2k-2q", g.node_degree(y), 2 * k - 2 * q),
            (f"d(A{s}) = 2q-1", cut_degree(g, a_set), 2 * q - 1),
            (f"d(X{s}) = k-1", cut_degree(g, x_set), k - 1),
            (f"d(Y{s}) = k-1", cut_degree(g, y_set), k - 1),
        ]
    rows.append(("d(C) = k-1", cut_degree(g, _c_set(params)), k - 1))
    if p == 1:
        _, _, x, y = _gadget_nodes(0)
        rows += [
            ("d(z) = 2k-2q-1", g.node_degree(z), 2 * k - 2 * q - 1),
            ("d({x,y}) = k", _dcut(g, x, y), k),
            ("d({y,z}) = 2k-2q-1", _dcut(g, y, z), 2 * k - 2 * q - 1),
        ]
    return rows


def degree_sums(labeled: LabeledInstance) -> list[tuple[str, int, int]]:
    """The additive degrees that keep {a_i,b} and, at p=1, {x,z} out of the
    small-cut family, as (name, got, want) rows like `degree_identities`."""
    p = labeled.params.p
    g = labeled.instance.graph
    z, b, _ = axis(p)
    rows = []
    for i in range(p):
        _, a, _, _ = _gadget_nodes(i)
        s = _suffix(p, i)
        rows.append((f"d({{a{s},b}}) = d(a{s})+d(b)", _dcut(g, a, b), g.node_degree(a) + g.node_degree(b)))
    if p == 1:
        _, _, x, _ = _gadget_nodes(0)
        rows.append(("d({x,z}) = d(x)+d(z)", _dcut(g, x, z), g.node_degree(x) + g.node_degree(z)))
    return rows


def _validate_construction(labeled: LabeledInstance) -> None:
    """Exact degree battery; raises ConstructionError naming the failure.

    The quoted identities come first, then the ones only the build relies
    on, then the additive degrees.
    """
    params = labeled.params
    q, p, k = params.q, params.p, params.k
    g = labeled.instance.graph
    z, _, _ = axis(p)
    rows = degree_identities(labeled)
    if p >= 2:
        rows.append(("d(z) = (p+1)k-2pq-1", g.node_degree(z), (p + 1) * k - 2 * p * q - 1))
        for i in range(p):
            _, _, x, y = _gadget_nodes(i)
            rows.append((f"d({{x_{i + 1},y_{i + 1}}}) = k", _dcut(g, x, y), k))
        rows.append(("d(A_1 u A_2) = 2(2q-1)", cut_degree(g, a_union(params, (0, 1))), 2 * (2 * q - 1)))
    rows += degree_sums(labeled)
    for name, got, want in rows:
        if got != want:
            raise ConstructionError(f"degree identity failed: {name}, got {got}, expected {want}")
    for u, v, _ in g.edges:
        gu = u // 4 if u < 4 * p else None
        gv = v // 4 if v < 4 * p else None
        if gu is not None and gv is not None and gu != gv:
            raise ConstructionError(f"edge ({u},{v}) runs between gadgets {gu + 1} and {gv + 1}")

    red_total = sum(ln.cost for ln in labeled.red())
    blue_total = sum(ln.cost for ln in labeled.blue())
    if red_total != 5 * p:
        raise ConstructionError(f"red cost total {red_total}, expected {5 * p}")
    if blue_total != p + 2 + (p + 1) * params.epsilon:
        raise ConstructionError(
            f"blue cost total {blue_total}, expected {p + 2 + (p + 1) * params.epsilon}"
        )


def generate_instance(
    q: int, p: int, k: int, epsilon: Fraction | int | str = 0
) -> LabeledInstance:
    """The family member for (q, p, k, epsilon); p=1 is the 7-node gadget."""
    return _build(GadgetParams(q=q, p=p, k=k, epsilon=epsilon))


def analytic_cores(params: GadgetParams) -> list[Cut]:
    """The p+2 initial cores {t_1},...,{t_p},{r},C without any enumeration."""
    _, _, r = axis(params.p)
    cores = [_gadget_sets(params, i)[0] for i in range(params.p)]
    cores += [Cut.of((r,), params.n), _c_set(params)]
    return sorted(cores, key=lambda s: s.mask)


@dataclass(frozen=True)
class FamilySlices:
    """Analytic cut lists predicted for the generated family.

    cores: the p+2 minimal violated cuts of the empty selection.
    fr_minus_frc: the small cuts avoiding r that do not contain all of C,
    namely the singletons {t_i}, every nonempty union of the A_i, and each
    X_i and Y_i.
    c: the core C = {z} with every x_i and y_i.
    """

    cores: tuple[Cut, ...]
    fr_minus_frc: tuple[Cut, ...]
    c: Cut


def expected_family_slices(params: GadgetParams) -> FamilySlices:
    p = params.p
    cuts = [a_union(params, subset) for size in range(1, p + 1) for subset in combinations(range(p), size)]
    for i in range(p):
        t_set, _, x_set, y_set = _gadget_sets(params, i)
        cuts += [t_set, x_set, y_set]
    cuts.sort(key=lambda s: (s.size(), s.mask))
    return FamilySlices(tuple(analytic_cores(params)), tuple(cuts), _c_set(params))


def infer_params(inst: Instance) -> GadgetParams | None:
    """Back out (q, p, k, epsilon) from an instance shaped like a build.

    Purely arithmetic readout; callers must confirm with detect_generated,
    which rebuilds and compares.  Returns None when the shape is wrong.
    """
    n = inst.n
    if n < 7 or n % 4 != 3:
        return None
    p = (n - 3) // 4
    t, a, _, _ = _gadget_nodes(0)
    _, b, _ = axis(p)
    q = inst.k - inst.graph.multiplicity(t, a)
    eps = None
    for ln in inst.links:
        if ln.endpoints() == (t, b):
            eps = ln.cost - 1
            break
    if eps is None or eps < 0:
        return None
    try:
        return GadgetParams(q=q, p=p, k=inst.k, epsilon=eps)
    except InvalidParameterError:
        return None


def detect_generated(inst: Instance) -> LabeledInstance | None:
    """Rebuild from inferred parameters and accept only an exact match.

    Equality is over k, edge records, and the full link tuples (endpoints,
    costs, tags, order), so a touched-up file fails closed to None.
    """
    params = infer_params(inst)
    if params is None:
        return None
    try:
        rebuilt = _build(params)
    except (InvalidParameterError, ConstructionError):
        return None
    own = rebuilt.instance
    if inst.k == own.k and inst.graph.edges == own.graph.edges and inst.links == own.links:
        return LabeledInstance(inst, params)
    return None
