"""Directed acyclic causal graphs.

A CausalGraph is an immutable, labeled DAG over variable names. Node order is
the declaration order; every set-valued result in this package is reported
sorted by that order so output stays reproducible. Latent nodes take part in
path and blocking logic like any other node, they are only barred from
adjustment sets (enforced in `identify`).

Every d-separation question is answered by one linear-time ball-passing
traversal (`d_connected`), which can also cut the out-edges of chosen nodes so
that identification asks its questions of the mutilated graph without
building it. Path enumeration (`all_paths`, `is_blocked`, `d_separated_paths`)
remains for results that are themselves paths and as a slow reference that the
tests compare the traversal against.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Literal, Mapping, Sequence

from .errors import (
    CycleError,
    DuplicateNode,
    EdgeIntoExogenous,
    EnumerationLimit,
    InvalidPath,
    OverlapError,
    SemanticError,
    UnknownEndpoint,
    UnknownNode,
)
from .limits import DEFAULT_PATH_LIMIT

FORWARD: Literal["forward"] = "forward"
BACKWARD: Literal["backward"] = "backward"
Direction = Literal["forward", "backward"]


class NodeKind(enum.Enum):
    """How a variable relates to the model boundary."""

    EXOGENOUS = "exogenous"
    ENDOGENOUS = "endogenous"
    LATENT = "latent"

    @property
    def observable(self) -> bool:
        """Latent nodes cannot be observed or logged; all others can."""
        return self is not NodeKind.LATENT

    @property
    def is_root(self) -> bool:
        """Exogenous and latent nodes take no incoming edges."""
        return self is not NodeKind.ENDOGENOUS


@dataclass(frozen=True)
class Node:
    """A named variable with its kind and optional display label.

    `proxy_for` names the latent principal this node observes, if the node was
    declared as a proxy. A proxy is an ordinary endogenous node structurally;
    the marker only matters to analyses that may treat it as a stand-in.
    """

    name: str
    kind: NodeKind
    label: str | None = None
    proxy_for: str | None = None


@dataclass(frozen=True)
class Path:
    """A simple path through the graph skeleton.

    `directions[i]` records the orientation of the edge joining `nodes[i]` and
    `nodes[i + 1]`: "forward" for nodes[i] -> nodes[i+1], "backward" for the
    reverse. A directed path is one with only forward steps.
    """

    nodes: tuple[str, ...]
    directions: tuple[Direction, ...]

    def __post_init__(self) -> None:
        if len(self.directions) != max(len(self.nodes) - 1, 0):
            raise InvalidPath(
                f"path over {len(self.nodes)} node(s) needs "
                f"{max(len(self.nodes) - 1, 0)} direction tag(s), "
                f"got {len(self.directions)}"
            )

    @property
    def is_directed(self) -> bool:
        return all(d == FORWARD for d in self.directions)

    def validate(self, g: "CausalGraph") -> None:
        """Raise InvalidPath unless this is a simple path of `g`."""
        if not self.nodes:
            raise InvalidPath("empty path")
        if len(set(self.nodes)) != len(self.nodes):
            raise InvalidPath(f"path repeats a node: {self}")
        for name in self.nodes:
            if name not in g:
                raise InvalidPath(f"path visits unknown node {name!r}")
        for (a, b), d in zip(zip(self.nodes, self.nodes[1:]), self.directions):
            edge = (a, b) if d == FORWARD else (b, a)
            if edge not in g.edge_set:
                raise InvalidPath(f"no edge {edge[0]} -> {edge[1]} in graph (path {self})")

    def __str__(self) -> str:
        if not self.nodes:
            return "(empty path)"
        parts = [self.nodes[0]]
        for node, d in zip(self.nodes[1:], self.directions):
            parts.append(" -> " if d == FORWARD else " <- ")
            parts.append(node)
        return "".join(parts)


@dataclass(frozen=True)
class CausalGraph:
    """Immutable DAG; build through `build_graph`, which validates."""

    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]

    # -- lookups, all derived lazily and cached ---------------------------

    @cached_property
    def _by_name(self) -> dict[str, Node]:
        return {n.name: n for n in self.nodes}

    @cached_property
    def _order(self) -> dict[str, int]:
        return {n.name: i for i, n in enumerate(self.nodes)}

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        res: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for a, b in self.edges:
            res[b].append(a)
        return {k: tuple(sorted(v, key=self._order.__getitem__)) for k, v in res.items()}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        res: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for a, b in self.edges:
            res[a].append(b)
        return {k: tuple(sorted(v, key=self._order.__getitem__)) for k, v in res.items()}

    @cached_property
    def _neighbors(self) -> dict[str, tuple[tuple[str, Direction], ...]]:
        # skeleton adjacency with edge orientation, sorted by declaration order
        res: dict[str, list[tuple[str, Direction]]] = {n.name: [] for n in self.nodes}
        for a, b in self.edges:
            res[a].append((b, FORWARD))
            res[b].append((a, BACKWARD))
        return {
            k: tuple(sorted(v, key=lambda nd: self._order[nd[0]])) for k, v in res.items()
        }

    @cached_property
    def _descendants(self) -> dict[str, frozenset[str]]:
        res: dict[str, frozenset[str]] = {}
        for name in reversed(self.topological_order()):
            acc: set[str] = set()
            for c in self._children[name]:
                acc.add(c)
                acc |= res[c]
            res[name] = frozenset(acc)
        return res

    @cached_property
    def _ancestors(self) -> dict[str, frozenset[str]]:
        res: dict[str, frozenset[str]] = {}
        for name in self.topological_order():
            acc: set[str] = set()
            for p in self._parents[name]:
                acc.add(p)
                acc |= res[p]
            res[name] = frozenset(acc)
        return res

    @cached_property
    def _reach_bits(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """De and An of each node, then the observable nodes, as int bitmasks
        with bit i for the i-th declared node; the tuples follow that order."""
        bit = {name: 1 << i for name, i in self._order.items()}
        de = tuple(sum(map(bit.get, self._descendants[n.name])) for n in self.nodes)
        an = tuple(sum(map(bit.get, self._ancestors[n.name])) for n in self.nodes)
        return de, an, sum(bit[n.name] for n in self.nodes if n.kind.observable)

    # -- basic accessors --------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def node(self, name: str) -> Node:
        self.require(name)
        return self._by_name[name]

    def kind(self, name: str) -> NodeKind:
        return self.node(name).kind

    def index(self, name: str) -> int:
        self.require(name)
        return self._order[name]

    def require(self, name: str) -> None:
        if name not in self._by_name:
            raise UnknownNode(f"unknown node {name!r}")

    def parents(self, name: str) -> tuple[str, ...]:
        self.require(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self.require(name)
        return self._children[name]

    def observable_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.kind.observable)

    def sort_names(self, names: Iterable[str]) -> tuple[str, ...]:
        """Sort node names by declaration order."""
        return tuple(sorted(names, key=self._order.__getitem__))

    def topological_order(self) -> tuple[str, ...]:
        """Names in a topological order, ties broken by declaration order."""
        return self._topo

    @cached_property
    def _topo(self) -> tuple[str, ...]:
        out, _ = kahn(self.names, self._children)
        assert len(out) == len(self.nodes), "cycle slipped past construction"
        return tuple(out)


NodeSpec = Node | tuple[str, "NodeKind | str"] | tuple[str, "NodeKind | str", "str | None"]


def _normalize_node(spec: NodeSpec) -> Node:
    if isinstance(spec, Node):
        node = spec
    else:
        name, kind, *rest = spec
        if not isinstance(kind, NodeKind):
            kind = NodeKind(str(kind).lower())
        label = rest[0] if rest else None
        node = Node(name, kind, label)
    if not node.name or not isinstance(node.name, str):
        raise ValueError(f"invalid node name {node.name!r}")
    return node


def build_graph(
    nodes: Sequence[NodeSpec], edges: Sequence[tuple[str, str]]
) -> CausalGraph:
    """Validate and build a CausalGraph.

    Nodes may be Node objects, (name, kind) pairs, or (name, kind, label)
    triples; kind may be a NodeKind or its string value. Edges are ordered
    pairs of names. Duplicate edges collapse (edges form a set); everything
    else invalid raises: DuplicateNode, UnknownEndpoint, EdgeIntoExogenous,
    or CycleError (which names the cycle).
    """
    normalized = [_normalize_node(s) for s in nodes]
    seen: set[str] = set()
    for n in normalized:
        if n.name in seen:
            raise DuplicateNode(f"node {n.name!r} declared twice")
        seen.add(n.name)
    by_name = {n.name: n for n in normalized}
    order = {n.name: i for i, n in enumerate(normalized)}

    unique_edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()
    for a, b in edges:
        for endpoint in (a, b):
            if endpoint not in by_name:
                raise UnknownEndpoint(f"edge {a} -> {b}: unknown node {endpoint!r}")
        if a == b:
            raise CycleError([a, a])
        if by_name[b].kind.is_root:
            raise EdgeIntoExogenous(
                f"edge {a} -> {b}: {b} is {by_name[b].kind.value} and takes no incoming edges"
            )
        if (a, b) in edge_seen:
            continue
        edge_seen.add((a, b))
        unique_edges.append((a, b))
    unique_edges.sort(key=lambda e: (order[e[0]], order[e[1]]))

    _check_acyclic(normalized, unique_edges)

    for n in normalized:
        if n.proxy_for is None:
            continue
        principal = by_name.get(n.proxy_for)
        if principal is None:
            raise UnknownEndpoint(f"proxy {n.name}: unknown principal {n.proxy_for!r}")
        if principal.kind is not NodeKind.LATENT:
            raise SemanticError(
                f"proxy {n.name}: principal {n.proxy_for} must be latent, "
                f"is {principal.kind.value}"
            )
        parents = [a for a, b in unique_edges if b == n.name]
        if parents != [n.proxy_for]:
            raise SemanticError(
                f"proxy {n.name} must have exactly one incoming edge, from {n.proxy_for}"
            )

    return CausalGraph(tuple(normalized), tuple(unique_edges))


def kahn(
    names: Sequence[str], children: Mapping[str, Sequence[str]]
) -> tuple[list[str], dict[str, int]]:
    """Kahn's topological sort; ties follow the order of `names` and `children`.

    Returns the nodes it could order and the in-degrees left over. On a cycle
    the order comes out short, and the nodes left with a positive in-degree
    lie on or below a cycle.
    """
    indeg = {name: 0 for name in names}
    for name in names:
        for c in children[name]:
            indeg[c] += 1
    queue = deque(name for name in names if indeg[name] == 0)
    out: list[str] = []
    while queue:
        name = queue.popleft()
        out.append(name)
        for c in children[name]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return out, indeg


def _check_acyclic(nodes: Sequence[Node], edges: Sequence[tuple[str, str]]) -> None:
    children: dict[str, list[str]] = {n.name: [] for n in nodes}
    for a, b in edges:
        children[a].append(b)
    ordered, indeg = kahn([n.name for n in nodes], children)
    if len(ordered) == len(nodes):
        return
    # walk forward through the leftover subgraph until a node repeats
    stuck = [name for name, d in indeg.items() if d > 0]
    walk = [stuck[0]]
    positions = {stuck[0]: 0}
    while True:
        nxt = next(c for c in children[walk[-1]] if indeg[c] > 0)
        if nxt in positions:
            cycle = walk[positions[nxt] :] + [nxt]
            raise CycleError(cycle)
        positions[nxt] = len(walk)
        walk.append(nxt)


# -- reachability ----------------------------------------------------------


def ancestors(g: CausalGraph, x: str) -> set[str]:
    """All nodes with a directed path to `x`, excluding `x` itself."""
    g.require(x)
    return set(g._ancestors[x])


def descendants(g: CausalGraph, x: str) -> set[str]:
    """All nodes reachable from `x` by a directed path, excluding `x`."""
    g.require(x)
    return set(g._descendants[x])


def between(g: CausalGraph, x: str, y: str) -> frozenset[str]:
    """The nodes strictly inside some directed path from `x` to `y`: De(x) ∩ An(y)."""
    g.require(x)
    g.require(y)
    return g._descendants[x] & g._ancestors[y]


# -- path enumeration ------------------------------------------------------


def all_paths(
    g: CausalGraph,
    x: str,
    y: str,
    directed: bool = False,
    limit: int = DEFAULT_PATH_LIMIT,
) -> list[Path]:
    """Enumerate simple paths between `x` and `y`.

    With directed=False, paths run through the skeleton and each step carries
    its edge orientation; with directed=True only forward steps are taken.
    Paths come out in lexicographic order of their node sequences (by
    declaration order). Raises EnumerationLimit past `limit` paths.
    """
    g.require(x)
    g.require(y)
    if x == y:
        raise OverlapError("path endpoints must differ")
    first = (
        tuple((c, FORWARD) for c in g._children[x]) if directed else g._neighbors[x]
    )
    return simple_paths(g, x, y, first, directed, limit)


def simple_paths(
    g: CausalGraph,
    x: str,
    y: str,
    first: Iterable[tuple[str, Direction]],
    directed: bool = False,
    limit: int = DEFAULT_PATH_LIMIT,
) -> list[Path]:
    """The paths of `all_paths` whose first step out of `x` is in `first`.

    `first` holds (neighbour, direction) pairs; paths that start otherwise are
    never walked. The endpoints must be distinct known nodes.
    """
    out: list[Path] = []
    nodes_on_stack = {x}
    stack_nodes = [x]
    stack_dirs: list[Direction] = []

    def step(moves: Iterable[tuple[str, Direction]]) -> None:
        for nxt, direction in moves:
            if nxt == y:
                if len(out) >= limit:
                    raise EnumerationLimit(
                        f"more than {limit} paths between {x} and {y}"
                    )
                out.append(
                    Path(tuple(stack_nodes) + (y,), tuple(stack_dirs) + (direction,))
                )
                continue
            if nxt in nodes_on_stack:
                continue
            nodes_on_stack.add(nxt)
            stack_nodes.append(nxt)
            stack_dirs.append(direction)
            if directed:
                step((c, FORWARD) for c in g._children[nxt])
            else:
                step(g._neighbors[nxt])
            stack_dirs.pop()
            stack_nodes.pop()
            nodes_on_stack.remove(nxt)

    step(first)
    return out


# -- blocking and d-separation --------------------------------------------


def is_blocked(g: CausalGraph, path: Path, z: Iterable[str]) -> bool:
    """Apply the blocking rules to one path.

    A path is blocked by `z` when it contains a chain or fork whose middle
    node is in `z`, or a collider whose node is outside `z` with no descendant
    in `z`.
    """
    path.validate(g)
    zset = frozenset(z)
    for name in zset:
        g.require(name)
    for i in range(1, len(path.nodes) - 1):
        mid = path.nodes[i]
        into = path.directions[i - 1] == FORWARD
        out_of = path.directions[i] == BACKWARD
        if into and out_of:  # collider at mid
            if mid not in zset and g._descendants[mid].isdisjoint(zset):
                return True
        elif mid in zset:  # chain or fork
            return True
    return False


def _check_query_sets(
    g: CausalGraph, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    xs, ys, zs = frozenset(x), frozenset(y), frozenset(z)
    for name in xs | ys | zs:
        g.require(name)
    overlap = (xs & ys) | (xs & zs) | (ys & zs)
    if overlap:
        raise OverlapError(
            "query sets must be pairwise disjoint, they share "
            + ", ".join(g.sort_names(overlap))
        )
    return xs, ys, zs


def d_separated_paths(
    g: CausalGraph,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str],
    limit: int = DEFAULT_PATH_LIMIT,
) -> bool:
    """d-separation by brute-force path enumeration."""
    xs, ys, zs = _check_query_sets(g, x, y, z)
    for a in g.sort_names(xs):
        for b in g.sort_names(ys):
            for path in all_paths(g, a, b, limit=limit):
                if not is_blocked(g, path, zs):
                    return False
    return True


def d_separated_reachable(
    g: CausalGraph, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """d-separation by ancestral reachability (ball-passing traversal)."""
    xs, ys, zs = _check_query_sets(g, x, y, z)
    return not d_connected(g, xs, ys, zs)


def d_connected(
    g: CausalGraph,
    sources: Iterable[str],
    targets: AbstractSet[str],
    z: AbstractSet[str],
    cut: AbstractSet[str] = frozenset(),
) -> bool:
    """True when an active trail given `z` joins `sources` to `targets`.

    Trails run in `g` with the out-edges of the sources in `cut` removed.
    Bayes-ball (Shachter 1998), linear in the size of the graph: phase one
    collects z and its ancestors, phase two walks (node, approach direction)
    states along active trails starting upward out of the sources. Arguments
    are not validated: the three sets must be disjoint, and no node of `z` may
    descend from a node of `cut`, so that z's ancestors stay those of `g`.
    """
    z_closure = set(z)
    for name in z:
        z_closure |= g._ancestors[name]

    parents, children = g._parents, g._children
    up, down = 0, 1
    queue: deque[tuple[str, int]] = deque(
        (name, up) for name in sources if name not in cut
    )
    queue.extend((p, up) for name in cut for p in parents[name])
    # a cut source reached again could only leave by a removed out-edge: it
    # is not in z, and by the condition above it is no ancestor of z either
    visited = {(name, how) for name in cut for how in (up, down)}
    while queue:
        state = queue.popleft()
        if state in visited:
            continue
        visited.add(state)
        name, how = state
        if name in targets and name not in z:
            return True
        if how == up and name not in z:
            for p in parents[name]:
                queue.append((p, up))
            for c in children[name]:
                queue.append((c, down))
        elif how == down:
            if name not in z:
                for c in children[name]:
                    queue.append((c, down))
            if name in z_closure:  # collider with (an ancestor of) z below it
                for p in parents[name]:
                    queue.append((p, up))
    return False


def d_separated(
    g: CausalGraph, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """True when `z` blocks every skeleton path between `x` and `y`.

    The sets must be pairwise disjoint (OverlapError) and name known nodes
    (UnknownNode).
    """
    return d_separated_reachable(g, x, y, z)
