"""Directed acyclic causal graphs.

A CausalGraph is an immutable, labeled DAG over variable names. Node order is
the declaration order; every set-valued result in this package is reported
sorted by that order so output stays reproducible. Latent nodes take part in
path and blocking logic like any other node, they are only barred from
adjustment sets (enforced in `identify`).

Reachability is stored once per graph, as int bitmasks with bit i for the
i-th declared node. Every d-separation question is answered by one algorithm
on those masks (`d_connected`): separation in the moral graph of an ancestral
set, which can also cut the out-edges of chosen nodes so that identification
asks its questions of the mutilated graph without building it. Path
enumeration remains for results that are themselves paths and as a slow
reference for the moral-graph test. One lazy walker (`simple_paths`) lists
paths: `all_paths` and the back-door listing collect it, `d_separated_paths`
stops at the first open path. `is_blocked` is `Path.validate` plus the
blocking rule that `d_separated_paths` applies to the walker's paths.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import AbstractSet, Iterable, Iterator, Literal, Mapping, Sequence

from .errors import (
    CycleError,
    DuplicateNode,
    EdgeIntoExogenous,
    InvalidNodeName,
    InvalidNodeSpec,
    InvalidPath,
    OverlapError,
    SemanticError,
    UnknownEndpoint,
    UnknownNode,
)
from .limits import DEFAULT_PATH_CAP, _countable, _over_cap, _refusal, enumeration_cap

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


def _path(nodes: tuple[str, ...], directions: tuple[Direction, ...]) -> Path:
    """A Path filled in without the length check, for callers that built the
    two tuples together, step by step, so that their lengths agree."""
    path = object.__new__(Path)
    fields = path.__dict__
    fields["nodes"] = nodes
    fields["directions"] = directions
    return path


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

    # `build_graph` sorts the edges by source, then target, in declaration
    # order, so the parents and the children of each node come out in it
    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        res: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for a, b in self.edges:
            res[b].append(a)
        return {k: tuple(v) for k, v in res.items()}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        res: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for a, b in self.edges:
            res[a].append(b)
        return {k: tuple(v) for k, v in res.items()}

    @cached_property
    def _steps(self) -> tuple[dict[str, tuple[tuple[str, Direction], ...]], ...]:
        """The moves out of each node, in declaration order: first the skeleton
        steps with their edge orientation, then the forward steps alone, so
        that `_steps[directed]` is the table a walk reads."""
        res: dict[str, list[tuple[str, Direction]]] = {n.name: [] for n in self.nodes}
        for a, b in self.edges:
            res[a].append((b, FORWARD))
            res[b].append((a, BACKWARD))
        skeleton = {
            k: tuple(sorted(v, key=lambda nd: self._order[nd[0]])) for k, v in res.items()
        }
        forward = {k: tuple(st for st in v if st[1] == FORWARD) for k, v in skeleton.items()}
        return skeleton, forward

    @cached_property
    def _edge_bits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The parents and the children of each node, as int bitmasks with
        bit i for the i-th declared node; the tuples follow that order."""
        parents = [0] * len(self.nodes)
        children = [0] * len(self.nodes)
        for a, b in self.edges:
            i, j = self._order[a], self._order[b]
            parents[j] |= 1 << i
            children[i] |= 1 << j
        return tuple(parents), tuple(children)

    @cached_property
    def _reach_bits(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """De and An of each node, then the observable nodes, as int bitmasks
        in the layout of `_edge_bits`."""
        parents, children = self._edge_bits
        topo = [self._order[name] for name in self._topo]
        de = [0] * len(self.nodes)
        an = [0] * len(self.nodes)
        for i, j in zip(topo, reversed(topo)):
            an[i] = parents[i] | _neighbourhood(an, parents[i])
            de[j] = children[j] | _neighbourhood(de, children[j])
        observable = _mask(self, self.observable_names())
        return tuple(de), tuple(an), observable

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
        """Kahn's order over `_children`; raises CycleError, naming a cycle,
        if there is none. `build_graph` reads it, so a built graph has one."""
        out, indeg = kahn(self.names, self._children)
        if len(out) < len(self.nodes):
            raise CycleError(_cycle(self._children, indeg))
        return tuple(out)


NodeSpec = Node | tuple[str, "NodeKind | str"] | tuple[str, "NodeKind | str", "str | None"]


def _normalize_node(spec: NodeSpec) -> Node:
    node = spec
    try:
        if not isinstance(spec, Node):
            name, kind, *label = spec if isinstance(spec, (tuple, list)) and len(spec) < 4 else ()
            node = Node(name, kind, *label)
        if not isinstance(node.kind, NodeKind):
            node = replace(node, kind=NodeKind(str(node.kind).lower()))
    except ValueError:
        raise InvalidNodeSpec(
            f"node spec {spec!r} is no Node or (name, kind[, label]) of a known kind"
        ) from None
    if not node.name or not isinstance(node.name, str):
        raise InvalidNodeName(f"invalid node name {node.name!r}", subject=("node", node.name))
    if node.label is not None and not isinstance(node.label, str):
        raise InvalidNodeSpec(f"node spec {spec!r} has a label that is not a string")
    return node


def build_graph(
    nodes: Sequence[NodeSpec], edges: Sequence[tuple[str, str]]
) -> CausalGraph:
    """Validate and build a CausalGraph.

    Nodes may be Node objects, (name, kind) pairs, or (name, kind, label)
    triples; in each, kind may be a NodeKind or its string value. Edges are
    ordered pairs of names. Duplicate edges collapse (edges form a set);
    everything else invalid raises, naming the node or edge at fault as `subject`:
    DuplicateNode, UnknownEndpoint, EdgeIntoExogenous, or CycleError.
    """
    normalized = [_normalize_node(s) for s in nodes]
    seen: set[str] = set()
    for n in normalized:
        if n.name in seen:
            raise DuplicateNode(f"node {n.name!r} declared twice", subject=("node", n.name))
        seen.add(n.name)
    by_name = {n.name: n for n in normalized}
    order = {n.name: i for i, n in enumerate(normalized)}

    edge_set: set[tuple[str, str]] = set()
    for a, b in edges:
        at = ("edge", (a, b))
        for endpoint in (a, b):
            if endpoint not in by_name:
                raise UnknownEndpoint(f"edge {a} -> {b}: unknown node {endpoint!r}", subject=at)
        if a == b:
            raise CycleError([a, a])
        if by_name[b].kind.is_root:
            raise EdgeIntoExogenous(
                f"edge {a} -> {b}: {b} is {by_name[b].kind.value} and takes no incoming edges",
                subject=at,
            )
        edge_set.add((a, b))
    g = CausalGraph(
        tuple(normalized), tuple(sorted(edge_set, key=lambda e: (order[e[0]], order[e[1]])))
    )
    g._topo  # raises CycleError on a cycle

    for n in normalized:
        if n.proxy_for is None:
            continue
        principal = by_name.get(n.proxy_for)
        at = ("node", n.name)
        if principal is None:
            raise UnknownEndpoint(f"proxy {n.name}: unknown principal {n.proxy_for!r}", subject=at)
        if principal.kind is not NodeKind.LATENT:
            raise SemanticError(
                f"proxy {n.name}: principal {n.proxy_for} must be latent, "
                f"is {principal.kind.value}",
                subject=at,
            )
        if g._parents[n.name] != (n.proxy_for,):
            raise SemanticError(
                f"proxy {n.name} must have exactly one incoming edge, from {n.proxy_for}",
                subject=at,
            )
    return g


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


def _cycle(children: Mapping[str, Sequence[str]], indeg: Mapping[str, int]) -> list[str]:
    """A cycle, closed by its first node, among the nodes that `kahn` left
    with a positive in-degree `indeg`."""
    stuck = [name for name, d in indeg.items() if d > 0]
    # drop, until none is left, the nodes with no stuck child left: they only
    # hang below a cycle, and a walk from them would come to a dead end
    live = set(stuck)
    while dead := {name for name in live if live.isdisjoint(children[name])}:
        live -= dead
    # walk forward through what is left until a node repeats
    start = next(name for name in stuck if name in live)
    walk = [start]
    positions = {start: 0}
    while True:
        nxt = next(c for c in children[walk[-1]] if c in live)
        if nxt in positions:
            return walk[positions[nxt] :] + [nxt]
        positions[nxt] = len(walk)
        walk.append(nxt)


# -- reachability ----------------------------------------------------------


def ancestors(g: CausalGraph, x: str) -> set[str]:
    """All nodes with a directed path to `x`, excluding `x` itself."""
    g.require(x)
    return set(_names(g, g._reach_bits[1][g._order[x]]))


def descendants(g: CausalGraph, x: str) -> set[str]:
    """All nodes reachable from `x` by a directed path, excluding `x`."""
    g.require(x)
    return set(_names(g, g._reach_bits[0][g._order[x]]))


def between(g: CausalGraph, x: str, y: str) -> frozenset[str]:
    """The nodes strictly inside some directed path from `x` to `y`: De(x) ∩ An(y)."""
    g.require(x)
    g.require(y)
    de, an, _ = g._reach_bits
    return _names(g, de[g._order[x]] & an[g._order[y]])


# -- int bitmasks, bit i for the i-th declared node ------------------------


def _mask(g: CausalGraph, names: Iterable[str]) -> int:
    order = g._order
    mask = 0
    for name in names:
        mask |= 1 << order[name]
    return mask


def _names(g: CausalGraph, mask: int) -> frozenset[str]:
    return frozenset(g.nodes[low.bit_length() - 1].name for low in _bits(mask))


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _neighbourhood(adj: Sequence[int], mask: int) -> int:
    """The union of the rows of `adj` picked by the bits of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _component(adj: Sequence[int], start: int, blocked: int) -> int:
    """The vertices reachable from `start` without entering `blocked`."""
    comp = frontier = start
    while frontier:
        frontier = _neighbourhood(adj, frontier) & ~blocked & ~comp
        comp |= frontier
    return comp


def _moral_bits(g: CausalGraph, cut: int, within: int) -> list[int]:
    """Adjacency masks of the moral graph of `g` restricted to the ancestral
    set `within` with the out-edges of `cut` removed: each remaining edge,
    plus an edge between every two remaining parents of a node."""
    parents = g._edge_bits[0]
    adj = [0] * len(g.nodes)
    for child in _bits(within):
        i = child.bit_length() - 1
        married = parents[i] & ~cut
        adj[i] |= married
        for bit in _bits(married):
            adj[bit.bit_length() - 1] |= (married ^ bit) | child
    return adj


def _minimal_separators(
    succ: Sequence[int], pred: Sequence[int], x: int, y: int, deletable: int, cap: int
) -> set[int]:
    """The inclusion-minimal sets of `deletable` vertices that meet every path
    from vertex `x` to vertex `y` along the rows of `succ` (`pred` holds them
    reversed), as masks, each found in polynomial time by the close-separator
    step of Berry, Bordat & Cogis (2000). Past 2^cap of them it raises
    EnumerationLimit."""
    def close(side: int) -> int | None:
        # the minimal separator nearest to `side` after `side` has taken in
        # every successor that cannot be deleted; None once that takes in y
        rim = _neighbourhood(succ, side) & ~side
        while rim & ~deletable:
            side |= rim & ~deletable
            rim = (rim | _neighbourhood(succ, rim & ~deletable)) & ~side
        if side & y:
            return None
        return rim & _neighbourhood(pred, _component(pred, y, rim))

    first = close(x)
    if first is None:
        return set()
    seen, todo = {first}, [first]
    while todo:
        if _over_cap(len(seen), cap):
            raise _refusal(cap, "minimal sets")
        separator = todo.pop()
        x_side = _component(succ, x, separator)
        for bit in _bits(separator):
            nxt = close(x_side | bit)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


# -- path enumeration ------------------------------------------------------


def _require_endpoints(g: CausalGraph, x: str, y: str, message: str) -> None:
    """Raise UnknownNode unless `x` and `y` are nodes of `g`, then
    OverlapError with `message` when they are the same node."""
    g.require(x)
    g.require(y)
    if x == y:
        raise OverlapError(message)


def all_paths(g: CausalGraph, x: str, y: str, directed: bool = False) -> list[Path]:
    """Enumerate simple paths between `x` and `y`.

    With directed=False, paths run through the skeleton and each step carries
    its edge orientation; with directed=True only forward steps are taken.
    Paths come out in lexicographic order of their node sequences (by
    declaration order). Raises EnumerationLimit past 2^N paths (N from
    `limits.enumeration_cap`).
    """
    _require_endpoints(g, x, y, "path endpoints must differ")
    return list(simple_paths(g, x, y, g._steps[directed][x], directed))


def simple_paths(
    g: CausalGraph,
    x: str,
    y: str,
    first: Iterable[tuple[str, Direction]],
    directed: bool = False,
) -> Iterator[Path]:
    """The paths of `all_paths` whose first step out of `x` is in `first`,
    yielded as they are found.

    `first` holds (neighbour, direction) pairs; paths that start otherwise are
    never walked. The endpoints must be distinct known nodes. Finding a path
    past the cap, read when the walk starts, raises EnumerationLimit, so a
    caller that stops early only pays for what it took.
    """
    steps = g._steps[directed]
    cap = enumeration_cap(DEFAULT_PATH_CAP)
    limit = _countable(cap)
    found = 0
    nodes_on_stack = {x}
    stack_nodes = [x]
    stack_dirs: list[Direction] = []
    # one iterator of untried moves per node on the stack, so path length is
    # not bounded by Python's recursion limit
    pending: list[Iterator[tuple[str, Direction]]] = [iter(first)]
    while pending:
        for nxt, direction in pending[-1]:
            if nxt == y:
                if found >= limit:
                    raise _refusal(cap, f"paths between {x} and {y}")
                found += 1
                yield _path((*stack_nodes, y), (*stack_dirs, direction))
                continue
            if nxt in nodes_on_stack:
                continue
            nodes_on_stack.add(nxt)
            stack_nodes.append(nxt)
            stack_dirs.append(direction)
            pending.append(iter(steps[nxt]))
            break
        else:
            pending.pop()
            if pending:
                stack_dirs.pop()
                nodes_on_stack.remove(stack_nodes.pop())


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
    return _blocked(g, path, zset, _mask(g, zset))


def _blocked(g: CausalGraph, path: Path, zset: AbstractSet[str], zmask: int) -> bool:
    """The blocking rule of `is_blocked` on a simple path of `g`, with `zmask`
    the mask of `zset`; nothing is validated."""
    de, order = g._reach_bits[0], g._order
    nodes, dirs = path.nodes, path.directions
    for i in range(1, len(nodes) - 1):
        mid = nodes[i]
        if dirs[i - 1] == FORWARD and dirs[i] == BACKWARD:  # collider at mid
            if mid not in zset and not de[order[mid]] & zmask:
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
) -> bool:
    """d-separation by brute-force path enumeration, stopping at the first
    open path; raises EnumerationLimit after 2^N blocked paths between one
    pair of endpoints."""
    xs, ys, zs = _check_query_sets(g, x, y, z)
    zmask = _mask(g, zs)
    for a in g.sort_names(xs):
        for b in g.sort_names(ys):
            for path in simple_paths(g, a, b, g._steps[False][a]):
                if not _blocked(g, path, zs, zmask):
                    return False
    return True


def d_separated_reachable(
    g: CausalGraph, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """d-separation by separation in the moral graph of the ancestral set."""
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
    They exist exactly when `z` fails to separate the sources from the
    targets in the moral graph of An(sources ∪ targets ∪ z), taken with
    those edges removed (Lauritzen et al., 1990). A node that reaches that
    set only through a removed edge reaches a source of `cut` first, so the
    ancestral set is read off `g`. Arguments are not validated: the three
    sets must be disjoint, and `cut` must lie within `sources`.
    """
    start, goal, zmask = _mask(g, sources), _mask(g, targets), _mask(g, z)
    within = start | goal | zmask
    within |= _neighbourhood(g._reach_bits[1], within)
    adj = _moral_bits(g, _mask(g, cut), within)
    return bool(_component(adj, start, zmask) & goal)


def d_separated(
    g: CausalGraph, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """True when `z` blocks every skeleton path between `x` and `y`.

    The sets must be pairwise disjoint (OverlapError) and name known nodes
    (UnknownNode).
    """
    return d_separated_reachable(g, x, y, z)
