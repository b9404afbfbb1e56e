"""Independent reference implementations used to validate analysis results.

Everything here is deliberately written against networkx or plain Python,
not against the library under test, so agreement is meaningful. The world
oracles visit one root combination at a time through `brute_evaluate`, a
plain walk of each expression tree, which the bit-parallel evaluation in
`scm` must agree with. One exception: `brute_frontdoor_sets` checks each
subset with the library's `satisfies_frontdoor`, which is itself compared
with `nx_satisfies_frontdoor`, so that only the listing is under test.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

from causal_account import (
    FORWARD,
    And,
    CausalGraph,
    EnumerationLimit,
    Eq,
    IfThenElse,
    InconsistentEvidence,
    Lit,
    Node,
    NodeKind,
    Not,
    Or,
    Path,
    PatternArityError,
    PatternMatch,
    Ref,
    Table,
    UnspecifiedFunction,
    build_graph,
    intervene,
    satisfies_frontdoor,
)
from causal_account.limits import DEFAULT_MATCH_CAP


def to_networkx(g: CausalGraph) -> nx.DiGraph:
    dg = nx.DiGraph()
    dg.add_nodes_from(g.names)
    dg.add_edges_from(g.edges)
    return dg


def nx_d_separated(g: CausalGraph, xs, ys, zs) -> bool:
    return nx.is_d_separator(to_networkx(g), set(xs), set(ys), set(zs))


def nx_satisfies_backdoor(
    g: CausalGraph, z, x: str, y: str, trust_proxies: bool = False
) -> bool:
    """Back-door check via the mutilated-graph formulation.

    Z satisfies the criterion iff no Z-node descends from x and x is
    d-separated from y by Z in the graph with x's outgoing edges removed.
    The two formulations agree because removing x's out-edges leaves exactly
    the paths that start with an arrow into x, and no admissible Z-node can
    sit below x to re-open a collider through the removed edges. With
    trust_proxies, the latent principal of every proxy in Z blocks as well.
    """
    zset = set(z)
    dg = to_networkx(g)
    if zset & set(nx.descendants(dg, x)):
        return False
    blockers = set(zset)
    if trust_proxies:
        principals = {g.node(name).proxy_for for name in zset}
        blockers |= principals - {None, x, y}
    mutilated = dg.copy()
    mutilated.remove_edges_from(list(dg.out_edges(x)))
    return nx.is_d_separator(mutilated, {x}, {y}, blockers)


def nx_satisfies_frontdoor(g: CausalGraph, z, x: str, y: str) -> bool:
    """Front-door check, each condition asked of networkx directly.

    1. Every directed x to y path meets Z: y is unreachable once Z is removed.
    2. No back-door path from x into Z is open: x is d-separated from Z by
       nothing once x's out-edges are removed.
    3. Every back-door path from a member m of Z to y is blocked by {x}: m is
       d-separated from y by {x} once m's out-edges are removed.
    Latent members make the set inadmissible.
    """
    zset = set(z)
    if any(not g.node(name).kind.observable for name in zset):
        return False
    dg = to_networkx(g)
    rest = dg.copy()
    rest.remove_nodes_from(zset)
    if nx.has_path(rest, x, y):
        return False

    def without_out_edges(name: str) -> nx.DiGraph:
        mutilated = dg.copy()
        mutilated.remove_edges_from(list(dg.out_edges(name)))
        return mutilated

    if zset and not nx.is_d_separator(without_out_edges(x), {x}, zset, set()):
        return False
    return all(
        nx.is_d_separator(without_out_edges(m), {m}, {y}, {x}) for m in zset
    )


def brute_minimal_backdoor_sets(
    g: CausalGraph, x: str, y: str, trust_proxies: bool = False
) -> set[frozenset[str]]:
    """All inclusion-minimal observable back-door sets, by exhaustive search."""
    pool = [n for n in g.observable_names() if n not in (x, y)]
    satisfying: list[frozenset[str]] = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if nx_satisfies_backdoor(g, combo, x, y, trust_proxies):
                satisfying.append(frozenset(combo))
    return {
        z
        for z in satisfying
        if not any(other < z for other in satisfying)
    }


def brute_frontdoor_sets(g: CausalGraph, x: str, y: str) -> list[frozenset[str]]:
    """The inclusion-minimal front-door sets among the observable nodes on
    directed x to y paths, trying every subset by size with no size limit;
    they come out by size, then in the order `itertools.combinations` gives."""
    dg = to_networkx(g)
    inside = nx.descendants(dg, x) & nx.ancestors(dg, y)
    pool = [name for name in g.observable_names() if name in inside]
    found: list[frozenset[str]] = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            zset = frozenset(combo)
            if any(prior <= zset for prior in found):
                continue
            if satisfies_frontdoor(g, zset, x, y):
                found.append(zset)
    return found


def brute_backdoor_colliders(g: CausalGraph, x: str, y: str) -> set[str]:
    """The colliders on the simple back-door paths from x to y, by listing
    every skeleton path whose first edge points into x."""
    dg = to_networkx(g)
    skeleton = dg.to_undirected(as_view=True).subgraph(set(g.names) - {x})
    found: set[str] = set()
    for q in dg.predecessors(x):
        paths = [[q]] if q == y else nx.all_simple_paths(skeleton, q, y)
        for path in paths:
            nodes = [x, *path]
            found.update(
                mid
                for before, mid, after in zip(nodes, nodes[1:], nodes[2:])
                if dg.has_edge(before, mid) and dg.has_edge(after, mid)
            )
    return found


def brute_logging_rationale(
    g: CausalGraph, x: str, y: str, chosen: frozenset[str]
) -> tuple[str, ...]:
    """The rationale lines of `logging_set` for adjustment set `chosen`, with
    its colliders from `brute_backdoor_colliders`."""
    dg = to_networkx(g)
    observable = set(g.observable_names())
    on_path = (nx.descendants(dg, x) & nx.ancestors(dg, y) | {x, y}) & observable
    colliders = brute_backdoor_colliders(g, x, y)
    lines = []
    for name in g.names:
        if name == x:
            lines.append(f"{name}: the treatment")
        elif name == y:
            lines.append(f"{name}: the outcome")
        elif name in chosen:
            lines.append(f"{name}: member of the chosen adjustment set")
        elif name in on_path:
            lines.append(f"{name}: lies on a directed path from {x} to {y}")
        elif name not in observable:
            lines.append(f"{name}: latent, cannot be observed or logged")
        elif name in colliders:
            lines.append(
                f"{name}: collider on a back-door path; leaving it unlogged "
                "keeps that path blocked"
            )
        elif name in nx.descendants(dg, x):
            lines.append(
                f"{name}: descendant of the treatment, inadmissible for adjustment"
            )
        else:
            lines.append(
                f"{name}: not needed, every back-door path stays blocked without it"
            )
    return tuple(lines)


def _brute_witness(g: CausalGraph, start: str, goal: str, bound: frozenset[str]):
    """First directed start-to-goal path avoiding bound nodes, by plain backtracking."""
    stack = [start]
    on_stack = {start}

    def search() -> tuple[str, ...] | None:
        for child in g.children(stack[-1]):
            if child == goal:
                return tuple(stack) + (goal,)
            if child in bound or child in on_stack:
                continue
            stack.append(child)
            on_stack.add(child)
            found = search()
            if found is not None:
                return found
            on_stack.remove(child)
            stack.pop()
        return None

    nodes = search()
    if nodes is None:
        return None
    return Path(nodes, tuple([FORWARD] * (len(nodes) - 1)))


def brute_bindings(g: CausalGraph, p, hints=None):
    """The complete role bindings `match_pattern` counts against its limit,
    as dicts, by backtracking with set lookups.

    Roles are bound in declaration order, candidates tried in node
    declaration order. Every partial binding is checked against every
    template edge whose endpoints are both bound (directed reachability);
    each complete binding that passes is yielded, with or without witness
    paths.
    """
    hints = dict(hints or {})
    candidates = g.observable_names()
    edges = p.template_edges
    roles = p.role_names()
    G = to_networkx(g)
    reach = {name: nx.descendants(G, name) for name in g.names}
    binding: dict[str, str] = {}
    used: set[str] = set()

    def feasible() -> bool:
        for a, b in edges:
            if a in binding and b in binding:
                if binding[b] not in reach[binding[a]]:
                    return False
        return True

    def assign(i: int):
        if i == len(roles):
            yield dict(binding)
            return
        role = roles[i]
        options = (hints[role],) if role in hints else candidates
        for node in options:
            if node in used or not g.kind(node).observable:
                continue
            binding[role] = node
            used.add(node)
            if feasible():
                yield from assign(i + 1)
            used.remove(node)
            del binding[role]

    return assign(0)


def brute_match_pattern(
    g: CausalGraph, p, hints=None, limit: int = DEFAULT_MATCH_CAP, out=None
):
    """`match_pattern` over `brute_bindings`.

    Each complete binding counts against `limit` before its witness paths
    are searched. Matches are appended to `out` when given, so a caller
    still sees those found before an EnumerationLimit.
    """
    hints = dict(hints or {})
    role_names = set(p.role_names())
    for role, node in hints.items():
        if role not in role_names:
            raise PatternArityError(
                f"hint names role {role!r}, pattern {p.name} has roles "
                + ", ".join(p.role_names())
            )
        g.require(node)

    matches: list = [] if out is None else out
    for examined, binding in enumerate(brute_bindings(g, p, hints), 1):
        if examined > limit:
            raise EnumerationLimit(
                f"more than {limit} candidate bindings for pattern {p.name}"
            )
        bound = frozenset(binding.values())
        witnesses = {}
        for a, b in p.template_edges:
            path = _brute_witness(g, binding[a], binding[b], bound)
            if path is None:
                break
            witnesses[(a, b)] = path
        else:
            matches.append(PatternMatch(binding, witnesses))
    return matches


def random_dag(
    rng: random.Random,
    n_nodes: int,
    edge_probability: float = 0.3,
    latent_probability: float = 0.0,
) -> CausalGraph:
    """A random DAG over n1..nN with edges respecting the index order.

    Latent nodes are only ever sources (they take no incoming edges), so a
    node is eligible to be latent when the coin says so and no earlier node
    points at it.
    """
    names = [f"n{i + 1}" for i in range(n_nodes)]
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < edge_probability
    ]
    has_parent = {b for _, b in edges}
    nodes = []
    for name in names:
        if name in has_parent:
            kind = NodeKind.ENDOGENOUS
        elif rng.random() < latent_probability:
            kind = NodeKind.LATENT
        else:
            kind = rng.choice((NodeKind.EXOGENOUS, NodeKind.ENDOGENOUS))
        nodes.append(Node(name, kind))
    return build_graph(nodes, edges)


def with_proxies(rng: random.Random, g: CausalGraph) -> CausalGraph:
    """`g` plus zero to two proxies p<k> of each latent node, each declared at a
    random position; about half of them also point at endogenous nodes."""
    nodes, edges = list(g.nodes), list(g.edges)
    endogenous = [n.name for n in g.nodes if n.kind is NodeKind.ENDOGENOUS]
    latents = [n.name for n in g.nodes if n.kind is NodeKind.LATENT]
    for principal in latents:
        for _ in range(rng.randint(0, 2)):
            name = f"p{len(nodes) - len(g.nodes) + 1}"
            nodes.insert(
                rng.randint(0, len(nodes)),
                Node(name, NodeKind.ENDOGENOUS, proxy_for=principal),
            )
            edges.append((principal, name))
            if rng.random() < 0.5:
                edges.extend((name, c) for c in endogenous if rng.random() < 0.3)
    return build_graph(nodes, edges)


def all_dags(n_nodes: int):
    """Every DAG over n1..nN whose edges respect the index order."""
    names = [f"n{i + 1}" for i in range(n_nodes)]
    possible = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
    ]
    for mask in range(2 ** len(possible)):
        edges = [e for i, e in enumerate(possible) if mask >> i & 1]
        has_parent = {b for _, b in edges}
        nodes = [
            Node(
                name,
                NodeKind.ENDOGENOUS if name in has_parent else NodeKind.EXOGENOUS,
            )
            for name in names
        ]
        yield build_graph(nodes, edges)


def _brute_value(e, env):
    """The value of expression `e` where each variable takes its `env` value."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Ref):
        return env[e.name]
    if isinstance(e, Not):
        return not _brute_value(e.a, env)
    if isinstance(e, And):
        return _brute_value(e.a, env) and _brute_value(e.b, env)
    if isinstance(e, Or):
        return _brute_value(e.a, env) or _brute_value(e.b, env)
    if isinstance(e, Eq):
        return _brute_value(e.a, env) == _brute_value(e.b, env)
    if isinstance(e, IfThenElse):
        branch = e.then if _brute_value(e.cond, env) else e.orelse
        return _brute_value(branch, env)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def brute_evaluate(m, u) -> dict:
    """`evaluate` for a complete root assignment `u`, one variable at a time.

    A variable's parents are evaluated before it, by recursion, so no
    topological order is needed. A table body is looked up by its row.
    """
    env = dict(u)

    def value(name):
        if name not in env:
            f = m.functions[name]
            if f.body is None:
                raise UnspecifiedFunction(f"variable {name} is declared structure-only")
            args = {p: value(p) for p in f.parents}
            if isinstance(f.body, Table):
                env[name] = dict(f.body.rows)[tuple(args[p] for p in f.parents)]
            else:
                env[name] = _brute_value(f.body, args)
        return env[name]

    return {name: value(name) for name in m.graph.names}


def brute_consistent_worlds(m, evidence) -> list[dict]:
    """`consistent_worlds` by evaluating every root combination in product order."""
    roots = m.root_names
    worlds = []
    for values in itertools.product(*(m.domains[name].values for name in roots)):
        world = brute_evaluate(m, dict(zip(roots, values)))
        if all(world[k] == v for k, v in evidence.items()):
            worlds.append(world)
    return worlds


def brute_counterfactual(m, evidence, do, query) -> dict[str, frozenset]:
    """`counterfactual` by evaluating the mutilated model once per abduced world."""
    worlds = brute_consistent_worlds(m, evidence)
    if not worlds:
        raise InconsistentEvidence("no root assignment is consistent with the evidence")
    mutilated = intervene(m, do)
    results: dict[str, set] = {name: set() for name in query}
    for world in worlds:
        prediction = brute_evaluate(mutilated, {name: world[name] for name in m.root_names})
        for name in results:
            results[name].add(prediction[name])
    return {name: frozenset(values) for name, values in results.items()}
