"""Independent reference implementations used to validate analysis results.

Everything here is deliberately written against networkx or plain Python,
not against the library under test, so agreement is meaningful. The world
oracles visit one root combination at a time through `brute_evaluate`, a
plain walk of each expression tree, which the bit-parallel evaluation in
`scm` must agree with. Two exceptions: `brute_frontdoor_sets` checks each
subset with the library's `satisfies_frontdoor`, which is itself compared
with `nx_satisfies_frontdoor`, so that only the listing is under test; and
`identify_then_filter` filters the report of the library's `identify`, which
is itself compared with brute force, so that only the restriction of
`check_accountability` is under test.

`brute_check_body` is the check of an expression body as three walks,
depth, references and types, each written on its own; `scm.check_expr`
does all three in one walk and must refuse with the same message.
"""

from __future__ import annotations

import itertools
import random
import re

import networkx as nx

from causal_account import (
    BACKWARD,
    BOOL,
    FORWARD,
    AccountabilityReport,
    And,
    CausalGraph,
    EnumerationLimit,
    Eq,
    IdentificationReport,
    IdentificationStatus,
    IfThenElse,
    InconsistentEvidence,
    Lit,
    LoggingRecommendation,
    Node,
    NodeKind,
    Not,
    Or,
    ParseError,
    Path,
    PatternArityError,
    PatternMatch,
    Ref,
    RoleKind,
    SemanticError,
    SourceSpan,
    Table,
    UnspecifiedFunction,
    Verdict,
    build_graph,
    identify,
    intervene,
    satisfies_frontdoor,
)
from causal_account.limits import DEFAULT_MATCH_CAP, DEFAULT_PATH_LIMIT, MAX_EXPR_DEPTH


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


def brute_logging_recommendation(
    g: CausalGraph, x: str, y: str, chosen: frozenset[str]
) -> LoggingRecommendation:
    """What `logging_set` recommends when it adjusts for `chosen`: the
    observable nodes on directed x to y paths, the endpoints and `chosen`,
    with the lines of `brute_logging_rationale`."""
    dg = to_networkx(g)
    on_path = nx.descendants(dg, x) & nx.ancestors(dg, y) | {x, y}
    must_log = on_path & set(g.observable_names()) | chosen
    rationale = brute_logging_rationale(g, x, y, chosen)
    return LoggingRecommendation(frozenset(must_log), chosen, rationale)


def identify_then_filter(g: CausalGraph, p, m: PatternMatch) -> AccountabilityReport:
    """`check_accountability` by identify-then-filter, for a valid match `m`
    of a pattern with one Agent-kind role: the whole `identify` report, its
    back-door sets filtered to the admissible controls, its front-door sets
    dropped and one note added, and the recommendation of
    `brute_logging_recommendation` for the first set left."""
    dg = to_networkx(g)
    agent = next(m.binding[r.name] for r in p.roles if r.kind is RoleKind.AGENT)
    effect = next(m.binding[r.name] for r in p.roles if r.kind is RoleKind.EFFECT)
    on_path = nx.descendants(dg, agent) & nx.ancestors(dg, effect)
    admissible = set(m.binding.values()) - on_path - {agent, effect}
    full = identify(g, agent, effect)
    sets = tuple(z for z in full.minimal_backdoor_sets if z <= admissible)
    restricted = "controls restricted to {" + ", ".join(g.sort_names(admissible)) + "}"
    report = IdentificationReport(
        treatment=agent,
        outcome=effect,
        backdoor_paths=full.backdoor_paths,
        minimal_backdoor_sets=sets,
        frontdoor_sets=(),
        status=(
            IdentificationStatus.BACKDOOR
            if sets
            else IdentificationStatus.NOT_IDENTIFIABLE
        ),
        notes=full.notes + (restricted,),
    )
    verdict = Verdict.ACCOUNTABLE if sets else Verdict.NOT_ATTRIBUTABLE
    logging = brute_logging_recommendation(g, agent, effect, sets[0]) if sets else None
    return AccountabilityReport(p.name, m, agent, effect, report, verdict, logging)


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


def brute_simple_paths(
    g: CausalGraph, x: str, y: str, first, directed: bool = False, limit: int = DEFAULT_PATH_LIMIT
) -> list[Path]:
    """The simple x-y paths whose first step out of x is in `first`, as
    (neighbour, direction) pairs, in the order the library lists them: a
    depth-first walk that tries neighbours in declaration order and collects
    a list, each path built through the checking `Path` constructor. Past
    `limit` paths it raises the library's message."""
    def moves(name: str):
        if directed:
            return [(c, FORWARD) for c in g.children(name)]
        steps = [(c, FORWARD) for c in g.children(name)]
        steps += [(p, BACKWARD) for p in g.parents(name)]
        return sorted(steps, key=lambda step: g.index(step[0]))

    out: list[Path] = []
    nodes_on_stack = {x}
    stack_nodes = [x]
    stack_dirs: list[str] = []
    pending = [iter(first)]
    while pending:
        for nxt, direction in pending[-1]:
            if nxt == y:
                if len(out) >= limit:
                    raise EnumerationLimit(f"more than {limit} paths between {x} and {y}")
                out.append(Path(tuple(stack_nodes) + (y,), tuple(stack_dirs) + (direction,)))
                continue
            if nxt in nodes_on_stack:
                continue
            nodes_on_stack.add(nxt)
            stack_nodes.append(nxt)
            stack_dirs.append(direction)
            pending.append(iter(moves(nxt)))
            break
        else:
            pending.pop()
            if pending:
                stack_dirs.pop()
                nodes_on_stack.remove(stack_nodes.pop())
    return out


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


def first_stuck_walk(names, edges) -> list[str] | None:
    """The cycle that `build_graph` named before it dropped the nodes that
    hang below a cycle: Kahn's sort over the distinct `edges`, then a walk
    from the first node left over, in the order of `names`, to the first
    child left over, each time, until a node repeats. None where the walk
    reaches a node with no child left over."""
    order = {name: i for i, name in enumerate(names)}
    children = {a: sorted({d for c, d in edges if c == a}, key=order.get) for a in names}
    indeg = dict.fromkeys(names, 0)
    for a in names:
        for b in children[a]:
            indeg[b] += 1
    queue = [a for a in names if indeg[a] == 0]
    while queue:
        for b in children[queue.pop()]:
            indeg[b] -= 1
            if indeg[b] == 0:
                queue.append(b)
    walk = [next(a for a in names if indeg[a] > 0)]
    while walk[-1] not in walk[:-1]:
        left = [b for b in children[walk[-1]] if indeg[b] > 0]
        if not left:
            return None
        walk.append(left[0])
    return walk[walk.index(walk[-1]) :]


def sampled_pairs(
    n_nodes: int, edge_probability: float
) -> tuple[CausalGraph, list[tuple[str, str]]]:
    """`random_dag(Random(1), n_nodes, edge_probability)` and its first 30
    confounded pairs (a declared before b, a back-door path from a to b open
    given nothing) after `Random(0).shuffle`."""
    g = random_dag(random.Random(1), n_nodes, edge_probability)
    pairs = [
        (a, b)
        for i, a in enumerate(g.names)
        for b in g.names[i + 1 :]
        if not nx_satisfies_backdoor(g, (), a, b)
    ]
    random.Random(0).shuffle(pairs)
    return g, pairs[:30]


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


def expr_refs(e) -> tuple[str, ...]:
    """Variable references in `e`, in first-occurrence order."""
    seen: dict[str, None] = {}

    def walk(node) -> None:
        if isinstance(node, Ref):
            seen[node.name] = None
        for child in node.children():
            walk(child)

    walk(e)
    return tuple(seen)


def check_depth(e, what: str, depth: int = MAX_EXPR_DEPTH) -> None:
    """Refuse `e`, named `what`, if it nests more than `depth` levels: one per
    node but a literal or a reference, a chain of any length included."""
    for child in e.children():
        if depth == 0:
            raise SemanticError(f"{what} nests deeper than {MAX_EXPR_DEPTH} levels")
        check_depth(child, what, depth - 1)


def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _infer_domain(e, var_domains, known_domains):
    """Best-effort domain of an expression; None when a bare literal is ambiguous."""
    if isinstance(e, (Not, And, Or, Eq)):
        return BOOL
    if isinstance(e, Ref):
        return var_domains.get(e.name)
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return BOOL
        candidates = [d for d in known_domains if e.value in d.values]
        return candidates[0] if len(candidates) == 1 else None
    if isinstance(e, IfThenElse):
        return _infer_domain(e.then, var_domains, known_domains) or _infer_domain(
            e.orelse, var_domains, known_domains
        )
    return None


def check_expr(e, expected, var_domains, known_domains) -> None:
    """Type-check `e` against the domain the context expects, raising
    SemanticError at the first mismatch in pre-order."""
    known = tuple(known_domains)
    if isinstance(e, Lit):
        if e.value not in expected:
            raise SemanticError(
                f"value {_show(e.value)} does not belong to domain {expected.name}"
            )
        return
    if isinstance(e, Ref):
        actual = var_domains.get(e.name)
        if actual is None:
            raise SemanticError(f"unknown variable {e.name!r}")
        if actual != expected:
            raise SemanticError(
                f"variable {e.name} has domain {actual.name}, expected {expected.name}"
            )
        return
    if isinstance(e, (Not, And, Or)):
        if expected != BOOL:
            raise SemanticError(
                f"boolean operator used where domain {expected.name} is expected"
            )
        for child in e.children():
            check_expr(child, BOOL, var_domains, known)
        return
    if isinstance(e, Eq):
        if expected != BOOL:
            raise SemanticError(
                f"comparison used where domain {expected.name} is expected"
            )
        side = _infer_domain(e.terms[0], var_domains, known) or _infer_domain(
            e.terms[1], var_domains, known
        )
        if side is None:
            raise SemanticError("cannot determine the domain of this comparison")
        # `a == b == c` compares `a == b`, a bool, with `c`
        for k, term in enumerate(e.terms):
            check_expr(term, side if k < 2 else BOOL, var_domains, known)
        return
    if isinstance(e, IfThenElse):
        check_expr(e.cond, BOOL, var_domains, known)
        check_expr(e.then, expected, var_domains, known)
        check_expr(e.orelse, expected, var_domains, known)
        return
    raise SemanticError(f"unsupported expression node {type(e).__name__}")


def brute_check_body(e, expected, var_domains, known_domains, what) -> tuple[str, ...]:
    """The references of body `e`, called `what`, after its three checks in
    their order: nesting depth, references outside `var_domains`, types."""
    check_depth(e, what)
    refs = expr_refs(e)
    stray = set(refs) - set(var_domains)
    if stray:
        raise SemanticError(f"{what} references non-parents: " + ", ".join(sorted(stray)))
    check_expr(e, expected, var_domains, known_domains)
    return refs


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


def render_assignment(m, a) -> str:
    """One line of `worlds` or `do --then eval`: `name=value` pairs in
    declaration order, each value rendered by its domain."""
    return " ".join(
        f"{name}={m.domains[name].render(a[name])}" for name in m.graph.names if name in a
    )


_BRUTE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#.*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>->|<-|==|[={}():,!&|])
    """,
    re.VERBOSE,
)


def brute_tokenize(line: str, lineno: int) -> list[tuple[str, str, int, int, int]]:
    """The DSL tokens of one line as (kind, text, line, column, length),
    ending with the ("end", "", line, len(line) + 1, 1) marker: one match
    for each whitespace run, comment and token, in order. A character that
    starts none of them raises ParseError at its 1-based column."""
    tokens = []
    pos = 0
    while pos < len(line):
        m = _BRUTE_TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {line[pos]!r}", SourceSpan(lineno, pos + 1)
            )
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group(), lineno, m.start() + 1, len(m.group())))
        pos = m.end()
    tokens.append(("end", "", lineno, len(line) + 1, 1))
    return tokens


def brute_unquote(text: str, span) -> str:
    """The value of a DSL string token, read one character at a time: `\\"`
    and `\\\\` are the only escapes, and any other raises ParseError at `span`."""
    body = text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                raise ParseError("unsupported escape in string", span)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
