"""Seeded random model construction for round-trip and property tests.

Models come out through build_scm, so every generated model is valid by
construction. Value names are globally unique to satisfy the DSL's single
namespace rule.
"""

from __future__ import annotations

import itertools
import random

from causal_account import (
    BOOL,
    And,
    Domain,
    Eq,
    Expr,
    IfThenElse,
    Lit,
    Node,
    NodeKind,
    Not,
    Or,
    Ref,
    Scm,
    StructuralFunction,
    Table,
    ancestors,
    build_graph,
    build_scm,
)

from oracles import expr_refs

_LABELS = (
    None,
    None,
    None,
    "plain label",
    'label with "quotes"',
    "label with \\backslash",
    "UAV in flight",
)


def _random_domains(rng: random.Random) -> list[Domain]:
    domains = [BOOL]
    for i in range(rng.randint(0, 2)):
        count = rng.randint(2, 4)
        domains.append(
            Domain(f"dom{i + 1}", tuple(f"v{i + 1}_{j + 1}" for j in range(count)))
        )
    return domains


def _leaf(rng: random.Random, usable: list[str], target: Domain) -> Expr:
    refs = [name for name in usable]
    if refs and rng.random() < 0.7:
        return Ref(rng.choice(refs))
    return Lit(rng.choice(target.values))


def _random_expr(
    rng: random.Random,
    parents_by_domain: dict[Domain, list[str]],
    target: Domain,
    depth: int,
) -> Expr:
    usable = parents_by_domain.get(target, [])
    if depth == 0:
        return _leaf(rng, usable, target)
    if target == BOOL:
        roll = rng.random()
        if roll < 0.25:
            return _leaf(rng, usable, target)
        if roll < 0.4:
            return Not(_random_expr(rng, parents_by_domain, BOOL, depth - 1))
        if roll < 0.55:
            return And(
                _random_expr(rng, parents_by_domain, BOOL, depth - 1),
                _random_expr(rng, parents_by_domain, BOOL, depth - 1),
            )
        if roll < 0.7:
            return Or(
                _random_expr(rng, parents_by_domain, BOOL, depth - 1),
                _random_expr(rng, parents_by_domain, BOOL, depth - 1),
            )
        if roll < 0.85:
            side = rng.choice(list(parents_by_domain) or [BOOL])
            return Eq(
                _leaf(rng, parents_by_domain.get(side, []), side),
                _leaf(rng, parents_by_domain.get(side, []), side),
            )
        return IfThenElse(
            _random_expr(rng, parents_by_domain, BOOL, depth - 1),
            _random_expr(rng, parents_by_domain, BOOL, depth - 1),
            _random_expr(rng, parents_by_domain, BOOL, depth - 1),
        )
    if rng.random() < 0.4:
        return IfThenElse(
            _random_expr(rng, parents_by_domain, BOOL, depth - 1),
            _leaf(rng, usable, target),
            _leaf(rng, usable, target),
        )
    return _leaf(rng, usable, target)


def _random_table(
    rng: random.Random,
    parents: tuple[str, ...],
    node_domains: dict[str, Domain],
    target: Domain,
) -> Table:
    value_lists = [node_domains[p].values for p in parents]
    rows = tuple(
        (inputs, rng.choice(target.values))
        for inputs in itertools.product(*value_lists)
    )
    return Table(rows)


def random_scm(rng: random.Random, max_nodes: int = 8) -> Scm:
    domains = _random_domains(rng)
    n = rng.randint(1, max_nodes)
    names = [f"n{i + 1}" for i in range(n)]

    nodes: list[Node] = []
    node_domains: dict[str, Domain] = {}
    functions: dict[str, StructuralFunction] = {}
    edges: list[tuple[str, str]] = []
    latents: list[str] = []

    for i, name in enumerate(names):
        label = rng.choice(_LABELS)
        earlier = names[:i]
        roll = rng.random()

        if latents and roll < 0.1:
            principal = rng.choice(latents)
            nodes.append(Node(name, NodeKind.ENDOGENOUS, label, proxy_for=principal))
            node_domains[name] = node_domains[principal]
            functions[name] = StructuralFunction(name, (principal,), Ref(principal))
            edges.append((principal, name))
            continue

        domain = rng.choice(domains)
        if not earlier or roll < 0.3:
            kind = NodeKind.LATENT if rng.random() < 0.25 else NodeKind.EXOGENOUS
            nodes.append(Node(name, kind, label))
            node_domains[name] = domain
            if kind is NodeKind.LATENT:
                latents.append(name)
            continue

        k = rng.randint(0, min(3, len(earlier)))
        parents = tuple(sorted(rng.sample(earlier, k), key=names.index))
        body_roll = rng.random()
        row_count = 1
        for p in parents:
            row_count *= len(node_domains[p].values)
        if body_roll < 0.15:
            body: Expr | Table | None = None
        elif body_roll < 0.3 and parents and row_count <= 16:
            body = _random_table(rng, parents, node_domains, domain)
        else:
            parents_by_domain: dict[Domain, list[str]] = {}
            for p in parents:
                parents_by_domain.setdefault(node_domains[p], []).append(p)
            body = _random_expr(rng, parents_by_domain, domain, depth=2)
            parents = expr_refs(body)
        nodes.append(Node(name, NodeKind.ENDOGENOUS, label))
        node_domains[name] = domain
        functions[name] = StructuralFunction(name, parents, body)
        edges.extend((p, name) for p in parents)

    graph = build_graph(nodes, edges)
    return build_scm(graph, node_domains, functions, f"gen{rng.randint(0, 9999)}")


def pad_roots(rng: random.Random, m: Scm, keep) -> Scm:
    """`m` with one to four extra boolean roots that no variable of `keep`
    depends on.

    Each extra root lands at a random place in the declaration order and
    feeds nothing, a new sink variable, or a variable of `m` (not a proxy)
    outside `keep` and its ancestors, whose body then falls back to a
    literal when the root is false. Descendants of such a variable lie
    outside that ancestry too, so every variable of `keep` and every
    ancestor keeps its function.
    """
    g = m.graph
    keep = set(keep)
    relevant = keep.union(*(ancestors(g, name) for name in keep))
    nodes = list(g.nodes)
    edges = list(g.edges)
    domains = dict(m.domains)
    functions = dict(m.functions)
    free = [
        name
        for name in m.endogenous_names
        if name not in relevant
        and g.node(name).proxy_for is None  # a proxy has one parent, its principal
        and isinstance(functions[name].body, Expr)
    ]
    for i in range(rng.randint(1, 4)):
        root = f"pad{i + 1}"
        nodes.insert(rng.randint(0, len(nodes)), Node(root, NodeKind.EXOGENOUS))
        domains[root] = BOOL
        roll = rng.random()
        if roll < 0.3:
            continue
        if roll < 0.6 or not free:
            sink = f"sink{i + 1}"
            nodes.append(Node(sink, NodeKind.ENDOGENOUS))
            domains[sink] = BOOL
            other = rng.choice(g.names)
            body = And(Ref(root), Eq(Ref(other), Ref(other)))
            functions[sink] = StructuralFunction(sink, (root, other), body)
            edges.extend([(root, sink), (other, sink)])
            continue
        name = rng.choice(free)
        f = functions[name]
        fallback = Lit(domains[name].values[0])
        functions[name] = StructuralFunction(
            name, (*f.parents, root), IfThenElse(Ref(root), f.body, fallback)
        )
        edges.append((root, name))
    return build_scm(build_graph(nodes, edges), domains, functions, m.name)
