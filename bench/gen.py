"""Seeded input generators for the benchmark workloads.

Everything here is built from a `random.Random` passed in, so a seed fixes
the inputs exactly. Graphs and models are assembled through the program's
own constructors (`build_graph`, `build_scm`), which is part of the set-up
the benchmark times. The `worlds` generator also returns a plain-Python
evaluator for every model it builds; the checks use it as the reference.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from causal_account import (
    BOOL,
    And,
    Domain,
    Eq,
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
    build_graph,
    build_scm,
)


def random_dag(rng: random.Random, n_nodes: int, edge_probability: float = 0.3):
    """A random DAG over n1..nN with edges respecting the index order.

    The same draw sequence as `random_dag` in the test oracles (with no
    latent nodes), so a (seed, n, p) triple names the same graph in both.
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
        else:
            rng.random()  # the oracle generator's latent coin, always "no"
            kind = rng.choice((NodeKind.EXOGENOUS, NodeKind.ENDOGENOUS))
        nodes.append(Node(name, kind))
    return build_graph(nodes, edges)


# -- worlds: fully specified SCMs with a reference evaluator ---------------

D3 = Domain("level", ("low", "mid", "high"))
D4 = Domain("phase", ("idle", "armed", "active", "done"))
ENDO_DOMAINS = (BOOL, BOOL, D3, D4)

Env = dict
Fn = Callable[[Env], object]


@dataclass(frozen=True)
class WorldModel:
    """A generated SCM plus the generator's own evaluation of it."""

    scm: Scm
    roots: tuple[str, ...]
    order: tuple[str, ...]  # declaration order, which is topological here
    domains: dict[str, Domain]
    fns: dict[str, Fn]

    def evaluate(self, u: dict, pins: dict | None = None) -> dict:
        """Reference evaluation: roots from `u`, endogenous by closure or pin."""
        pins = pins or {}
        env = dict(u)
        for name in self.order:
            if name in pins:
                env[name] = pins[name]
            elif name not in env:
                env[name] = self.fns[name](env)
        return env

    def root_space(self):
        return itertools.product(*(self.domains[r].values for r in self.roots))


def _atom(rng: random.Random, parent: str, domain: Domain):
    """A boolean test on one parent, as an Expr and as a closure."""
    if domain == BOOL:
        if rng.random() < 0.3:
            return Not(Ref(parent)), lambda env: not env[parent]
        return Ref(parent), lambda env: env[parent]
    value = rng.choice(domain.values)
    return Eq(Ref(parent), Lit(value)), lambda env: env[parent] == value


def _condition(rng: random.Random, parents, domains):
    expr, fn = _atom(rng, parents[0], domains[parents[0]])
    for p in parents[1:]:
        e2, f2 = _atom(rng, p, domains[p])
        if rng.random() < 0.5:
            expr, fn = And(expr, e2), (lambda a, b: lambda env: bool(a(env)) and bool(b(env)))(fn, f2)
        else:
            expr, fn = Or(expr, e2), (lambda a, b: lambda env: bool(a(env)) or bool(b(env)))(fn, f2)
    return expr, fn


def _body(rng: random.Random, parents, domains, target: Domain):
    combos = 1
    for p in parents:
        combos *= len(domains[p].values)
    if combos <= 16 and rng.random() < 0.4:
        rows = tuple(
            (inputs, rng.choice(target.values))
            for inputs in itertools.product(*(domains[p].values for p in parents))
        )
        lookup = dict(rows)
        return Table(rows), lambda env: lookup[tuple(env[p] for p in parents)]
    cond, cond_fn = _condition(rng, parents, domains)
    if target == BOOL:
        return cond, cond_fn
    a, b = rng.sample(target.values, 2)
    return IfThenElse(cond, Lit(a), Lit(b)), lambda env: a if cond_fn(env) else b


def random_world_model(rng: random.Random, n_roots: int, n_endo: int, name: str) -> WorldModel:
    """Boolean roots r1..rK, then endogenous v1..vM over mixed domains.

    Each endogenous node reads one to three earlier nodes through an
    expression body or, when its parents have at most 16 value
    combinations, sometimes a table.
    """
    roots = tuple(f"r{i + 1}" for i in range(n_roots))
    domains: dict[str, Domain] = {r: BOOL for r in roots}
    nodes = [Node(r, NodeKind.EXOGENOUS) for r in roots]
    functions: dict[str, StructuralFunction] = {}
    fns: dict[str, Fn] = {}
    edges: list[tuple[str, str]] = []
    earlier = list(roots)
    for i in range(n_endo):
        vname = f"v{i + 1}"
        target = rng.choice(ENDO_DOMAINS)
        k = rng.randint(1, 3)
        chosen = set(rng.sample(earlier, min(k, len(earlier))))
        parents = tuple(p for p in earlier if p in chosen)
        body, fn = _body(rng, parents, domains, target)
        domains[vname] = target
        nodes.append(Node(vname, NodeKind.ENDOGENOUS))
        functions[vname] = StructuralFunction(vname, parents, body)
        fns[vname] = fn
        edges.extend((p, vname) for p in parents)
        earlier.append(vname)
    graph = build_graph(nodes, edges)
    scm = build_scm(graph, domains, functions, name)
    return WorldModel(scm, roots, tuple(earlier), domains, fns)
