"""Reference answers computed apart from the program.

Graph questions go through networkx and the repository's test oracles
(`tests/oracles.py`); model questions through a plain-Python evaluator that
walks the parsed expression trees, or, for generated models, through the
generator's own closures. Nothing here calls the program's analysis code;
it only reads node names, kinds, edges, domains and function bodies.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from pathlib import Path as FsPath

import networkx as nx

sys.path.insert(0, str(FsPath(__file__).resolve().parent.parent / "tests"))

from oracles import nx_d_separated, nx_satisfies_backdoor, to_networkx  # noqa: E402

from causal_account import (  # noqa: E402
    And,
    Eq,
    IfThenElse,
    Lit,
    Not,
    Or,
    Ref,
    Table,
)

FRONTDOOR_MAX_SIZE = 4  # the documented size limit of the front-door search


class Wrong(AssertionError):
    """The program's answer disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


# -- graph references -------------------------------------------------------


class GraphRef:
    """networkx views of one CausalGraph, with cached reference answers."""

    def __init__(self, g):
        self.g = g
        self.dg = to_networkx(g)
        self.order = {name: i for i, name in enumerate(g.names)}
        self.observable = {n.name for n in g.nodes if n.kind.observable}
        self._cache: dict = {}

    def sort(self, names) -> tuple[str, ...]:
        return tuple(sorted(names, key=self.order.__getitem__))

    def de(self, x: str) -> set[str]:
        return nx.descendants(self.dg, x)

    def an(self, y: str) -> set[str]:
        return nx.ancestors(self.dg, y)

    def on_path(self, x: str, y: str) -> set[str]:
        """Nodes on a directed x -> y path, endpoints included when one exists."""
        inner = self.de(x) & self.an(y)
        if y in self.de(x):
            inner |= {x, y}
        return inner

    def _without_out_edges(self, x: str) -> nx.DiGraph:
        mutilated = self.dg.copy()
        mutilated.remove_edges_from(list(self.dg.out_edges(x)))
        return mutilated

    def minimal_backdoor_sets(self, x: str, y: str) -> list[frozenset[str]]:
        """Inclusion-minimal observable back-door sets, smallest first.

        The same criterion as `brute_minimal_backdoor_sets` (x and y are
        d-separated by Z once x's out-edges are cut, and Z holds no
        descendant of x), searched by size with supersets of earlier finds
        skipped, which leaves exactly the minimal sets in declaration order.
        """
        key = ("bd", x, y)
        if key not in self._cache:
            de_x = self.de(x)
            pool = [n for n in self.g.names if n in self.observable and n not in (x, y) and n not in de_x]
            mutilated = self._without_out_edges(x)
            found: list[frozenset[str]] = []
            for size in range(len(pool) + 1):
                for combo in itertools.combinations(pool, size):
                    z = frozenset(combo)
                    if any(prior <= z for prior in found):
                        continue
                    if nx.is_d_separator(mutilated, {x}, {y}, set(z)):
                        found.append(z)
            self._cache[key] = found
        return self._cache[key]

    def backdoor_paths(self, x: str, y: str) -> set[tuple[str, ...]]:
        """Node sequences of skeleton paths x <- p ... y, found by networkx."""
        key = ("paths", x, y)
        if key not in self._cache:
            skeleton = self.dg.to_undirected().subgraph(n for n in self.dg if n != x)
            found = set()
            for p in self.dg.predecessors(x):
                if p == y:
                    found.add((x, y))
                    continue
                for rest in nx.all_simple_paths(skeleton, p, y):
                    found.add((x, *rest))
            self._cache[key] = found
        return self._cache[key]

    def satisfies_frontdoor(self, z: frozenset[str], x: str, y: str) -> bool:
        if nx.has_path(self.dg.subgraph(n for n in self.dg if n not in z), x, y):
            return False
        cut_x = self._without_out_edges(x)
        for m in z:
            if not nx.is_d_separator(cut_x, {x}, {m}, set()):
                return False
            if not nx.is_d_separator(self._without_out_edges(m), {m}, {y}, {x}):
                return False
        return True

    def frontdoor_sets(self, x: str, y: str) -> list[frozenset[str]]:
        """Inclusion-minimal front-door sets of at most four observable nodes.

        A minimal set holds only nodes on directed x -> y paths (any other
        member could be dropped without breaking a condition), so the search
        draws from De(x) & An(y).
        """
        key = ("fd", x, y)
        if key not in self._cache:
            pool = self.sort(n for n in self.de(x) & self.an(y) if n in self.observable)
            found: list[frozenset[str]] = []
            for size in range(min(FRONTDOOR_MAX_SIZE, len(pool)) + 1):
                for combo in itertools.combinations(pool, size):
                    z = frozenset(combo)
                    if any(prior <= z for prior in found):
                        continue
                    if self.satisfies_frontdoor(z, x, y):
                        found.append(z)
            self._cache[key] = found
        return self._cache[key]

    def status(self, x: str, y: str) -> str:
        if self.minimal_backdoor_sets(x, y):
            return "IdentifiableBackdoor"
        if self.frontdoor_sets(x, y):
            return "IdentifiableFrontdoor"
        return "NotIdentifiableByCriteria"

    def logging(self, x: str, y: str):
        """(must_log, adjustment set), or None when no admissible set exists."""
        if x not in self.observable or y not in self.observable:
            return None
        sets = self.minimal_backdoor_sets(x, y)
        if not sets:
            return None
        chosen = sets[0]
        on_path = {n for n in self.on_path(x, y) if n in self.observable}
        return frozenset({x, y} | on_path | chosen), chosen

    def check_minimal_sets(self, sets, x: str, y: str) -> None:
        """Every set passes the test-suite criterion and no member is spare."""
        for z in sets:
            expect(nx_satisfies_backdoor(self.g, z, x, y), f"{set(z)} is not a back-door set for ({x}, {y})")
            for member in z:
                expect(
                    not nx_satisfies_backdoor(self.g, z - {member}, x, y),
                    f"{set(z)} is not minimal for ({x}, {y}): {member} is spare",
                )

    def d_separated(self, xs, ys, zs) -> bool:
        return nx_d_separated(self.g, xs, ys, zs)

    def witness_exists(self, a: str, b: str, bound: frozenset[str]) -> bool:
        """A directed a -> b path whose interior avoids the bound nodes."""
        keep = [n for n in self.dg if n not in bound or n in (a, b)]
        return nx.has_path(self.dg.subgraph(keep), a, b)

    def match_problem(self, binding: dict[str, str], template_edges) -> str | None:
        """Why `binding` is not a match, or None when it is one."""
        nodes = list(binding.values())
        if len(set(nodes)) != len(nodes):
            return f"match {binding} is not injective"
        if not all(n in self.observable for n in nodes):
            return f"match {binding} binds a latent node"
        bound = frozenset(nodes)
        for a, b in template_edges:
            if not self.witness_exists(binding[a], binding[b], bound):
                return f"match {binding}: no directed {binding[a]} -> {binding[b]} path avoiding bound nodes"
        return None

    def matches(self, pattern, hints: dict[str, str]) -> list[dict[str, str]]:
        """Every match by exhaustive search with a reachability cut, in role order.

        Template edges need a directed path between the bound nodes, so a
        partial binding whose bound edge endpoints are unreachable is dropped;
        complete bindings are then tested edge by edge with networkx.
        """
        key = ("match", pattern.name, tuple(sorted(hints.items())))
        if key in self._cache:
            return self._cache[key]
        roles = pattern.role_names()
        nodes = [n for n in self.g.names if n in self.observable]
        reach = {n: self.de(n) for n in nodes}
        found: list[dict[str, str]] = []

        def extend(binding: dict[str, str]) -> None:
            if len(binding) == len(roles):
                if self.match_problem(binding, pattern.template_edges) is None:
                    found.append(dict(binding))
                return
            role = roles[len(binding)]
            for node in [hints[role]] if role in hints else nodes:
                if node in binding.values():
                    continue
                binding[role] = node
                edges = pattern.template_edges
                if all(binding[b] in reach[binding[a]] for a, b in edges if a in binding and b in binding):
                    extend(binding)
                del binding[role]

        extend({})
        self._cache[key] = found
        return found

    def verdict(self, binding: dict[str, str], agent_role: str, effect_role: str):
        """(verdict, adjustment set or None) for one match, by the documented rule.

        Admissible controls are the bound nodes other than agent and effect
        and off every directed agent -> effect path; the verdict is
        Accountable exactly when some minimal back-door set fits inside them.
        """
        agent, effect = binding[agent_role], binding[effect_role]
        on_path = self.on_path(agent, effect)
        admissible = frozenset(
            n for n in binding.values() if n not in (agent, effect) and n not in on_path
        )
        fitting = [z for z in self.minimal_backdoor_sets(agent, effect) if z <= admissible]
        if fitting:
            return "Accountable", fitting[0]
        return "NotAttributable", None


@lru_cache(maxsize=None)
def graph_ref(g) -> GraphRef:
    return GraphRef(g)


# -- model references --------------------------------------------------------


def eval_expr(body, env):
    """Evaluate a structural function body by walking its tree."""
    if isinstance(body, Table):
        raise TypeError("tables are looked up by the caller")
    if isinstance(body, Lit):
        return body.value
    if isinstance(body, Ref):
        return env[body.name]
    if isinstance(body, Not):
        return not eval_expr(body.a, env)
    if isinstance(body, And):
        return bool(eval_expr(body.a, env)) and bool(eval_expr(body.b, env))
    if isinstance(body, Or):
        return bool(eval_expr(body.a, env)) or bool(eval_expr(body.b, env))
    if isinstance(body, Eq):
        return eval_expr(body.a, env) == eval_expr(body.b, env)
    if isinstance(body, IfThenElse):
        return eval_expr(body.then if eval_expr(body.cond, env) else body.orelse, env)
    raise TypeError(f"unknown expression node {type(body).__name__}")


class ModelRef:
    """Plain-Python semantics of a parsed model: enumeration and surgery."""

    def __init__(self, m):
        self.names = m.graph.names
        self.roots = tuple(n.name for n in m.graph.nodes if n.kind.is_root)
        self.values = {name: m.domains[name].values for name in self.names}
        self.bodies = {name: (f.parents, f.body) for name, f in m.functions.items()}
        self.parents = {name: set() for name in self.names}
        for a, b in m.graph.edges:
            self.parents[b].add(a)

    def _order(self):
        done: list[str] = []
        while len(done) < len(self.names):
            for name in self.names:
                if name not in done and self.parents[name] <= set(done):
                    done.append(name)
        return done

    def evaluate(self, u: dict, pins: dict | None = None) -> dict:
        pins = pins or {}
        env = dict(u)
        for name in self._order():
            if name in pins:
                env[name] = pins[name]
            elif name not in env:
                parents, body = self.bodies[name]
                if isinstance(body, Table):
                    env[name] = dict(body.rows)[tuple(env[p] for p in parents)]
                else:
                    env[name] = eval_expr(body, env)
        return {name: env[name] for name in self.names}

    def worlds(self, evidence: dict) -> list[dict]:
        out = []
        for vals in itertools.product(*(self.values[r] for r in self.roots)):
            world = self.evaluate(dict(zip(self.roots, vals)))
            if all(world[k] == v for k, v in evidence.items()):
                out.append(world)
        return out

    def counterfactual(self, evidence: dict, pins: dict, query) -> dict | None:
        abduced = self.worlds(evidence)
        if not abduced:
            return None
        result: dict = {q: set() for q in query}
        for world in abduced:
            predicted = self.evaluate({r: world[r] for r in self.roots}, pins)
            for q in query:
                result[q].add(predicted[q])
        return result


def parse_value(text: str, domain_values):
    """The domain value the CLI text names."""
    for v in domain_values:
        if (("true" if v else "false") if isinstance(v, bool) else str(v)) == text:
            return v
    raise Wrong(f"{text!r} is not a domain value")
