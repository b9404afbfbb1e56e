"""Accountability patterns and pattern-conditioned checks.

A pattern is a role-labeled template DAG. A model matches a pattern when the
roles can be bound, injectively, to observable model nodes such that every
template edge is witnessed by a directed model path whose interior touches no
bound node. Template edges deliberately match paths rather than single edges:
a role pair like agent and effect is usually connected through unnamed
intermediate events.

Two patterns ship built in. `lindberg` is the minimal agent, mediator, effect
chain. `raci` adds an accountable role who directs the responsible agent, a
consulted role whose input meets the accountable's in a shared discussion
(making the discussion a collider), and an informed role notified after the
effect. A pattern may contain at most one accountable role and exactly one
effect role.

`check_accountability` then asks whether the bound agent's effect is
identifiable using only admissible controls: bound nodes that are neither
agent nor effect nor on a directed agent-to-effect path (conditioning on
those would perturb the causal path itself). Back-door sets are listed over
these controls alone; front-door sets, which lie on such paths, never are.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    EnumerationLimit,
    InvalidMatch,
    InvalidRoleSpec,
    PatternArityError,
    SemanticError,
)
from .graph import FORWARD, CausalGraph, Path, _neighbourhood, _path, between, kahn
from .identify import (
    IdentificationReport,
    LoggingRecommendation,
    _backdoor_sets,
    _identifiable_by_criteria,
    _recommendation,
    _report,
    backdoor_paths,
)
from .limits import DEFAULT_MATCH_CAP

# (role, its template neighbours) pairs, roles given by declaration position
Arcs = tuple[tuple[int, tuple[int, ...]], ...]


class RoleKind(enum.Enum):
    AGENT = "Agent"
    MEDIATOR = "Mediator"
    EFFECT = "Effect"
    ACCOUNTABLE = "Accountable"
    CONSULTED = "Consulted"
    DISCUSSION = "Discussion"
    INFORMED = "Informed"
    GENERIC = "Generic"


@dataclass(frozen=True)
class Role:
    name: str
    kind: RoleKind


@dataclass(frozen=True)
class Pattern:
    """Role-labeled template DAG; build through `build_pattern`."""

    name: str
    roles: tuple[Role, ...]
    template_edges: tuple[tuple[str, str], ...]
    constraints: frozenset[str] = frozenset()

    def role_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.roles)

    def role(self, name: str) -> Role:
        for r in self.roles:
            if r.name == name:
                return r
        raise PatternArityError(f"pattern {self.name} has no role {name!r}")

    @functools.cached_property
    def _arcs(self) -> tuple[Arcs, Arcs]:
        """The template edges by role position: each role in topological
        order with its successors, then each role in reverse topological
        order with its predecessors, leaving out roles with none. Raises
        SemanticError if the template has a cycle; `build_pattern` reads it."""
        names = self.role_names()
        position = {name: i for i, name in enumerate(names)}
        succs: dict[str, list[str]] = {name: [] for name in names}
        preds: dict[str, list[str]] = {name: [] for name in names}
        for a, b in self.template_edges:
            succs[a].append(b)
            preds[b].append(a)
        topo = kahn(names, succs)[0]
        if len(topo) < len(names):
            raise SemanticError(f"pattern {self.name!r} template contains a cycle")

        def positions(order: Iterable[str], neighbours: dict[str, list[str]]) -> Arcs:
            return tuple(
                (position[r], tuple(position[s] for s in neighbours[r]))
                for r in order
                if neighbours[r]
            )

        return positions(topo, succs), positions(reversed(topo), preds)


def build_pattern(
    name: str,
    roles: Sequence[Role | tuple[str, "RoleKind | str"]],
    template_edges: Sequence[tuple[str, str]],
) -> Pattern:
    """Validate and build a Pattern.

    Role names must be unique, the template must be acyclic with no
    self-loops, there must be exactly one Effect role, and at most one
    Accountable role.
    """
    normalized: list[Role] = []
    for r in roles:
        if isinstance(r, Role):
            normalized.append(r)
        else:
            try:
                rname, kind = r if isinstance(r, (tuple, list)) else ()
                kind = kind if isinstance(kind, RoleKind) else RoleKind(str(kind))
            except ValueError:
                raise InvalidRoleSpec(
                    f"role spec {r!r} is no Role and no (name, kind) of a known kind"
                ) from None
            normalized.append(Role(rname, kind))
    names = [r.name for r in normalized]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise SemanticError(f"role {dup!r} declared twice")

    effects = [r for r in normalized if r.kind is RoleKind.EFFECT]
    if len(effects) != 1:
        raise SemanticError(
            f"pattern {name!r} needs exactly one Effect role, has {len(effects)}"
        )
    accountables = [r for r in normalized if r.kind is RoleKind.ACCOUNTABLE]
    if len(accountables) > 1:
        raise SemanticError(
            f"pattern {name!r} allows at most one Accountable role, has "
            f"{len(accountables)}"
        )

    edges: list[tuple[str, str]] = []
    for a, b in template_edges:
        for endpoint in (a, b):
            if endpoint not in names:
                raise SemanticError(f"template edge {a} -> {b}: unknown role {endpoint!r}")
        if a == b:
            raise SemanticError(f"template edge {a} -> {a} is a self-loop")
        if (a, b) not in edges:
            edges.append((a, b))

    constraints = frozenset({"unique-accountable"} if accountables else set())
    p = Pattern(name, tuple(normalized), tuple(edges), constraints)
    p._arcs  # raises SemanticError on a cyclic template
    return p


@functools.cache
def builtin_patterns() -> tuple[Pattern, ...]:
    """The built-in accountability patterns, lindberg and raci, as their
    bundled pattern files state them."""
    from .models import BUNDLED_PATTERNS, load_pattern  # models imports patterns

    return tuple(load_pattern(name) for name in BUNDLED_PATTERNS)


def builtin_pattern(name: str) -> Pattern:
    for p in builtin_patterns():
        if p.name == name:
            return p
    raise KeyError(name)


@dataclass(frozen=True)
class PatternMatch:
    """An injective, complete binding of pattern roles to model nodes.

    `witness_paths` records, per template edge, the lexicographically first
    directed model path from the bound source to the bound target whose
    interior avoids every bound node.
    """

    binding: dict[str, str]
    witness_paths: dict[tuple[str, str], Path]


def _witness(g: CausalGraph, start: int, goal: int, blocked: int) -> Path | None:
    """First directed path from node `start` to node `goal` whose interior
    avoids the nodes of `blocked`; nodes are given by declaration index and
    `blocked` as a bitmask in the layout of `CausalGraph._edge_bits`.

    Depth-first, trying children in declaration order (the goal too only when
    its turn comes), so the first path found is the lexicographically first.
    Only ancestors of the goal are entered: no other node lies on a path to
    it. In a DAG a node that once failed to reach the goal fails again under
    the same blocked set, whatever the path leading to it, so each failed
    node is closed and never expanded twice. The search keeps its own stack,
    so path length is not bounded by Python's recursion limit.
    """
    children = g._edge_bits[1]
    goal_bit = 1 << goal
    open_ = (g._reach_bits[1][goal] & ~blocked) | goal_bit
    stack = [start]
    untried = [children[start]]
    while untried:
        step = untried[-1] & open_
        if not step:
            untried.pop()
            open_ &= ~(1 << stack.pop())
            continue
        low = step & -step
        untried[-1] = step ^ low
        stack.append(low.bit_length() - 1)
        if low == goal_bit:
            nodes = tuple(g.nodes[k].name for k in stack)
            return _path(nodes, (FORWARD,) * (len(nodes) - 1))
        untried.append(children[stack[-1]])
    return None


def validate_match(g: CausalGraph, p: Pattern, m: PatternMatch) -> None:
    """Raise InvalidMatch unless `m` is a valid match of `p` in `g`."""
    role_names = set(p.role_names())
    if set(m.binding) != role_names:
        raise InvalidMatch(
            f"binding covers roles {sorted(m.binding)} but pattern {p.name} "
            f"has roles {sorted(role_names)}"
        )
    targets = list(m.binding.values())
    if len(set(targets)) != len(targets):
        raise InvalidMatch("binding is not injective")
    for role, node in m.binding.items():
        if node not in g:
            raise InvalidMatch(f"role {role} bound to unknown node {node!r}")
        if not g.kind(node).observable:
            raise InvalidMatch(f"role {role} bound to latent node {node}")
    bound = frozenset(targets)
    for edge in p.template_edges:
        path = m.witness_paths.get(edge)
        if path is None:
            raise InvalidMatch(f"no witness path recorded for template edge {edge}")
        path.validate(g)
        if not path.is_directed:
            raise InvalidMatch(f"witness for {edge} is not a directed path")
        if path.nodes[0] != m.binding[edge[0]] or path.nodes[-1] != m.binding[edge[1]]:
            raise InvalidMatch(f"witness for {edge} joins the wrong endpoints")
        interior = set(path.nodes[1:-1])
        if interior & bound:
            raise InvalidMatch(
                f"witness for {edge} passes through bound node(s) "
                + ", ".join(sorted(interior & bound))
            )


def iter_matches(
    g: CausalGraph,
    p: Pattern,
    hints: Mapping[str, str] | None = None,
    limit: int = DEFAULT_MATCH_CAP,
) -> Iterator[PatternMatch]:
    """The matches of `p` in `g` extending `hints`, lazily, in deterministic order.

    Roles are bound in declaration order, candidates in node declaration
    order, so the output is lexicographic. Each role starts from a domain,
    an int bitmask (bit i for the i-th declared node): the observable nodes,
    or the hinted one. Before the search the domains are made
    arc-consistent: for each template edge a -> b, every node left for b
    descends from a node left for a, and every node left for a is an
    ancestor of a node left for b. That removes only nodes no complete
    binding can use, and an empty domain ends the search at once. A role's
    candidates are then its domain minus the nodes already bound,
    intersected with De of each bound template in-neighbour and An of each
    bound out-neighbour. So every complete binding reached has each
    template edge reachable, and these are the bindings that count against
    `limit`, the same ones as without the narrowing, before their witness
    paths are searched. Within one call, witness paths are cached by their
    endpoints s, t and the bound nodes in De(s) & An(t): no other bound
    node can lie on an s -> t path. An unbindable pattern yields nothing
    rather than an error.

    Raises PatternArityError for hints naming roles the pattern does not
    have and UnknownNode for hint targets missing from the graph, both at
    the call; the iterator raises EnumerationLimit past `limit` complete
    candidate bindings.
    """
    hints = dict(hints or {})
    roles = p.role_names()
    for role, node in hints.items():
        if role not in roles:
            raise PatternArityError(
                f"hint names role {role!r}, pattern {p.name} has roles "
                + ", ".join(roles)
            )
        g.require(node)
    return _search(g, p, hints, limit)


def _search(
    g: CausalGraph, p: Pattern, hints: dict[str, str], limit: int
) -> Iterator[PatternMatch]:
    names = g.names
    de, an, observable = g._reach_bits
    roles = p.role_names()
    position = {role: i for i, role in enumerate(roles)}
    edges = [(edge, position[edge[0]], position[edge[1]]) for edge in p.template_edges]
    domain = [
        observable & (1 << g._order[hints[role]]) if role in hints else observable
        for role in roles
    ]
    # arc consistency: passes along the template's topological order narrow
    # each role's successors to De of its domain, passes against it narrow
    # its predecessors to An; a pass leaves every edge holding in its own
    # direction, so once a pass after the first changes nothing, both hold
    passes = tuple(zip((de, an), p._arcs))
    for k in itertools.count():
        rows, arcs = passes[k % 2]
        changed = False
        for i, neighbours in arcs:
            reach = _neighbourhood(rows, domain[i])
            for j in neighbours:
                if domain[j] & ~reach:
                    domain[j] &= reach
                    changed = True
        if k and not changed:
            break
    if not all(domain):
        return
    # per role, the template neighbours bound before it, as positions in `roles`
    ins: list[list[int]] = [[] for _ in roles]
    outs: list[list[int]] = [[] for _ in roles]
    for _, i, j in edges:
        if i < j:
            ins[j].append(i)
        else:
            outs[i].append(j)
    memo: dict[tuple[int, int, int], Path | None] = {}
    chosen = [0] * len(roles)
    # per level, the candidates not yet tried; `used` holds chosen[:level]
    last = len(roles) - 1
    untried = [domain[0]] + [0] * last
    used = level = examined = 0
    while True:
        candidates = untried[level]
        if not candidates:
            if level == 0:
                return
            level -= 1
            used ^= 1 << chosen[level]
            continue
        low = candidates & -candidates
        untried[level] = candidates ^ low
        chosen[level] = low.bit_length() - 1
        if level < last:
            used |= low
            level += 1
            candidates = domain[level] & ~used
            for a in ins[level]:
                candidates &= de[chosen[a]]
            for b in outs[level]:
                candidates &= an[chosen[b]]
            untried[level] = candidates
            continue
        examined += 1
        if examined > limit:
            raise EnumerationLimit(
                f"more than {limit} candidate bindings for pattern {p.name}"
            )
        bound = used | low
        witnesses: dict[tuple[str, str], Path] = {}
        for edge, i, j in edges:
            s, t = chosen[i], chosen[j]
            key = (s, t, bound & de[s] & an[t])
            if key not in memo:
                memo[key] = _witness(g, s, t, key[2])
            path = memo[key]
            if path is None:
                break
            witnesses[edge] = path
        else:
            binding = {role: names[k] for role, k in zip(roles, chosen)}
            yield PatternMatch(binding, witnesses)


def match_pattern(
    g: CausalGraph,
    p: Pattern,
    hints: Mapping[str, str] | None = None,
    limit: int = DEFAULT_MATCH_CAP,
) -> list[PatternMatch]:
    """All matches of `p` in `g` extending `hints`: `iter_matches` as a list."""
    return list(iter_matches(g, p, hints, limit))


class Verdict(enum.Enum):
    ACCOUNTABLE = "Accountable"
    NOT_ATTRIBUTABLE = "NotAttributable"


@dataclass(frozen=True)
class AccountabilityReport:
    """Outcome of checking one match against identification requirements."""

    pattern: str
    match: PatternMatch
    agent: str
    effect: str
    identification: IdentificationReport
    verdict: Verdict
    logging: LoggingRecommendation | None


def check_accountability(
    g: CausalGraph, p: Pattern, m: PatternMatch
) -> AccountabilityReport:
    """Decide whether the matched agent can be held to account for the effect.

    The agent is the unique Agent-kind role (Responsible in raci), the effect
    the unique Effect role. Admissible controls are the other bound nodes off
    every directed agent-to-effect path. The verdict is Accountable exactly when
    a minimal back-door set lies inside them, listed over them alone, and the
    logging recommendation then adjusts for the first such set.
    """
    validate_match(g, p, m)
    agent_roles = [r for r in p.roles if r.kind is RoleKind.AGENT]
    if len(agent_roles) != 1:
        raise InvalidMatch(
            f"pattern {p.name} needs exactly one Agent-kind role to check "
            f"accountability, has {len(agent_roles)}"
        )
    effect_role = next(r for r in p.roles if r.kind is RoleKind.EFFECT)
    agent = m.binding[agent_roles[0].name]
    effect = m.binding[effect_role.name]

    on_path = between(g, agent, effect)
    admissible = frozenset(
        node
        for node in m.binding.values()
        if node not in (agent, effect) and node not in on_path
    )

    paths = tuple(backdoor_paths(g, agent, effect))
    sets = tuple(_backdoor_sets(g, agent, effect, False, admissible))
    identifiable = bool(sets) or _identifiable_by_criteria(g, agent, effect)
    restricted = "controls restricted to {" + ", ".join(g.sort_names(admissible)) + "}"
    return AccountabilityReport(
        pattern=p.name,
        match=m,
        agent=agent,
        effect=effect,
        identification=_report(agent, effect, paths, sets, (), identifiable, [restricted]),
        verdict=Verdict.ACCOUNTABLE if sets else Verdict.NOT_ATTRIBUTABLE,
        logging=_recommendation(g, agent, effect, sets[0]) if sets else None,
    )
