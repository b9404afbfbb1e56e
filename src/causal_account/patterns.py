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
those would perturb the causal path itself).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import (
    EnumerationLimit,
    InvalidMatch,
    NotIdentifiable,
    PatternArityError,
    SemanticError,
)
from .graph import FORWARD, CausalGraph, Path, between, kahn
from .identify import (
    IdentificationReport,
    IdentificationStatus,
    LoggingRecommendation,
    identify,
    logging_set,
)
from .limits import DEFAULT_MATCH_CAP


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
            rname, kind = r
            if not isinstance(kind, RoleKind):
                kind = RoleKind(str(kind))
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

    children: dict[str, list[str]] = {n: [] for n in names}
    for a, b in edges:
        children[a].append(b)
    if len(kahn(names, children)[0]) < len(names):
        raise SemanticError(f"pattern {name!r} template contains a cycle")

    constraints = frozenset({"unique-accountable"} if accountables else set())
    return Pattern(name, tuple(normalized), tuple(edges), constraints)


def builtin_patterns() -> tuple[Pattern, ...]:
    """The built-in accountability patterns, lindberg and raci."""
    lindberg = build_pattern(
        "lindberg",
        [
            Role("Agent", RoleKind.AGENT),
            Role("Mediator", RoleKind.MEDIATOR),
            Role("Effect", RoleKind.EFFECT),
        ],
        [("Agent", "Mediator"), ("Mediator", "Effect")],
    )
    raci = build_pattern(
        "raci",
        [
            Role("Accountable", RoleKind.ACCOUNTABLE),
            Role("Responsible", RoleKind.AGENT),
            Role("Consulted", RoleKind.CONSULTED),
            Role("Discussion", RoleKind.DISCUSSION),
            Role("Mediator", RoleKind.MEDIATOR),
            Role("Effect", RoleKind.EFFECT),
            Role("Informed", RoleKind.INFORMED),
        ],
        [
            ("Accountable", "Responsible"),
            ("Accountable", "Discussion"),
            ("Consulted", "Discussion"),
            ("Responsible", "Mediator"),
            ("Mediator", "Effect"),
            ("Effect", "Informed"),
        ],
    )
    return (lindberg, raci)


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


def _witness(
    g: CausalGraph, start: str, goal: str, bound_nodes: frozenset[str]
) -> Path | None:
    """First directed path from start to goal whose interior avoids bound nodes.

    Depth-first in child declaration order, so the first path found is the
    lexicographically first. In a DAG a node that once failed to reach the
    goal fails again under the same bound set, whatever the path leading to
    it, so each failed node joins `dead` and is never expanded twice. The
    search keeps its own stack, so path length is not bounded by Python's
    recursion limit.
    """
    children = g._children
    dead = set(bound_nodes)
    stack = [start]
    pending = [iter(children[start])]
    while pending:
        for child in pending[-1]:
            if child == goal:
                stack.append(goal)
                return Path(tuple(stack), (FORWARD,) * (len(stack) - 1))
            if child not in dead:
                stack.append(child)
                pending.append(iter(children[child]))
                break
        else:
            pending.pop()
            dead.add(stack.pop())
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
    order, so the output is lexicographic. A role's candidates are an int
    bitmask (bit i for the i-th declared node): the observable nodes, or the
    hinted one, minus those already bound, intersected with De of each bound
    template in-neighbour and An of each bound out-neighbour. So every
    complete binding reached has each template edge reachable; it counts
    against `limit` before its witness paths are searched. An unbindable
    pattern yields nothing rather than an error.

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

    names = g.names
    de, an, observable = g._reach_bits
    position = {role: i for i, role in enumerate(roles)}
    # per role: its candidates before any binding, and the template
    # neighbours bound before it, as positions in `roles`
    initial = [
        observable & (1 << g._order[hints[role]]) if role in hints else observable
        for role in roles
    ]
    ins: list[list[int]] = [[] for _ in roles]
    outs: list[list[int]] = [[] for _ in roles]
    for a, b in p.template_edges:
        i, j = position[a], position[b]
        if i < j:
            ins[j].append(i)
        else:
            outs[i].append(j)
    chosen = [0] * len(roles)
    examined = 0

    def assign(i: int, used: int) -> Iterator[PatternMatch]:
        nonlocal examined
        if i == len(roles):
            examined += 1
            if examined > limit:
                raise EnumerationLimit(
                    f"more than {limit} candidate bindings for pattern {p.name}"
                )
            binding = {role: names[k] for role, k in zip(roles, chosen)}
            bound = frozenset(binding.values())
            witnesses: dict[tuple[str, str], Path] = {}
            for a, b in p.template_edges:
                path = _witness(g, binding[a], binding[b], bound)
                if path is None:
                    return
                witnesses[(a, b)] = path
            yield PatternMatch(binding, witnesses)
            return
        candidates = initial[i] & ~used
        for a in ins[i]:
            candidates &= de[chosen[a]]
        for b in outs[i]:
            candidates &= an[chosen[b]]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            chosen[i] = low.bit_length() - 1
            yield from assign(i + 1, used | low)

    return assign(0, 0)


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


def _restrict_report(
    g: CausalGraph, report: IdentificationReport, admissible: frozenset[str]
) -> IdentificationReport:
    # a minimal set over the restricted pool is exactly a minimal set over the
    # full pool that happens to fit inside it, so filtering is sound
    # front-door sets lie on directed agent-to-effect paths, outside
    # `admissible`, so none survives the restriction
    backdoor = tuple(z for z in report.minimal_backdoor_sets if z <= admissible)
    if backdoor:
        status = IdentificationStatus.BACKDOOR
    else:
        status = IdentificationStatus.NOT_IDENTIFIABLE
    notes = report.notes + (
        "controls restricted to {" + ", ".join(g.sort_names(admissible)) + "}",
    )
    return IdentificationReport(
        treatment=report.treatment,
        outcome=report.outcome,
        backdoor_paths=report.backdoor_paths,
        minimal_backdoor_sets=backdoor,
        frontdoor_sets=(),
        status=status,
        notes=notes,
    )


def check_accountability(
    g: CausalGraph, p: Pattern, m: PatternMatch
) -> AccountabilityReport:
    """Decide whether the matched agent can be held to account for the effect.

    The agent is the unique Agent-kind role (Responsible in raci), the effect
    the unique Effect role. Admissible controls are the other bound nodes off
    every directed agent-to-effect path. Verdicts rest on back-door
    adjustment by bound roles only: the verdict is Accountable exactly when
    some minimal back-door set lies inside the admissible controls, and the
    logging recommendation is then computed under the same restriction. A
    front-door set lies on a directed agent-to-effect path, so it is never
    admissible, and the restricted report lists none.
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

    report = _restrict_report(g, identify(g, agent, effect), admissible)
    if report.status is IdentificationStatus.NOT_IDENTIFIABLE:
        return AccountabilityReport(
            pattern=p.name,
            match=m,
            agent=agent,
            effect=effect,
            identification=report,
            verdict=Verdict.NOT_ATTRIBUTABLE,
            logging=None,
        )
    logging: LoggingRecommendation | None
    try:
        logging = logging_set(g, agent, effect, allowed=admissible)
    except NotIdentifiable:  # pragma: no cover - defensive, filter agrees
        logging = None
    return AccountabilityReport(
        pattern=p.name,
        match=m,
        agent=agent,
        effect=effect,
        identification=report,
        verdict=Verdict.ACCOUNTABLE,
        logging=logging,
    )
