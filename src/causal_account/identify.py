"""Graphical identifiability and logging recommendations.

Two criteria are checked. A set Z satisfies the back-door criterion for
(X, Y) when no node of Z descends from X and Z blocks every path into X that
reaches Y. A set Z satisfies the front-door criterion when Z intercepts all
directed X to Y paths, every back-door path from X into Z is blocked by the
empty set, and every back-door path from Z to Y is blocked by {X}.

"Every back-door path from A to B is blocked by W" is tested as d-separation
of A and B given W with A's out-edges removed, by one reachability traversal;
paths are listed only where they are the output. Back-door candidates come from
An({X, Y}), since Z ∩ An({X, Y}) is admissible whenever Z is (van der Zander,
Liśkiewicz & Textor, 2019). The minimal back-door sets are not searched for
among subsets: they are the minimal X-Y separators of one moral graph, listed
in polynomial time per separator. Front-door candidates come from
De(X) ∩ An(Y), and their subsets are tried by size.

Adjustment sets draw only from observable nodes: the point of the analysis is
deciding what to log, and latent variables cannot be logged. When the two
criteria both fail the effect may still be identifiable by other means; the
report says so rather than claiming impossibility.

Proxies: strict checks never accept a proxy in place of its latent principal.
With trust_proxies enabled, a proxy blocks whatever its principal would block
and the report carries a PartialControl warning, because a stand-in only
partially controls for the real variable.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator

from .errors import EnumerationLimit, NotIdentifiable, OverlapError
from .graph import BACKWARD, CausalGraph, Path, between, d_connected, simple_paths
from .limits import (
    DEFAULT_POOL_CAP,
    ENV_VAR,
    FRONTDOOR_MAX_SIZE,
    enumeration_cap,
)


class IdentificationStatus(enum.Enum):
    BACKDOOR = "IdentifiableBackdoor"
    FRONTDOOR = "IdentifiableFrontdoor"
    NOT_IDENTIFIABLE = "NotIdentifiableByCriteria"


@dataclass(frozen=True)
class IdentificationReport:
    """Outcome of the automatic back-door / front-door analysis."""

    treatment: str
    outcome: str
    backdoor_paths: tuple[Path, ...]
    minimal_backdoor_sets: tuple[frozenset[str], ...]
    frontdoor_sets: tuple[frozenset[str], ...]
    status: IdentificationStatus
    notes: tuple[str, ...]


@dataclass(frozen=True)
class LoggingRecommendation:
    """Which variables to record so the treatment effect stays identifiable."""

    must_log: frozenset[str]
    adjustment_set_used: frozenset[str]
    rationale: tuple[str, ...]


def backdoor_paths(g: CausalGraph, x: str, y: str) -> list[Path]:
    """All skeleton paths from `x` to `y` whose first edge points into `x`.

    They come in the order `all_paths` lists them; only the steps out of `x`
    along its in-edges are walked.
    """
    g.require(x)
    g.require(y)
    if x == y:
        raise OverlapError("path endpoints must differ")
    return simple_paths(g, x, y, tuple((p, BACKWARD) for p in g._parents[x]))


def satisfies_backdoor(
    g: CausalGraph,
    z: Iterable[str],
    x: str,
    y: str,
    trust_proxies: bool = False,
) -> bool:
    """Back-door criterion check for the candidate adjustment set `z`.

    Returns False (rather than raising) when `z` contains a latent node or a
    descendant of `x`; those sets are simply inadmissible.
    """
    zset = frozenset(z)
    for name in zset:
        g.require(name)
    g.require(x)
    g.require(y)
    if x in zset or y in zset:
        raise OverlapError("the adjustment set must exclude the treatment and outcome")
    if any(not g.kind(name).observable for name in zset):
        return False
    if zset & g._descendants[x]:
        return False
    if x == y:
        raise OverlapError("path endpoints must differ")
    # x ⫫ y | z with x's out-edges removed. A trusted proxy's principal is a
    # root, so it descends from nothing. It may be y itself, which no path
    # passes through, so y is left out.
    blockers = set(zset)
    if trust_proxies:
        blockers |= {g._by_name[name].proxy_for for name in zset}
    blockers -= {None, y}
    return not d_connected(g, (x,), {y}, blockers, cut={x})


def minimal_backdoor_sets(
    g: CausalGraph,
    x: str,
    y: str,
    trust_proxies: bool = False,
) -> list[frozenset[str]]:
    """All inclusion-minimal observable adjustment sets, smallest first.

    Candidates are the observable non-descendants of `x` in An({x, y})
    (excluding the endpoints); with trust_proxies, also the proxies whose
    principal is in An({x, y}). A proxy's only parent is a root, so it can only
    block paths.

    Every candidate lies in A = An({x, y}) ∪ {x, y}, so A is the ancestral set
    of every query, and a candidate set blocks every back-door path exactly
    when it separates x from y in one undirected graph: the moral graph of `g`
    restricted to A with x's out-edges removed (Lauritzen et al., 1990). The
    vertices a candidate set can delete are the candidates in A and, with
    trust_proxies, the latent principals of candidate proxies. The minimal
    x-y separators made of such vertices are listed by the close-separator
    step of Berry, Bordat & Cogis (2000), in polynomial time per separator
    (van der Zander, Liśkiewicz & Textor, 2019). Each is mapped back to
    candidate sets, a principal becoming any one of its proxies; the
    inclusion-minimal ones come out by size, then lexicographically by
    declaration order.
    """
    g.require(x)
    g.require(y)
    if x == y:
        raise OverlapError("path endpoints must differ")
    descendants_of_x = g._descendants[x]
    relevant = g._ancestors[x] | g._ancestors[y] | {x, y}
    pool = [
        name
        for name in g.observable_names()
        if name not in (x, y)
        and name not in descendants_of_x
        and (
            name in relevant
            or (trust_proxies and g._by_name[name].proxy_for in relevant)
        )
    ]
    cap = enumeration_cap(DEFAULT_POOL_CAP)
    if len(pool) > cap:
        raise EnumerationLimit(
            f"{len(pool)} adjustment candidates exceed the cap of {cap} "
            f"(override with {ENV_VAR})"
        )
    order = g._order
    xbit, ybit = 1 << order[x], 1 << order[y]
    adj = _moral_bits(g, x, relevant)
    # each vertex of the moral graph that a candidate can delete, with the
    # candidates that delete it: itself, or with trust_proxies its proxies
    stand_ins: dict[int, list[str]] = {}
    for name in pool:
        if name in relevant:
            stand_ins.setdefault(1 << order[name], []).append(name)
        principal = g._by_name[name].proxy_for
        if trust_proxies and principal is not None and principal != y:
            stand_ins.setdefault(1 << order[principal], []).append(name)
    deletable = sum(stand_ins)

    def close(side: int) -> int | None:
        # the minimal separator nearest to `side` after `side` has taken in
        # every neighbour that cannot be deleted; None once that takes in y
        rim = _neighbourhood(adj, side) & ~side
        while rim & ~deletable:
            side |= rim & ~deletable
            rim = (rim | _neighbourhood(adj, rim & ~deletable)) & ~side
        if side & ybit:
            return None
        return rim & _neighbourhood(adj, _component(adj, ybit, rim))

    first = close(xbit)
    if first is None:
        return []
    seen, todo = {first}, [first]
    while todo:
        separator = todo.pop()
        x_side = _component(adj, xbit, separator)
        for bit in _bits(separator):
            nxt = close(x_side | bit)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)

    candidates = {
        frozenset(names)
        for separator in seen
        for names in itertools.product(*(stand_ins[bit] for bit in _bits(separator)))
    }
    found: list[frozenset[str]] = []
    for zset in sorted(candidates, key=lambda z: (len(z), sorted(map(order.get, z)))):
        if not any(prior <= zset for prior in found):
            found.append(zset)
    return found


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _neighbourhood(adj: list[int], mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _component(adj: list[int], start: int, blocked: int) -> int:
    """The vertices reachable from `start` without entering `blocked`."""
    comp = frontier = start
    while frontier:
        frontier = _neighbourhood(adj, frontier) & ~blocked & ~comp
        comp |= frontier
    return comp


def _moral_bits(g: CausalGraph, x: str, within: AbstractSet[str]) -> list[int]:
    """Adjacency masks, bit i for the i-th declared node, of the moral graph of
    `g` restricted to the ancestral set `within` with x's out-edges removed:
    each remaining edge, plus an edge between every two parents of a node."""
    order = g._order
    adj = [0] * len(g.nodes)
    for child in within:
        parents = [1 << order[p] for p in g._parents[child] if p != x]
        married = sum(parents)
        adj[order[child]] |= married
        for bit in parents:
            adj[bit.bit_length() - 1] |= (married ^ bit) | (1 << order[child])
    return adj


def satisfies_frontdoor(g: CausalGraph, z: Iterable[str], x: str, y: str) -> bool:
    """Front-door criterion check for the candidate mediator set `z`."""
    zset = frozenset(z)
    for name in zset:
        g.require(name)
    g.require(x)
    g.require(y)
    if x in zset or y in zset:
        raise OverlapError("the mediator set must exclude the treatment and outcome")
    if any(not g.kind(name).observable for name in zset):
        return False
    if x == y:
        raise OverlapError("path endpoints must differ")
    # Z intercepts all directed paths from X to Y: Y is unreachable in G - Z
    stack, seen = [x], {x}
    while stack:
        for c in g._children[stack.pop()]:
            if c == y:
                return False
            if c not in zset and c not in seen:
                seen.add(c)
                stack.append(c)
    # no open back-door path from X into Z
    if d_connected(g, (x,), zset, frozenset(), cut={x}):
        return False
    # every back-door path from a member of Z to Y is blocked by {X}; the
    # check above keeps X out of each member's descendants
    return not any(
        d_connected(g, (member,), {y}, {x}, cut={member}) for member in zset
    )


def _frontdoor_sets(g: CausalGraph, x: str, y: str) -> list[frozenset[str]]:
    """Inclusion-minimal front-door sets among observable directed-path nodes."""
    inside = between(g, x, y)
    candidate_pool = [name for name in g.observable_names() if name in inside]
    found: list[frozenset[str]] = []
    for size in range(min(FRONTDOOR_MAX_SIZE, len(candidate_pool)) + 1):
        for combo in itertools.combinations(candidate_pool, size):
            zset = frozenset(combo)
            if any(prior <= zset for prior in found):
                continue
            if satisfies_frontdoor(g, zset, x, y):
                found.append(zset)
    return found


def identify(
    g: CausalGraph, x: str, y: str, trust_proxies: bool = False
) -> IdentificationReport:
    """Run both criteria and report how the effect of `x` on `y` is identified.

    Status is IdentifiableBackdoor when a back-door adjustment set exists,
    else IdentifiableFrontdoor when a front-door set exists, else
    NotIdentifiableByCriteria.
    """
    g.require(x)
    g.require(y)
    if x == y:
        raise OverlapError("treatment and outcome must differ")
    bpaths = tuple(backdoor_paths(g, x, y))
    backdoor_sets = tuple(minimal_backdoor_sets(g, x, y, trust_proxies))
    frontdoor_sets = tuple(_frontdoor_sets(g, x, y))

    notes = [f"{len(bpaths)} back-door path(s) from {x} to {y}"]
    if backdoor_sets:
        status = IdentificationStatus.BACKDOOR
    elif frontdoor_sets:
        status = IdentificationStatus.FRONTDOOR
    else:
        status = IdentificationStatus.NOT_IDENTIFIABLE
        notes.append(
            "back-door and front-door criteria both fail; the effect may "
            "still be identifiable by methods outside these criteria"
        )
    if trust_proxies:
        proxies_used = sorted(
            {
                name
                for zset in backdoor_sets
                for name in zset
                if g.node(name).proxy_for is not None
            },
            key=g.index,
        )
        for name in proxies_used:
            notes.append(
                f"PartialControl: {name} stands in for latent "
                f"{g.node(name).proxy_for}; adjusting through a proxy only "
                "partially controls for the real variable"
            )
    return IdentificationReport(
        treatment=x,
        outcome=y,
        backdoor_paths=bpaths,
        minimal_backdoor_sets=backdoor_sets,
        frontdoor_sets=frontdoor_sets,
        status=status,
        notes=tuple(notes),
    )


def confounded(g: CausalGraph, x: str, y: str) -> bool:
    """True when some back-door path from `x` to `y` is open given nothing."""
    g.require(x)
    g.require(y)
    if x == y:
        raise OverlapError("treatment and outcome must differ")
    return d_connected(g, (x,), {y}, frozenset(), cut={x})


def logging_set(
    g: CausalGraph,
    x: str,
    y: str,
    allowed: Iterable[str] | None = None,
    trust_proxies: bool = False,
) -> LoggingRecommendation:
    """Recommend the variables to log for an identifiable `x` to `y` effect.

    Picks the smallest minimal back-door set (ties broken lexicographically by
    declaration order), restricted to `allowed` when given. The log set is the
    treatment, the outcome, every observable node on a directed path between
    them, and the chosen adjustment set. Raises NotIdentifiable when no
    admissible adjustment set exists.
    """
    g.require(x)
    g.require(y)
    if x == y:
        raise OverlapError("treatment and outcome must differ")
    for name in (x, y):
        if not g.kind(name).observable:
            raise NotIdentifiable(
                f"{name} is latent and can be neither observed nor logged"
            )
    allowed_set: frozenset[str] | None = None
    if allowed is not None:
        allowed_set = frozenset(allowed)
        for name in allowed_set:
            g.require(name)

    candidates = minimal_backdoor_sets(g, x, y, trust_proxies)
    if allowed_set is not None:
        candidates = [zset for zset in candidates if zset <= allowed_set]
    if not candidates:
        detail = f"no admissible back-door adjustment set for ({x}, {y})"
        if allowed_set is not None:
            detail += " within {" + ", ".join(g.sort_names(allowed_set)) + "}"
        raise NotIdentifiable(detail)
    chosen = candidates[0]  # enumeration order is already size then lexicographic

    on_path = {
        name for name in between(g, x, y) | {x, y} if g.kind(name).observable
    }
    must_log = frozenset({x, y} | on_path | chosen)

    bpaths = backdoor_paths(g, x, y)
    collider_nodes: set[str] = set()
    for p in bpaths:
        for i in range(1, len(p.nodes) - 1):
            if p.directions[i - 1] == "forward" and p.directions[i] == "backward":
                collider_nodes.add(p.nodes[i])

    descendants_of_x = g._descendants[x]
    rationale: list[str] = []
    for name in g.names:
        if name == x:
            rationale.append(f"{name}: the treatment")
        elif name == y:
            rationale.append(f"{name}: the outcome")
        elif name in chosen:
            rationale.append(f"{name}: member of the chosen adjustment set")
        elif name in on_path:
            rationale.append(f"{name}: lies on a directed path from {x} to {y}")
        elif not g.kind(name).observable:
            rationale.append(f"{name}: latent, cannot be observed or logged")
        elif name in collider_nodes:
            rationale.append(
                f"{name}: collider on a back-door path; leaving it unlogged "
                "keeps that path blocked"
            )
        elif name in descendants_of_x:
            rationale.append(
                f"{name}: descendant of the treatment, inadmissible for adjustment"
            )
        else:
            rationale.append(
                f"{name}: not needed, every back-door path stays blocked without it"
            )
    return LoggingRecommendation(
        must_log=must_log,
        adjustment_set_used=chosen,
        rationale=tuple(rationale),
    )
