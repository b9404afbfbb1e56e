"""Graphical identifiability and logging recommendations.

Two criteria are checked. A set Z satisfies the back-door criterion for
(X, Y) when no node of Z descends from X and Z blocks every path into X that
reaches Y. A set Z satisfies the front-door criterion when Z intercepts all
directed X to Y paths, every back-door path from X into Z is blocked by the
empty set, and every back-door path from Z to Y is blocked by {X}.

"Every back-door path from A to B is blocked by W" is tested as d-separation
of A and B given W with A's out-edges removed, by separation in one moral
graph (`graph.d_connected`).
Paths are listed only for reports, where they are the output: the colliders
that `logging_set` names are found by a two-path test on the skeleton
(Menger's theorem), in polynomial time. Back-door candidates come from
An({X, Y}), since Z ∩ An({X, Y}) is admissible whenever Z is (van der Zander,
Liśkiewicz & Textor, 2019). The minimal back-door sets are the minimal X-Y
separators of one moral graph, listed in polynomial time per separator, and
over the allowed controls alone when only those may be used. The minimal
front-door sets are the minimal cuts of the directed X to Y paths made of the
nodes of De(X) ∩ An(Y) that pass the front-door conditions one by one.

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
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import EnumerationLimit, NotIdentifiable, OverlapError
from .graph import (
    BACKWARD,
    CausalGraph,
    Path,
    _bits,
    _component,
    _mask,
    _minimal_separators,
    _moral_bits,
    _names,
    _neighbourhood,
    _require_endpoints,
    between,
    d_connected,
    simple_paths,
)
from .limits import DEFAULT_SET_CAP, ENV_VAR, _over_cap, enumeration_cap


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
    _require_endpoints(g, x, y, "path endpoints must differ")
    return list(simple_paths(g, x, y, tuple((p, BACKWARD) for p in g._parents[x])))


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
    _require_endpoints(g, x, y, "path endpoints must differ")
    if x in zset or y in zset:
        raise OverlapError("the adjustment set must exclude the treatment and outcome")
    if any(not g.kind(name).observable for name in zset):
        return False
    if _mask(g, zset) & g._reach_bits[0][g._order[x]]:
        return False
    # x ⫫ y | z with x's out-edges removed. A trusted proxy's principal
    # blocks too; it may be y itself, which no path passes through, so y is
    # left out.
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
    (van der Zander, Liśkiewicz & Textor, 2019), and refused past 2^N (N from
    `limits.enumeration_cap`). Without trust_proxies each separator is one
    set. With it, a principal becomes any one of its proxies; past 2^N such
    candidate sets the listing refuses, and the candidates that need every
    member to separate x from y are kept. The sets come out by size, then
    lexicographically by declaration order.
    """
    _require_endpoints(g, x, y, "path endpoints must differ")
    return _backdoor_sets(g, x, y, trust_proxies, None)


def _backdoor_sets(
    g: CausalGraph, x: str, y: str, trust_proxies: bool, allowed: frozenset[str] | None
) -> list[frozenset[str]]:
    """`minimal_backdoor_sets` over the candidates in `allowed` (None for all).
    A minimal separator of allowed vertices is a minimal separator, so these are
    the full listing's sets inside `allowed`, and only they count to the cap."""
    order = g._order
    de, an, observable = g._reach_bits
    xbit, ybit = 1 << order[x], 1 << order[y]
    relevant = an[order[x]] | an[order[y]] | xbit | ybit
    excluded = de[order[x]] | xbit | ybit
    adj = _moral_bits(g, xbit, relevant)
    cap = enumeration_cap(DEFAULT_SET_CAP)
    if not trust_proxies:
        pool = observable & relevant & ~excluded
        if allowed is not None:
            pool &= _mask(g, allowed)
        separators = _minimal_separators(adj, adj, xbit, ybit, pool, cap)
        return _by_size(g, (_names(g, s) for s in separators))
    # the vertices of the moral graph each candidate deletes: its own and its
    # principal's; a proxy outside An({x, y}) still deletes a principal inside
    deletes: dict[str, int] = {}
    deletable = 0
    for name in g.observable_names():
        if allowed is not None and name not in allowed:
            continue
        bits = 1 << order[name]
        principal = g._by_name[name].proxy_for
        if principal is not None:
            bits |= 1 << order[principal]
        bits &= relevant & ~xbit & ~ybit
        if bits and not excluded >> order[name] & 1:
            deletes[name] = bits
            deletable |= bits
    separators = _minimal_separators(adj, adj, xbit, ybit, deletable, cap)
    # a principal becomes any one of its proxies; one proxy can delete two
    # vertices of a separator, so some products are not minimal
    stand_ins: dict[int, list[str]] = {}
    for name, bits in deletes.items():
        for bit in _bits(bits):
            stand_ins.setdefault(bit, []).append(name)
    choices = [[stand_ins[bit] for bit in _bits(s)] for s in separators]
    if _over_cap(sum(math.prod(map(len, lists)) for lists in choices), cap):
        message = f"more than 2^{cap} candidate sets (override with {ENV_VAR})"
        raise EnumerationLimit(message)
    candidates = {
        frozenset(names) for lists in choices for names in itertools.product(*lists)
    }

    def needs_every_member(zset: frozenset[str]) -> bool:
        # deleting more vertices never reconnects x and y, so zset is
        # inclusion-minimal when dropping any one member reconnects them
        for name in zset:
            rest = 0
            for other in zset - {name}:
                rest |= deletes[other]
            if not _component(adj, xbit, rest) & ybit:
                return False
        return True

    return [zset for zset in _by_size(g, candidates) if needs_every_member(zset)]


def _by_size(g: CausalGraph, sets: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """`sets` by size, then lexicographically by declaration order."""
    return sorted(sets, key=lambda z: (len(z), sorted(map(g._order.get, z))))


def satisfies_frontdoor(g: CausalGraph, z: Iterable[str], x: str, y: str) -> bool:
    """Front-door criterion check for the candidate mediator set `z`."""
    zset = frozenset(z)
    for name in zset:
        g.require(name)
    _require_endpoints(g, x, y, "path endpoints must differ")
    if x in zset or y in zset:
        raise OverlapError("the mediator set must exclude the treatment and outcome")
    # Z intercepts all directed paths from X to Y: Y is unreachable in G - Z
    order = g._order
    if _component(g._edge_bits[1], 1 << order[x], _mask(g, zset)) >> order[y] & 1:
        return False
    return all(_frontdoor_member(g, member, x, y) for member in zset)


def _frontdoor_member(g: CausalGraph, m: str, x: str, y: str) -> bool:
    """The front-door conditions on one member `m`: m is observable, no
    back-door path from `x` into m is open, and {x} blocks every back-door
    path from m to `y`."""
    return g.kind(m).observable and not (
        d_connected(g, (x,), {m}, frozenset(), cut={x})
        or d_connected(g, (m,), {y}, {x}, cut={m})
    )


def _frontdoor_sets(g: CausalGraph, x: str, y: str) -> list[frozenset[str]]:
    """Inclusion-minimal front-door sets of any size, by size, then
    lexicographically by declaration order: the minimal cuts of the directed
    `x` to `y` paths made of the observable nodes of De(x) ∩ An(y) that pass
    `_frontdoor_member`."""
    _require_endpoints(g, x, y, "treatment and outcome must differ")
    inside = between(g, x, y)
    cap = enumeration_cap(DEFAULT_SET_CAP)
    members = _mask(g, (m for m in inside if _frontdoor_member(g, m, x, y)))
    within = _mask(g, inside | {x, y})
    succ = [children & within for children in g._edge_bits[1]]
    pred = [parents & within for parents in g._edge_bits[0]]
    xbit, ybit = 1 << g._order[x], 1 << g._order[y]
    separators = _minimal_separators(succ, pred, xbit, ybit, members, cap)
    return _by_size(g, (_names(g, s) for s in separators))


_BOTH_FAIL = (
    "back-door and front-door criteria both fail; the effect may "
    "still be identifiable by methods outside these criteria"
)


def _identifiable_by_criteria(g: CausalGraph, x: str, y: str) -> bool:
    """Whether a strict back-door or a front-door set exists, listing none: more
    deleted vertices never reconnect x and y, so the whole back-door pool is
    one, or the nodes of De(x) ∩ An(y) that pass `_frontdoor_member` are one."""
    de, an, observable = g._reach_bits
    i, j = g._order[x], g._order[y]
    pool = (an[i] | an[j]) & observable & ~(de[i] | 1 << i | 1 << j)
    if satisfies_backdoor(g, _names(g, pool), x, y):
        return True
    members = [m for m in between(g, x, y) if _frontdoor_member(g, m, x, y)]
    return satisfies_frontdoor(g, members, x, y)


def _report(
    x: str, y: str, paths: tuple[Path, ...], sets: tuple[frozenset[str], ...],
    frontdoor_sets: tuple[frozenset[str], ...], identifiable: bool, notes: Iterable[str],
) -> IdentificationReport:
    """The report on the effect of `x` on `y` from what the caller listed:
    IdentifiableBackdoor when `sets` holds a back-door set, else
    IdentifiableFrontdoor when `frontdoor_sets` holds one, else
    NotIdentifiableByCriteria. The notes count the back-door `paths`, say
    that both criteria fail unless the effect is `identifiable`, and end with
    the caller's own `notes`."""
    if sets:
        status = IdentificationStatus.BACKDOOR
    elif frontdoor_sets:
        status = IdentificationStatus.FRONTDOOR
    else:
        status = IdentificationStatus.NOT_IDENTIFIABLE
    head = [f"{len(paths)} back-door path(s) from {x} to {y}"]
    if not identifiable:
        head.append(_BOTH_FAIL)
    return IdentificationReport(x, y, paths, sets, frontdoor_sets, status, (*head, *notes))


def identify(
    g: CausalGraph, x: str, y: str, trust_proxies: bool = False
) -> IdentificationReport:
    """Run both criteria and report how the effect of `x` on `y` is identified.

    Status is IdentifiableBackdoor when a back-door adjustment set exists,
    else IdentifiableFrontdoor when a front-door set exists, else
    NotIdentifiableByCriteria.
    """
    _require_endpoints(g, x, y, "treatment and outcome must differ")
    bpaths = tuple(backdoor_paths(g, x, y))
    backdoor_sets = tuple(minimal_backdoor_sets(g, x, y, trust_proxies))
    frontdoor_sets = tuple(_frontdoor_sets(g, x, y))

    notes: list[str] = []
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
    identifiable = bool(backdoor_sets or frontdoor_sets)
    return _report(x, y, bpaths, backdoor_sets, frontdoor_sets, identifiable, notes)


def confounded(g: CausalGraph, x: str, y: str) -> bool:
    """True when some back-door path from `x` to `y` is open given nothing."""
    _require_endpoints(g, x, y, "treatment and outcome must differ")
    return d_connected(g, (x,), {y}, frozenset(), cut={x})


def _backdoor_colliders(
    g: CausalGraph, x: str, y: str, among: Iterable[str]
) -> set[str]:
    """The nodes of `among` (none of them x or y) that are a collider on some
    simple back-door path from `x` to `y`, by the two-path rule of
    `logging_set`.

    Such a path runs x <- q ... a -> c <- b ... y. With X* a new vertex joined
    to the parents of x other than y, its two halves are two vertex-disjoint
    paths from pa(c) - {x} to {X*, y} in the skeleton minus {x, c}.
    """
    order = g._order
    parent_bits, child_bits = g._edge_bits
    xbit, ybit = 1 << order[x], 1 << order[y]
    into_x = parent_bits[order[x]] & ~ybit
    if not into_x:  # no back-door path passes through a third node
        return set()
    star = 1 << len(g.nodes)  # X*, the step into x from one of its parents
    adj = [
        p | c | (star if into_x >> i & 1 else 0)
        for i, (p, c) in enumerate(zip(parent_bits, child_bits))
    ]
    adj.append(into_x)
    found: set[str] = set()
    for name in among:
        cbit = 1 << order[name]
        sources = parent_bits[order[name]] & ~xbit
        # one parent other than x gives one path at most
        if sources & (sources - 1) and _two_disjoint_paths(
            adj, sources, ybit | star, xbit | cbit
        ):
            found.add(name)
    return found


def _two_disjoint_paths(
    adj: list[int], sources: int, targets: int, blocked: int
) -> bool:
    """True when the graph minus `blocked` holds two vertex-disjoint paths,
    each from a vertex of `sources` to a vertex of `targets`.

    By Menger's theorem they are missing exactly when one vertex meets every
    such path, and that vertex lies on any one of them: one shortest path is
    found breadth first, then each of its vertices is removed in turn.
    """
    layers = [sources & ~blocked]
    reached = layers[0]
    while not reached & targets:
        layer = _neighbourhood(adj, layers[-1]) & ~blocked & ~reached
        if not layer:
            return False
        layers.append(layer)
        reached |= layer
    step = layers.pop() & targets
    step &= -step
    path = step
    for layer in reversed(layers):
        step = layer & adj[step.bit_length() - 1]
        step &= -step
        path |= step
    return all(
        _component(adj, sources & ~bit, blocked | bit) & targets & ~bit
        for bit in _bits(path)
    )


def logging_set(
    g: CausalGraph,
    x: str,
    y: str,
    allowed: Iterable[str] | None = None,
    trust_proxies: bool = False,
) -> LoggingRecommendation:
    """Recommend the variables to log for an identifiable `x` to `y` effect.

    Picks the smallest minimal back-door set (ties broken lexicographically by
    declaration order), listed over the candidates in `allowed` alone when it
    is given, so that only the sets inside it count against the cap. The log
    set is the treatment, the outcome, every observable node on a directed
    path between them, and the chosen adjustment set. Raises NotIdentifiable
    when no admissible adjustment set exists.

    The rationale calls an unlogged observable node c a collider when c is one
    on some simple back-door path from x to y. No path is listed to decide
    it: that holds exactly when the skeleton minus {x, c} holds two
    vertex-disjoint paths out of two parents of c, one ending at a parent
    q != y of x (which then steps into x) and one ending at y, a parent of c
    that is y itself counting as a path to y.
    """
    _require_endpoints(g, x, y, "treatment and outcome must differ")
    for name in (x, y):
        if not g.kind(name).observable:
            raise NotIdentifiable(
                f"{name} is latent and can be neither observed nor logged"
            )
    allowed_set = None if allowed is None else frozenset(allowed)
    for name in allowed_set or ():
        g.require(name)

    candidates = _backdoor_sets(g, x, y, trust_proxies, allowed_set)
    if not candidates:
        detail = f"no admissible back-door adjustment set for ({x}, {y})"
        if allowed_set is not None:
            detail += " within {" + ", ".join(g.sort_names(allowed_set)) + "}"
        raise NotIdentifiable(detail)
    return _recommendation(g, x, y, candidates[0])  # the listing is in order


def _recommendation(
    g: CausalGraph, x: str, y: str, chosen: frozenset[str]
) -> LoggingRecommendation:
    """The log set and rationale of `logging_set` for adjustment set `chosen`."""
    de, an, observable = g._reach_bits
    i, j = g._order[x], g._order[y]
    xbit, ybit = 1 << i, 1 << j
    on_path = de[i] & an[j] & observable
    logged = on_path | _mask(g, chosen) | xbit | ybit
    must_log = _names(g, logged)
    # only the observable nodes left unlogged reach the collider line below
    collider_nodes = _backdoor_colliders(g, x, y, _names(g, observable & ~logged))

    rationale: list[str] = []
    for k, node in enumerate(g.nodes):
        name, bit = node.name, 1 << k
        if bit == xbit:
            rationale.append(f"{name}: the treatment")
        elif bit == ybit:
            rationale.append(f"{name}: the outcome")
        elif name in chosen:
            rationale.append(f"{name}: member of the chosen adjustment set")
        elif on_path & bit:
            rationale.append(f"{name}: lies on a directed path from {x} to {y}")
        elif not observable & bit:
            rationale.append(f"{name}: latent, cannot be observed or logged")
        elif name in collider_nodes:
            rationale.append(
                f"{name}: collider on a back-door path; leaving it unlogged "
                "keeps that path blocked"
            )
        elif de[i] & bit:
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
