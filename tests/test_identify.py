import importlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from causal_account import (
    EnumerationLimit,
    IdentificationStatus,
    Node,
    NodeKind,
    NotIdentifiable,
    OverlapError,
    all_paths,
    ancestors,
    backdoor_paths,
    build_graph,
    confounded,
    consistent_worlds,
    identify,
    logging_set,
    match_pattern,
    minimal_backdoor_sets,
    satisfies_backdoor,
    satisfies_frontdoor,
)

from causal_account.identify import _backdoor_colliders, _backdoor_sets, _frontdoor_sets

from oracles import (
    brute_backdoor_colliders,
    brute_frontdoor_sets,
    brute_logging_rationale,
    brute_logging_recommendation,
    brute_minimal_backdoor_sets,
    nx_satisfies_backdoor,
    nx_satisfies_frontdoor,
    random_dag,
    sampled_pairs,
    with_proxies,
)


@st.composite
def dags_with_pair(draw):
    """A random DAG of at most 10 nodes, some latent, and two distinct nodes."""
    seed = draw(st.integers(0, 100_000))
    rng = random.Random(seed)
    g = random_dag(
        rng, rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5)), latent_probability=0.3
    )
    x, y = rng.sample(g.names, 2)
    return g, x, y, rng


@st.composite
def proxy_dags_with_pair(draw):
    """A random DAG of at most 10 nodes, some latent, with zero to two proxies
    per latent node (some with children), and two distinct nodes."""
    seed = draw(st.integers(0, 100_000))
    rng = random.Random(seed)
    g = random_dag(
        rng, rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5)), latent_probability=0.4
    )
    g = with_proxies(rng, g)
    x, y = rng.sample(g.names, 2)
    return g, x, y


@st.composite
def logging_cases(draw):
    """A random DAG of at most 12 nodes, some latent, with zero to two proxies
    per latent node, two distinct nodes (observable where the graph has two),
    a trust setting and an allowed set or None. Above 9 nodes the edge
    probability stays at most 0.35, which keeps the path listing of the
    oracle to about a second."""
    seed = draw(st.integers(0, 100_000))
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    p = rng.choice((0.2, 0.35, 0.5) if n <= 9 else (0.2, 0.35))
    g = with_proxies(rng, random_dag(rng, n, p, latent_probability=0.3))
    observable = g.observable_names()
    x, y = rng.sample(observable if len(observable) >= 2 else g.names, 2)
    allowed = None
    if rng.random() < 0.5:
        allowed = frozenset(name for name in g.names if rng.random() < 0.6)
    return g, x, y, rng.random() < 0.5, allowed


def declaration_order(g):
    return lambda z: (len(z), sorted(g.index(name) for name in z))


def hidden_confounder():
    # L -> X -> Y with L -> Y and L unobservable: both criteria fail
    return build_graph(
        [Node("L", NodeKind.LATENT), ("X", "endogenous"), ("Y", "endogenous")],
        [("L", "X"), ("L", "Y"), ("X", "Y")],
    )


def mediator_fan(k):
    # a latent u -> x, u -> y and k mediators x -> m_i -> y: the only
    # minimal front-door set holds all k mediators
    mediators = [f"m{i}" for i in range(k)]
    return build_graph(
        [Node("u", NodeKind.LATENT), ("x", "endogenous"), ("y", "endogenous")]
        + [(name, "endogenous") for name in mediators],
        [("u", "x"), ("u", "y")]
        + [edge for m in mediators for edge in (("x", m), (m, "y"))],
    )


def latent_fan(latents, proxies):
    # x <- L_i -> y for each latent L_i, declared with its proxies p<i>_<j>:
    # trusting proxies, each choice of one proxy per latent is a minimal set
    nodes, edges = [("x", "endogenous"), ("y", "endogenous")], []
    for i in range(latents):
        nodes.append(Node(f"L{i}", NodeKind.LATENT))
        edges += [(f"L{i}", "x"), (f"L{i}", "y")]
        for j in range(proxies):
            nodes.append(Node(f"p{i}_{j}", NodeKind.ENDOGENOUS, proxy_for=f"L{i}"))
            edges.append((f"L{i}", f"p{i}_{j}"))
    return build_graph(nodes, edges)


def parallel_chains(k, length=2):
    # k chains x -> a_i -> b_i -> ... -> y under a latent u -> x, u -> y: each
    # minimal front-door set takes one node from every chain, length^k sets
    chains = [tuple(f"{c}{i}" for c in "abcdefgh"[:length]) for i in range(k)]
    return chains, build_graph(
        [Node("u", NodeKind.LATENT), ("x", "endogenous"), ("y", "endogenous")]
        + [(name, "endogenous") for chain in chains for name in chain],
        [("u", "x"), ("u", "y")]
        + [edge for chain in chains for edge in zip(("x",) + chain, chain + ("y",))],
    )


class TestBackdoorPaths:
    def test_uber_paths(self, uber):
        paths = backdoor_paths(uber.graph, "Driver", "Accident")
        assert [str(p) for p in paths] == [
            "Driver <- Uber -> Developers -> EmergencyBrakingDisabled -> Accident",
            "Driver <- Uber -> Manuals <- Developers -> "
            "EmergencyBrakingDisabled -> Accident",
        ]

    def test_titus_has_none(self, titus):
        assert backdoor_paths(titus.graph, "TM", "ED") == []

    def test_path_longer_than_the_recursion_limit(self):
        # n1 -> n2 -> ... -> n1500 plus n1 -> n1500
        names = [f"n{i}" for i in range(1, 1501)]
        g = build_graph(
            [(names[0], "exogenous")] + [(name, "endogenous") for name in names[1:]],
            list(zip(names, names[1:])) + [("n1", "n1500")],
        )
        paths = backdoor_paths(g, "n1499", "n1500")
        assert [p.nodes for p in paths] == [tuple(reversed(names[:-1])) + ("n1500",)]
        # every node of the one back-door path blocks it on its own
        report = identify(g, "n1499", "n1500")
        assert report.status is IdentificationStatus.BACKDOOR
        assert report.backdoor_paths == tuple(paths)
        assert report.minimal_backdoor_sets == tuple(
            frozenset({name}) for name in names[:-2]
        )


class TestSatisfiesBackdoor:
    def test_uber_singletons(self, uber):
        g = uber.graph
        for name in ("Uber", "Developers", "EmergencyBrakingDisabled"):
            assert satisfies_backdoor(g, {name}, "Driver", "Accident")
        assert not satisfies_backdoor(g, set(), "Driver", "Accident")
        assert not satisfies_backdoor(g, {"Manuals"}, "Driver", "Accident")

    def test_endpoint_overlap_rejected(self, uber):
        with pytest.raises(OverlapError):
            satisfies_backdoor(uber.graph, {"Driver"}, "Driver", "Accident")
        with pytest.raises(OverlapError):
            satisfies_backdoor(uber.graph, {"Accident"}, "Driver", "Accident")

    def test_latent_set_inadmissible(self, uav_attacker):
        assert not satisfies_backdoor(
            uav_attacker.graph, {"Attacker"}, "Pilot", "UAV"
        )

    def test_same_endpoints_rejected_whatever_the_set(self, uav_attacker):
        # a latent member would make the set inadmissible, but equal
        # endpoints are a usage error first
        for check in (satisfies_backdoor, satisfies_frontdoor):
            with pytest.raises(OverlapError, match="^path endpoints must differ$"):
                check(uav_attacker.graph, {"Attacker"}, "Pilot", "Pilot")

    def test_descendant_of_treatment_inadmissible(self, uber):
        # Police blocks nothing and descends from Driver
        assert not satisfies_backdoor(
            uber.graph, {"Police"}, "Driver", "Accident"
        )

    def test_collider_conditioning_opens_path(self, uav_weather):
        g = uav_weather.graph
        assert satisfies_backdoor(g, set(), "Pilot", "UAVCrash")
        assert not satisfies_backdoor(
            g, {"VisibilityLimit"}, "Pilot", "UAVCrash"
        )

    @given(st.integers(0, 10_000))
    def test_agrees_with_networkx_oracle(self, seed):
        rng = random.Random(seed)
        g = random_dag(rng, rng.randint(2, 7), latent_probability=0.2)
        observable = [n for n in g.observable_names()]
        if len(observable) < 2:
            return
        x, y = rng.sample(observable, 2)
        rest = [n for n in observable if n not in (x, y)]
        z = frozenset(rng.sample(rest, min(len(rest), rng.randint(0, 2))))
        assert satisfies_backdoor(g, z, x, y) == nx_satisfies_backdoor(g, z, x, y)


class TestMinimalBackdoorSets:
    def test_uber_enumeration_order(self, uber):
        sets = minimal_backdoor_sets(uber.graph, "Driver", "Accident")
        assert sets == [
            frozenset({"Uber"}),
            frozenset({"Developers"}),
            frozenset({"EmergencyBrakingDisabled"}),
        ]

    def test_empty_set_when_unconfounded(self, uav_weather):
        assert minimal_backdoor_sets(uav_weather.graph, "Pilot", "UAVCrash") == [
            frozenset()
        ]

    def test_none_when_latent_confounder(self, uav_attacker):
        assert minimal_backdoor_sets(uav_attacker.graph, "Pilot", "UAV") == []

    def test_results_are_inclusion_minimal(self, bad_weather_raci):
        sets = minimal_backdoor_sets(bad_weather_raci.graph, "Pilot", "UAVCrash")
        for a in sets:
            for b in sets:
                assert a is b or not a < b

    def test_set_cap(self, uber, monkeypatch):
        # three minimal sets are more than 2^1
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "1")
        with pytest.raises(EnumerationLimit):
            minimal_backdoor_sets(uber.graph, "Driver", "Accident")

    def test_set_cap_counts_only_sets_found(self, uber, monkeypatch):
        # the three minimal sets fit under 2^3; Police, Manuals and the other
        # nodes that are in no set do not count
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "3")
        assert len(minimal_backdoor_sets(uber.graph, "Driver", "Accident")) == 3

    @pytest.mark.parametrize("n, p", [(24, 0.25), (32, 0.2), (40, 0.15)])
    def test_sampled_pairs_are_sound_and_minimal(self, n, p):
        # 7, 8 and 13 of these pairs have more than 16 adjustment candidates,
        # which a cap on the candidates refused
        g, pairs = sampled_pairs(n, p)
        assert len(pairs) == 30
        for x, y in pairs:
            found = minimal_backdoor_sets(g, x, y)
            for zset in found:
                assert nx_satisfies_backdoor(g, zset, x, y), (x, y, zset)
                for name in zset:
                    assert not nx_satisfies_backdoor(g, zset - {name}, x, y)
            assert logging_set(g, x, y).adjustment_set_used == found[0], (x, y)

    @settings(max_examples=60)
    @given(dags_with_pair())
    def test_agrees_with_brute_force(self, case):
        g, x, y, _ = case
        found = minimal_backdoor_sets(g, x, y)
        brute = brute_minimal_backdoor_sets(g, x, y)
        assert found == sorted(brute, key=declaration_order(g))

    def test_trusted_proxies_agree_with_brute_force(self, uav_attacker_ids):
        g = uav_attacker_ids.graph
        for x in g.observable_names():
            for y in g.observable_names():
                if x == y:
                    continue
                found = minimal_backdoor_sets(g, x, y, trust_proxies=True)
                brute = brute_minimal_backdoor_sets(g, x, y, trust_proxies=True)
                assert found == sorted(brute, key=declaration_order(g)), (x, y)

    @settings(max_examples=100, deadline=None)
    @given(proxy_dags_with_pair())
    def test_proxies_agree_with_brute_force(self, case):
        g, x, y = case
        for trust in (False, True):
            found = minimal_backdoor_sets(g, x, y, trust_proxies=trust)
            brute = brute_minimal_backdoor_sets(g, x, y, trust_proxies=trust)
            assert found == sorted(brute, key=declaration_order(g)), trust

    def test_trusted_proxy_on_the_separator_twice(self):
        # x <- p -> y and x <- L -> y: the only minimal separator is {p, L}.
        # L may be deleted by p or q, but {p, q} is a superset of {p}
        g = build_graph(
            [
                Node("L", NodeKind.LATENT),
                Node("p", NodeKind.ENDOGENOUS, proxy_for="L"),
                Node("q", NodeKind.ENDOGENOUS, proxy_for="L"),
                ("x", "endogenous"),
                ("y", "endogenous"),
            ],
            [("L", "p"), ("L", "q"), ("L", "x"), ("L", "y")]
            + [("p", "x"), ("p", "y"), ("x", "y")],
        )
        assert minimal_backdoor_sets(g, "x", "y") == []
        assert minimal_backdoor_sets(g, "x", "y", trust_proxies=True) == [
            frozenset({"p"})
        ]
        assert brute_minimal_backdoor_sets(g, "x", "y", trust_proxies=True) == {
            frozenset({"p"})
        }

    def test_trusted_proxy_outside_the_ancestors_of_x_and_y(self):
        # x <- U -> y with U latent; U's proxy p reaches neither x nor y, so p
        # lies outside An({x, y}) while U lies inside: {p} still closes the path
        g = build_graph(
            [
                Node("U", NodeKind.LATENT),
                Node("p", NodeKind.ENDOGENOUS, proxy_for="U"),
                ("x", "endogenous"),
                ("y", "endogenous"),
                ("w", "endogenous"),
            ],
            [("U", "p"), ("U", "x"), ("U", "y"), ("x", "y"), ("p", "w")],
        )
        assert minimal_backdoor_sets(g, "x", "y") == []
        assert minimal_backdoor_sets(g, "x", "y", trust_proxies=True) == [
            frozenset({"p"})
        ]
        assert brute_minimal_backdoor_sets(g, "x", "y", trust_proxies=True) == {
            frozenset({"p"})
        }
        assert _backdoor_sets(g, "x", "y", True, frozenset({"p"})) == [frozenset({"p"})]
        assert _backdoor_sets(g, "x", "y", True, frozenset({"w"})) == []

    @settings(max_examples=100, deadline=None)
    @given(proxy_dags_with_pair(), st.integers(0, 100_000))
    def test_allowed_trusted_listing_agrees_with_brute_force(self, case, seed):
        # the allowed set always holds the proxies outside An({x, y}) whose
        # principal is inside it
        g, x, y = case
        rng = random.Random(seed)
        inside = ancestors(g, x) | ancestors(g, y)
        outside_proxies = {
            n.name
            for n in g.nodes
            if n.proxy_for in inside and n.name not in inside | {x, y}
        }
        allowed = outside_proxies | {name for name in g.names if rng.random() < 0.6}
        found = _backdoor_sets(g, x, y, True, frozenset(allowed))
        brute = brute_minimal_backdoor_sets(g, x, y, trust_proxies=True)
        inside_allowed = [z for z in brute if z <= allowed]
        assert found == sorted(inside_allowed, key=declaration_order(g))

    def test_trusted_proxies_of_three_latents(self):
        g = latent_fan(3, 3)
        found = minimal_backdoor_sets(g, "x", "y", trust_proxies=True)
        brute = brute_minimal_backdoor_sets(g, "x", "y", trust_proxies=True)
        assert len(found) == 27
        assert found == sorted(brute, key=declaration_order(g))
        assert minimal_backdoor_sets(g, "x", "y") == []

    def test_trusted_proxy_sets_past_the_cap(self, monkeypatch):
        # one separator {L0, L1, L2} and 27 ways to delete it: more than 2^4
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "4")
        g = latent_fan(3, 3)
        message = (
            r"^more than 2\^4 candidate sets "
            r"\(override with CAUSAL_ACCOUNT_MAX_ENUM\)$"
        )
        with pytest.raises(EnumerationLimit, match=message):
            minimal_backdoor_sets(g, "x", "y", trust_proxies=True)
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "5")
        assert len(minimal_backdoor_sets(g, "x", "y", trust_proxies=True)) == 27

    def test_a_huge_cap_is_never_built(self, uber, lindberg, monkeypatch):
        # 2^cap takes cap/8 bytes, 12.5 MB here; the world cap, the separator
        # cap and the candidate cap compare bit lengths first, and the path
        # and binding caps count to at most 2^63
        paths = all_paths(uber.graph, "Driver", "Accident")
        matches = match_pattern(uber.graph, lindberg)
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "100000000")
        g = latent_fan(3, 3)
        tracemalloc.start()
        try:
            assert len(consistent_worlds(uber, {})) == 2 ** len(uber.root_names)
            assert len(minimal_backdoor_sets(g, "x", "y", trust_proxies=True)) == 27
            assert all_paths(uber.graph, "Driver", "Accident") == paths
            assert match_pattern(uber.graph, lindberg) == matches
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trusted_proxies_of_five_latents_in_budget(self):
        # 9^5 = 59,049 minimal sets; comparing each with the smaller ones
        # found before it took minutes
        g = latent_fan(5, 9)
        start = time.process_time()
        found = minimal_backdoor_sets(g, "x", "y", trust_proxies=True)
        assert time.process_time() - start < 10
        assert len(found) == 9**5
        assert found[0] == frozenset(f"p{i}_0" for i in range(5))
        assert found[-1] == frozenset(f"p{i}_8" for i in range(5))

    def test_sixteen_candidates_none_admissible_in_budget(self):
        # L -> x -> y with L -> y and L latent: every candidate is a parent of
        # x, none can block x <- L -> y, so the answer is empty
        parents = [f"a{i}" for i in range(16)]
        g = build_graph(
            [Node("L", NodeKind.LATENT), ("x", "endogenous"), ("y", "endogenous")]
            + [(name, "exogenous") for name in parents],
            [("L", "x"), ("L", "y"), ("x", "y")] + [(name, "x") for name in parents],
        )
        start = time.process_time()
        assert minimal_backdoor_sets(g, "x", "y") == []
        assert time.process_time() - start < 0.25

    def test_eight_confounders_in_budget(self):
        # c_i -> d_i -> x and c_i -> y: each minimal set takes c_i or d_i from
        # every pair, 256 sets of size 8
        pairs = [(f"c{i}", f"d{i}") for i in range(8)]
        g = build_graph(
            [
                (name, "exogenous" if name.startswith("c") else "endogenous")
                for pair in pairs
                for name in pair
            ]
            + [("x", "endogenous"), ("y", "endogenous")],
            [("x", "y")]
            + [edge for c, d in pairs for edge in ((c, d), (d, "x"), (c, "y"))],
        )
        start = time.process_time()
        found = minimal_backdoor_sets(g, "x", "y")
        assert time.process_time() - start < 0.25
        # declared c0, d0, c1, d1, ...: (size, declaration) order is the
        # product order with c before d in each pair
        assert found == [frozenset(z) for z in itertools.product(*pairs)]


class TestSatisfiesFrontdoor:
    def test_uav_attacker_mediator(self, uav_attacker):
        g = uav_attacker.graph
        assert satisfies_frontdoor(g, {"RC"}, "Pilot", "UAV")
        assert not satisfies_frontdoor(g, set(), "Pilot", "UAV")

    def test_direct_edge_defeats_interception(self, titus):
        assert not satisfies_frontdoor(titus.graph, {"I"}, "TM", "ED")

    def test_endpoint_overlap_rejected(self, uav_attacker):
        with pytest.raises(OverlapError):
            satisfies_frontdoor(uav_attacker.graph, {"UAV"}, "Pilot", "UAV")

    def test_strict_proxy_does_not_block(self, uav_attacker_ids):
        g = uav_attacker_ids.graph
        assert not satisfies_backdoor(g, {"IDS"}, "Pilot", "UAV")
        assert satisfies_backdoor(g, {"IDS"}, "Pilot", "UAV", trust_proxies=True)

    def test_same_endpoint_rejected(self, uav_attacker):
        with pytest.raises(OverlapError):
            satisfies_frontdoor(uav_attacker.graph, set(), "Pilot", "Pilot")

    @settings(max_examples=200)
    @given(dags_with_pair())
    def test_agrees_with_networkx_conditions(self, case):
        g, x, y, rng = case
        rest = [name for name in g.names if name not in (x, y)]
        z = rng.sample(rest, min(len(rest), rng.randint(0, 3)))
        assert satisfies_frontdoor(g, z, x, y) == nx_satisfies_frontdoor(g, z, x, y)


class TestFrontdoorSets:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        n, p = rng.randint(2, 12), rng.choice((0.2, 0.35, 0.5))
        g = random_dag(rng, n, p, latent_probability=0.3)
        x, y = rng.sample(g.names, 2)
        assert _frontdoor_sets(g, x, y) == brute_frontdoor_sets(g, x, y)

    @pytest.mark.parametrize("k", [5, 6])
    def test_five_or_more_mediators(self, k):
        g = mediator_fan(k)
        report = identify(g, "x", "y")
        assert report.status is IdentificationStatus.FRONTDOOR
        assert report.frontdoor_sets == (frozenset(f"m{i}" for i in range(k)),)
        assert satisfies_frontdoor(g, report.frontdoor_sets[0], "x", "y")

    def test_twenty_mediators_in_budget(self):
        g = mediator_fan(20)
        start = time.process_time()
        report = identify(g, "x", "y")
        assert time.process_time() - start < 0.25
        assert report.status is IdentificationStatus.FRONTDOOR
        assert report.frontdoor_sets == (frozenset(f"m{i}" for i in range(20)),)

    def test_more_sets_than_the_cap_refused(self, monkeypatch):
        _, g = parallel_chains(4)
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "3")
        with pytest.raises(
            EnumerationLimit,
            match=r"^more than 2\^3 minimal sets "
            r"\(override with CAUSAL_ACCOUNT_MAX_ENUM\)$",
        ):
            _frontdoor_sets(g, "x", "y")

    def test_one_set_past_the_cap_refused(self, monkeypatch):
        # two chains of three nodes: 9 minimal sets, one more than 2^3
        _, g = parallel_chains(2, length=3)
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "3")
        with pytest.raises(EnumerationLimit, match=r"^more than 2\^3 minimal sets "):
            _frontdoor_sets(g, "x", "y")
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "4")
        assert len(_frontdoor_sets(g, "x", "y")) == 9

    def test_cap_override_lists_every_set(self, monkeypatch):
        chains, g = parallel_chains(4)
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "4")
        # declared a0, b0, a1, b1, ...: (size, declaration) order is the
        # product order with a before b in each chain
        assert _frontdoor_sets(g, "x", "y") == [
            frozenset(z) for z in itertools.product(*chains)
        ]


class TestIdentify:
    def test_backdoor_wins(self, uber):
        report = identify(uber.graph, "Driver", "Accident")
        assert report.status is IdentificationStatus.BACKDOOR
        assert report.treatment == "Driver"
        assert report.outcome == "Accident"
        assert report.minimal_backdoor_sets[0] == frozenset({"Uber"})
        assert report.notes[0] == "2 back-door path(s) from Driver to Accident"

    def test_frontdoor_fallback(self, uav_attacker):
        report = identify(uav_attacker.graph, "Pilot", "UAV")
        assert report.status is IdentificationStatus.FRONTDOOR
        assert report.minimal_backdoor_sets == ()
        assert report.frontdoor_sets == (frozenset({"RC"}),)

    def test_not_identifiable_is_honest(self):
        report = identify(hidden_confounder(), "X", "Y")
        assert report.status is IdentificationStatus.NOT_IDENTIFIABLE
        assert report.frontdoor_sets == ()
        assert "may still be identifiable" in report.notes[-1]

    def test_same_endpoint_rejected(self, uber):
        with pytest.raises(OverlapError):
            identify(uber.graph, "Driver", "Driver")

    @pytest.mark.parametrize("y", ["n3", "n2"])
    def test_root_treatment_in_a_dense_dag(self, y):
        # 18 nodes and 0.3 edge density: far too many skeleton paths to list,
        # yet a root treatment needs no adjustment at all
        g = random_dag(random.Random(18), 18, 0.3)
        start = time.perf_counter()
        report = identify(g, "n1", y)
        assert time.perf_counter() - start < 1.0
        assert report.status is IdentificationStatus.BACKDOOR
        assert report.minimal_backdoor_sets[0] == frozenset()
        for zset in report.minimal_backdoor_sets:
            assert nx_satisfies_backdoor(g, zset, "n1", y)

    def test_proxy_ignored_by_strict_analysis(self, uav_attacker_ids):
        report = identify(uav_attacker_ids.graph, "Pilot", "UAV")
        assert report.status is IdentificationStatus.FRONTDOOR
        assert report.minimal_backdoor_sets == ()

    def test_trusted_proxy_enables_backdoor(self, uav_attacker_ids):
        report = identify(
            uav_attacker_ids.graph, "Pilot", "UAV", trust_proxies=True
        )
        assert report.status is IdentificationStatus.BACKDOOR
        assert report.minimal_backdoor_sets == (frozenset({"IDS"}),)
        assert (
            "PartialControl: IDS stands in for latent Attacker; adjusting "
            "through a proxy only partially controls for the real variable"
            in report.notes
        )


class TestConfounded:
    def test_uber_driver_accident(self, uber):
        assert confounded(uber.graph, "Driver", "Accident")

    def test_collider_keeps_pair_clean(self, uav_weather):
        assert not confounded(uav_weather.graph, "Pilot", "UAVCrash")

    def test_chain_is_clean(self, titus):
        assert not confounded(titus.graph, "TM", "ED")

    @settings(max_examples=200)
    @given(dags_with_pair())
    def test_agrees_with_networkx(self, case):
        g, x, y, _ = case
        assert confounded(g, x, y) == (not nx_satisfies_backdoor(g, set(), x, y))


class TestLoggingSet:
    def test_uav_weather_recommendation(self, uav_weather):
        rec = logging_set(uav_weather.graph, "Pilot", "UAVCrash")
        assert rec.must_log == frozenset(
            {"Pilot", "TakeOff", "UAVInFlight", "UAVCrash"}
        )
        assert rec.adjustment_set_used == frozenset()
        assert rec.rationale == (
            "Weather: not needed, every back-door path stays blocked without it",
            "Permission: not needed, every back-door path stays blocked without it",
            "Pilot: the treatment",
            "VisibilityLimit: collider on a back-door path; leaving it "
            "unlogged keeps that path blocked",
            "PermittedToFly: not needed, every back-door path stays blocked "
            "without it",
            "TakeOff: lies on a directed path from Pilot to UAVCrash",
            "UAVInFlight: lies on a directed path from Pilot to UAVCrash",
            "UAVCrash: the outcome",
        )

    def test_uber_includes_adjustment_set(self, uber):
        rec = logging_set(uber.graph, "Driver", "Accident")
        assert rec.adjustment_set_used == frozenset({"Uber"})
        assert rec.must_log == frozenset(
            {"Uber", "Driver", "CarSoftware", "Accident"}
        )
        assert "Uber: member of the chosen adjustment set" in rec.rationale
        assert (
            "Police: descendant of the treatment, inadmissible for adjustment"
            in rec.rationale
        )

    def test_allowed_pool_restricts_choice(self, uber):
        rec = logging_set(
            uber.graph, "Driver", "Accident", allowed={"Developers", "Manuals"}
        )
        assert rec.adjustment_set_used == frozenset({"Developers"})
        assert rec.must_log == frozenset(
            {"Developers", "Driver", "CarSoftware", "Accident"}
        )

    def test_allowed_pool_can_defeat_identification(self, uber):
        with pytest.raises(NotIdentifiable) as err:
            logging_set(uber.graph, "Driver", "Accident", allowed={"Manuals"})
        assert "within {Manuals}" in str(err.value)

    def test_latent_endpoint_rejected(self, uav_attacker):
        with pytest.raises(NotIdentifiable):
            logging_set(uav_attacker.graph, "Pilot", "Attacker")

    def test_unidentifiable_pair_rejected(self, uav_attacker):
        with pytest.raises(NotIdentifiable):
            logging_set(uav_attacker.graph, "Pilot", "UAV")

    def test_lists_no_paths(self, uav_weather, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("paths listed")

        # the package exports a function named identify over its module
        identify_module = importlib.import_module("causal_account.identify")
        monkeypatch.setattr("causal_account.graph.simple_paths", refuse)
        monkeypatch.setattr(identify_module, "simple_paths", refuse)
        monkeypatch.setattr(identify_module, "backdoor_paths", refuse)
        rec = logging_set(uav_weather.graph, "Pilot", "UAVCrash")
        assert (
            "VisibilityLimit: collider on a back-door path; leaving it "
            "unlogged keeps that path blocked" in rec.rationale
        )

    @settings(max_examples=150, deadline=None)
    @given(logging_cases())
    def test_agrees_with_path_listing(self, case):
        g, x, y, trust, allowed = case
        others = [name for name in g.names if name not in (x, y)]
        assert _backdoor_colliders(g, x, y, others) == brute_backdoor_colliders(g, x, y)
        # TestMinimalBackdoorSets checks the sets the choice is made from
        try:
            rec = logging_set(g, x, y, allowed, trust)
        except NotIdentifiable:
            return
        assert rec.rationale == brute_logging_rationale(
            g, x, y, rec.adjustment_set_used
        )

    @settings(max_examples=150, deadline=None)
    @given(logging_cases())
    def test_allowed_agrees_with_filtering_the_full_listing(self, case):
        # the sets are listed over the allowed candidates alone
        g, x, y, trust, allowed = case
        if not (g.kind(x).observable and g.kind(y).observable):
            return
        found = minimal_backdoor_sets(g, x, y, trust)
        inside = [z for z in found if allowed is None or z <= allowed]
        if not inside:
            with pytest.raises(NotIdentifiable):
                logging_set(g, x, y, allowed, trust)
            return
        assert logging_set(g, x, y, allowed, trust) == brute_logging_recommendation(
            g, x, y, inside[0]
        )

    def test_eighteen_nodes_in_budget(self):
        # more than 100,000 back-door paths from n6 to n9, all blocked
        g = random_dag(random.Random(1), 18, 0.3)
        start = time.process_time()
        rec = logging_set(g, "n6", "n9")
        assert time.process_time() - start < 0.25
        assert rec.adjustment_set_used == frozenset()
        assert [line.split(":")[0] for line in rec.rationale if "collider" in line] == [
            "n5", "n10", "n11", "n12", "n13", "n14", "n15", "n16", "n17", "n18"
        ]

    def test_confounded_pair_of_32_nodes_in_budget(self):
        # ten minimal back-door sets and more than 100,000 back-door paths
        g = random_dag(random.Random(1), 32, 0.2)
        start = time.process_time()
        rec = logging_set(g, "n24", "n32")
        assert time.process_time() - start < 0.25
        assert rec.adjustment_set_used == frozenset({"n9", "n21"})
        assert len(minimal_backdoor_sets(g, "n24", "n32")) == 10

    def test_trusted_proxy_logging(self, uav_attacker_ids):
        rec = logging_set(
            uav_attacker_ids.graph, "Pilot", "UAV", trust_proxies=True
        )
        assert rec.adjustment_set_used == frozenset({"IDS"})
        assert rec.must_log == frozenset({"Pilot", "RC", "UAV", "IDS"})
        assert "Attacker: latent, cannot be observed or logged" in rec.rationale
