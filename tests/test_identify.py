import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from causal_account import (
    EnumerationLimit,
    IdentificationStatus,
    Node,
    NodeKind,
    NotIdentifiable,
    OverlapError,
    backdoor_paths,
    build_graph,
    confounded,
    identify,
    logging_set,
    minimal_backdoor_sets,
    satisfies_backdoor,
    satisfies_frontdoor,
)

from oracles import (
    brute_minimal_backdoor_sets,
    nx_satisfies_backdoor,
    nx_satisfies_frontdoor,
    random_dag,
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


def declaration_order(g):
    return lambda z: (len(z), sorted(g.index(name) for name in z))


def hidden_confounder():
    # L -> X -> Y with L -> Y and L unobservable: both criteria fail
    return build_graph(
        [Node("L", NodeKind.LATENT), ("X", "endogenous"), ("Y", "endogenous")],
        [("L", "X"), ("L", "Y"), ("X", "Y")],
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
        with pytest.raises(
            EnumerationLimit, match="^1498 adjustment candidates exceed the cap of 16 "
        ):
            identify(g, "n1499", "n1500")


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

    def test_pool_cap(self, uber, monkeypatch):
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "1")
        with pytest.raises(EnumerationLimit):
            minimal_backdoor_sets(uber.graph, "Driver", "Accident")

    def test_pool_cap_counts_only_ancestors(self, uber, monkeypatch):
        # Police descends from Driver and Manuals is no ancestor of either
        # endpoint; the three candidates left fit under a cap of 3
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "3")
        assert len(minimal_backdoor_sets(uber.graph, "Driver", "Accident")) == 3

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

    def test_trusted_proxy_logging(self, uav_attacker_ids):
        rec = logging_set(
            uav_attacker_ids.graph, "Pilot", "UAV", trust_proxies=True
        )
        assert rec.adjustment_set_used == frozenset({"IDS"})
        assert rec.must_log == frozenset({"Pilot", "RC", "UAV", "IDS"})
        assert "Attacker: latent, cannot be observed or logged" in rec.rationale
