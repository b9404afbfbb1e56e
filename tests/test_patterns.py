import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from causal_account import (
    BACKWARD,
    EnumerationLimit,
    FORWARD,
    IdentificationStatus,
    InvalidMatch,
    Path,
    PatternArityError,
    PatternMatch,
    Role,
    RoleKind,
    SemanticError,
    UnknownNode,
    Verdict,
    build_graph,
    build_pattern,
    builtin_pattern,
    builtin_patterns,
    check_accountability,
    iter_matches,
    match_pattern,
    validate_match,
)
from causal_account import patterns as patterns_module

from oracles import (
    brute_bindings,
    brute_match_pattern,
    identify_then_filter,
    random_dag,
)

RACI_BINDING_UBER = {
    "Accountable": "Uber",
    "Responsible": "Driver",
    "Consulted": "Developers",
    "Discussion": "Manuals",
    "Mediator": "CarSoftware",
    "Effect": "Accident",
    "Informed": "Police",
}

RACI_BINDING_BAD_WEATHER = {
    "Accountable": "Commander",
    "Responsible": "Pilot",
    "Consulted": "Meteorologist",
    "Discussion": "WeatherForecast",
    "Mediator": "TakeOff",
    "Effect": "UAVCrash",
    "Informed": "Headquarters",
}


def pair_pattern():
    return build_pattern(
        "pair",
        [("Agent", RoleKind.AGENT), ("Effect", RoleKind.EFFECT)],
        [("Agent", "Effect")],
    )


def quick_graph(names, edges):
    targets = {b for _, b in edges}
    nodes = [
        (n, "endogenous" if n in targets else "exogenous") for n in names
    ]
    return build_graph(nodes, edges)


class TestBuildPattern:
    def test_builtin_lindberg(self):
        p = builtin_pattern("lindberg")
        assert p.role_names() == ("Agent", "Mediator", "Effect")
        assert [r.kind for r in p.roles] == [
            RoleKind.AGENT,
            RoleKind.MEDIATOR,
            RoleKind.EFFECT,
        ]
        assert p.template_edges == (
            ("Agent", "Mediator"),
            ("Mediator", "Effect"),
        )
        assert p.constraints == frozenset()

    def test_builtin_raci(self):
        p = builtin_pattern("raci")
        assert p.role_names() == (
            "Accountable",
            "Responsible",
            "Consulted",
            "Discussion",
            "Mediator",
            "Effect",
            "Informed",
        )
        assert p.role("Responsible").kind is RoleKind.AGENT
        assert p.role("Discussion").kind is RoleKind.DISCUSSION
        assert p.constraints == frozenset({"unique-accountable"})

    def test_builtin_listing_and_lookup(self):
        assert [p.name for p in builtin_patterns()] == ["lindberg", "raci"]
        with pytest.raises(KeyError):
            builtin_pattern("nope")

    def test_role_kind_accepts_strings(self):
        p = build_pattern("g", [("A", "Generic"), ("E", "Effect")], [("A", "E")])
        assert p.role("A").kind is RoleKind.GENERIC

    def test_duplicate_role_rejected(self):
        with pytest.raises(SemanticError):
            build_pattern(
                "p",
                [("A", RoleKind.AGENT), ("A", RoleKind.EFFECT)],
                [],
            )

    def test_exactly_one_effect(self):
        with pytest.raises(SemanticError):
            build_pattern("p", [("A", RoleKind.AGENT)], [])
        with pytest.raises(SemanticError):
            build_pattern(
                "p",
                [("E1", RoleKind.EFFECT), ("E2", RoleKind.EFFECT)],
                [],
            )

    def test_at_most_one_accountable(self):
        with pytest.raises(SemanticError):
            build_pattern(
                "p",
                [
                    ("A1", RoleKind.ACCOUNTABLE),
                    ("A2", RoleKind.ACCOUNTABLE),
                    ("E", RoleKind.EFFECT),
                ],
                [],
            )

    def test_edge_endpoints_must_be_roles(self):
        with pytest.raises(SemanticError):
            build_pattern(
                "p",
                [("E", RoleKind.EFFECT)],
                [("E", "ghost")],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(SemanticError):
            build_pattern("p", [("E", RoleKind.EFFECT)], [("E", "E")])

    def test_cycle_rejected(self):
        with pytest.raises(SemanticError):
            build_pattern(
                "p",
                [("A", "Generic"), ("B", "Generic"), ("E", RoleKind.EFFECT)],
                [("A", "B"), ("B", "A")],
            )

    def test_one_topological_sort_per_pattern(self, monkeypatch, uber):
        """`build_pattern` refuses a cyclic template through `Pattern._arcs`,
        so the template is sorted once, and matching reads the same arcs."""
        kahn = patterns_module.kahn
        for p in builtin_patterns():
            calls = []
            monkeypatch.setattr(patterns_module, "kahn", lambda *a: calls.append(a) or kahn(*a))
            built = build_pattern(p.name, p.roles, p.template_edges)
            match_pattern(uber.graph, built)
            monkeypatch.undo()
            assert len(calls) == 1
            assert built == p

    def test_unknown_role_lookup(self):
        with pytest.raises(PatternArityError):
            builtin_pattern("lindberg").role("Responsible")


class TestMatchPattern:
    def test_titus_lindberg_all_matches(self, titus, lindberg):
        matches = match_pattern(titus.graph, lindberg)
        assert [m.binding for m in matches] == [
            {"Agent": "I", "Mediator": "TM", "Effect": "ED"},
            {"Agent": "I", "Mediator": "TM", "Effect": "BD"},
            {"Agent": "I", "Mediator": "ED", "Effect": "BD"},
            {"Agent": "TM", "Mediator": "ED", "Effect": "BD"},
        ]

    def test_witness_paths_recorded(self, titus, lindberg):
        matches = match_pattern(titus.graph, lindberg)
        second = matches[1]
        assert str(second.witness_paths[("Mediator", "Effect")]) == "TM -> ED -> BD"

    def test_matches_pass_validation(self, uber, raci):
        for m in match_pattern(uber.graph, raci):
            validate_match(uber.graph, raci, m)

    def test_too_many_roles_is_empty_not_error(self, titus, raci):
        assert match_pattern(titus.graph, raci) == []

    def test_hint_restricts_matches(self, titus, lindberg):
        matches = match_pattern(titus.graph, lindberg, hints={"Agent": "TM"})
        assert [m.binding for m in matches] == [
            {"Agent": "TM", "Mediator": "ED", "Effect": "BD"}
        ]

    def test_uber_raci_hinted_unique(self, uber, raci):
        matches = match_pattern(uber.graph, raci, hints={"Accountable": "Uber"})
        assert [m.binding for m in matches] == [RACI_BINDING_UBER]

    def test_bad_weather_hinted_contains_expected(self, bad_weather_raci, raci):
        matches = match_pattern(
            bad_weather_raci.graph, raci, hints={"Accountable": "Commander"}
        )
        assert len(matches) == 10
        assert RACI_BINDING_BAD_WEATHER in [m.binding for m in matches]

    def test_hint_for_unknown_role(self, titus, lindberg):
        with pytest.raises(PatternArityError):
            match_pattern(titus.graph, lindberg, hints={"Responsible": "TM"})

    def test_hint_for_unknown_node(self, titus, lindberg):
        with pytest.raises(UnknownNode):
            match_pattern(titus.graph, lindberg, hints={"Agent": "Zz"})

    def test_latent_nodes_never_bound(self, uav_attacker, lindberg):
        for m in match_pattern(uav_attacker.graph, lindberg):
            assert "Attacker" not in m.binding.values()

    def test_witness_is_first_path(self):
        g = quick_graph(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        matches = match_pattern(g, pair_pattern(), hints={"Agent": "A"})
        first = matches[0]
        assert first.binding == {"Agent": "A", "Effect": "B"}
        full = [m for m in matches if m.binding["Effect"] == "D"]
        assert str(full[0].witness_paths[("Agent", "Effect")]) == "A -> B -> D"

    def test_witness_must_avoid_bound_nodes(self):
        skip = build_pattern(
            "skip",
            [("A", "Generic"), ("B", "Generic"), ("E", RoleKind.EFFECT)],
            [("A", "E"), ("A", "B")],
        )
        chain = quick_graph(["a", "b", "e"], [("a", "b"), ("b", "e")])
        assert match_pattern(chain, skip, hints={"A": "a", "B": "b", "E": "e"}) == []
        with_shortcut = quick_graph(
            ["a", "b", "e"], [("a", "b"), ("b", "e"), ("a", "e")]
        )
        matches = match_pattern(
            with_shortcut, skip, hints={"A": "a", "B": "b", "E": "e"}
        )
        assert len(matches) == 1
        assert str(matches[0].witness_paths[("A", "E")]) == "a -> e"

    def test_binding_cap(self, titus, lindberg):
        with pytest.raises(EnumerationLimit):
            match_pattern(titus.graph, lindberg, limit=1)

    def test_iter_matches_is_lazy(self, titus, lindberg):
        # the first match comes out before the cap is reached
        first = next(iter_matches(titus.graph, lindberg, limit=1))
        assert first == match_pattern(titus.graph, lindberg)[0]

    def test_iter_matches_checks_hints_at_the_call(self, titus, lindberg):
        with pytest.raises(PatternArityError):
            iter_matches(titus.graph, lindberg, hints={"Responsible": "TM"})
        with pytest.raises(UnknownNode):
            iter_matches(titus.graph, lindberg, hints={"Agent": "Zz"})

    def test_witness_dead_ends_are_not_revisited(self):
        # a ladder of 2 x 26 nodes has 2^25 paths from a0 to its top rung, and
        # every one of them must pass the bound node x on its way to e
        k = 26
        names = [f"{side}{i}" for i in range(k) for side in "ab"] + ["x", "e"]
        edges = []
        for i in range(k - 1):
            for u in "ab":
                edges += [(f"{u}{i}", f"a{i + 1}"), (f"{u}{i}", f"b{i + 1}")]
        edges += [(f"a{k - 1}", "x"), (f"b{k - 1}", "x"), ("x", "e")]
        skip = build_pattern(
            "skip",
            [("A", "Generic"), ("B", "Generic"), ("E", RoleKind.EFFECT)],
            [("A", "E"), ("A", "B")],
        )
        g = quick_graph(names, edges)
        start = time.process_time()
        assert match_pattern(g, skip, hints={"A": "a0", "B": "x", "E": "e"}) == []
        assert time.process_time() - start < 1.0


    def test_witness_longer_than_the_recursion_limit(self, lindberg):
        n = 1500
        names = [f"n{i}" for i in range(1, n + 1)]
        g = quick_graph(names, list(zip(names, names[1:])))
        (m,) = match_pattern(
            g, lindberg, hints={"Agent": "n1", "Mediator": "n2", "Effect": f"n{n}"}
        )
        assert m.witness_paths[("Mediator", "Effect")].nodes == tuple(names[1:])

    def test_pattern_deeper_than_the_recursion_limit(self):
        # a chain of k roles on a latent root and k observable nodes in a row:
        # one match, bound node by node; the search keeps its own stack
        k = 1100
        roles = [(f"r{i}", "Generic") for i in range(k - 1)] + [("E", RoleKind.EFFECT)]
        names = [r for r, _ in roles]
        chain = build_pattern("chain", roles, list(zip(names, names[1:])))
        nodes = [f"n{i}" for i in range(k + 1)]
        g = build_graph(
            [("n0", "latent")] + [(n, "endogenous") for n in nodes[1:]],
            list(zip(nodes, nodes[1:])),
        )
        for hints in ({}, {"r0": "n1", "E": f"n{k}"}):
            (m,) = match_pattern(g, chain, hints)
            assert list(m.binding.values()) == nodes[1:]
            assert str(m.witness_paths[("r0", "r1")]) == "n1 -> n2"

    def test_witnesses_differ_with_the_bound_nodes_between_their_ends(self):
        # both matches bind A and E to the same nodes, but B sits on a
        # different a-e path in each, so the witness for A -> E must differ
        skip = build_pattern(
            "skip",
            [("A", "Generic"), ("B", "Generic"), ("E", RoleKind.EFFECT)],
            [("A", "E"), ("A", "B")],
        )
        g = quick_graph(
            ["a", "m", "x", "e"], [("a", "m"), ("m", "e"), ("a", "x"), ("x", "e")]
        )
        hints = {"A": "a", "E": "e"}
        first, second = match_pattern(g, skip, hints)
        assert (first.binding["B"], second.binding["B"]) == ("m", "x")
        assert str(first.witness_paths[("A", "E")]) == "a -> x -> e"
        assert str(second.witness_paths[("A", "E")]) == "a -> m -> e"
        assert [first, second] == brute_match_pattern(g, skip, hints)


def generic_pattern():
    # the effect is declared first, so its template neighbours are bound
    # after it and constrain their candidates by ancestry
    return build_pattern(
        "fork",
        [
            ("E", RoleKind.EFFECT),
            ("A", "Generic"),
            ("B", "Generic"),
            ("C", "Generic"),
        ],
        [("A", "E"), ("B", "A"), ("B", "C"), ("C", "E")],
    )


def shuffled(rng, g):
    """`g` with its nodes declared in a random order."""
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    return build_graph(nodes, g.edges)


def outcome(run):
    """The matches found and the EnumerationLimit message, if one was raised."""
    found: list = []
    try:
        run(found)
    except EnumerationLimit as err:
        return found, str(err)
    return found, None


class TestMatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        g = shuffled(
            rng,
            random_dag(
                rng, rng.randint(3, 12), rng.uniform(0.25, 0.7), latent_probability=0.2
            ),
        )
        p = rng.choice(builtin_patterns() + (generic_pattern(),))
        roles = p.role_names()
        hints = {
            role: rng.choice(g.names)
            for role in rng.sample(roles, rng.choice((0, 0, 1, 2)))
        }
        limit = rng.choice((1, 5, 20, 200))

        def ours(found):
            found.extend(iter_matches(g, p, hints, limit))

        def brute(found):
            brute_match_pattern(g, p, hints, limit, out=found)

        mine, theirs = outcome(ours), outcome(brute)
        assert mine == theirs
        for m, b in zip(mine[0], theirs[0]):
            assert list(m.binding.items()) == list(b.binding.items())
            assert list(m.witness_paths.items()) == list(b.witness_paths.items())
        if mine[1] is None:
            assert match_pattern(g, p, hints, limit) == mine[0]

    @pytest.mark.parametrize("name", ["lindberg", "raci"])
    @pytest.mark.parametrize("density", [0.2, 0.3])
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_brute_force_at_benchmark_size(self, name, density, seed):
        # the audit benchmark's graph size, past the Hypothesis test's 12
        # nodes; the limit is set to the exact number of complete bindings,
        # then to one less, where the last binding must raise
        g = random_dag(random.Random(seed), 16, density)
        p = builtin_pattern(name)
        bindings = sum(1 for _ in brute_bindings(g, p))
        for limit in (bindings, bindings - 1) if bindings else (0,):
            mine = outcome(lambda found: found.extend(iter_matches(g, p, limit=limit)))
            theirs = outcome(
                lambda found: brute_match_pattern(g, p, limit=limit, out=found)
            )
            assert mine == theirs
            assert (mine[1] is None) == (limit == bindings)
            for m, b in zip(mine[0], theirs[0]):
                assert list(m.binding.items()) == list(b.binding.items())
                assert list(m.witness_paths.items()) == list(b.witness_paths.items())


class TestValidateMatch:
    def first_match(self, titus, lindberg):
        return match_pattern(titus.graph, lindberg)[0]

    def test_missing_role(self, titus, lindberg):
        m = PatternMatch({"Agent": "I", "Mediator": "TM"}, {})
        with pytest.raises(InvalidMatch):
            validate_match(titus.graph, lindberg, m)

    def test_non_injective(self, titus, lindberg):
        m = PatternMatch(
            {"Agent": "I", "Mediator": "I", "Effect": "ED"}, {}
        )
        with pytest.raises(InvalidMatch):
            validate_match(titus.graph, lindberg, m)

    def test_unknown_node(self, titus, lindberg):
        m = PatternMatch(
            {"Agent": "Zz", "Mediator": "TM", "Effect": "ED"}, {}
        )
        with pytest.raises(InvalidMatch):
            validate_match(titus.graph, lindberg, m)

    def test_latent_binding_rejected(self, uav_attacker, lindberg):
        m = PatternMatch(
            {"Agent": "Attacker", "Mediator": "Pilot", "Effect": "UAV"}, {}
        )
        with pytest.raises(InvalidMatch):
            validate_match(uav_attacker.graph, lindberg, m)

    def test_missing_witness(self, titus, lindberg):
        good = self.first_match(titus, lindberg)
        m = PatternMatch(good.binding, {})
        with pytest.raises(InvalidMatch) as err:
            validate_match(titus.graph, lindberg, m)
        assert "no witness path" in str(err.value)

    def test_wrong_endpoints(self, titus, lindberg):
        good = self.first_match(titus, lindberg)
        witnesses = dict(good.witness_paths)
        witnesses[("Agent", "Mediator")] = Path(("TM", "ED"), (FORWARD,))
        m = PatternMatch(good.binding, witnesses)
        with pytest.raises(InvalidMatch) as err:
            validate_match(titus.graph, lindberg, m)
        assert "wrong endpoints" in str(err.value)

    def test_undirected_witness(self, titus, lindberg):
        binding = {"Agent": "TM", "Mediator": "I", "Effect": "ED"}
        witnesses = {
            ("Agent", "Mediator"): Path(("TM", "I"), (BACKWARD,)),
            ("Mediator", "Effect"): Path(("I", "TM", "ED"), (FORWARD, FORWARD)),
        }
        m = PatternMatch(binding, witnesses)
        with pytest.raises(InvalidMatch) as err:
            validate_match(titus.graph, lindberg, m)
        assert "not a directed path" in str(err.value)

    def test_witness_through_bound_node(self):
        skip = build_pattern(
            "skip",
            [("A", "Generic"), ("B", "Generic"), ("E", RoleKind.EFFECT)],
            [("A", "E"), ("A", "B")],
        )
        chain = quick_graph(["a", "b", "e"], [("a", "b"), ("b", "e")])
        m = PatternMatch(
            {"A": "a", "B": "b", "E": "e"},
            {
                ("A", "E"): Path(("a", "b", "e"), (FORWARD, FORWARD)),
                ("A", "B"): Path(("a", "b"), (FORWARD,)),
            },
        )
        with pytest.raises(InvalidMatch) as err:
            validate_match(chain, skip, m)
        assert "passes through bound node(s) b" in str(err.value)


class TestCheckAccountability:
    def test_uber_raci_accountable(self, uber, raci):
        match = match_pattern(uber.graph, raci, hints={"Accountable": "Uber"})[0]
        report = check_accountability(uber.graph, raci, match)
        assert report.verdict is Verdict.ACCOUNTABLE
        assert report.agent == "Driver"
        assert report.effect == "Accident"
        assert report.identification.status is IdentificationStatus.BACKDOOR
        assert report.logging is not None
        assert report.logging.adjustment_set_used == frozenset({"Uber"})
        assert report.logging.must_log == frozenset(
            {"Uber", "Driver", "CarSoftware", "Accident"}
        )
        assert (
            "controls restricted to {Uber, Developers, Manuals, Police}"
            in report.identification.notes
        )

    def test_uber_lindberg_not_attributable(self, uber, lindberg):
        match = match_pattern(uber.graph, lindberg, hints={"Agent": "Driver"})[0]
        report = check_accountability(uber.graph, lindberg, match)
        assert match.binding == {
            "Agent": "Driver",
            "Mediator": "CarSoftware",
            "Effect": "Accident",
        }
        assert report.verdict is Verdict.NOT_ATTRIBUTABLE
        assert report.identification.status is (
            IdentificationStatus.NOT_IDENTIFIABLE
        )
        assert report.logging is None
        assert "controls restricted to {}" in report.identification.notes

    def test_restriction_drops_on_path_controls(self, uber, lindberg):
        # the unrestricted pair is identifiable, so the restriction is what
        # flips the verdict
        match = match_pattern(uber.graph, lindberg, hints={"Agent": "Driver"})[0]
        report = check_accountability(uber.graph, lindberg, match)
        assert report.identification.minimal_backdoor_sets == ()
        assert report.identification.frontdoor_sets == ()
        assert report.identification.backdoor_paths != ()

    def test_bad_weather_commander_accountable(self, bad_weather_raci, raci):
        matches = match_pattern(
            bad_weather_raci.graph, raci, hints=RACI_BINDING_BAD_WEATHER
        )
        assert len(matches) == 1
        report = check_accountability(bad_weather_raci.graph, raci, matches[0])
        assert report.verdict is Verdict.ACCOUNTABLE
        assert report.agent == "Pilot"
        assert report.effect == "UAVCrash"
        assert report.identification.minimal_backdoor_sets == (frozenset(),)
        assert report.logging is not None
        assert report.logging.must_log == frozenset(
            {"Pilot", "TakeOff", "UAVInFlight", "UAVCrash"}
        )

    def test_requires_an_agent_role(self):
        generic = build_pattern(
            "g", [("A", "Generic"), ("E", RoleKind.EFFECT)], [("A", "E")]
        )
        g = quick_graph(["a", "e"], [("a", "e")])
        match = match_pattern(g, generic)[0]
        with pytest.raises(InvalidMatch):
            check_accountability(g, generic, match)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_identify_then_filter(self, seed):
        # the whole report, notes included: the "both fail" note, decided here
        # without listing, comes from identify's listings in the oracle
        rng = random.Random(seed)
        g = random_dag(rng, rng.randint(5, 14), 0.3, latent_probability=0.2)
        for p in builtin_patterns():
            for m in itertools.islice(iter_matches(g, p), 20):
                assert check_accountability(g, p, m) == identify_then_filter(g, p, m)

    def test_validates_before_checking(self, uber, raci):
        bogus = PatternMatch(dict(RACI_BINDING_UBER), {})
        with pytest.raises(InvalidMatch):
            check_accountability(uber.graph, raci, bogus)
