import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from causal_account import (
    BOOL,
    And,
    Domain,
    EnumerationLimit,
    Eq,
    IfThenElse,
    InconsistentEvidence,
    InterveneOnExogenous,
    Lit,
    MissingExogenous,
    Node,
    NodeKind,
    Not,
    Or,
    Ref,
    SemanticError,
    StructuralFunction,
    Table,
    UnknownNode,
    UnspecifiedFunction,
    ValueOutOfDomain,
    build_graph,
    build_scm,
    consistent_worlds,
    counterfactual,
    evaluate,
    intervene,
)
from causal_account import scm
from causal_account.scm import check_expr, expr_refs, infer_domain

from generators import random_scm
from oracles import brute_consistent_worlds, brute_counterfactual

SPEED = Domain("speed", ("low", "high"))


def tiny_model(body=None, parents=("A",)):
    graph = build_graph(
        [("A", "exogenous"), ("B", "endogenous")],
        [(p, "B") for p in parents],
    )
    return build_scm(
        graph,
        {"A": BOOL, "B": BOOL},
        {"B": StructuralFunction("B", parents, body)},
    )


def four_roots(body=And(Or(Ref("R1"), Ref("R2")), Or(Ref("R3"), Ref("R4")))):
    """Four boolean roots feeding E; body None makes E structure-only."""
    roots = ("R1", "R2", "R3", "R4")
    graph = build_graph(
        [(r, "exogenous") for r in roots] + [("E", "endogenous")],
        [(r, "E") for r in roots],
    )
    return build_scm(
        graph,
        {name: BOOL for name in graph.names},
        {"E": StructuralFunction("E", roots, body)},
    )


def random_evidence(rng: random.Random, m) -> dict:
    """Up to three observations, read off one world half of the time."""
    names = rng.sample(m.graph.names, rng.randint(0, min(3, len(m.graph.names))))
    if m.fully_specified() and rng.random() < 0.5:
        world = evaluate(
            m, {r: rng.choice(m.domains[r].values) for r in m.root_names}
        )
        return {name: world[name] for name in names}
    return {name: rng.choice(m.domains[name].values) for name in names}


class TestDomain:
    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            Domain("one", ("only",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Domain("dup", ("a", "a"))

    def test_parse_bool(self):
        assert BOOL.parse("true") is True
        assert BOOL.parse("false") is False
        with pytest.raises(ValueOutOfDomain):
            BOOL.parse("maybe")

    def test_parse_custom(self):
        assert SPEED.parse("low") == "low"
        with pytest.raises(ValueOutOfDomain):
            SPEED.parse("true")

    def test_render(self):
        assert BOOL.render(True) == "true"
        assert SPEED.render("low") == "low"

    def test_contains_distinguishes_bool_from_str(self):
        assert True in BOOL
        assert "true" not in BOOL
        assert "low" in SPEED
        assert False not in SPEED

    def test_contains_refuses_unhashable_values(self):
        assert ["low"] not in SPEED
        assert {} not in BOOL
        assert {True} not in BOOL


class TestExpressions:
    def test_refs_first_occurrence_order(self):
        e = And(Ref("B"), Or(Ref("A"), Ref("B")))
        assert expr_refs(e) == ("B", "A")

    def test_infer_domain(self):
        var_domains = {"A": BOOL, "S": SPEED}
        assert infer_domain(Ref("S"), var_domains, [BOOL, SPEED]) == SPEED
        assert infer_domain(Lit(True), var_domains, [BOOL, SPEED]) == BOOL
        assert infer_domain(Lit("low"), var_domains, [BOOL, SPEED]) == SPEED
        assert infer_domain(Not(Ref("A")), var_domains, [BOOL, SPEED]) == BOOL

    def test_check_expr_rejects_bool_op_on_custom_domain(self):
        with pytest.raises(SemanticError):
            check_expr(And(Ref("S"), Ref("S")), BOOL, {"S": SPEED}, [BOOL, SPEED])

    def test_check_expr_rejects_domain_mismatch(self):
        with pytest.raises(SemanticError):
            check_expr(Ref("S"), BOOL, {"S": SPEED}, [BOOL, SPEED])

    def test_check_expr_eq_infers_side_domain(self):
        check_expr(
            Eq(Ref("S"), Lit("low")), BOOL, {"S": SPEED}, [BOOL, SPEED]
        )
        with pytest.raises(SemanticError):
            check_expr(
                Eq(Ref("S"), Lit(True)), BOOL, {"S": SPEED}, [BOOL, SPEED]
            )

    def test_check_expr_if_branches_follow_expected(self):
        e = IfThenElse(Ref("A"), Lit("low"), Ref("S"))
        check_expr(e, SPEED, {"A": BOOL, "S": SPEED}, [BOOL, SPEED])
        with pytest.raises(SemanticError):
            check_expr(e, BOOL, {"A": BOOL, "S": SPEED}, [BOOL, SPEED])

    def test_check_expr_unknown_variable(self):
        with pytest.raises(SemanticError):
            check_expr(Ref("missing"), BOOL, {}, [BOOL])


class TestBuildScm:
    def test_domains_must_cover_nodes(self):
        graph = build_graph([("A", "exogenous")], [])
        with pytest.raises(SemanticError):
            build_scm(graph, {}, {})
        with pytest.raises(SemanticError):
            build_scm(graph, {"A": BOOL, "B": BOOL}, {})

    def test_functions_must_cover_endogenous(self):
        graph = build_graph(
            [("A", "exogenous"), ("B", "endogenous")], [("A", "B")]
        )
        with pytest.raises(SemanticError):
            build_scm(graph, {"A": BOOL, "B": BOOL}, {})

    def test_function_parents_must_match_graph(self):
        no_edge = build_graph(
            [("A", "exogenous"), ("B", "endogenous")], []
        )
        with pytest.raises(SemanticError):
            build_scm(
                no_edge,
                {"A": BOOL, "B": BOOL},
                {"B": StructuralFunction("B", ("A",), Ref("A"))},
            )
        edge = build_graph(
            [("A", "exogenous"), ("B", "endogenous")], [("A", "B")]
        )
        with pytest.raises(SemanticError):
            build_scm(
                edge,
                {"A": BOOL, "B": BOOL},
                {"B": StructuralFunction("B", (), Lit(True))},
            )

    def test_body_refs_must_be_parents(self):
        graph = build_graph(
            [("A", "exogenous"), ("B", "endogenous"), ("C", "endogenous")],
            [("A", "B"), ("A", "C")],
        )
        with pytest.raises(SemanticError):
            build_scm(
                graph,
                {"A": BOOL, "B": BOOL, "C": BOOL},
                {
                    "B": StructuralFunction("B", ("A",), Ref("A")),
                    "C": StructuralFunction("C", ("A",), Ref("B")),
                },
            )

    def test_table_must_cover_all_rows(self):
        with pytest.raises(SemanticError):
            tiny_model(body=Table((((False,), False),)))
        with pytest.raises(SemanticError):
            tiny_model(
                body=Table((((False,), False), ((False,), True)))
            )
        tiny_model(body=Table((((False,), False), ((True,), True))))

    def test_wide_identity_table_validates_in_linear_time(self):
        # membership is one hash lookup, so checking the table is linear in
        # its size; a scan of the domain per value would make it quadratic
        wide = Domain("wide", tuple(f"v{i}" for i in range(20_000)))
        graph = build_graph(
            [Node("x", NodeKind.EXOGENOUS), Node("y", NodeKind.ENDOGENOUS)],
            [("x", "y")],
        )
        table = Table(tuple(((v,), v) for v in wide.values))
        start = time.process_time()
        m = build_scm(
            graph, {"x": wide, "y": wide}, {"y": StructuralFunction("y", ("x",), table)}
        )
        assert time.process_time() - start < 2.0
        assert evaluate(m, {"x": "v19999"})["y"] == "v19999"

    def test_table_values_checked(self):
        with pytest.raises(SemanticError):
            tiny_model(body=Table((((False,), "low"), ((True,), True))))

    def test_proxy_shares_principal_domain(self):
        graph = build_graph(
            [
                Node("L", NodeKind.LATENT),
                Node("P", NodeKind.ENDOGENOUS, proxy_for="L"),
            ],
            [("L", "P")],
        )
        with pytest.raises(SemanticError):
            build_scm(
                graph,
                {"L": BOOL, "P": SPEED},
                {"P": StructuralFunction("P", ("L",), Ref("L"))},
            )


class TestEvaluate:
    def test_titus_chain(self, titus):
        assert evaluate(titus, {"I": True}) == {
            "I": True,
            "TM": True,
            "ED": True,
            "BD": True,
        }
        assert evaluate(titus, {"I": False}) == {
            "I": False,
            "TM": False,
            "ED": False,
            "BD": False,
        }

    def test_declaration_order_output(self, uav_weather):
        world = evaluate(uav_weather, {"Weather": False, "Permission": True})
        assert list(world) == list(uav_weather.graph.names)

    def test_missing_exogenous(self, uav_weather):
        with pytest.raises(MissingExogenous) as err:
            evaluate(uav_weather, {"Weather": False})
        assert "Permission" in str(err.value)

    def test_non_root_rejected(self, titus):
        with pytest.raises(ValueError):
            evaluate(titus, {"I": True, "TM": True})

    def test_value_out_of_domain(self, titus):
        with pytest.raises(ValueOutOfDomain):
            evaluate(titus, {"I": "true"})

    def test_unknown_variable(self, titus):
        with pytest.raises(UnknownNode):
            evaluate(titus, {"I": True, "Zz": False})

    def test_unspecified_function(self):
        m = tiny_model(body=None)
        with pytest.raises(UnspecifiedFunction):
            evaluate(m, {"A": True})


class TestConsistentWorlds:
    def test_no_evidence_lists_all(self, titus):
        worlds = consistent_worlds(titus, {})
        assert [w["I"] for w in worlds] == [False, True]

    def test_evidence_filters(self, titus):
        worlds = consistent_worlds(titus, {"BD": True})
        assert len(worlds) == 1
        assert worlds[0]["I"] is True

    def test_contradiction_yields_empty(self, titus):
        assert consistent_worlds(titus, {"I": False, "BD": True}) == []

    def test_enumeration_cap(self, uav_weather, monkeypatch):
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "1")
        with pytest.raises(EnumerationLimit):
            consistent_worlds(uav_weather, {})

    def test_latent_roots_are_enumerated(self, uav_attacker):
        worlds = consistent_worlds(uav_attacker, {"UAV": True})
        assert len(worlds) == 3
        assert {w["Attacker"] for w in worlds} == {False, True}

    def test_no_roots_yields_one_world(self):
        graph = build_graph(
            [("A", "endogenous"), ("B", "endogenous")], [("A", "B")]
        )
        m = build_scm(
            graph,
            {"A": SPEED, "B": BOOL},
            {
                "A": StructuralFunction("A", (), Lit("high")),
                "B": StructuralFunction("B", ("A",), Eq(Ref("A"), Lit("low"))),
            },
        )
        assert consistent_worlds(m, {}) == [{"A": "high", "B": False}]
        assert consistent_worlds(m, {"B": True}) == []
        assert counterfactual(m, {}, {"A": "low"}, ["B"]) == {"B": frozenset({True})}
        empty = build_scm(build_graph([], []), {}, {})
        assert consistent_worlds(empty, {}) == [{}]

    @pytest.mark.parametrize("size", [3, 300, 70_000])
    def test_wide_domains_keep_every_value(self, size):
        # value indices past one and two bytes, in worlds that span blocks
        values = tuple(f"v{i}" for i in range(size))
        graph = build_graph(
            [("R", "exogenous"), ("A", "exogenous"), ("Z", "endogenous")],
            [("R", "Z"), ("A", "Z")],
        )
        wide = Domain("wide", values)
        last = values[-1]
        m = build_scm(
            graph,
            {"R": wide, "A": BOOL, "Z": wide},
            {"Z": StructuralFunction("Z", ("R", "A"), IfThenElse(Ref("A"), Ref("R"), Lit(last)))},
        )
        expected = [
            {"R": r, "A": a, "Z": r if a else last} for r in values for a in (False, True)
        ]
        assert consistent_worlds(m, {}) == expected
        assert consistent_worlds(m, {"Z": last}) == [w for w in expected if w["Z"] == last]
        assert counterfactual(m, {"Z": values[1]}, {}, ["R", "A"]) == {
            "R": frozenset({values[1]}),
            "A": frozenset({True}),
        }
        if size <= 300:
            evidence = {"A": True, "Z": values[size // 2]}
            assert consistent_worlds(m, evidence) == brute_consistent_worlds(m, evidence)

    def test_cap_refuses_before_building_masks(self, monkeypatch):
        def fail(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "3")
        monkeypatch.setattr(scm, "_root_masks", fail)
        m = four_roots()
        with pytest.raises(EnumerationLimit, match=r"16 root combinations .* 2\^3 "):
            consistent_worlds(m, {})
        with pytest.raises(EnumerationLimit):
            counterfactual(m, {}, {}, ["E"])

    @pytest.mark.parametrize("sizes", [(3, 2, 3), (2, 5), (4, 3, 2)])
    def test_root_masks_of_every_block(self, sizes):
        # every block size and start, against the product order world by world
        roots = [f"R{i}" for i in range(len(sizes))]
        graph = build_graph([(r, "exogenous") for r in roots], [])
        domains = {
            r: Domain(f"d{n}", tuple(f"x{k}" for k in range(n)))
            for r, n in zip(roots, sizes)
        }
        m = build_scm(graph, domains, {})
        worlds = list(itertools.product(*(domains[r].values for r in roots)))
        count = len(worlds)
        for size in range(1, count + 1):
            for start in range(0, count - size + 1):
                got = scm._root_masks(m, count, start, size)
                for j, r in enumerate(roots):
                    expected = {}
                    for i in range(size):
                        value = worlds[start + i][j]
                        expected[value] = expected.get(value, 0) | 1 << i
                    assert {v: x for v, x in got[r].items() if x} == expected

    def test_every_domain_value_order_is_kept(self):
        # three- and two-valued roots: the last root varies fastest
        graph = build_graph([("S", "exogenous"), ("A", "exogenous")], [])
        level = Domain("level", ("lo", "mid", "hi"))
        m = build_scm(graph, {"S": level, "A": BOOL}, {})
        assert [(w["S"], w["A"]) for w in consistent_worlds(m, {})] == [
            (s, a) for s in ("lo", "mid", "hi") for a in (False, True)
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_per_world_oracle(self, seed):
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=8)
        evidence = random_evidence(rng, m)
        if not m.fully_specified():
            with pytest.raises(UnspecifiedFunction):
                consistent_worlds(m, evidence)
            return
        expected = brute_consistent_worlds(m, evidence)
        got = consistent_worlds(m, evidence)
        assert [list(w.items()) for w in got] == [list(w.items()) for w in expected]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from([1, 2, 3, 5, 8, 13]))
    def test_blocks_split_anywhere(self, seed, block):
        # blocks shorter than a root's run, its period, or both
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=8)
        if not m.fully_specified():
            return
        evidence = random_evidence(rng, m)
        endo = list(m.endogenous_names)
        do = {
            name: rng.choice(m.domains[name].values)
            for name in rng.sample(endo, rng.randint(0, min(2, len(endo))))
        }
        expected = brute_consistent_worlds(m, evidence)
        with mock.patch.object(scm, "_block_size", lambda m, count: block):
            got = consistent_worlds(m, evidence)
            assert [list(w.items()) for w in got] == [list(w.items()) for w in expected]
            if expected:
                assert counterfactual(m, evidence, do, m.graph.names) == (
                    brute_counterfactual(m, evidence, do, m.graph.names)
                )
            else:
                with pytest.raises(InconsistentEvidence):
                    counterfactual(m, evidence, do, m.graph.names)


class TestIntervene:
    def test_graph_surgery(self, titus):
        mutilated = intervene(titus, {"ED": True})
        assert ("TM", "ED") not in mutilated.graph.edge_set
        assert ("ED", "BD") in mutilated.graph.edge_set
        # original untouched
        assert ("TM", "ED") in titus.graph.edge_set

    def test_pinned_value(self, titus):
        mutilated = intervene(titus, {"ED": True})
        world = evaluate(mutilated, {"I": False})
        assert world == {"I": False, "TM": False, "ED": True, "BD": True}

    def test_empty_do_returns_same_model(self, titus):
        assert intervene(titus, {}) is titus

    def test_root_rejected(self, titus):
        with pytest.raises(InterveneOnExogenous):
            intervene(titus, {"I": True})

    def test_latent_rejected(self, uav_attacker):
        with pytest.raises(InterveneOnExogenous):
            intervene(uav_attacker, {"Attacker": False})

    def test_unknown_rejected(self, titus):
        with pytest.raises(UnknownNode):
            intervene(titus, {"Zz": True})


class TestCounterfactual:
    def test_titus_golden(self, titus):
        result = counterfactual(titus, {"BD": True}, {"TM": False}, ["ED", "BD"])
        assert result == {"ED": frozenset({False}), "BD": frozenset({False})}

    def test_inconsistent_evidence(self, titus):
        with pytest.raises(InconsistentEvidence):
            counterfactual(titus, {"I": False, "BD": True}, {"TM": False}, ["BD"])

    def test_ambiguous_evidence_yields_value_set(self, uav_attacker):
        result = counterfactual(uav_attacker, {"UAV": True}, {}, ["Pilot"])
        assert result == {"Pilot": frozenset({False, True})}

    def test_determined_under_do(self, uav_attacker):
        result = counterfactual(uav_attacker, {"UAV": True}, {"RC": False}, ["RC"])
        assert result == {"RC": frozenset({False})}

    def test_error_order(self, monkeypatch):
        # each step mends the fault that won the step before it
        shapeless, m = four_roots(body=None), four_roots()
        contradiction = {"E": True, "R1": False, "R2": False}
        root_do = {"R1": True}
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "3")
        with pytest.raises(UnknownNode):
            counterfactual(shapeless, {"E": "high"}, root_do, ["E", "Zz"])
        with pytest.raises(ValueOutOfDomain):
            counterfactual(shapeless, {"E": "high"}, root_do, ["E"])
        with pytest.raises(UnspecifiedFunction):
            counterfactual(shapeless, contradiction, root_do, ["E"])
        with pytest.raises(EnumerationLimit):
            counterfactual(m, contradiction, root_do, ["E"])
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "4")
        with pytest.raises(InconsistentEvidence):
            counterfactual(m, contradiction, root_do, ["E"])
        with pytest.raises(InterveneOnExogenous):
            counterfactual(m, {"E": True}, root_do, ["E"])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_per_world_oracle(self, seed):
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=8)
        if not m.fully_specified():
            return
        evidence = random_evidence(rng, m)
        endo = list(m.endogenous_names)
        targets = rng.sample(endo, rng.randint(0, min(2, len(endo))))
        do = {name: rng.choice(m.domains[name].values) for name in targets}
        query = rng.sample(m.graph.names, rng.randint(1, len(m.graph.names)))
        try:
            expected = brute_counterfactual(m, evidence, do, query)
        except InconsistentEvidence:
            with pytest.raises(InconsistentEvidence):
                counterfactual(m, evidence, do, query)
            return
        assert counterfactual(m, evidence, do, query) == expected

    @given(st.integers(0, 10_000))
    def test_full_evidence_matches_intervened_evaluation(self, seed):
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=6)
        if not m.fully_specified():
            return
        u = {
            name: rng.choice(m.domains[name].values) for name in m.root_names
        }
        endo = list(m.endogenous_names)
        do_targets = rng.sample(endo, rng.randint(0, min(2, len(endo)))) if endo else []
        do = {name: rng.choice(m.domains[name].values) for name in do_targets}
        evidence = evaluate(m, u)
        result = counterfactual(m, evidence, do, m.graph.names)
        expected = evaluate(intervene(m, do), u)
        assert result == {
            name: frozenset({expected[name]}) for name in m.graph.names
        }
