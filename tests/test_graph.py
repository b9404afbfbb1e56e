import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from causal_account import (
    BACKWARD,
    FORWARD,
    CycleError,
    DuplicateNode,
    EdgeIntoExogenous,
    EnumerationLimit,
    InvalidPath,
    Node,
    NodeKind,
    OverlapError,
    Path,
    SemanticError,
    UnknownEndpoint,
    UnknownNode,
    all_paths,
    ancestors,
    build_graph,
    d_separated,
    d_separated_paths,
    d_separated_reachable,
    descendants,
    is_blocked,
)
from causal_account.graph import d_connected

from oracles import nx_d_separated, random_dag, to_networkx


def diamond():
    # A -> B -> D, A -> C -> D
    return build_graph(
        [("A", "exogenous"), ("B", "endogenous"), ("C", "endogenous"), ("D", "endogenous")],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )


@st.composite
def small_dags(draw):
    n = draw(st.integers(2, 6))
    names = [f"n{i + 1}" for i in range(n)]
    possible = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, 2 ** len(possible) - 1))
    edges = [e for i, e in enumerate(possible) if mask >> i & 1]
    has_parent = {b for _, b in edges}
    nodes = [
        Node(nm, NodeKind.ENDOGENOUS if nm in has_parent else NodeKind.EXOGENOUS)
        for nm in names
    ]
    return build_graph(nodes, edges)


@st.composite
def dags_with_node_sets(draw):
    """A random DAG of 2 to 10 nodes, some latent, and three disjoint node
    sets: X and Y of one to three nodes, Z of up to three."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    g = random_dag(
        rng, rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5)), latent_probability=0.3
    )
    names = list(g.names)
    rng.shuffle(names)
    nx_ = rng.randint(1, min(3, len(names) - 1))
    ny = rng.randint(1, min(3, len(names) - nx_))
    nz = rng.randint(0, min(3, len(names) - nx_ - ny))
    return g, names[:nx_], names[nx_ : nx_ + ny], names[nx_ + ny : nx_ + ny + nz]


@st.composite
def dags_with_query(draw):
    g = draw(small_dags())
    names = list(g.names)
    x = draw(st.sampled_from(names))
    y = draw(st.sampled_from([n for n in names if n != x]))
    rest = [n for n in names if n not in (x, y)]
    z = draw(st.lists(st.sampled_from(rest), unique=True, max_size=3)) if rest else []
    return g, x, y, z


class TestBuildGraph:
    def test_accepts_tuples_and_nodes(self):
        g = build_graph(
            [Node("A", NodeKind.EXOGENOUS), ("B", "endogenous", "A label")],
            [("A", "B")],
        )
        assert g.names == ("A", "B")
        assert g.kind("A") is NodeKind.EXOGENOUS
        assert g.node("B").label == "A label"

    def test_duplicate_node(self):
        with pytest.raises(DuplicateNode):
            build_graph([("A", "exogenous"), ("A", "endogenous")], [])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            build_graph([("A", "exogenous")], [("A", "B")])

    def test_edge_into_exogenous(self):
        with pytest.raises(EdgeIntoExogenous):
            build_graph(
                [("A", "exogenous"), ("B", "exogenous")], [("A", "B")]
            )

    def test_edge_into_latent(self):
        with pytest.raises(EdgeIntoExogenous):
            build_graph([("A", "exogenous"), ("B", "latent")], [("A", "B")])

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CycleError):
            build_graph([("A", "endogenous")], [("A", "A")])

    def test_cycle_error_names_the_cycle(self):
        with pytest.raises(CycleError) as err:
            build_graph(
                [("A", "endogenous"), ("B", "endogenous")],
                [("A", "B"), ("B", "A")],
            )
        assert "A -> B -> A" in str(err.value) or "B -> A -> B" in str(err.value)

    def test_cycle_is_walked_from_the_first_stuck_node(self):
        # D hangs below the cycle and is stuck too, but the walk starts at B,
        # the first stuck node in declaration order
        with pytest.raises(CycleError) as err:
            build_graph(
                [("A", "exogenous")] + [(n, "endogenous") for n in "BCD"],
                [("A", "B"), ("B", "C"), ("C", "B"), ("C", "D")],
            )
        assert err.value.cycle == ["B", "C", "B"]

    def test_duplicate_edges_collapse(self):
        g = build_graph(
            [("A", "exogenous"), ("B", "endogenous")],
            [("A", "B"), ("A", "B")],
        )
        assert g.edges == (("A", "B"),)

    def test_edges_sorted_by_declaration(self):
        g = build_graph(
            [("A", "exogenous"), ("B", "endogenous"), ("C", "endogenous")],
            [("B", "C"), ("A", "C"), ("A", "B")],
        )
        assert g.edges == (("A", "B"), ("A", "C"), ("B", "C"))

    def test_proxy_unknown_principal(self):
        with pytest.raises(UnknownEndpoint):
            build_graph([Node("P", NodeKind.ENDOGENOUS, proxy_for="L")], [])

    def test_proxy_principal_must_be_latent(self):
        with pytest.raises(SemanticError):
            build_graph(
                [
                    Node("L", NodeKind.EXOGENOUS),
                    Node("P", NodeKind.ENDOGENOUS, proxy_for="L"),
                ],
                [("L", "P")],
            )

    def test_proxy_needs_exactly_the_principal_edge(self):
        nodes = [
            Node("L", NodeKind.LATENT),
            Node("A", NodeKind.EXOGENOUS),
            Node("P", NodeKind.ENDOGENOUS, proxy_for="L"),
        ]
        with pytest.raises(SemanticError):
            build_graph(nodes, [("L", "P"), ("A", "P")])
        with pytest.raises(SemanticError):
            build_graph(nodes, [])


class TestAccessors:
    def test_parents_children_declaration_order(self):
        g = diamond()
        assert g.parents("D") == ("B", "C")
        assert g.children("A") == ("B", "C")
        assert g.parents("A") == ()

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            diamond().parents("missing")

    def test_ancestors_descendants(self):
        g = diamond()
        assert ancestors(g, "D") == {"A", "B", "C"}
        assert descendants(g, "A") == {"B", "C", "D"}
        assert ancestors(g, "A") == set()
        assert descendants(g, "D") == set()

    def test_topological_order_prefers_declaration(self):
        g = diamond()
        assert g.topological_order() == ("A", "B", "C", "D")

    def test_sort_names(self):
        g = diamond()
        assert g.sort_names({"D", "A", "C"}) == ("A", "C", "D")

    def test_observable_names_skip_latent(self):
        g = build_graph(
            [("L", "latent"), ("A", "endogenous")], [("L", "A")]
        )
        assert g.observable_names() == ("A",)

    @given(dags_with_query())
    def test_ancestor_descendant_duality(self, case):
        g, x, y, _ = case
        assert (x in ancestors(g, y)) == (y in descendants(g, x))


class TestPaths:
    def test_skeleton_paths_lexicographic(self):
        g = diamond()
        found = all_paths(g, "A", "D")
        assert [str(p) for p in found] == ["A -> B -> D", "A -> C -> D"]

    def test_directed_paths_only_forward(self):
        g = diamond()
        directed = all_paths(g, "A", "D", directed=True)
        assert [str(p) for p in directed] == ["A -> B -> D", "A -> C -> D"]
        assert all(p.is_directed for p in directed)

    def test_skeleton_path_count(self):
        g = diamond()
        found = all_paths(g, "B", "C")
        assert [str(p) for p in found] == ["B <- A -> C", "B -> D <- C"]

    def test_same_endpoint_rejected(self):
        with pytest.raises(OverlapError):
            all_paths(diamond(), "A", "A")

    def test_limit(self):
        with pytest.raises(EnumerationLimit):
            all_paths(diamond(), "A", "D", limit=1)

    def test_path_str(self):
        p = Path(("A", "B", "C"), (FORWARD, BACKWARD))
        assert str(p) == "A -> B <- C"

    def test_path_direction_count_checked(self):
        with pytest.raises(InvalidPath):
            Path(("A", "B"), ())

    def test_validate_rejects_foreign_path(self):
        g = diamond()
        with pytest.raises(InvalidPath):
            Path(("A", "D"), (FORWARD,)).validate(g)
        with pytest.raises(InvalidPath):
            Path(("A", "B", "A"), (FORWARD, BACKWARD)).validate(g)
        with pytest.raises(InvalidPath):
            Path(("A", "Z"), (FORWARD,)).validate(g)


class TestBlocking:
    def chain(self):
        return build_graph(
            [("A", "exogenous"), ("B", "endogenous"), ("C", "endogenous")],
            [("A", "B"), ("B", "C")],
        )

    def collider(self):
        return build_graph(
            [
                ("A", "exogenous"),
                ("B", "exogenous"),
                ("C", "endogenous"),
                ("D", "endogenous"),
            ],
            [("A", "C"), ("B", "C"), ("C", "D")],
        )

    def test_chain_blocked_by_middle(self):
        g = self.chain()
        path = all_paths(g, "A", "C")[0]
        assert not is_blocked(g, path, set())
        assert is_blocked(g, path, {"B"})

    def test_collider_blocks_by_default(self):
        g = self.collider()
        path = all_paths(g, "A", "B")[0]
        assert is_blocked(g, path, set())
        assert not is_blocked(g, path, {"C"})
        assert not is_blocked(g, path, {"D"})  # descendant of the collider

    def test_uav_weather_backdoor_path_blocked_empty(self, uav_weather):
        g = uav_weather.graph
        backdoor = [
            p
            for p in all_paths(g, "Pilot", "UAVCrash")
            if p.directions[0] == BACKWARD
        ]
        assert [str(p) for p in backdoor] == [
            "Pilot <- Weather -> VisibilityLimit <- Permission -> TakeOff"
            " -> UAVInFlight -> UAVCrash"
        ]
        assert is_blocked(g, backdoor[0], set())
        assert not is_blocked(g, backdoor[0], {"VisibilityLimit"})


class TestDSeparation:
    def test_uav_weather_examples(self, uav_weather):
        g = uav_weather.graph
        assert d_separated(g, {"Weather"}, {"Permission"}, set())
        assert not d_separated(g, {"Weather"}, {"Permission"}, {"VisibilityLimit"})
        # conditioning a collider's descendant opens the path too
        assert not d_separated(g, {"Weather"}, {"Permission"}, {"PermittedToFly"})

    def test_bad_weather_collider_independence(self, bad_weather_raci):
        g = bad_weather_raci.graph
        assert d_separated(g, {"Commander"}, {"Meteorologist"}, set())
        assert not d_separated(
            g, {"Commander"}, {"Meteorologist"}, {"WeatherForecast"}
        )

    def test_disjointness_enforced(self):
        g = diamond()
        with pytest.raises(OverlapError):
            d_separated(g, {"A"}, {"A"}, set())
        with pytest.raises(OverlapError):
            d_separated(g, {"A"}, {"D"}, {"A"})

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            d_separated(diamond(), {"A"}, {"Z"}, set())

    @given(dags_with_query())
    def test_implementations_agree(self, case):
        g, x, y, z = case
        assert d_separated_paths(g, {x}, {y}, z) == d_separated_reachable(
            g, {x}, {y}, z
        )

    @given(dags_with_node_sets())
    def test_node_sets_agree_with_networkx(self, case):
        g, xs, ys, zs = case
        assert d_separated(g, xs, ys, zs) == nx_d_separated(g, xs, ys, zs)

    @given(dags_with_node_sets())
    def test_cut_source_agrees_with_networkx(self, case):
        # zs may hold descendants of s
        g, xs, ys, zs = case
        s, t = xs[0], ys[0]
        mutilated = to_networkx(g)
        mutilated.remove_edges_from(list(mutilated.out_edges(s)))
        assert d_connected(g, {s}, {t}, set(zs), cut={s}) == (
            not nx.is_d_separator(mutilated, {s}, {t}, set(zs))
        )

    @given(dags_with_query())
    def test_symmetry(self, case):
        g, x, y, z = case
        assert d_separated(g, {x}, {y}, z) == d_separated(g, {y}, {x}, z)
