import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

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
    backdoor_paths,
    build_graph,
    builtin_pattern,
    check_accountability,
    d_separated,
    d_separated_paths,
    d_separated_reachable,
    descendants,
    from_json,
    identify,
    is_blocked,
    match_pattern,
    to_json,
)
from causal_account import graph as graph_module
from causal_account.graph import d_connected

from oracles import (
    brute_simple_paths,
    first_stuck_walk,
    nx_d_separated,
    random_dag,
    to_networkx,
)


def diamond():
    # A -> B -> D, A -> C -> D
    return build_graph(
        [("A", "exogenous"), ("B", "endogenous"), ("C", "endogenous"), ("D", "endogenous")],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )


@st.composite
def cyclic_graphs(draw):
    """Node names in a drawn declaration order, and edges in both directions
    between distinct nodes, so that most graphs have a cycle."""
    names = draw(st.permutations([f"n{i + 1}" for i in range(draw(st.integers(2, 8)))]))
    pairs = [(a, b) for a in names for b in names if a != b]
    return names, draw(st.lists(st.sampled_from(pairs), max_size=3 * len(names)))


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
def dags_with_pair(draw):
    """A random DAG of 2 to 10 nodes, some latent, and two distinct nodes."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    g = random_dag(
        rng, rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5)), latent_probability=0.3
    )
    x, y = rng.sample(g.names, 2)
    return g, x, y


def first_steps(g, x, directed=False):
    """The steps out of `x` that `all_paths` walks, in declaration order."""
    forward = [(c, FORWARD) for c in g.children(x)]
    if directed:
        return forward
    into = [(p, BACKWARD) for p in g.parents(x)]
    return sorted(forward + into, key=lambda step: g.index(step[0]))


def complete_dag(n):
    names = [f"n{i + 1}" for i in range(n)]
    return build_graph(
        [(names[0], "exogenous")] + [(name, "endogenous") for name in names[1:]],
        [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]],
    )


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

    def test_cycle_walk_skips_a_first_stuck_node_below_the_cycle(self):
        # D, the first stuck node, only hangs below the cycle, and has no
        # stuck child to walk on to
        with pytest.raises(CycleError) as err:
            build_graph(
                [(n, "endogenous") for n in "DBC"], [("B", "C"), ("C", "B"), ("C", "D")]
            )
        assert err.value.cycle == ["B", "C", "B"]

    @settings(max_examples=300, deadline=None)
    @given(cyclic_graphs())
    def test_cycle_error_names_a_simple_cycle_of_edges(self, graph):
        names, edges = graph
        try:
            build_graph([(n, "endogenous") for n in names], edges)
        except CycleError as err:
            cycle = err.cycle
        else:
            assert nx.is_directed_acyclic_graph(nx.DiGraph(edges))
            return
        assert cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        assert all(edge in edges for edge in zip(cycle, cycle[1:]))
        oracle = first_stuck_walk(names, edges)
        assert oracle is None or cycle == oracle

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

    def test_one_topological_sort_per_graph(self, monkeypatch):
        """`build_graph` keeps the order its acyclicity check computed, and it
        is the order Kahn's sort gives over `_children`."""
        kahn = graph_module.kahn
        rng = random.Random(5)
        for n in (1, 2, 7, 15):
            dag = random_dag(rng, n, 0.4)
            nodes = list(dag.nodes)
            rng.shuffle(nodes)  # declaration order differs from the edges' order
            calls = []
            monkeypatch.setattr(graph_module, "kahn", lambda *a: calls.append(a) or kahn(*a))
            g = build_graph(nodes, dag.edges)
            order = g.topological_order()
            g._reach_bits  # the De/An masks walk the same order
            monkeypatch.undo()
            assert len(calls) == 1
            assert order == tuple(kahn(g.names, g._children)[0])

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

    @settings(max_examples=200, deadline=None)
    @given(dags_with_pair())
    def test_listings_equal_the_oracle_in_order(self, case):
        g, x, y = case
        assert all_paths(g, x, y) == brute_simple_paths(g, x, y, first_steps(g, x))
        assert all_paths(g, x, y, directed=True) == brute_simple_paths(
            g, x, y, first_steps(g, x, True), directed=True
        )
        into = [(p, BACKWARD) for p in g.parents(x)]
        assert backdoor_paths(g, x, y) == brute_simple_paths(g, x, y, into)

    @pytest.mark.parametrize("directed", [False, True])
    def test_limit_boundary(self, directed):
        g = complete_dag(6)
        full = all_paths(g, "n1", "n6", directed=directed)
        n = len(full)
        assert n == (65 if not directed else 16)
        assert all_paths(g, "n1", "n6", directed=directed, limit=n) == full
        message = f"more than {n - 1} paths between n1 and n6"
        with pytest.raises(EnumerationLimit) as err:
            all_paths(g, "n1", "n6", directed=directed, limit=n - 1)
        assert str(err.value) == message
        first = first_steps(g, "n1", directed)
        with pytest.raises(EnumerationLimit) as err:
            brute_simple_paths(g, "n1", "n6", first, directed, limit=n - 1)
        assert str(err.value) == message

    def test_walker_built_paths_equal_checked_paths(self, uav_weather, titus):
        g = uav_weather.graph
        report = identify(g, "Pilot", "UAVCrash")
        built = all_paths(g, "Pilot", "UAVCrash") + list(report.backdoor_paths)
        hints = {"Agent": "I", "Mediator": "ED"}  # witness I -> TM -> ED
        (match,) = match_pattern(titus.graph, builtin_pattern("lindberg"), hints)
        witnesses = list(match.witness_paths.values())
        for path, graph in [(p, g) for p in built] + [(p, titus.graph) for p in witnesses]:
            checked = Path(path.nodes, path.directions)
            assert type(path) is Path
            assert path == checked and hash(path) == hash(checked)
            assert str(path) == str(checked)
            assert vars(path) == vars(checked)
            path.validate(graph)
        twin = type(report)(
            **{
                **vars(report),
                "backdoor_paths": tuple(
                    Path(p.nodes, p.directions) for p in report.backdoor_paths
                ),
            }
        )
        assert to_json(report) == to_json(twin)
        assert from_json(to_json(report)) == report
        verdict = check_accountability(titus.graph, builtin_pattern("lindberg"), match)
        assert from_json(to_json(verdict)) == verdict

    def test_path_str(self):
        p = Path(("A", "B", "C"), (FORWARD, BACKWARD))
        assert str(p) == "A -> B <- C"
        assert str(Path((), ())) == "(empty path)"

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
        with pytest.raises(InvalidPath, match="^empty path$"):
            Path((), ()).validate(g)


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

    def test_paths_stop_at_the_first_open_path(self):
        # A -> B -> D is open given nothing, so the second path is never walked
        assert not d_separated_paths(diamond(), {"A"}, {"D"}, set(), limit=1)

    def test_path_limit_counts_blocked_paths(self):
        g = diamond()
        with pytest.raises(EnumerationLimit, match="^more than 1 paths between A and D$"):
            d_separated_paths(g, {"A"}, {"D"}, {"B", "C"}, limit=1)
        assert d_separated_paths(g, {"A"}, {"D"}, {"B", "C"}, limit=2)

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
