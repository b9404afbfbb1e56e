import collections
import itertools
import random
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import causal_account
from causal_account import (
    BOOL,
    And,
    Domain,
    EnumerationLimit,
    Eq,
    Expr,
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
    consistent_world_count,
    consistent_worlds,
    counterfactual,
    evaluate,
    intervene,
    iter_worlds,
)
from causal_account import graph as graph_module, scm
from causal_account.errors import NonRootAssignment
from causal_account.limits import MAX_EXPR_DEPTH
from causal_account.scm import check_expr, infer_domain

from generators import pad_roots, random_scm
from oracles import (
    brute_check_body,
    brute_consistent_worlds,
    brute_counterfactual,
    brute_evaluate,
    expr_refs,
)

SPEED = Domain("speed", ("low", "high"))
GEAR = Domain("gear", ("low", "top"))

# (expression, expected domain, message), over a : bool and s : speed
CHECK_EXPR_ERRORS = [
    (Not(Ref("a")), SPEED, "boolean operator used where domain speed is expected"),
    (Eq(Ref("s"), Lit("low")), SPEED, "comparison used where domain speed is expected"),
    (Eq(Lit("low"), Lit("low")), BOOL, "cannot determine the domain of this comparison"),
    (Ref("missing"), BOOL, "expression references non-parents: missing"),
]

class Foo(Expr):
    """An expression node the library does not define."""


# (nodes, edges, domains, functions, message) that build_scm refuses
BUILD_SCM_ERRORS = [
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": BOOL, "b": BOOL},
     {"a": StructuralFunction("a", (), Lit(True)), "b": StructuralFunction("b", ("a",), Ref("a"))},
     "function attached to non-endogenous variable a"),
    ([("a", "exogenous"), ("b", "endogenous"), ("c", "endogenous")], [("a", "b"), ("a", "c")],
     {"a": BOOL, "b": BOOL, "c": BOOL},
     {"b": StructuralFunction("c", ("a",), Ref("a")), "c": StructuralFunction("c", ("a",), Ref("a"))},
     "function stored under 'b' targets 'c'"),
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": BOOL, "b": BOOL},
     {"b": StructuralFunction("b", ("a", "a"), Ref("a"))},
     "function of b repeats a parent"),
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": BOOL, "b": BOOL},
     {"b": StructuralFunction("b", ("a",), Table(((("x",), True), ((True,), False))))},
     "table of b: 'x' is not in domain bool of parent a"),
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": BOOL, "b": BOOL},
     {"b": StructuralFunction("b", ("a",), Table((((False,), "low"), ((True,), True))))},
     "table of b outputs a value outside domain bool"),
    ([Node("L", NodeKind.LATENT), Node("P", NodeKind.ENDOGENOUS, proxy_for="L")], [("L", "P")],
     {"L": BOOL, "P": SPEED},
     {"P": StructuralFunction("P", ("L",), None)},
     "proxy P must share the domain of L"),
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": BOOL, "b": BOOL},
     {"b": StructuralFunction("b", ("a",), Table((((True, False), True),)))},
     "table row of b has 2 inputs for 1 parent(s)"),
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": BOOL, "b": BOOL},
     {"b": StructuralFunction("b", ("a",), Foo())},
     "unsupported expression node Foo"),
    # a model file holds one domain per name, and `bool` is predefined; the
    # last two rows name node b as their subject
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": Domain("lvl", ("lo", "hi")), "b": Domain("lvl", ("lo", "mid", "hi"))},
     {"b": StructuralFunction("b", ("a",), None)},
     "domain 'lvl' of b names two domains"),
    ([("a", "exogenous"), ("b", "endogenous")], [("a", "b")],
     {"a": BOOL, "b": Domain("bool", ("yes", "no"))},
     {"b": StructuralFunction("b", ("a",), None)},
     "domain 'bool' of b is predefined as [false, true]"),
]


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


def idle_roots(count: int):
    """Roots a and b with x = a | b and y = x & b, and `count` roots u0, ...
    that feed nothing."""
    idle = [f"u{i}" for i in range(count)]
    graph = build_graph(
        [(r, "exogenous") for r in ["a", "b", *idle]] + [("x", "endogenous"), ("y", "endogenous")],
        [("a", "x"), ("b", "x"), ("x", "y"), ("b", "y")],
    )
    return build_scm(
        graph,
        {name: BOOL for name in graph.names},
        {
            "x": StructuralFunction("x", ("a", "b"), Or(Ref("a"), Ref("b"))),
            "y": StructuralFunction("y", ("x", "b"), And(Ref("x"), Ref("b"))),
        },
    )


def wide_model(size: int):
    """Roots R (`size` values) and A, with Z = R when A, else R's last value:
    evidence A=true keeps `size` worlds, every other one."""
    values = tuple(f"v{i}" for i in range(size))
    graph = build_graph(
        [("R", "exogenous"), ("A", "exogenous"), ("Z", "endogenous")],
        [("R", "Z"), ("A", "Z")],
    )
    wide = Domain("wide", values)
    return build_scm(
        graph,
        {"R": wide, "A": BOOL, "Z": wide},
        {"Z": StructuralFunction("Z", ("R", "A"), IfThenElse(Ref("A"), Ref("R"), Lit(values[-1])))},
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
        assert check_expr(e, BOOL, {"A": BOOL, "B": BOOL}, [BOOL]) == ("B", "A")

    def test_infer_domain(self):
        var_domains = {"A": BOOL, "S": SPEED}
        assert infer_domain(Ref("S"), var_domains, [BOOL, SPEED]) == SPEED
        assert infer_domain(Lit(True), var_domains, [BOOL, SPEED]) == BOOL
        assert infer_domain(Lit("low"), var_domains, [BOOL, SPEED]) == SPEED
        assert infer_domain(Not(Ref("A")), var_domains, [BOOL, SPEED]) == BOOL
        # `low` alone is ambiguous when two domains hold it, so an if-then-else
        # falls back to its else branch
        e = IfThenElse(Ref("A"), Lit("low"), Ref("S"))
        assert infer_domain(e, var_domains, [BOOL, SPEED, GEAR]) == SPEED
        e = IfThenElse(Ref("A"), Lit("low"), Lit("low"))
        assert infer_domain(e, var_domains, [BOOL, SPEED, GEAR]) is None

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

    @pytest.mark.parametrize("e, expected, message", CHECK_EXPR_ERRORS)
    def test_check_expr_error_messages(self, e, expected, message):
        with pytest.raises(SemanticError) as err:
            check_expr(e, expected, {"a": BOOL, "s": SPEED}, [BOOL, SPEED, GEAR])
        assert str(err.value) == message

    def test_check_expr_refuses_deep_comparison_sides(self):
        # the side of `==` is inferred through `then` branches before the
        # walk reaches them; that inference must stop at the limit too
        deep = Lit("low")
        for _ in range(5000):
            deep = IfThenElse(Ref("a"), deep, Lit("low"))
        with pytest.raises(SemanticError) as err:
            check_expr(Eq(Lit("low"), deep), BOOL, {"a": BOOL}, [SPEED, GEAR], "f")
        assert str(err.value) == f"f nests deeper than {MAX_EXPR_DEPTH} levels"


COLOR = Domain("color", ("red", "green"))
# variables of every domain, and two names no variable set ever holds
BODY_VARS = {"a": BOOL, "b": BOOL, "s": SPEED, "t": SPEED, "g": GEAR, "c": COLOR}
BODY_NAMES = (*BODY_VARS, "x", "y")
BODY_DOMAINS = (BOOL, SPEED, GEAR, COLOR)
BODY_VARS_OF = {d: [n for n, nd in BODY_VARS.items() if nd == d] for d in BODY_DOMAINS}


def _random_leaf(rng: random.Random, domain: Domain):
    """A literal or reference, of `domain` but now and then of any domain or
    a name outside every variable set."""
    roll = rng.random()
    if roll < 0.04:
        return Ref(rng.choice(BODY_NAMES))
    if roll < 0.08:
        domain = rng.choice(BODY_DOMAINS)
    if rng.random() < 0.5:
        return Ref(rng.choice(BODY_VARS_OF[domain]))
    return Lit(rng.choice(domain.values))


def _random_body(rng: random.Random, domain: Domain, size: int):
    """A body of about `size` nodes meant for `domain`; one node in twenty
    is built for a domain drawn at random instead."""
    if rng.random() < 0.05:
        domain = rng.choice(BODY_DOMAINS)
    if size <= 1:
        return _random_leaf(rng, domain)
    if domain != BOOL or rng.random() < 0.2:
        cond, then, orelse = (_random_body(rng, d, size // 3) for d in (BOOL, domain, domain))
        return IfThenElse(cond, then, orelse)
    kind = rng.choice((Not, And, Or, Eq))
    if kind is Not:
        return Not(_random_body(rng, BOOL, size - 1))
    n = rng.randint(2, 4)
    side = rng.choice(BODY_DOMAINS) if kind is Eq else BOOL
    terms = [_random_body(rng, side if k < 2 else BOOL, size // n) for k in range(n)]
    return kind(*terms)


# ways to put `e` one level down beside `leaf`, as an operand no chain absorbs
_WRAPS = (
    lambda leaf, e: Not(e),
    lambda leaf, e: And(leaf, e),
    lambda leaf, e: Or(leaf, e),
    lambda leaf, e: Eq(leaf, e),
    lambda leaf, e: IfThenElse(e, leaf, leaf),
    lambda leaf, e: IfThenElse(leaf, e, leaf),
    lambda leaf, e: IfThenElse(leaf, leaf, e),
)


def _nest(rng: random.Random, e, levels: int):
    """`e` below `levels` more nodes, beside leaves of random domains."""
    for _ in range(levels):
        e = rng.choice(_WRAPS)(_random_leaf(rng, rng.choice(BODY_DOMAINS)), e)
    return e


def _outcome(check, *args):
    try:
        return check(*args)
    except SemanticError as err:
        return str(err)


def test_check_expr_agrees_with_the_three_reference_walks():
    """One walk refuses with the message of the first failing check among
    depth, stray references and types, or returns the same references."""
    rng = random.Random(2222)
    counts: collections.Counter = collections.Counter()
    differ = []
    for case in range(10_000):
        expected = rng.choice(BODY_DOMAINS)
        if case % 4:
            body = _random_body(rng, expected, rng.randint(1, 40))
        else:
            levels = (MAX_EXPR_DEPTH - 1, MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1, 150)[case // 4 % 4]
            body = _nest(rng, _random_leaf(rng, rng.choice(BODY_DOMAINS)), levels)
        var_domains = {n: d for n, d in BODY_VARS.items() if rng.random() < 0.95}
        known = [d for d in BODY_DOMAINS if rng.random() < 0.8]
        args = (body, expected, var_domains, known, "function of v")
        want, got = _outcome(brute_check_body, *args), _outcome(check_expr, *args)
        if got != want:
            differ.append((case, got, want))
        if isinstance(want, tuple):
            counts["accepted"] += 1
        else:
            counts[next((k for k in ("nests", "non-parents") if k in want), "ill-typed")] += 1
    assert differ == []
    assert min(counts[k] for k in ("accepted", "nests", "non-parents", "ill-typed")) > 1000, counts


class TestBuildScm:
    @pytest.mark.parametrize("nodes, edges, domains, functions, message", BUILD_SCM_ERRORS)
    def test_error_messages(self, nodes, edges, domains, functions, message):
        with pytest.raises(SemanticError) as err:
            build_scm(build_graph(nodes, edges), domains, functions)
        assert str(err.value) == message
        if message.startswith("domain "):
            assert err.value.subject == ("node", "b")

    def test_model_maps_are_read_only(self):
        graph = build_graph(
            [("A", "exogenous"), ("B", "endogenous")], [("A", "B")]
        )
        domains = {"A": BOOL, "B": BOOL}
        functions = {"B": StructuralFunction("B", ("A",), Ref("A"))}
        m = build_scm(graph, domains, functions)
        # the model keeps its own copies
        domains["A"] = Domain("level", ("low", "high"))
        del functions["B"]
        assert m.domains["A"] == BOOL
        assert m.functions["B"].body == Ref("A")
        with pytest.raises(TypeError):
            m.functions["B"] = StructuralFunction("B", ("A",), Not(Ref("A")))
        with pytest.raises(TypeError):
            m.domains["A"] = BOOL
        with pytest.raises(TypeError):
            intervene(m, {"B": True}).functions["B"] = m.functions["B"]
        assert m == build_scm(graph, {"A": BOOL, "B": BOOL}, {"B": m.functions["B"]})

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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_tree_walking_oracle(self, seed):
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=8)
        endo = list(m.endogenous_names)
        do = {
            name: rng.choice(m.domains[name].values)
            for name in rng.sample(endo, rng.randint(0, min(2, len(endo))))
        }
        u = {name: rng.choice(m.domains[name].values) for name in m.root_names}
        for model in (m, intervene(m, do)):
            shapeless = [
                name
                for name in model.graph.topological_order()
                if name in model.functions and not model.functions[name].specified
            ]
            if shapeless:
                message = f"variable {shapeless[0]} is declared structure-only"
                with pytest.raises(UnspecifiedFunction, match=f"^{message}$"):
                    evaluate(model, u)
            else:
                got = evaluate(model, u)
                assert list(got.items()) == list(brute_evaluate(model, u).items())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_bad_assignments_fail_in_order(self, seed):
        # each step mends the fault that won the step before it
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=8)
        names = m.graph.names
        roots, endo = m.root_names, m.endogenous_names

        def listed(chosen):
            return ", ".join(name for name in names if name in chosen)

        def fails(error, message, assignment):
            with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
                evaluate(m, assignment)
            assert type(raised.value) is error

        dropped = rng.sample(roots, rng.randint(1, len(roots)))
        u = {
            name: rng.choice(m.domains[name].values)
            for name in roots
            if name not in dropped
        }
        extra = {
            name: rng.choice(m.domains[name].values)
            for name in rng.sample(endo, rng.randint(0, len(endo)))
        }
        odd = rng.choice(names)
        wrong = "true" if m.domains[odd] == BOOL else True
        fails(
            UnknownNode,
            "root assignment names unknown variable 'zz'",
            {"zz": True, **u, **extra, odd: wrong},
        )
        shown = "'true'" if wrong == "true" else "true"
        fails(
            ValueOutOfDomain,
            f"root assignment: {shown} is not in domain {m.domains[odd].name} of {odd}",
            {**u, **extra, odd: wrong},
        )
        if extra:
            fails(
                NonRootAssignment,
                "root assignment sets non-root variable(s): " + listed(extra),
                {**u, **extra},
            )
        fails(MissingExogenous, "missing value(s) for " + listed(dropped), u)


class TestConsistentWorlds:
    def test_world_functions_are_exported(self):
        for name in ("consistent_world_count", "iter_worlds"):
            assert name in causal_account.__all__
            assert getattr(causal_account, name) is getattr(scm, name)

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
        m = wide_model(size)
        values = m.domains["R"].values
        last = values[-1]
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
                got = scm._root_masks(m, count, start, size, roots)
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
    @given(
        st.integers(0, 100_000),
        st.sampled_from([1, 2, 3, 5, 8, 13]),
        st.sampled_from([1, 2, 3, scm._CHUNK]),
    )
    def test_blocks_split_anywhere(self, seed, block, chunk):
        # blocks shorter than a root's run, its period, or both, and chunks
        # of kept worlds shorter than a block
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
        as_items = [list(w.items()) for w in expected]
        with mock.patch.object(scm, "_block_size", lambda m, count: block), mock.patch.object(
            scm, "_CHUNK", chunk
        ):
            assert [list(w.items()) for w in consistent_worlds(m, evidence)] == as_items
            assert [list(w.items()) for w in iter_worlds(m, evidence)] == as_items
            if expected:
                assert counterfactual(m, evidence, do, m.graph.names) == (
                    brute_counterfactual(m, evidence, do, m.graph.names)
                )
            else:
                with pytest.raises(InconsistentEvidence):
                    counterfactual(m, evidence, do, m.graph.names)


class TestWorldChunks:
    """Each block's kept worlds are gathered in chunks of `scm._CHUNK`."""

    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("kept", [0, 1, scm._CHUNK - 1, scm._CHUNK, scm._CHUNK + 1])
    def test_kept_counts_around_a_chunk(self, kept, block):
        # more than 256 values, so the codes are two-byte items; block 1000
        # starts a new chunk in each of 9 blocks
        m = wide_model(max(kept, 300))
        values = m.domains["R"].values
        if kept == 0:
            evidence = {"A": False, "Z": values[0]}
        elif kept == 1:
            evidence = {"A": True, "Z": values[7]}
        else:
            evidence = {"A": True}
        expected = [list(w.items()) for w in brute_consistent_worlds(m, evidence)]
        assert len(expected) == kept
        blocks = scm._block_size if block is None else (lambda m, count: block)
        with mock.patch.object(scm, "_block_size", blocks):
            assert [list(w.items()) for w in consistent_worlds(m, evidence)] == expected
            assert [list(w.items()) for w in iter_worlds(m, evidence)] == expected

    def test_streaming_holds_one_chunk(self):
        # 2^18 worlds of 20 variables in one block: the codes take about
        # 5 MB and the whole listing peaks near 8 MB; tuples of one block's
        # columns would add 40 MB, one chunk's about 0.7 MB
        roots = tuple(f"R{i}" for i in range(18))
        graph = build_graph(
            [(r, "exogenous") for r in roots] + [("E", "endogenous"), ("F", "endogenous")],
            [(r, "E") for r in roots[:4]] + [("E", "F"), ("R5", "F")],
        )
        m = build_scm(
            graph,
            {name: BOOL for name in graph.names},
            {
                "E": StructuralFunction(
                    "E", roots[:4], And(Or(Ref("R0"), Ref("R1")), Or(Ref("R2"), Ref("R3")))
                ),
                "F": StructuralFunction("F", ("E", "R5"), Or(Ref("E"), Not(Ref("R5")))),
            },
        )
        assert scm._block_size(m, 2**18) == 2**18
        tracemalloc.start()
        try:
            seen = collections.deque(iter_worlds(m, {"F": True}), maxlen=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen[0] == dict.fromkeys(graph.names, True)
        assert peak < 16 * 2**20


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_extra_roots_change_nothing(self, seed):
        # roots outside the ancestry of the evidence and the query, some of
        # them feeding variables there; some interventions are faulty
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=6)
        evidence = random_evidence(rng, m)
        endo = list(m.endogenous_names)
        targets = rng.sample(endo, rng.randint(0, min(2, len(endo))))
        do = {name: rng.choice(m.domains[name].values) for name in targets}
        query = rng.sample(m.graph.names, rng.randint(1, len(m.graph.names)))
        padded = pad_roots(rng, m, [*evidence, *query])
        fault = rng.random()
        if fault < 0.1:
            do[rng.choice(m.root_names)] = True
        elif fault < 0.15:
            do["zz"] = True
        elif fault < 0.2 and endo:
            do[rng.choice(endo)] = "no such value"

        def outcome(answer, model):
            try:
                return answer(model, evidence, do, query)
            except (
                InconsistentEvidence,
                InterveneOnExogenous,
                UnknownNode,
                UnspecifiedFunction,
                ValueOutOfDomain,
            ) as exc:
                return type(exc)

        expected = outcome(brute_counterfactual, padded)
        assert outcome(brute_counterfactual, m) == expected
        assert outcome(counterfactual, padded) == expected

    def test_idle_roots_are_not_enumerated(self, monkeypatch):
        monkeypatch.delenv("CAUSAL_ACCOUNT_MAX_ENUM", raising=False)
        m = idle_roots(24)
        assert counterfactual(m, {"y": True}, {"x": False}, ["y"]) == {"y": frozenset({False})}
        # listing and counting worlds still take every root
        with pytest.raises(EnumerationLimit, match=r"^67108864 root combinations"):
            consistent_world_count(m, {"y": True})

    def test_the_cap_counts_the_requisite_roots(self, monkeypatch):
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "1")
        with pytest.raises(EnumerationLimit, match=r"^4 root combinations exceed the cap of 2\^1 "):
            counterfactual(idle_roots(3), {"y": True}, {"x": False}, ["y"])

    def test_no_graph_surgery(self, titus, uav_attacker, monkeypatch):
        def refuse(*args):
            raise AssertionError("a mutilated model was built")

        monkeypatch.setattr(scm, "intervene", refuse)
        monkeypatch.setattr(scm, "build_graph", refuse)
        monkeypatch.setattr(graph_module, "build_graph", refuse)
        result = counterfactual(titus, {"BD": True}, {"TM": False}, ["ED", "BD"])
        assert result == {"ED": frozenset({False}), "BD": frozenset({False})}
        result = counterfactual(uav_attacker, {"UAV": True}, {"RC": False}, ["RC"])
        assert result == {"RC": frozenset({False})}

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
