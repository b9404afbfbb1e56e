"""Flat chains and the one nesting limit.

A chain of one operator, `a | b | c`, is one node however long, so no walker
recurses along it. Every other kind of nesting is bounded by MAX_EXPR_DEPTH
where a body enters: the DSL parser, the JSON reader and `build_scm`. These
tests check both sides of the limit and chains far longer than Python's
recursion limit. None pins a size at which `json` itself gives up, which
differs between interpreters.
"""

import json
from functools import reduce
from operator import and_, eq, or_

import pytest
from click.testing import CliRunner

from causal_account import (
    BOOL,
    And,
    Domain,
    Eq,
    IfThenElse,
    Lit,
    Node,
    NodeKind,
    Not,
    Or,
    Ref,
    Role,
    RoleKind,
    StructuralFunction,
    Table,
    build_graph,
    build_pattern,
    build_scm,
    evaluate,
    from_json,
    parse_model,
    to_dot,
    to_dsl,
    to_json,
)
from causal_account.cli import main
from causal_account.errors import (
    GraphError,
    InvalidNodeSpec,
    InvalidRoleSpec,
    ParseError,
    PatternError,
    SemanticError,
)
from causal_account.limits import MAX_EXPR_DEPTH

from oracles import brute_evaluate

HEAD = "model g\nexo a : bool\nexo b : bool\nvar y : bool = "
BODY_COLUMN = len(HEAD.splitlines()[-1]) + 1
L = MAX_EXPR_DEPTH


def chain(op: str, n: int) -> str:
    return HEAD + f" {op} ".join("ab"[i % 2] for i in range(n)) + "\n"


def nested(kind: str, depth: int) -> tuple[str, int]:
    """A model whose body nests `depth` levels of `kind`, and the column of
    the token that opens level L + 1."""
    opener = {"(": "(", "!": "!", "if": "if a then b else "}[kind]
    body = {"(": "(" * depth + "a" + ")" * depth}.get(kind, opener * depth + "a")
    return HEAD + body + "\n", BODY_COLUMN + L * len(opener)


def library_not(depth: int):
    body = Ref("a")
    for _ in range(depth):
        body = Not(body)
    return body


def model_of(body, parents=("a",)):
    """A model over roots a and b whose y computes `body` of `parents`."""
    graph = build_graph(
        [("a", "exogenous"), ("b", "exogenous"), ("y", "endogenous")], [(p, "y") for p in parents]
    )
    f = StructuralFunction("y", parents, body)
    return build_scm(graph, {"a": BOOL, "b": BOOL, "y": BOOL}, {"y": f}, "g")


def json_not(depth: int) -> str:
    """A JSON model whose body nests `depth` objects of op `not`, written
    without `json`, which would recurse once per object."""
    body = '{"op": "not", "a": ' * depth + '{"op": "ref", "name": "a"}' + "}" * depth
    return (
        '{"format": "scm", "version": 2, "name": "g", '
        '"domains": [{"name": "bool", "values": [false, true]}], '
        '"nodes": [{"name": "a", "kind": "exogenous", "domain": "bool"}, '
        '{"name": "y", "kind": "endogenous", "domain": "bool"}], "edges": [["a", "y"]], '
        f'"functions": [{{"target": "y", "parents": ["a"], "body": {body}}}]}}'
    )


def run(tmp_path, name: str, text: str, *argv: str):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    res = CliRunner().invoke(main, [*argv, str(path)], catch_exceptions=False)
    return res.exit_code, res.stdout, res.stderr


class TestChainNodes:
    def test_a_first_operand_of_the_same_class_is_absorbed(self):
        a, b, c = Ref("a"), Ref("b"), Ref("c")
        assert Or(Or(a, b), c) == Or(a, b, c)
        assert Or(Or(a, b), c).terms == (a, b, c)
        assert hash(Or(Or(a, b), c)) == hash(Or(a, b, c))
        assert Or(a, Or(b, c)) != Or(a, b, c)
        assert And(a, b) != Or(a, b)
        assert Eq(Eq(a, b), c) == Eq(a, b, c)

    def test_a_and_b_are_the_operands_of_the_binary_tree(self):
        a, b, c = Ref("a"), Ref("b"), Ref("c")
        e = And(a, b, c)
        assert e.a == And(a, b) and e.b == c
        assert e.a.a == a and e.a.b == b
        assert Or(a, Or(b, c)).b == Or(b, c)

    @pytest.mark.parametrize("cls", [And, Or, Eq])
    def test_a_chain_of_one_term_is_refused(self, cls):
        with pytest.raises(TypeError):
            cls(Ref("a"))
        with pytest.raises(TypeError):
            cls(cls(Ref("a"), Ref("b")))

    @pytest.mark.parametrize("op, fold", [("|", or_), ("&", and_), ("==", eq)])
    def test_a_chain_evaluates_as_the_left_fold(self, op, fold):
        m = parse_model(HEAD + f" {op} ".join("abba") + "\n")
        # the reference evaluator folds too, past Python's recursion limit
        long = parse_model(chain(op, 2_000))
        for a in (False, True):
            for b in (False, True):
                want = reduce(fold, (a, b, b, a))
                assert evaluate(m, {"a": a, "b": b})["y"] == want
                assert brute_evaluate(long, {"a": a, "b": b}) == evaluate(long, {"a": a, "b": b})


class TestLongChains:
    @pytest.mark.parametrize("op, fold", [("|", or_), ("&", and_), ("==", eq)])
    def test_ten_thousand_terms_through_the_cli(self, tmp_path, op, fold):
        text = chain(op, 10_000)
        assert run(tmp_path, "g.scm.txt", text, "validate")[0] == 0
        code, out, _ = run(tmp_path, "g.scm.txt", text, "eval", "--set", "a=true", "--set", "b=false")
        want = reduce(fold, [True, False] * 5_000)
        assert code == 0 and out.splitlines()[-1] == f"y={'true' if want else 'false'}"
        m = parse_model(text)
        assert parse_model(to_dsl(m)) == m
        code, out, _ = run(tmp_path, "g.scm.txt", text, "export", "--format", "json")
        assert code == 0
        assert run(tmp_path, "g.json", out, "validate", "--format", "json") == (0, out, "")

    @pytest.mark.parametrize("op", ["|", "&", "=="])
    def test_json_of_a_chain_reads_back_and_grows_linearly(self, op):
        # a chain is one object whatever its length, so each term adds the
        # same bytes: one `ref` object two levels deep
        sizes = {}
        for n in (100, 1_000, 10_000):
            m = parse_model(chain(op, n))
            text = to_json(m)
            assert from_json(text) == m, n
            sizes[n] = len(text)
        # 9,000 terms more add ten times the bytes of 900 terms more
        assert sizes[10_000] - sizes[1_000] == 10 * (sizes[1_000] - sizes[100])


class TestNestingLimit:
    @pytest.mark.parametrize("kind", ["(", "!", "if"])
    def test_dsl_at_the_limit_answers_and_round_trips(self, kind):
        m = parse_model(nested(kind, L)[0])
        assert parse_model(to_dsl(m)) == m
        assert from_json(to_json(m)) == m

    @pytest.mark.parametrize("depth", [L + 1, 5_000])
    @pytest.mark.parametrize("kind", ["(", "!", "if"])
    def test_dsl_past_the_limit_is_refused_at_the_opening_token(self, tmp_path, kind, depth):
        text, column = nested(kind, depth)
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert (err.value.span.line, err.value.span.column) == (4, column)
        code, _, stderr = run(tmp_path, "g.scm.txt", text, "validate")
        assert code == 2
        assert f"line 4, column {column}: expression nests deeper than {L} levels" in stderr

    def test_a_parenthesized_if_is_one_level(self):
        body = "(if a then " * L + "a" + " else b)" * L
        m = parse_model(HEAD + body + "\n")
        assert parse_model(to_dsl(m)) == m
        with pytest.raises(ParseError):
            parse_model(HEAD + "(if a then " * (L + 1) + "a" + " else b)" * (L + 1) + "\n")

    def test_a_chain_is_a_level_where_it_nests(self):
        # `a | (a | (... (a | b)))`: one chain more than parentheses
        def right_nested(parens: int) -> str:
            return HEAD + "a | (" * parens + "a | b" + ")" * parens + "\n"

        m = parse_model(right_nested(L - 1))
        assert parse_model(to_dsl(m)) == m and from_json(to_json(m)) == m
        with pytest.raises(SemanticError, match=f"function of y nests deeper than {L} levels") as err:
            parse_model(right_nested(L))
        assert (err.value.span.line, err.value.span.column) == (4, BODY_COLUMN)

    def test_the_deepest_json_a_body_makes_exports_and_validates(self, tmp_path):
        # `a | (a & (... (a & b)))`: L chain levels alternating `&` and `|`, so
        # none absorbs the next; each is an object holding an array of terms
        def alternating(levels: int) -> str:
            body = "a & b"
            for i in range(levels - 1):
                body = f"a {'|&'[i % 2]} ({body})"
            return HEAD + body + "\n"

        with pytest.raises(SemanticError, match=f"nests deeper than {L} levels"):
            parse_model(alternating(L + 1))
        text = alternating(L)
        code, out, _ = run(tmp_path, "g.scm.txt", text, "export", "--format", "json")
        assert code == 0 and from_json(out) == parse_model(text)
        assert run(tmp_path, "g.json", out, "validate", "--format", "json") == (0, out, "")
        # two JSON levels per expression level, plus the document's own
        depth = deepest = 0
        for char in out:
            depth += (char in "[{") - (char in "]}")
            deepest = max(deepest, depth)
        assert 2 * L < deepest < 2 * L + 10

    def test_json_at_the_limit_answers(self, tmp_path):
        code, out, _ = run(tmp_path, "g.json", json_not(L), "eval", "--set", "a=true")
        assert code == 0 and out.splitlines()[-1] == "y=true"

    def test_json_one_past_the_limit_is_refused_at_its_path(self, tmp_path):
        code, _, err = run(tmp_path, "g.json", json_not(L + 1), "validate")
        path = "$.functions[0].body" + ".a" * L
        assert code == 2 and f"{path}: expression nests deeper than {L} levels" in err

    def test_json_nested_5000_deep_is_refused(self, tmp_path):
        code, _, err = run(tmp_path, "g.json", json_not(5_000), "validate")
        assert code == 2
        # `json` gives up first where it recurses less deeply than 5,000
        assert "$: JSON nests too deep to read" in err or "$.functions[0].body.a" in err

    def test_library_tree_at_the_limit_answers_and_round_trips(self):
        m = model_of(library_not(L))
        assert evaluate(m, {"a": True, "b": True})["y"] is True
        assert parse_model(to_dsl(m)) == m
        assert from_json(to_json(m)) == m

    @pytest.mark.parametrize("depth", [L + 1, 5_000])
    def test_library_tree_past_the_limit_is_refused(self, depth):
        with pytest.raises(SemanticError, match=f"^function of y nests deeper than {L} levels$"):
            model_of(library_not(depth))

    def test_to_dsl_refuses_a_table_whose_rewrite_nests_too_deep(self):
        def table_model(width: int):
            wide = Domain("wide", tuple(f"w{i}" for i in range(width)))
            graph = build_graph([("a", "exogenous"), ("y", "endogenous")], [("a", "y")])
            rows = tuple(((v,), i % 2 == 0) for i, v in enumerate(wide.values))
            f = StructuralFunction("y", ("a",), Table(rows))
            return build_scm(graph, {"a": wide, "y": BOOL}, {"y": f}, "g")

        m = table_model(60)
        assert evaluate(parse_model(to_dsl(m)), {"a": "w3"})["y"] is False
        with pytest.raises(SemanticError, match="^cannot serialize: function of y nests deeper"):
            to_dsl(table_model(120))


@pytest.mark.parametrize(
    "build, error, base, spec",
    [
        (lambda: build_graph([("a", "weird")], []), InvalidNodeSpec, GraphError, "('a', 'weird')"),
        (lambda: build_graph(["n1"], []), InvalidNodeSpec, GraphError, "'n1'"),
        (lambda: build_pattern("p", [("A", "weird"), ("E", "Effect")], []),
         InvalidRoleSpec, PatternError, "('A', 'weird')"),
        (lambda: build_pattern("p", [("A", "Agent"), "E"], []), InvalidRoleSpec, PatternError, "'E'"),
        # a Node or Role object is held to the same kinds as a tuple
        (lambda: build_graph([Node("a", "weird")], []), InvalidNodeSpec, GraphError, "kind='weird'"),
        (lambda: build_pattern("p", [Role("A", "weird"), ("E", "Effect")], []),
         InvalidRoleSpec, PatternError, "kind='weird'"),
        # a label must be a string, or `to_dot` and `to_dsl` fail on it and
        # `from_json` refuses what `to_json` writes
        (lambda: build_graph([("A", "exogenous", 5)], []),
         InvalidNodeSpec, GraphError, "('A', 'exogenous', 5)"),
        (lambda: build_graph([Node("A", NodeKind.EXOGENOUS, 5)], []),
         InvalidNodeSpec, GraphError, "label=5, proxy_for=None)"),
    ],
)
def test_malformed_node_and_role_specs_are_refused(build, error, base, spec):
    with pytest.raises(error) as err:
        build()
    assert isinstance(err.value, base) and isinstance(err.value, ValueError)
    assert spec in str(err.value)


def test_lists_and_labels_still_make_node_and_role_specs():
    g = build_graph([["a", "exogenous", "A label"], ("y", NodeKind.ENDOGENOUS)], [("a", "y")])
    assert g.nodes[0] == Node("a", NodeKind.EXOGENOUS, "A label")
    p = build_pattern("p", [["A", "Agent"], ("E", "Effect")], [("A", "E")])
    assert [r.name for r in p.roles] == ["A", "E"]
    # a Node or Role object may give its kind as a string too
    g = build_graph([Node("a", "Exogenous", "A label"), ("y", "endogenous")], [("a", "y")])
    assert g.nodes[0] == Node("a", NodeKind.EXOGENOUS, "A label")
    assert to_dot(g).startswith("digraph ")
    p = build_pattern("p", [Role("A", "Agent"), Role("E", RoleKind.EFFECT)], [("A", "E")])
    assert p.roles == (Role("A", RoleKind.AGENT), Role("E", RoleKind.EFFECT))
    assert from_json(to_json(p)) == p


def test_a_chain_is_one_flat_json_object():
    body = IfThenElse(Eq(Ref("a"), Lit(True)), Not(Ref("b")), And(Ref("a"), Ref("b"), Ref("a")))
    m = model_of(body, ("a", "b"))
    a, b = {"op": "ref", "name": "a"}, {"op": "ref", "name": "b"}
    assert json.loads(to_json(m))["functions"][0]["body"] == {
        "op": "if",
        "cond": {"op": "eq", "terms": [a, {"op": "lit", "value": True}]},
        "then": {"op": "not", "a": b},
        "else": {"op": "and", "terms": [a, b, a]},
    }
    assert from_json(to_json(m)) == m
