import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

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
    ParseError,
    Ref,
    RoleKind,
    SchemaError,
    SemanticError,
    StructuralFunction,
    Table,
    build_graph,
    build_scm,
    builtin_pattern,
    check_accountability,
    evaluate,
    from_json,
    identify,
    logging_set,
    match_pattern,
    parse_model,
    parse_pattern,
    to_dot,
    to_dsl,
    to_json,
)
from causal_account.models import model_text

from generators import random_scm

SPEED_HEADER = "model m\ndomain speed { low, high }\nexo S : speed\n"


def parse_err(text):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    return err.value


def semantic_err(text):
    with pytest.raises(SemanticError) as err:
        parse_model(text)
    return err.value


class TestTokenizerSpans:
    def test_unknown_name_span(self):
        err = semantic_err("model m\nexo A : bool\nvar B : bool = C")
        assert "unknown name 'C'" in str(err)
        assert err.span.line == 3
        assert err.span.column == 16

    def test_unexpected_character(self):
        err = parse_err("model m\nvar @")
        assert err.span.line == 2
        assert err.span.column == 5

    def test_unterminated_string(self):
        err = parse_err('model m\nexo A : bool label "x')
        assert err.span.line == 2
        assert err.span.column == 20

    def test_error_message_carries_location(self):
        err = semantic_err("model m\nexo A : bool\nexo A : bool")
        assert str(err).startswith("line 3, column 5: ")


class TestParseModel:
    def test_empty_model(self):
        m = parse_model("model m")
        assert m.name == "m"
        assert m.graph.nodes == ()

    def test_comments_and_blank_lines(self):
        m = parse_model(
            "# leading comment\n"
            "model demo\n"
            "\n"
            "exo A : bool  # trailing comment\n"
            "var B : bool = !A\n"
        )
        assert m.name == "demo"
        assert m.graph.names == ("A", "B")
        assert evaluate(m, {"A": True}) == {"A": True, "B": False}

    def test_kinds_labels_domains(self):
        m = parse_model(
            SPEED_HEADER
            + 'latent L : bool label "hidden"\n'
            + 'var V : speed label "the V" = S\n'
            + "proxy P for L\n"
        )
        assert m.graph.kind("S") is NodeKind.EXOGENOUS
        assert m.graph.kind("L") is NodeKind.LATENT
        assert m.graph.kind("V") is NodeKind.ENDOGENOUS
        assert m.graph.node("L").label == "hidden"
        assert m.graph.node("V").label == "the V"
        assert m.graph.node("P").proxy_for == "L"
        assert m.domains["V"] is m.domains["S"]
        assert m.domains["P"] == BOOL

    def test_proxy_inherits_principal_domain(self):
        m = parse_model(
            "model m\ndomain speed { low, high }\nlatent L : speed\nproxy P for L"
        )
        assert m.domains["P"] == m.domains["L"]
        assert m.functions["P"].body == Ref("L")

    def test_structure_only_forms(self):
        m = parse_model(
            "model m\nexo A : bool\nvar B : bool\nvar C : bool <- A, B"
        )
        assert m.functions["B"].body is None
        assert m.functions["B"].parents == ()
        assert m.functions["C"].parents == ("A", "B")
        assert not m.fully_specified()

    def test_label_escapes(self):
        m = parse_model('model m\nexo A : bool label "say \\"hi\\" \\\\ there"')
        assert m.graph.node("A").label == 'say "hi" \\ there'

    def test_bad_escape_rejected(self):
        err = parse_err('model m\nexo A : bool label "bad \\n"')
        assert "unsupported escape" in str(err)

    def test_edges_come_from_expression_refs(self):
        m = parse_model(
            "model m\nexo A : bool\nexo B : bool\nvar C : bool = B & A"
        )
        assert m.graph.edges == (("A", "C"), ("B", "C"))
        assert m.functions["C"].parents == ("B", "A")


class TestParseModelErrors:
    def test_empty_input(self):
        err = parse_err("")
        assert "expected a model declaration" in str(err)

    def test_first_line_must_declare_model(self):
        err = parse_err("exo A : bool")
        assert "expected 'model <name>'" in str(err)

    def test_duplicate_model_line(self):
        err = semantic_err("model m\nmodel n")
        assert "duplicate model line" in str(err)

    def test_trailing_tokens_after_name(self):
        err = parse_err("model m extra")
        assert "unexpected trailing input" in str(err)

    def test_unknown_declaration_keyword(self):
        err = parse_err("model m\nfoo A : bool")
        assert "expected one of: domain, exo, latent, var, proxy" in str(err)

    def test_missing_colon(self):
        err = parse_err("model m\nexo A bool")
        assert "expected ':'" in str(err)

    def test_reserved_word_as_name(self):
        err = semantic_err("model m\nexo if : bool")
        assert "'if' is a reserved word" in str(err)

    def test_unknown_domain(self):
        err = semantic_err("model m\nexo A : speed")
        assert "unknown domain 'speed'" in str(err)

    def test_duplicate_variable(self):
        err = semantic_err("model m\nexo A : bool\nexo A : bool")
        assert "'A' declared twice" in str(err)

    def test_redefining_bool_domain(self):
        err = semantic_err("model m\ndomain bool { a, b }")
        assert "declared twice" in str(err)

    def test_single_value_domain(self):
        err = semantic_err("model m\ndomain one { single }")
        assert "at least two values" in str(err)

    def test_repeated_domain_value(self):
        err = semantic_err("model m\ndomain d { a, a }")
        assert "repeated" in str(err)

    def test_variable_name_clashes_with_domain_name(self):
        err = semantic_err(SPEED_HEADER + "var speed : bool = true")
        assert "'speed' is already a domain name" in str(err)

    def test_variable_name_clashes_with_domain_value(self):
        err = semantic_err(SPEED_HEADER + "var low : bool = true")
        assert "'low' is already a value of domain speed" in str(err)

    def test_domain_value_clashes_with_variable(self):
        err = semantic_err("model m\nexo A : bool\ndomain d { A, b }")
        assert "value 'A' is already a variable name" in str(err)

    def test_domain_value_clashes_with_other_domain(self):
        err = semantic_err(
            "model m\ndomain speed { low, high }\ndomain d { low, x }"
        )
        assert "value 'low' already belongs to domain speed" in str(err)

    def test_unknown_parent(self):
        err = semantic_err("model m\nvar B : bool <- A")
        assert "unknown variable 'A'" in str(err)

    def test_repeated_parent(self):
        err = semantic_err("model m\nexo A : bool\nvar B : bool <- A, A")
        assert "parent 'A' repeated" in str(err)

    def test_proxy_for_unknown(self):
        err = semantic_err("model m\nproxy P for L")
        assert "unknown variable 'L'" in str(err)

    def test_proxy_for_non_latent(self):
        err = semantic_err("model m\nexo A : bool\nproxy P for A")
        assert "must be latent" in str(err)

    def test_type_error_gets_expression_span(self):
        err = semantic_err(SPEED_HEADER + "var B : bool = S")
        assert err.span.line == 4
        assert err.span.column == 16

    def test_forward_reference_rejected(self):
        err = semantic_err("model m\nvar A : bool = B\nexo B : bool")
        assert "unknown name 'B'" in str(err)


class TestExpressions:
    def body(self, expr_text, extra_decls=""):
        text = (
            "model m\nexo a : bool\nexo b : bool\nexo c : bool\nexo d : bool\n"
            + extra_decls
            + "var X : bool = "
            + expr_text
        )
        return parse_model(text).functions["X"].body

    def test_or_binds_weaker_than_and(self):
        assert self.body("a | b & c") == Or(Ref("a"), And(Ref("b"), Ref("c")))
        assert self.body("a & b | c") == Or(And(Ref("a"), Ref("b")), Ref("c"))

    def test_not_binds_tightest(self):
        assert self.body("!a == b") == Eq(Not(Ref("a")), Ref("b"))
        assert self.body("!a & b") == And(Not(Ref("a")), Ref("b"))
        assert self.body("!!a") == Not(Not(Ref("a")))

    def test_eq_left_associative(self):
        assert self.body("a == b == c") == Eq(Eq(Ref("a"), Ref("b")), Ref("c"))

    def test_parentheses_override(self):
        assert self.body("(a | b) & c") == And(Or(Ref("a"), Ref("b")), Ref("c"))

    def test_if_at_top_level(self):
        assert self.body("if a then b else c") == IfThenElse(
            Ref("a"), Ref("b"), Ref("c")
        )

    def test_if_nests_with_parentheses(self):
        assert self.body("(if a then b else c) | d") == Or(
            IfThenElse(Ref("a"), Ref("b"), Ref("c")), Ref("d")
        )

    def test_bare_if_inside_operator_rejected(self):
        err = parse_err(
            "model m\nexo a : bool\nvar X : bool = a & if a then a else a"
        )
        assert "'if' must be parenthesized here" in str(err)

    def test_literals(self):
        assert self.body("true") == Lit(True)
        assert self.body("!false") == Not(Lit(False))

    def test_domain_value_literal(self):
        m = parse_model(SPEED_HEADER + "var B : bool = S == low")
        assert m.functions["B"].body == Eq(Ref("S"), Lit("low"))

    def test_variable_wins_over_value_is_moot(self):
        # the single namespace makes shadowing unrepresentable, so a bare
        # identifier always has exactly one meaning
        err = semantic_err(SPEED_HEADER + "var low : speed = high")
        assert "already a value" in str(err)


class TestToDsl:
    DEMO = (
        "model demo\n"
        "\n"
        "domain speed { low, high }\n"
        "\n"
        'exo S : speed label "the speed"\n'
        "latent L : bool\n"
        "var A : bool = S == high & !false\n"
        "var B : speed <- A, S\n"
        "var C : bool\n"
        "proxy P for L\n"
    )

    def test_golden_output(self):
        assert to_dsl(parse_model(self.DEMO)) == self.DEMO

    def test_bundled_models_round_trip(self):
        for name in (
            "titus",
            "uber",
            "uav_weather",
            "uav_attacker",
            "uav_attacker_ids",
            "bad_weather_raci",
        ):
            m = parse_model(model_text(name))
            assert parse_model(to_dsl(m)) == m

    def test_empty_model(self):
        assert to_dsl(parse_model("model m")) == "model m\n\n"

    def test_label_escapes_round_trip(self):
        text = 'model m\n\nexo A : bool label "say \\"hi\\" \\\\ there"\n'
        assert to_dsl(parse_model(text)) == text

    def test_precedence_aware_rendering(self):
        text = "model m\n\nexo a : bool\nexo b : bool\nexo c : bool\n"
        m = parse_model(text + "var X : bool = (a | b) & c\n")
        assert to_dsl(m).endswith("var X : bool = (a | b) & c\n")
        m = parse_model(text + "var X : bool = a | b & c\n")
        assert to_dsl(m).endswith("var X : bool = a | b & c\n")

    def test_table_rewritten_as_conditional(self):
        graph = build_graph(
            [("A", "exogenous"), ("B", "exogenous"), ("C", "endogenous")],
            [("A", "C"), ("B", "C")],
        )
        rows = tuple(
            ((a, b), a and not b)
            for a, b in itertools.product((False, True), repeat=2)
        )
        m = build_scm(
            graph,
            {"A": BOOL, "B": BOOL, "C": BOOL},
            {"C": StructuralFunction("C", ("A", "B"), Table(rows))},
            "t",
        )
        text = to_dsl(m)
        assert "if" in text
        m2 = parse_model(text)
        for a, b in itertools.product((False, True), repeat=2):
            u = {"A": a, "B": b}
            assert evaluate(m2, u) == evaluate(m, u)

    def test_non_bool_table_uses_value_tests(self):
        graph = build_graph(
            [("S", "exogenous"), ("T", "endogenous")], [("S", "T")]
        )
        speed = Domain("speed", ("low", "mid", "high"))
        rows = (
            (("low",), "high"),
            (("mid",), "mid"),
            (("high",), "low"),
        )
        m = build_scm(
            graph,
            {"S": speed, "T": speed},
            {"T": StructuralFunction("T", ("S",), Table(rows))},
            "t",
        )
        text = to_dsl(m)
        assert "S == low" in text
        m2 = parse_model(text)
        for v in speed.values:
            assert evaluate(m2, {"S": v}) == evaluate(m, {"S": v})

    def test_namespace_collision_refused(self):
        graph = build_graph(
            [("A", "exogenous"), ("B", "endogenous")], [("A", "B")]
        )
        tricky = Domain("d", ("A", "z"))
        m = build_scm(
            graph,
            {"A": BOOL, "B": tricky},
            {"B": StructuralFunction("B", ("A",), IfThenElse(Ref("A"), Lit("A"), Lit("z")))},
        )
        with pytest.raises(SemanticError) as err:
            to_dsl(m)
        assert "cannot serialize" in str(err.value)

    @given(st.integers(0, 10_000))
    def test_serialize_parse_serialize_is_stable(self, seed):
        rng = random.Random(seed)
        m = random_scm(rng, max_nodes=6)
        text = to_dsl(m)
        m1 = parse_model(text)
        assert to_dsl(m1) == text
        assert parse_model(to_dsl(m1)) == m1


class TestParsePattern:
    LINDBERG = (
        "pattern lindberg\n"
        "role Agent : Agent\n"
        "role Mediator : Mediator\n"
        "role Effect : Effect\n"
        "edge Agent -> Mediator\n"
        "edge Mediator -> Effect\n"
    )

    def test_round_trip_matches_builtin(self):
        assert parse_pattern(self.LINDBERG) == builtin_pattern("lindberg")

    def test_role_kinds(self):
        p = parse_pattern(
            "pattern p\nrole A : Generic\nrole E : Effect\nedge A -> E"
        )
        assert p.role("A").kind is RoleKind.GENERIC
        assert p.template_edges == (("A", "E"),)

    def test_first_line_must_declare_pattern(self):
        with pytest.raises(ParseError):
            parse_pattern("role A : Agent")

    def test_unknown_role_kind(self):
        with pytest.raises(SemanticError) as err:
            parse_pattern("pattern p\nrole A : Chief")
        assert "unknown role kind 'Chief'" in str(err.value)
        assert "Accountable" in str(err.value)

    def test_duplicate_role(self):
        with pytest.raises(SemanticError) as err:
            parse_pattern("pattern p\nrole A : Agent\nrole A : Effect")
        assert "declared twice" in str(err.value)

    def test_second_accountable_rejected_at_its_line(self):
        with pytest.raises(SemanticError) as err:
            parse_pattern(
                "pattern p\nrole A : Accountable\nrole B : Accountable"
            )
        assert err.value.span.line == 3

    def test_edge_with_unknown_role(self):
        with pytest.raises(SemanticError) as err:
            parse_pattern("pattern p\nrole E : Effect\nedge E -> Ghost")
        assert "unknown role 'Ghost'" in str(err.value)

    def test_self_loop_edge(self):
        with pytest.raises(SemanticError):
            parse_pattern("pattern p\nrole E : Effect\nedge E -> E")

    def test_edge_needs_arrow(self):
        with pytest.raises(ParseError):
            parse_pattern("pattern p\nrole E : Effect\nedge E E")

    def test_build_errors_get_pattern_span(self):
        with pytest.raises(SemanticError) as err:
            parse_pattern("pattern p\nrole A : Agent")
        assert "exactly one Effect role" in str(err.value)
        assert err.value.span.line == 1


class TestJsonModels:
    def test_bundled_round_trip_byte_stable(self, titus, uber, uav_attacker_ids):
        for m in (titus, uber, uav_attacker_ids):
            text = to_json(m)
            m2 = from_json(text)
            assert m2 == m
            assert to_json(m2) == text

    def test_output_is_canonical(self, titus):
        text = to_json(titus)
        assert text.endswith("\n")
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["format"] == "scm"

    def test_structure_only_and_tables_round_trip(self):
        m = parse_model("model m\nexo A : bool\nvar B : bool <- A")
        assert from_json(to_json(m)) == m
        graph = build_graph(
            [("A", "exogenous"), ("B", "endogenous")], [("A", "B")]
        )
        table_model = build_scm(
            graph,
            {"A": BOOL, "B": BOOL},
            {
                "B": StructuralFunction(
                    "B", ("A",), Table((((False,), True), ((True,), False)))
                )
            },
        )
        assert from_json(to_json(table_model)) == table_model

    @given(st.integers(0, 10_000))
    def test_random_models_round_trip(self, seed):
        m = random_scm(random.Random(seed), max_nodes=6)
        text = to_json(m)
        assert from_json(text) == m
        assert to_json(from_json(text)) == text


class TestJsonReports:
    def test_pattern_round_trip(self, raci):
        text = to_json(raci)
        assert from_json(text) == raci
        assert to_json(from_json(text)) == text

    def test_identification_round_trip(self, uber):
        report = identify(uber.graph, "Driver", "Accident")
        text = to_json(report)
        assert from_json(text) == report
        assert to_json(from_json(text)) == text

    def test_logging_round_trip(self, uav_weather):
        rec = logging_set(uav_weather.graph, "Pilot", "UAVCrash")
        text = to_json(rec)
        assert from_json(text) == rec
        assert to_json(from_json(text)) == text

    def test_accountability_round_trip(self, uber, raci):
        match = match_pattern(uber.graph, raci, hints={"Accountable": "Uber"})[0]
        report = check_accountability(uber.graph, raci, match)
        text = to_json(report)
        assert from_json(text) == report
        assert to_json(from_json(text)) == text

    def test_unsupported_object(self):
        with pytest.raises(SchemaError):
            to_json(42)


def mutate(m, fn):
    payload = json.loads(to_json(m))
    fn(payload)
    return json.dumps(payload)


class TestJsonSchemaErrors:
    def decode_err(self, text):
        with pytest.raises(SchemaError) as err:
            from_json(text)
        return err.value

    def test_invalid_json(self):
        err = self.decode_err("{nope")
        assert "invalid JSON" in str(err)

    def test_root_must_be_object(self):
        err = self.decode_err("[]")
        assert err.path == "$"

    def test_missing_format(self):
        err = self.decode_err("{}")
        assert "missing key 'format'" in str(err)

    def test_unknown_format(self):
        err = self.decode_err('{"format": "nope"}')
        assert err.path == "$.format"
        assert "scm" in str(err)

    def test_unexpected_key(self, titus):
        err = self.decode_err(mutate(titus, lambda p: p.update(extra=1)))
        assert "unexpected key 'extra'" in str(err)
        assert err.path == "$"

    def test_missing_node_kind(self, titus):
        err = self.decode_err(
            mutate(titus, lambda p: p["nodes"][2].pop("kind"))
        )
        assert err.path == "$.nodes[2]"
        assert "missing key 'kind'" in str(err)

    def test_bad_node_kind(self, titus):
        err = self.decode_err(
            mutate(titus, lambda p: p["nodes"][0].update(kind="strange"))
        )
        assert err.path == "$.nodes[0].kind"

    def test_wrong_scalar_type(self, titus):
        err = self.decode_err(mutate(titus, lambda p: p.update(name=5)))
        assert err.path == "$.name"
        assert "expected a string" in str(err)

    def test_bool_is_not_a_string(self, titus):
        err = self.decode_err(mutate(titus, lambda p: p.update(name=True)))
        assert err.path == "$.name"

    def test_bool_domain_values_pinned(self, titus):
        err = self.decode_err(
            mutate(titus, lambda p: p["domains"][0].update(values=[True, False]))
        )
        assert err.path == "$.domains[0].values"
        assert "predefined" in str(err)

    def test_number_not_a_value(self, titus):
        def bad(p):
            p["functions"][0]["body"] = {"op": "lit", "value": 3}

        err = self.decode_err(mutate(titus, bad))
        assert err.path == "$.functions[0].body.value"

    def test_unknown_expr_op(self, titus):
        def bad(p):
            p["functions"][0]["body"] = {"op": "xor"}

        err = self.decode_err(mutate(titus, bad))
        assert err.path == "$.functions[0].body.op"

    def test_table_cannot_nest(self, titus):
        def bad(p):
            p["functions"][0]["body"] = {
                "op": "not",
                "a": {"op": "table", "rows": []},
            }

        err = self.decode_err(mutate(titus, bad))
        assert "cannot nest" in str(err)

    def test_edge_shape(self, titus):
        err = self.decode_err(
            mutate(titus, lambda p: p["edges"].append(["I"]))
        )
        assert err.path == "$.edges[3]"
        assert "two-element" in str(err)

    def test_unknown_domain_reference(self, titus):
        err = self.decode_err(
            mutate(titus, lambda p: p["nodes"][0].update(domain="speed"))
        )
        assert err.path == "$.nodes[0].domain"

    def test_build_failures_become_schema_errors(self, titus):
        err = self.decode_err(
            mutate(titus, lambda p: p["edges"].append(["BD", "TM"]))
        )
        assert "cycle" in str(err)

    def test_duplicate_node(self, titus):
        def bad(p):
            p["nodes"].append(dict(p["nodes"][0]))

        err = self.decode_err(mutate(titus, bad))
        assert err.path == "$.nodes[4]"
        assert "declared twice" in str(err)

    def test_bad_direction_in_report(self, uber):
        report = identify(uber.graph, "Driver", "Accident")
        payload = json.loads(to_json(report))
        payload["backdoor_paths"][0]["directions"][0] = "sideways"
        err = self.decode_err(json.dumps(payload))
        assert err.path == "$.backdoor_paths[0].directions[0]"

    def test_duplicate_witness_edge(self, uber, raci):
        match = match_pattern(uber.graph, raci, hints={"Accountable": "Uber"})[0]
        report = check_accountability(uber.graph, raci, match)
        payload = json.loads(to_json(report))
        payload["match"]["witness_paths"].append(
            dict(payload["match"]["witness_paths"][0])
        )
        err = self.decode_err(json.dumps(payload))
        assert "declared twice" in str(err)
        assert err.path.startswith("$.match.witness_paths")


def _payload(source, uber, titus, raci, uav_weather):
    if source == "scm":
        return json.loads(to_json(titus))
    if source == "pattern":
        return json.loads(to_json(raci))
    if source == "identification":
        return json.loads(to_json(identify(uber.graph, "Driver", "Accident")))
    if source == "logging":
        return json.loads(to_json(logging_set(uav_weather.graph, "Pilot", "UAVCrash")))
    match = match_pattern(uber.graph, raci, hints={"Accountable": "Uber"})[0]
    return json.loads(to_json(check_accountability(uber.graph, raci, match)))


def _dig(payload, keys):
    for key in keys:
        payload = payload[key]
    return payload


TABLE_WITHOUT_OUTPUT = {"op": "table", "rows": [{"inputs": [True]}]}
NOT_WITHOUT_OPERAND = {"op": "not"}

# (source, action, keys of the container, key, value, error path, message)
DECODER_FAULTS = [
    ("identification", "set", (), "status", "Maybe",
     "$.status", "unknown status 'Maybe'"),
    ("accountability", "set", (), "verdict", "Guilty",
     "$.verdict", "unknown verdict 'Guilty'"),
    ("pattern", "set", ("roles", 1), "kind", "Boss",
     "$.roles[1].kind", "unknown role kind 'Boss'"),
    ("scm", "set", ("nodes", 1), "kind", "hidden",
     "$.nodes[1].kind", "unknown node kind 'hidden'"),
    ("accountability", "set", (), "logging", 5,
     "$.logging", "expected an object"),
    ("accountability", "set", (), "logging", [],
     "$.logging", "expected an object"),
    ("accountability", "set", (), "identification", "x",
     "$.identification", "expected an object"),
    ("accountability", "set", ("match", "binding"), "Accountable", 3,
     "$.match.binding.Accountable", "expected a string"),
    ("accountability", "set", ("match",), "binding", [],
     "$.match.binding", "expected an object"),
    ("identification", "pop", ("backdoor_paths", 0, "directions"), 0, None,
     "$.backdoor_paths[0]", "needs 4 direction tag(s), got 3"),
    ("accountability", "pop", ("match", "witness_paths", 1, "path", "directions"), 0,
     None, "$.match.witness_paths[1].path", "needs 1 direction tag(s), got 0"),
    ("identification", "set", ("backdoor_paths", 1, "nodes"), 2, 7,
     "$.backdoor_paths[1].nodes[2]", "expected a string"),
    ("scm", "set", ("functions", 1), "body", TABLE_WITHOUT_OUTPUT,
     "$.functions[1].body.rows[0]", "missing key 'output'"),
    ("scm", "set", ("functions", 1), "body", NOT_WITHOUT_OPERAND,
     "$.functions[1].body", "missing key 'a'"),
    ("scm", "set", ("functions", 1, "body"), "op", 1,
     "$.functions[1].body.op", "expected a string"),
    ("scm", "set", ("functions", 1, "body"), "name", False,
     "$.functions[1].body.name", "expected a string"),
    ("scm", "set", ("functions", 1, "body"), "extra", 1,
     "$.functions[1].body", "unexpected key 'extra'"),
    ("scm", "set", ("functions", 1, "parents"), 0, None,
     "$.functions[1].parents[0]", "expected a string"),
    ("scm", "pop", ("functions", 1), "body", None,
     "$.functions[1]", "missing key 'body'"),
    ("scm", "append", ("functions",), None, {"target": "TM", "parents": [], "body": None},
     "$.functions[3]", "function for 'TM' declared twice"),
    ("scm", "append", ("domains",), None, {"name": "bool", "values": [False, True]},
     "$.domains[1]", "domain 'bool' declared twice"),
    ("scm", "append", ("domains",), None, {"name": "d", "values": ["a", "a"]},
     "$.domains[1]", "repeats a value"),
    ("scm", "set", ("domains", 0, "values"), 1, 1.5,
     "$.domains[0].values[1]", "expected a boolean or string value"),
    ("scm", "set", ("domains",), 0, "bool",
     "$.domains[0]", "expected an object"),
    ("scm", "set", (), "nodes", {},
     "$.nodes", "expected an array"),
    ("scm", "set", ("nodes", 0), "label", 3,
     "$.nodes[0].label", "expected a string"),
    ("scm", "set", ("nodes", 0), "proxy_for", ["I"],
     "$.nodes[0].proxy_for", "expected a string"),
    ("scm", "set", ("edges", 0), 1, None,
     "$.edges[0][1]", "expected a string"),
    ("pattern", "set", ("constraints",), 0, 3,
     "$.constraints[0]", "expected a string"),
    ("pattern", "set", ("roles", 0), "extra", 1,
     "$.roles[0]", "unexpected key 'extra'"),
    ("accountability", "pop", ("identification",), "notes", None,
     "$.identification", "missing key 'notes'"),
    ("accountability", "set", ("identification",), "extra", 1,
     "$.identification", "unexpected key 'extra'"),
    ("accountability", "pop", ("logging",), "rationale", None,
     "$.logging", "missing key 'rationale'"),
    ("accountability", "set", ("identification", "minimal_backdoor_sets", 0), 0, 1,
     "$.identification.minimal_backdoor_sets[0][0]", "expected a string"),
    ("accountability", "set", ("match", "witness_paths", 0), "extra", 1,
     "$.match.witness_paths[0]", "unexpected key 'extra'"),
    ("accountability", "pop", ("match", "witness_paths", 0, "edge"), 1, None,
     "$.match.witness_paths[0].edge", "expected a two-element array"),
    ("accountability", "pop", ("match", "witness_paths", 0), "path", None,
     "$.match.witness_paths[0]", "missing key 'path'"),
    ("accountability", "set", ("match",), "extra", 1,
     "$.match", "unexpected key 'extra'"),
    ("logging", "set", (), "must_log", "Pilot",
     "$.must_log", "expected an array"),
    ("logging", "set", ("rationale",), 0, None,
     "$.rationale[0]", "expected a string"),
    ("logging", "pop", (), "adjustment_set_used", None,
     "$", "missing key 'adjustment_set_used'"),
    ("identification", "set", ("notes",), 0, False,
     "$.notes[0]", "expected a string"),
    ("identification", "set", (), "treatment", None,
     "$.treatment", "expected a string"),
    ("identification", "set", (), "format", 1,
     "$.format", "expected a string"),
    ("accountability", "set", ("identification",), "format", "scm",
     "$.identification.format",
     "expected format 'identification-report', got 'scm'"),
    ("accountability", "set", ("logging",), "format", 7,
     "$.logging.format", "expected a string"),
    ("accountability", "set", ("logging",), "format", "identification-report",
     "$.logging.format",
     "expected format 'logging-recommendation', got 'identification-report'"),
]


@pytest.mark.parametrize(
    "source, action, keys, key, value, path, message",
    DECODER_FAULTS,
    ids=[f"{c[0]}-{c[5]}-{c[6]}" for c in DECODER_FAULTS],
)
def test_decoder_fault_is_reported_at_its_path(
    source, action, keys, key, value, path, message, uber, titus, raci, uav_weather
):
    payload = _payload(source, uber, titus, raci, uav_weather)
    container = _dig(payload, keys)
    if action == "set":
        container[key] = value
    elif action == "pop":
        container.pop(key)
    else:
        container.append(value)
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps(payload))
    assert err.value.path == path
    assert message in str(err.value)


def test_nested_reports_may_omit_their_format(uber, titus, raci, uav_weather):
    payload = _payload("accountability", uber, titus, raci, uav_weather)
    report = from_json(json.dumps(payload))
    del payload["identification"]["format"], payload["logging"]["format"]
    assert from_json(json.dumps(payload)) == report


class TestDot:
    def test_empty_graph(self):
        assert to_dot(build_graph([], [])) == "digraph m { }\n"
        assert to_dot(build_graph([], []), name="empty") == "digraph empty { }\n"

    def test_titus_golden(self, titus):
        assert to_dot(titus.graph, name="titus") == (
            "digraph titus {\n"
            '  I [label="Insults"];\n'
            '  TM [label="Titus Manlius\' son reacted"];\n'
            '  ED [label="Engaged in a Duel"];\n'
            '  BD [label="Broke Discipline"];\n'
            "  I -> TM;\n"
            "  TM -> ED;\n"
            "  ED -> BD;\n"
            "}\n"
        )

    def test_latent_nodes_dashed(self, uav_attacker):
        assert to_dot(uav_attacker.graph, name="uav_attacker") == (
            "digraph uav_attacker {\n"
            "  PilotIntent;\n"
            "  Attacker [style=dashed];\n"
            "  Pilot;\n"
            "  RC;\n"
            "  UAV;\n"
            "  PilotIntent -> Pilot;\n"
            "  Attacker -> Pilot;\n"
            "  Attacker -> UAV;\n"
            "  Pilot -> RC;\n"
            "  RC -> UAV;\n"
            "}\n"
        )

    def test_highlight_fills_bound_nodes(self, titus, lindberg):
        match = match_pattern(titus.graph, lindberg, hints={"Agent": "TM"})[0]
        text = to_dot(titus.graph, highlights=match, name="titus")
        assert (
            '  TM [label="Titus Manlius\' son reacted", style=filled, '
            "fillcolor=gray];" in text
        )
        assert '  I [label="Insults"];' in text

    def test_reserved_words_quoted(self):
        g = build_graph(
            [("Graph", "exogenous"), ("edge", "endogenous")],
            [("Graph", "edge")],
        )
        text = to_dot(g, name="node")
        assert 'digraph "node" {' in text
        assert '  "Graph";' in text
        assert '  "Graph" -> "edge";' in text

    def test_odd_names_quoted_and_escaped(self):
        g = build_graph([('a "b"\\c', "exogenous")], [])
        text = to_dot(g)
        assert '  "a \\"b\\"\\\\c";' in text

    def test_label_escaping(self):
        g = build_graph([("A", "exogenous", 'say "hi"')], [])
        assert '  A [label="say \\"hi\\""];' in to_dot(g)
