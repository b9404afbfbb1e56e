import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from causal_account import (
    BOOL,
    And,
    Domain,
    Eq,
    Expr,
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
from causal_account import models, scm
from causal_account.modelio import dsl
from causal_account.modelio.dsl import _split_lines, _tokenize_line, _unquote
from causal_account.models import model_text

from generators import random_scm
from oracles import brute_tokenize, brute_unquote

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


# pieces of lines that lex: the DSL's characters and words, other whitespace
# (tab, form feed, vertical tab, no-break and ideographic spaces, unit
# separator), comments, and strings with good and bad escapes
_TOKEN_PIECES = list("aZ9_ \t\f\v\xa0\u3000\x1f#={}():,!&|") + [
    "var", "x_1", "->", "<-", "==", '"a b"', '"\\\\"', '"\\n"', "# c"
]
# characters that start no token, alone or as an unterminated string
_STRAY_PIECES = list("\"\\-<>@.'~é") + ['"\\"']
_CLEAN_LINES = st.lists(st.sampled_from(_TOKEN_PIECES), max_size=24).map("".join)
_LINES = _CLEAN_LINES | st.lists(
    st.sampled_from(_TOKEN_PIECES + _STRAY_PIECES), max_size=24
).map("".join)


@settings(max_examples=400)
@given(line=_LINES, lineno=st.integers(1, 99))
def test_tokenizer_agrees_with_brute_force(line, lineno):
    """Each token has the kind, text, line, column and length of the
    match-per-whitespace-run tokenizer, and an error the same message and
    span; string tokens unquote alike."""
    try:
        expected = brute_tokenize(line, lineno)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _tokenize_line(line, lineno)
        assert (str(got.value), got.value.span) == (str(err), err.span)
        return
    tokens = _tokenize_line(line, lineno)
    assert [(t.kind, t.text, t.line, t.column, t.span.length) for t in tokens] == expected
    for tok in tokens:
        if tok.kind != "string":
            continue
        try:
            value = brute_unquote(tok.text, tok.span)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                _unquote(tok)
            assert (str(got.value), got.value.span) == (str(err), err.span)
        else:
            assert _unquote(tok) == value


# what `str.splitlines` ends a line at
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028"])


@settings(max_examples=200)
@given(
    lines=st.lists(_CLEAN_LINES, max_size=6),
    breaks=st.lists(_BREAKS, min_size=6, max_size=6),
    stray=st.none() | st.tuples(st.integers(0, 5), st.sampled_from(_STRAY_PIECES)),
)
def test_documents_split_into_the_lines_of_splitlines(lines, breaks, stray):
    """`_split_lines` keeps the lines of `str.splitlines` that hold a token,
    each tokenized as on its own, and raises the error of the first bad line."""
    if stray is not None and stray[0] < len(lines):
        lines[stray[0]] += stray[1]
    text = "".join(line + br for line, br in zip(lines, breaks))
    try:
        expected = [
            tokens
            for lineno, line in enumerate(text.splitlines(), start=1)
            if len(tokens := brute_tokenize(line, lineno)) > 1
        ]
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _split_lines(text)
        assert (str(got.value), got.value.span) == (str(err), err.span)
        return
    got = [
        [(t.kind, t.text, t.line, t.column, t.span.length) for t in tokens]
        for tokens in _split_lines(text)
    ]
    assert got == expected


@pytest.mark.parametrize("name", models.BUNDLED_MODELS)
def test_each_body_is_type_checked_once(name):
    """`parse_model` leaves the type check to `build_scm`: one `check_expr`
    call per expression body, a proxy's included."""
    with mock.patch.object(scm, "check_expr", wraps=scm.check_expr) as in_scm:
        with mock.patch.object(dsl, "check_expr", wraps=dsl.check_expr) as in_dsl:
            m = parse_model(model_text(name))
    bodies = sum(isinstance(f.body, Expr) for f in m.functions.values())
    assert bodies > 0
    assert in_scm.call_count + in_dsl.call_count == bodies


# every error the DSL raises, with its message and its (line, column, length)
DSL_ERRORS = [
    (parse_model, "",
     ParseError, "empty input, expected a model declaration", (1, 1, 1)),
    (parse_model, "# only a comment\n\n",
     ParseError, "empty input, expected a model declaration", (1, 1, 1)),
    (parse_model, "exo A : bool",
     ParseError, "expected 'model <name>' on the first line", (1, 1, 3)),
    (parse_model, "model m extra",
     ParseError, "unexpected trailing input 'extra'", (1, 9, 5)),
    (parse_model, "model if",
     SemanticError, "'if' is a reserved word", (1, 7, 2)),
    (parse_model, "model m\nvar @",
     ParseError, "unexpected character '@'", (2, 5, 1)),
    (parse_model, 'model m\nexo A : bool label "x',
     ParseError, 'unexpected character \'"\'', (2, 20, 1)),
    (parse_model, "model m\nmodel n",
     SemanticError, "duplicate model line", (2, 1, 5)),
    (parse_model, "model m\nfoo A : bool",
     ParseError, "expected one of: domain, exo, latent, var, proxy", (2, 1, 3)),
    (parse_model, 'model m\n"var" A : bool',
     ParseError, "expected one of: domain, exo, latent, var, proxy", (2, 1, 5)),
    (parse_model, "model m\n-> A",
     ParseError, "expected one of: domain, exo, latent, var, proxy", (2, 1, 2)),
    (parse_model, "model m\nexo A bool",
     ParseError, "expected ':'", (2, 7, 4)),
    (parse_model, "model m\nexo : bool",
     ParseError, "expected variable name", (2, 5, 1)),
    (parse_model, "model m\nexo if : bool",
     SemanticError, "'if' is a reserved word", (2, 5, 2)),
    (parse_model, "model m\nexo A : speed",
     SemanticError, "unknown domain 'speed'", (2, 9, 5)),
    (parse_model, "model m\nexo A : bool label x",
     ParseError, "expected a quoted label", (2, 20, 1)),
    (parse_model, 'model m\nexo A : bool label "bad \\n"',
     ParseError, "unsupported escape in string", (2, 20, 8)),
    (parse_model, 'model m\nexo A : bool label "ok" extra',
     ParseError, "unexpected trailing input 'extra'", (2, 25, 5)),
    (parse_model, "model m\ndomain bool { a, b }",
     SemanticError, "domain 'bool' declared twice", (2, 8, 4)),
    (parse_model, "model m\nexo A : bool\ndomain A { x, y }",
     SemanticError, "'A' is already a variable name", (3, 8, 1)),
    (parse_model, "model m\ndomain d a, b",
     ParseError, "expected '{'", (2, 10, 1)),
    (parse_model, "model m\ndomain d { a, b",
     ParseError, "expected '}'", (2, 16, 1)),
    (parse_model, "model m\ndomain d { a, a }",
     SemanticError, "domain value 'a' repeated", (2, 15, 1)),
    (parse_model, "model m\ndomain d { a, then }",
     SemanticError, "'then' is a reserved word", (2, 15, 4)),
    (parse_model, "model m\nexo A : bool\ndomain d { A, b }",
     SemanticError, "value 'A' is already a variable name", (3, 12, 1)),
    (parse_model, "model m\ndomain speed { low, high }\ndomain d { low, x }",
     SemanticError, "value 'low' already belongs to domain speed", (3, 12, 3)),
    (parse_model, "model m\ndomain one { single }",
     SemanticError, "domain 'one' needs at least two values", (2, 8, 3)),
    (parse_model, "model m\nexo A : bool\nexo A : bool",
     SemanticError, "node 'A' declared twice", (3, 5, 1)),
    (parse_model, SPEED_HEADER + "var speed : bool = true",
     SemanticError, "'speed' is already a domain name", (4, 5, 5)),
    (parse_model, SPEED_HEADER + "var low : bool = true",
     SemanticError, "'low' is already a value of domain speed", (4, 5, 3)),
    (parse_model, "model m\nvar B : bool <- A",
     SemanticError, "unknown variable 'A'", (2, 17, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool <- A, A",
     SemanticError, "parent 'A' repeated", (3, 20, 1)),
    (parse_model, "model m\nvar B : bool <- ,",
     ParseError, "expected parent name", (2, 17, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool <- A extra",
     ParseError, "unexpected trailing input 'extra'", (3, 19, 5)),
    (parse_model, "model m\nvar B : bool )",
     ParseError, "expected '=', '<-', or end of line", (2, 14, 1)),
    (parse_model, SPEED_HEADER + "var B : bool = S",
     SemanticError, "variable S has domain speed, expected bool", (4, 16, 1)),
    (parse_model, SPEED_HEADER + "var B : bool = S == true",
     SemanticError, "value true does not belong to domain speed", (4, 16, 1)),
    (parse_model, "model m\nlatent L : bool\nproxy P of L",
     ParseError, "expected 'for'", (3, 9, 2)),
    (parse_model, "model m\nproxy P for L",
     SemanticError, "unknown variable 'L'", (2, 13, 1)),
    (parse_model, "model m\nexo A : bool\nproxy P for A",
     SemanticError, "proxy P: principal A must be latent, is exogenous", (3, 7, 1)),
    (parse_model, "model m\nlatent L : bool\nproxy P for L label",
     ParseError, "expected a quoted label", (3, 20, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = if A else A",
     ParseError, "expected 'then'", (3, 21, 4)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = if A then A",
     ParseError, "expected 'else'", (3, 27, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = A & if A then A else A",
     ParseError, "'if' must be parenthesized here", (3, 20, 2)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = A & label",
     ParseError, "unexpected keyword 'label'", (3, 20, 5)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = C",
     SemanticError, "unknown name 'C'", (3, 16, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = A &",
     ParseError, "expected an expression", (3, 19, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = (A",
     ParseError, "expected ')'", (3, 18, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = A A",
     ParseError, "unexpected trailing input 'A'", (3, 18, 1)),
    (parse_model, "model m\nvar A : bool = B\nexo B : bool",
     SemanticError, "unknown name 'B'", (2, 16, 1)),
    (parse_model, "model m\n\t exo A\xa0:\u3000speed",
     SemanticError, "unknown domain 'speed'", (2, 11, 5)),
    (parse_model, "model m   \nexo A : bool  \t\n\nexo A : bool   # again",
     SemanticError, "node 'A' declared twice", (4, 5, 1)),
    (parse_model, "model m\x0cexo A : bool\x0bvar B : bool = A\x1f&\u2003B",
     SemanticError, "unknown name 'B'", (3, 20, 1)),
    (parse_pattern, "",
     ParseError, "empty input, expected a pattern declaration", (1, 1, 1)),
    (parse_pattern, "role A : Agent",
     ParseError, "expected 'pattern <name>' on the first line", (1, 1, 4)),
    (parse_pattern, "pattern if",
     SemanticError, "'if' is a reserved word", (1, 9, 2)),
    (parse_pattern, "pattern p\nnode A",
     ParseError, "expected 'role' or 'edge'", (2, 1, 4)),
    (parse_pattern, "pattern p\nrole A : Chief",
     SemanticError,
     "unknown role kind 'Chief', expected one of Accountable, Agent, Consulted, "
     "Discussion, Effect, Generic, Informed, Mediator",
     (2, 10, 5)),
    (parse_pattern, "pattern p\nrole A : Agent\nrole A : Effect",
     SemanticError, "role 'A' declared twice", (3, 6, 1)),
    (parse_pattern, "pattern p\nrole A : Accountable\nrole B : Accountable\nrole E : Effect",
     SemanticError, "pattern 'p' allows at most one Accountable role, has 2", (3, 6, 1)),
    (parse_pattern, "pattern p\nrole E : Effect\nedge E -> Ghost",
     SemanticError, "unknown role 'Ghost'", (3, 11, 5)),
    (parse_pattern, "pattern p\nrole E : Effect\nedge Ghost -> E",
     SemanticError, "unknown role 'Ghost'", (3, 6, 5)),
    (parse_pattern, "pattern p\nrole E : Effect\nedge E -> E",
     SemanticError, "template edge E -> E is a self-loop", (3, 6, 1)),
    (parse_pattern, "pattern p\nrole E : Effect\nedge E E",
     ParseError, "expected '->'", (3, 8, 1)),
    (parse_pattern, "pattern p\nrole E : Effect\nedge E ->",
     ParseError, "expected role name", (3, 10, 1)),
    (parse_pattern, "pattern p\nrole if : Agent",
     SemanticError, "'if' is a reserved word", (2, 6, 2)),
    (parse_pattern, "pattern p\nrole A Agent",
     ParseError, "expected ':'", (2, 8, 5)),
    (parse_pattern, "pattern p\nrole A : Agent",
     SemanticError, "pattern 'p' needs exactly one Effect role, has 0", (1, 9, 1)),
    (parse_pattern, "pattern p\nrole A : Agent\nrole E : Effect\nrole F : Effect",
     SemanticError, "pattern 'p' needs exactly one Effect role, has 2", (4, 6, 1)),
    (parse_pattern,
     "pattern p\nrole A : Agent\nrole B : Agent\nrole E : Effect\nedge A -> B\nedge B -> A",
     SemanticError, "pattern 'p' template contains a cycle", (6, 6, 1)),
    (parse_model, "model m\ndomain color { red, green }\ndomain red { a, b }",
     SemanticError, "'red' is already a value of domain color", (3, 8, 3)),
    (parse_model, "model m\ndomain color { red, green }\ndomain shade { color, dark }",
     SemanticError, "value 'color' is already a domain name", (3, 16, 5)),
    (parse_model, "model m\ndomain x { bool, other }",
     SemanticError, "value 'bool' is already a domain name", (2, 12, 4)),
    (parse_model, "model m\ndomain x { y, x }",
     SemanticError, "value 'x' is already a domain name", (2, 15, 1)),
    # the builders' refusals the readers can reach, each at the element it
    # names: a variable's name, a body's first token, a role's name or an
    # edge's first role; a repeat at its later declaration
    (parse_model, "model m\nexo A : bool\nexo A : bool\nvar B : bool = A &",
     ParseError, "expected an expression", (4, 19, 1)),
    (parse_model, "model m\nexo A : bool\nvar B : bool = A\nvar A : bool = !B",
     SemanticError, "node 'A' declared twice", (4, 5, 1)),
    (parse_model, "model m\nlatent L : bool\nvar B : bool = L\nproxy P for B",
     SemanticError, "proxy P: principal B must be latent, is endogenous", (4, 7, 1)),
    (parse_model, "model m\ndomain speed { low, high }\nexo A : bool\nvar X : bool = low == high",
     SemanticError, "cannot determine the domain of this comparison", (4, 16, 3)),
    (parse_model, SPEED_HEADER + "var B : speed = S == low",
     SemanticError, "comparison used where domain speed is expected", (4, 17, 1)),
    (parse_model, SPEED_HEADER + "var B : speed = !S",
     SemanticError, "boolean operator used where domain speed is expected", (4, 17, 1)),
    (parse_pattern, "pattern p\nrole A : Accountable\nrole B : Accountable",
     SemanticError, "pattern 'p' needs exactly one Effect role, has 0", (1, 9, 1)),
    (parse_pattern, "pattern p\nrole E : Effect\nrole E : Effect",
     SemanticError, "role 'E' declared twice", (3, 6, 1)),
    (parse_pattern, "pattern p\nrole A : Agent\nrole A : Agent\nrole E : Effect\nrole F : Effect",
     SemanticError, "role 'A' declared twice", (3, 6, 1)),
    (parse_pattern,
     "pattern p\nrole A : Agent\nrole M : Mediator\nrole E : Effect\n"
     "edge E -> A\nedge A -> M\nedge M -> E",
     SemanticError, "pattern 'p' template contains a cycle", (5, 6, 1)),
    (parse_pattern, "pattern p\nrole E : Effect\nedge E -> E\nedge E -> E",
     SemanticError, "template edge E -> E is a self-loop", (4, 6, 1)),
]


@pytest.mark.parametrize("parse, text, kind, message, span", DSL_ERRORS)
def test_error_positions(parse, text, kind, message, span):
    with pytest.raises((ParseError, SemanticError)) as err:
        parse(text)
    assert type(err.value) is kind
    assert str(err.value) == f"line {span[0]}, column {span[1]}: {message}"
    assert (err.value.span.line, err.value.span.column, err.value.span.length) == span


class TestParseModel:
    def test_empty_model(self):
        m = parse_model("model m")
        assert m.name == "m"
        assert m.graph.nodes == ()

    def test_refusal_by_build_scm_is_placed_at_the_body(self):
        # the parser reads `slow` as a value of Speed, a domain no variable
        # uses, so only `build_scm`, which knows the nodes' domains, refuses
        text = "model bad\ndomain Speed { slow, fast }\nexo A : bool\nvar X : bool = slow == slow\n"
        with pytest.raises(SemanticError) as err:
            parse_model(text)
        assert str(err.value) == "line 4, column 16: cannot determine the domain of this comparison"

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

    @pytest.mark.parametrize(
        "name, domain, message",
        [
            ("if", BOOL, "cannot serialize: variable 'if' is a reserved word"),
            ("my var", BOOL, "cannot serialize: variable 'my var' is not a DSL identifier"),
            ("S", Domain("flag", (False, True)),
             "cannot serialize: value False of domain flag is not a DSL identifier"),
            ("bool", Domain("speed", ("low", "high")),
             "cannot serialize: domain name 'bool' collides with a variable"),
        ],
    )
    def test_unreadable_names_and_values_refused(self, name, domain, message):
        # each would serialize to text that parses to a different model or not at all
        m = build_scm(build_graph([(name, "exogenous")], []), {name: domain}, {})
        with pytest.raises(SemanticError) as err:
            to_dsl(m)
        assert str(err.value) == message

    @pytest.mark.parametrize("label", ["two\nlines", "page\x0cbreak", "line\u2028separator"])
    def test_line_broken_label_refused(self, label):
        # the line would be read back as two, and the DSL's strings have no
        # escape for a line break
        m = build_scm(build_graph([("A", "exogenous", label)], []), {"A": BOOL}, {})
        with pytest.raises(SemanticError) as err:
            to_dsl(m)
        assert str(err.value) == "cannot serialize: label of A holds a line break"

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
                "pattern p\nrole A : Accountable\nrole B : Accountable\nrole E : Effect"
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
        assert payload["format"] == "scm" and payload["version"] == 2

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

    def test_a_pattern_without_constraints_reads_them_off_its_roles(self, raci):
        payload = json.loads(to_json(raci))
        del payload["constraints"]
        assert from_json(json.dumps(payload)) == raci

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


def _proxy_model():
    """A model with a proxy P of a latent L, both of domain level, and a
    level-valued Y; P's function is structure-only."""
    level = Domain("level", ("low", "high"))
    graph = build_graph(
        [("L", "latent"), Node("P", NodeKind.ENDOGENOUS, proxy_for="L"), ("A", "exogenous"),
         ("Y", "endogenous")],
        [("L", "P"), ("A", "Y")],
    )
    functions = {
        "P": StructuralFunction("P", ("L",), None),
        "Y": StructuralFunction("Y", ("A",), IfThenElse(Ref("A"), Lit("low"), Lit("high"))),
    }
    return build_scm(graph, {"L": level, "P": level, "A": BOOL, "Y": level}, functions, "p")


def _payload(source, uber, titus, raci, uav_weather):
    if source == "proxy":
        return json.loads(to_json(_proxy_model()))
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
TABLE_WITH_TWO_INPUTS = {"op": "table", "rows": [{"inputs": [True, False], "output": True}]}
NOT_WITHOUT_OPERAND = {"op": "not"}
NOT_A = {"op": "not", "a": {"op": "ref", "name": "A"}}
A_IS_TRUE = {"op": "eq", "terms": [{"op": "ref", "name": "A"}, {"op": "lit", "value": True}]}
X_IS_Y = {"op": "eq", "terms": [{"op": "lit", "value": "x"}, {"op": "lit", "value": "y"}]}
TM = {"op": "ref", "name": "TM"}


def table(*rows):
    """A JSON table body of (inputs, output) rows."""
    return {"op": "table", "rows": [{"inputs": i, "output": o} for i, o in rows]}


# (source, action, keys of the container, key, value, error path, message)
DECODER_FAULTS = [
    ("identification", "set", (), "status", "Maybe",
     "$.status", "unknown status 'Maybe'"),
    ("accountability", "set", (), "verdict", "Guilty",
     "$.verdict", "unknown verdict 'Guilty'"),
    ("pattern", "set", ("roles", 1), "kind", "Boss",
     "$.roles[1].kind", "unknown role kind 'Boss'"),
    ("pattern", "set", ("roles", 5), "kind", "Agent",
     "$", "pattern 'raci' needs exactly one Effect role, has 0"),
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
    ("scm", "set", ("functions", 1), "body", TABLE_WITH_TWO_INPUTS,
     "$.functions[1]", "table row of ED has 2 inputs for 1 parent(s)"),
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
    ("pattern", "append", ("constraints",), None, "bogus",
     "$.constraints", "expected ['unique-accountable'], the constraints the roles imply"),
    ("pattern", "set", (), "constraints", [],
     "$.constraints", "expected ['unique-accountable'], the constraints the roles imply"),
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
    # every document states version 2, the integer, at its top level only
    ("scm", "pop", (), "version", None,
     "$.version", "expected version 2, got None"),
    ("pattern", "set", (), "version", 1,
     "$.version", "expected version 2, got 1"),
    ("identification", "set", (), "version", True,
     "$.version", "expected version 2, got True"),
    ("logging", "set", (), "version", 2.0,
     "$.version", "expected version 2, got 2.0"),
    ("accountability", "set", (), "version", "2",
     "$.version", "expected version 2, got '2'"),
    ("accountability", "set", ("identification",), "version", 2,
     "$.identification", "unexpected key 'version'"),
    # a chain is one object holding two or more terms
    ("scm", "set", ("functions", 1), "body", {"op": "or", "terms": [TM]},
     "$.functions[1].body.terms", "expected an array of two or more terms"),
    ("scm", "set", ("functions", 1), "body", {"op": "and", "terms": []},
     "$.functions[1].body.terms", "expected an array of two or more terms"),
    ("scm", "set", ("functions", 1), "body", {"op": "eq", "terms": TM},
     "$.functions[1].body.terms", "expected an array of two or more terms"),
    ("scm", "set", ("functions", 1), "body", {"op": "or"},
     "$.functions[1].body", "missing key 'terms'"),
    ("scm", "set", ("functions", 1), "body", {"op": "or", "terms": [TM, {"op": "lit"}]},
     "$.functions[1].body.terms[1]", "missing key 'value'"),
    ("scm", "set", ("functions", 1), "body", {"op": "or", "a": TM, "b": TM},
     "$.functions[1].body", "unexpected key 'a'"),
    ("scm", "set", ("functions", 1), "body", {"op": "not", "a": TM, "terms": [TM, TM]},
     "$.functions[1].body", "unexpected key 'terms'"),
    # the builders' refusals a document can reach, each at the element it
    # names (titus: nodes I, TM, ED, BD; raci: roles Accountable, Responsible,
    # Consulted, Discussion, Mediator, Effect, Informed); at `$` where it
    # names none
    ("scm", "append", ("nodes",), None, {"name": "TM", "kind": "exogenous", "domain": "bool"},
     "$.nodes[4]", "node 'TM' declared twice"),
    ("scm", "set", ("nodes", 2), "name", "",
     "$.nodes[2]", "invalid node name ''"),
    ("scm", "set", ("edges", 1), 1, "Z",
     "$.edges[1]", "edge TM -> Z: unknown node 'Z'"),
    ("scm", "set", ("edges", 1), 1, "TM",
     "$.edges[1]", "graph contains a cycle: TM -> TM"),
    ("scm", "set", ("edges", 2), 1, "I",
     "$.edges[2]", "edge ED -> I: I is exogenous and takes no incoming edges"),
    ("scm", "set", ("edges",), 0, ["BD", "TM"],
     "$.edges[0]", "graph contains a cycle: TM -> ED -> BD -> TM"),
    ("scm", "set", ("nodes", 3), "proxy_for", "Z",
     "$.nodes[3]", "proxy BD: unknown principal 'Z'"),
    ("scm", "set", ("nodes", 3), "proxy_for", "ED",
     "$.nodes[3]", "proxy BD: principal ED must be latent, is endogenous"),
    ("scm", "pop", ("functions",), 2, None,
     "$.nodes[3]", "no function for BD"),
    ("scm", "append", ("functions",), None, {"target": "I", "parents": [], "body": None},
     "$.functions[3]", "function attached to non-endogenous variable I"),
    ("scm", "set", ("functions", 1), "parents", ["I"],
     "$.functions[1]", "parents of ED disagree with the graph: function has (I), graph has (TM)"),
    ("scm", "set", ("functions", 1), "parents", ["TM", "TM"],
     "$.functions[1]", "function of ED repeats a parent"),
    ("scm", "set", ("functions", 1, "body"), "name", "I",
     "$.functions[1]", "function of ED references non-parents: I"),
    ("scm", "set", ("functions", 1), "body", {"op": "lit", "value": "x"},
     "$.functions[1]", "value 'x' does not belong to domain bool"),
    ("scm", "set", ("functions", 1), "body", X_IS_Y,
     "$.functions[1]", "cannot determine the domain of this comparison"),
    ("scm", "set", ("functions", 1), "body", table((["x"], True)),
     "$.functions[1]", "table of ED: 'x' is not in domain bool of parent TM"),
    ("scm", "set", ("functions", 1), "body", table(([True], True), ([True], False)),
     "$.functions[1]", "table of ED repeats a row"),
    ("scm", "set", ("functions", 1), "body", table(([True], "x")),
     "$.functions[1]", "table of ED outputs a value outside domain bool"),
    ("scm", "set", ("functions", 1), "body", table(([True], True)),
     "$.functions[1]", "table of ED covers 1 of 2 parent combinations"),
    ("proxy", "append", ("edges",), None, ["A", "P"],
     "$.nodes[1]", "proxy P must have exactly one incoming edge, from L"),
    ("proxy", "set", ("nodes", 1), "domain", "bool",
     "$.nodes[1]", "proxy P must share the domain of L"),
    ("proxy", "set", ("nodes", 0), "kind", "exogenous",
     "$.nodes[1]", "proxy P: principal L must be latent, is exogenous"),
    ("proxy", "set", ("functions", 1), "body", NOT_A,
     "$.functions[1]", "boolean operator used where domain level is expected"),
    ("proxy", "set", ("functions", 1), "body", A_IS_TRUE,
     "$.functions[1]", "comparison used where domain level is expected"),
    ("pattern", "set", ("roles", 6), "name", "Consulted",
     "$.roles[6]", "role 'Consulted' declared twice"),
    ("pattern", "set", ("roles", 6), "kind", "Effect",
     "$.roles[6]", "pattern 'raci' needs exactly one Effect role, has 2"),
    ("pattern", "set", ("roles", 2), "kind", "Accountable",
     "$.roles[2]", "pattern 'raci' allows at most one Accountable role, has 2"),
    ("pattern", "set", ("edges", 5), 1, "Nobody",
     "$.edges[5]", "template edge Effect -> Nobody: unknown role 'Nobody'"),
    ("pattern", "set", ("edges", 5), 1, "Effect",
     "$.edges[5]", "template edge Effect -> Effect is a self-loop"),
    ("pattern", "set", ("edges", 5), 1, "Accountable",
     "$.edges[5]", "pattern 'raci' template contains a cycle"),
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
