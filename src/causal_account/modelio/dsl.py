"""Line-oriented text DSL for models and patterns.

Model grammar, one declaration per line, `#` starts a comment:

    model <name>
    domain <name> { v1, v2, ... }          # domain `bool` is predefined
    exo <name> : <domain> [label "..."]
    latent <name> : <domain> [label "..."]
    var <name> : <domain> [label "..."] = <expr>
    var <name> : <domain> [label "..."] <- parent1, parent2
    proxy <name> for <latent> [label "..."]

Expressions use `!`, `&`, `|`, `==`, `if <e> then <e> else <e>`, parentheses,
`true`/`false`, and domain value literals. A bare identifier names a declared
variable first, a domain value second; to keep that resolution unambiguous,
variable names, domain names, and domain values share one namespace. Names
must be declared before use, which makes documents acyclic by construction;
the document order is the canonical node order. The `<-` form declares
structure without a function.

Pattern grammar:

    pattern <name>
    role <name> : <kind>
    edge <role> -> <role>

Every parse error carries a 1-based source span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseError, SemanticError
from ..graph import Node, NodeKind, build_graph
from ..patterns import Pattern, Role, RoleKind, build_pattern
from ..scm import (
    BOOL,
    And,
    Domain,
    Eq,
    Expr,
    IfThenElse,
    Lit,
    Not,
    Or,
    Ref,
    Scm,
    StructuralFunction,
    Table,
    build_scm,
    check_expr,
    expr_refs,
)

KEYWORDS = frozenset(
    {
        "model",
        "domain",
        "exo",
        "latent",
        "var",
        "proxy",
        "for",
        "label",
        "if",
        "then",
        "else",
        "true",
        "false",
        "pattern",
        "role",
        "edge",
    }
)

ROLE_KIND_NAMES = {k.value: k for k in RoleKind}


@dataclass(frozen=True)
class SourceSpan:
    """1-based location of a token or error inside the input text."""

    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "string" | "punct" | "end"
    text: str
    span: SourceSpan


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#.*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>->|<-|==|[={}():,!&|])
    """,
    re.VERBOSE,
)


def _tokenize_line(line: str, lineno: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {line[pos]!r}", SourceSpan(lineno, pos + 1)
            )
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append(
                Token(kind, m.group(), SourceSpan(lineno, m.start() + 1, len(m.group())))
            )
        pos = m.end()
    tokens.append(Token("end", "", SourceSpan(lineno, len(line) + 1)))
    return tokens


class _Cursor:
    """Token cursor for one line."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.span)
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}", tok.span)
        return self.advance()

    def expect_done(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.span)

    def match_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == word:
            self.advance()
            return True
        return False


def _unquote(text: str, span: SourceSpan) -> str:
    body = text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                raise ParseError("unsupported escape in string", span)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _fresh_name(cur: _Cursor, what: str) -> Token:
    tok = cur.expect_ident(what)
    if tok.text in KEYWORDS:
        raise SemanticError(f"{tok.text!r} is a reserved word", tok.span)
    return tok


def _split_lines(text: str) -> list[list[Token]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if len(tokens) > 1:  # more than the end marker
            lines.append(tokens)
    return lines


# -- model documents -------------------------------------------------------


class _ModelBuilder:
    def __init__(self) -> None:
        self.name: str | None = None
        self.domains: dict[str, Domain] = {"bool": BOOL}
        self.nodes: list[Node] = []
        self.node_domains: dict[str, Domain] = {}
        self.bodies: dict[str, Expr | None] = {}
        self.explicit_parents: dict[str, tuple[str, ...]] = {}

    def declared(self, name: str) -> bool:
        return name in self.node_domains

    def add_node(self, node: Node, domain: Domain, span: SourceSpan) -> None:
        if self.declared(node.name):
            raise SemanticError(f"{node.name!r} declared twice", span)
        if node.name in self.domains:
            raise SemanticError(
                f"{node.name!r} is already a domain name", span
            )
        # a variable named like a value would make bare literals ambiguous
        for other in self.domains.values():
            if node.name in other.values:
                raise SemanticError(
                    f"{node.name!r} is already a value of domain {other.name}",
                    span,
                )
        self.nodes.append(node)
        self.node_domains[node.name] = domain


def parse_model(text: str) -> Scm:
    """Parse a model document into a validated Scm."""
    lines = _split_lines(text)
    if not lines:
        raise ParseError("empty input, expected a model declaration", SourceSpan(1, 1))
    builder = _ModelBuilder()

    first = _Cursor(lines[0])
    if not first.match_keyword("model"):
        raise ParseError("expected 'model <name>' on the first line", first.peek().span)
    builder.name = _fresh_name(first, "model name").text
    first.expect_done()

    for tokens in lines[1:]:
        cur = _Cursor(tokens)
        tok = cur.peek()
        if cur.match_keyword("model"):
            raise SemanticError("duplicate model line", tok.span)
        elif cur.match_keyword("domain"):
            _parse_domain_line(cur, builder)
        elif cur.match_keyword("exo"):
            _parse_simple_decl(cur, builder, NodeKind.EXOGENOUS)
        elif cur.match_keyword("latent"):
            _parse_simple_decl(cur, builder, NodeKind.LATENT)
        elif cur.match_keyword("var"):
            _parse_var_decl(cur, builder)
        elif cur.match_keyword("proxy"):
            _parse_proxy_decl(cur, builder)
        else:
            raise ParseError(
                "expected one of: domain, exo, latent, var, proxy", tok.span
            )

    return _assemble(builder)


def _parse_domain_line(cur: _Cursor, builder: _ModelBuilder) -> None:
    name_tok = _fresh_name(cur, "domain name")
    if name_tok.text in builder.domains:
        raise SemanticError(f"domain {name_tok.text!r} declared twice", name_tok.span)
    if builder.declared(name_tok.text):
        raise SemanticError(
            f"{name_tok.text!r} is already a variable name", name_tok.span
        )
    cur.expect_punct("{")
    values: list[str] = []
    while True:
        v = _fresh_name(cur, "domain value")
        if v.text in values:
            raise SemanticError(f"domain value {v.text!r} repeated", v.span)
        if builder.declared(v.text):
            raise SemanticError(
                f"value {v.text!r} is already a variable name", v.span
            )
        for other in builder.domains.values():
            if v.text in other.values:
                raise SemanticError(
                    f"value {v.text!r} already belongs to domain {other.name}",
                    v.span,
                )
        values.append(v.text)
        if cur.peek().kind == "punct" and cur.peek().text == ",":
            cur.advance()
            continue
        break
    cur.expect_punct("}")
    cur.expect_done()
    if len(values) < 2:
        raise SemanticError(
            f"domain {name_tok.text!r} needs at least two values", name_tok.span
        )
    builder.domains[name_tok.text] = Domain(name_tok.text, tuple(values))


def _parse_domain_ref(cur: _Cursor, builder: _ModelBuilder) -> Domain:
    tok = cur.expect_ident("domain name")
    domain = builder.domains.get(tok.text)
    if domain is None:
        raise SemanticError(f"unknown domain {tok.text!r}", tok.span)
    return domain


def _parse_label(cur: _Cursor) -> str | None:
    if cur.match_keyword("label"):
        tok = cur.peek()
        if tok.kind != "string":
            raise ParseError("expected a quoted label", tok.span)
        cur.advance()
        return _unquote(tok.text, tok.span)
    return None


def _parse_simple_decl(cur: _Cursor, builder: _ModelBuilder, kind: NodeKind) -> None:
    name_tok = _fresh_name(cur, "variable name")
    cur.expect_punct(":")
    domain = _parse_domain_ref(cur, builder)
    label = _parse_label(cur)
    cur.expect_done()
    builder.add_node(Node(name_tok.text, kind, label), domain, name_tok.span)


def _parse_var_decl(cur: _Cursor, builder: _ModelBuilder) -> None:
    name_tok = _fresh_name(cur, "variable name")
    cur.expect_punct(":")
    domain = _parse_domain_ref(cur, builder)
    label = _parse_label(cur)

    tok = cur.peek()
    if tok.kind == "end":
        # structure-only declaration without parents
        builder.add_node(
            Node(name_tok.text, NodeKind.ENDOGENOUS, label), domain, name_tok.span
        )
        builder.bodies[name_tok.text] = None
        builder.explicit_parents[name_tok.text] = ()
        return
    if tok.kind == "punct" and tok.text == "<-":
        cur.advance()
        parents: list[str] = []
        while True:
            p = cur.expect_ident("parent name")
            if not builder.declared(p.text):
                raise SemanticError(f"unknown variable {p.text!r}", p.span)
            if p.text in parents:
                raise SemanticError(f"parent {p.text!r} repeated", p.span)
            parents.append(p.text)
            if cur.peek().kind == "punct" and cur.peek().text == ",":
                cur.advance()
                continue
            break
        cur.expect_done()
        builder.add_node(
            Node(name_tok.text, NodeKind.ENDOGENOUS, label), domain, name_tok.span
        )
        builder.bodies[name_tok.text] = None
        builder.explicit_parents[name_tok.text] = tuple(parents)
        return
    if tok.kind == "punct" and tok.text == "=":
        cur.advance()
        expr_span = cur.peek().span
        body = _parse_expr(cur, builder)
        cur.expect_done()
        try:
            check_expr(body, domain, builder.node_domains, builder.domains.values())
        except SemanticError as err:
            if err.span is None:
                raise SemanticError(err.args[0], expr_span) from None
            raise
        builder.add_node(
            Node(name_tok.text, NodeKind.ENDOGENOUS, label), domain, name_tok.span
        )
        builder.bodies[name_tok.text] = body
        return
    raise ParseError("expected '=', '<-', or end of line", tok.span)


def _parse_proxy_decl(cur: _Cursor, builder: _ModelBuilder) -> None:
    name_tok = _fresh_name(cur, "proxy name")
    tok = cur.peek()
    if not cur.match_keyword("for"):
        raise ParseError("expected 'for'", tok.span)
    principal = cur.expect_ident("principal name")
    if not builder.declared(principal.text):
        raise SemanticError(f"unknown variable {principal.text!r}", principal.span)
    principal_node = next(n for n in builder.nodes if n.name == principal.text)
    if principal_node.kind is not NodeKind.LATENT:
        raise SemanticError(
            f"proxy principal {principal.text} must be latent, is "
            f"{principal_node.kind.value}",
            principal.span,
        )
    label = _parse_label(cur)
    cur.expect_done()
    builder.add_node(
        Node(name_tok.text, NodeKind.ENDOGENOUS, label, proxy_for=principal.text),
        builder.node_domains[principal.text],
        name_tok.span,
    )
    builder.bodies[name_tok.text] = Ref(principal.text)


# expression grammar:
#   expr    := 'if' expr 'then' expr 'else' expr | or
#   or      := and ('|' and)*
#   and     := eq ('&' eq)*
#   eq      := unary ('==' unary)*
#   unary   := '!' unary | atom
#   atom    := '(' expr ')' | literal | name

# the binary operators from loosest to tightest binding, all left-associative;
# this one table drives both the parser and `to_dsl`
_BINARY = (("|", Or), ("&", And), ("==", Eq))


def _parse_expr(cur: _Cursor, builder: _ModelBuilder) -> Expr:
    if cur.match_keyword("if"):
        cond = _parse_expr(cur, builder)
        tok = cur.peek()
        if not cur.match_keyword("then"):
            raise ParseError("expected 'then'", tok.span)
        then = _parse_expr(cur, builder)
        tok = cur.peek()
        if not cur.match_keyword("else"):
            raise ParseError("expected 'else'", tok.span)
        orelse = _parse_expr(cur, builder)
        return IfThenElse(cond, then, orelse)
    return _parse_binary(cur, builder, 0)


def _parse_binary(cur: _Cursor, builder: _ModelBuilder, level: int) -> Expr:
    """Entry `level` of `_BINARY` and all that binds tighter: the later
    entries, then `!`, then atoms."""
    if level == len(_BINARY):
        if cur.peek().kind == "punct" and cur.peek().text == "!":
            cur.advance()
            return Not(_parse_binary(cur, builder, level))
        return _parse_atom(cur, builder)
    op, cls = _BINARY[level]
    left = _parse_binary(cur, builder, level + 1)
    while cur.peek().kind == "punct" and cur.peek().text == op:
        cur.advance()
        left = cls(left, _parse_binary(cur, builder, level + 1))
    return left


def _parse_atom(cur: _Cursor, builder: _ModelBuilder) -> Expr:
    tok = cur.peek()
    if tok.kind == "punct" and tok.text == "(":
        cur.advance()
        inner = _parse_expr(cur, builder)
        cur.expect_punct(")")
        return inner
    if tok.kind == "ident":
        if tok.text == "true":
            cur.advance()
            return Lit(True)
        if tok.text == "false":
            cur.advance()
            return Lit(False)
        if tok.text == "if":
            # nested conditionals need parentheses inside operators
            raise ParseError("'if' must be parenthesized here", tok.span)
        if tok.text in KEYWORDS:
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.span)
        cur.advance()
        if builder.declared(tok.text):
            return Ref(tok.text)
        for domain in builder.domains.values():
            if tok.text in domain.values:
                return Lit(tok.text)
        raise SemanticError(f"unknown name {tok.text!r}", tok.span)
    raise ParseError("expected an expression", tok.span)


def _assemble(builder: _ModelBuilder) -> Scm:
    edges: list[tuple[str, str]] = []
    functions: dict[str, StructuralFunction] = {}
    for node in builder.nodes:
        if node.kind is not NodeKind.ENDOGENOUS:
            continue
        body = builder.bodies[node.name]
        if body is None:
            parents = builder.explicit_parents[node.name]
        else:
            parents = expr_refs(body)
        for p in parents:
            edges.append((p, node.name))
        functions[node.name] = StructuralFunction(node.name, parents, body)
    graph = build_graph(builder.nodes, edges)
    assert builder.name is not None
    return build_scm(graph, builder.node_domains, functions, builder.name)


# -- pattern documents -----------------------------------------------------


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern document into a validated Pattern."""
    lines = _split_lines(text)
    if not lines:
        raise ParseError("empty input, expected a pattern declaration", SourceSpan(1, 1))

    first = _Cursor(lines[0])
    if not first.match_keyword("pattern"):
        raise ParseError("expected 'pattern <name>' on the first line", first.peek().span)
    name_tok = _fresh_name(first, "pattern name")
    first.expect_done()

    roles: list[Role] = []
    role_names: set[str] = set()
    edges: list[tuple[str, str]] = []
    saw_accountable = False

    for tokens in lines[1:]:
        cur = _Cursor(tokens)
        tok = cur.peek()
        if cur.match_keyword("role"):
            r_name = _fresh_name(cur, "role name")
            cur.expect_punct(":")
            kind_tok = cur.expect_ident("role kind")
            cur.expect_done()
            kind = ROLE_KIND_NAMES.get(kind_tok.text)
            if kind is None:
                raise SemanticError(
                    f"unknown role kind {kind_tok.text!r}, expected one of "
                    + ", ".join(sorted(ROLE_KIND_NAMES)),
                    kind_tok.span,
                )
            if r_name.text in role_names:
                raise SemanticError(f"role {r_name.text!r} declared twice", r_name.span)
            if kind is RoleKind.ACCOUNTABLE:
                if saw_accountable:
                    raise SemanticError(
                        "a pattern allows at most one Accountable role", r_name.span
                    )
                saw_accountable = True
            role_names.add(r_name.text)
            roles.append(Role(r_name.text, kind))
        elif cur.match_keyword("edge"):
            a = cur.expect_ident("role name")
            cur.expect_punct("->")
            b = cur.expect_ident("role name")
            cur.expect_done()
            for endpoint in (a, b):
                if endpoint.text not in role_names:
                    raise SemanticError(
                        f"unknown role {endpoint.text!r}", endpoint.span
                    )
            if a.text == b.text:
                raise SemanticError("self-loop edge", a.span)
            edges.append((a.text, b.text))
        else:
            raise ParseError("expected 'role' or 'edge'", tok.span)

    try:
        return build_pattern(name_tok.text, roles, edges)
    except SemanticError as err:
        if err.span is None:
            raise SemanticError(err.args[0], name_tok.span) from None
        raise


# -- serialization back to DSL --------------------------------------------


def _render_expr(e: Expr, ctx: int) -> str:
    """Render `e` inside a context of binding level `ctx`: 0 for if-then-else,
    i for entry i of `_BINARY` counting from 1, and one more for `!`."""
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return str(e.value)
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Not):
        return "!" + _render_expr(e.a, len(_BINARY) + 1)
    if isinstance(e, IfThenElse):
        text = (
            f"if {_render_expr(e.cond, 0)} then {_render_expr(e.then, 0)} "
            f"else {_render_expr(e.orelse, 0)}"
        )
        return f"({text})" if ctx > 0 else text
    for level, (op, cls) in enumerate(_BINARY, start=1):
        if isinstance(e, cls):
            text = f"{_render_expr(e.a, level)} {op} {_render_expr(e.b, level + 1)}"
            return f"({text})" if ctx > level else text
    raise SemanticError(f"cannot render expression node {type(e).__name__}")


def _table_to_expr(
    parents: tuple[str, ...],
    rows: dict[tuple, object],
    domains: dict[str, Domain],
    prefix: tuple = (),
) -> Expr:
    if not parents:
        return Lit(rows[prefix])  # type: ignore[arg-type]
    head, rest = parents[0], parents[1:]
    domain = domains[head]

    def branch(value) -> Expr:
        return _table_to_expr(rest, rows, domains, prefix + (value,))

    if domain == BOOL:
        return IfThenElse(Ref(head), branch(True), branch(False))
    result = branch(domain.values[-1])
    for value in reversed(domain.values[:-1]):
        result = IfThenElse(Eq(Ref(head), Lit(value)), branch(value), result)
    return result


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dsl(m: Scm) -> str:
    """Serialize a model back to its DSL form.

    Expression and structure-only functions round-trip exactly. A table body
    has no DSL syntax, so it is rewritten as an equivalent conditional
    expression: same semantics, different body representation. Models whose
    names collide across the DSL's single namespace (a variable named like a
    domain or one of its values) cannot be written down unambiguously and are
    rejected.
    """
    taken: dict[str, str] = {node.name: "variable" for node in m.graph.nodes}
    seen_domains: list[Domain] = []
    for node in m.graph.nodes:
        domain = m.domains[node.name]
        if domain in seen_domains:
            continue
        seen_domains.append(domain)
        if domain.name in taken:
            raise SemanticError(
                f"cannot serialize: domain name {domain.name!r} collides "
                f"with a {taken[domain.name]}"
            )
        taken[domain.name] = "domain name"
        for value in domain.values:
            if not isinstance(value, str):
                continue
            if value in taken:
                raise SemanticError(
                    f"cannot serialize: value {value!r} of domain "
                    f"{domain.name} collides with a {taken[value]}"
                )
            taken[value] = f"value of domain {domain.name}"
    out: list[str] = [f"model {m.name}", ""]
    emitted_domains: set[str] = set()
    for node in m.graph.nodes:
        domain = m.domains[node.name]
        if domain != BOOL and domain.name not in emitted_domains:
            emitted_domains.add(domain.name)
            out.append(
                f"domain {domain.name} {{ " + ", ".join(map(str, domain.values)) + " }"
            )
    if emitted_domains:
        out.append("")

    for node in m.graph.nodes:
        domain = m.domains[node.name]
        label = f" label {_quote(node.label)}" if node.label is not None else ""
        if node.proxy_for is not None:
            out.append(f"proxy {node.name} for {node.proxy_for}{label}")
            continue
        if node.kind is NodeKind.EXOGENOUS:
            out.append(f"exo {node.name} : {domain.name}{label}")
        elif node.kind is NodeKind.LATENT:
            out.append(f"latent {node.name} : {domain.name}{label}")
        else:
            f = m.functions[node.name]
            head = f"var {node.name} : {domain.name}{label}"
            if f.body is None:
                if f.parents:
                    out.append(head + " <- " + ", ".join(f.parents))
                else:
                    out.append(head)
            else:
                body = f.body
                if isinstance(body, Table):
                    body = _table_to_expr(
                        f.parents, dict(body.rows), m.domains
                    )
                out.append(head + " = " + _render_expr(body, 0))
    return "\n".join(out) + "\n"
