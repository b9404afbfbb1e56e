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
from functools import partial

from ..errors import ParseError, SemanticError
from ..graph import Node, NodeKind, build_graph
from ..limits import MAX_EXPR_DEPTH
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


class Token:
    """One token of a line: its kind ("ident", "string", "punct" or "end"),
    its text and its 1-based position. The span is built only for errors.
    Only identifiers spell words and only punctuation spells punctuation, so
    the text alone tells whether a token is a given keyword or operator."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, len(self.text) or 1)


# one match per token, whitespace before it included; `end` matches at a
# comment or the end of the line, and `bad` at a character that starts no token
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>->|<-|==|[={}():,!&|])
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<end>\#|$)
    | (?P<bad>.))
    """,
    re.VERBOSE,
)


def _tokenize_line(line: str, lineno: int) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "end":
            break
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m[kind]!r}", SourceSpan(lineno, m.start(kind) + 1)
            )
        tokens.append(Token(kind, m[kind], lineno, m.start(kind) + 1))
    tokens.append(Token("end", "", lineno, len(line) + 1))
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

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
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

    def match(self, text: str) -> bool:
        """Consume the next token if it is the keyword or operator `text`."""
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False


_ESCAPE_RE = re.compile(r"\\(.?)")


def _unquote(tok: Token) -> str:
    def unescape(m: re.Match) -> str:
        if m[1] not in ('"', "\\"):
            raise ParseError("unsupported escape in string", tok.span)
        return m[1]

    return _ESCAPE_RE.sub(unescape, tok.text[1:-1])


def _fresh_name(cur: _Cursor, what: str) -> Token:
    tok = cur.expect_ident(what)
    if tok.text in KEYWORDS:
        raise SemanticError(f"{tok.text!r} is a reserved word", tok.span)
    return tok


def _split_lines(text: str) -> list[list[Token]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # blank and comment lines hold no token (`lstrip` strips what `\s` matches)
        if raw.lstrip()[:1] not in ("", "#"):
            lines.append(_tokenize_line(raw, lineno))
    return lines


def _parse_document(text: str, kind: str, table: dict, expected: str, *state) -> Token:
    """Read the `<kind> <name>` header of a document, then parse each later
    line with the entry of `table` named by its first token, and return the
    name's token. The keys are keywords, so a string or punctuation token
    names none."""
    lines = _split_lines(text)
    if not lines:
        raise ParseError(f"empty input, expected a {kind} declaration", SourceSpan(1, 1))
    first = _Cursor(lines[0])
    if not first.match(kind):
        raise ParseError(f"expected '{kind} <name>' on the first line", first.peek().span)
    name_tok = _fresh_name(first, f"{kind} name")
    first.expect_done()
    for tokens in lines[1:]:
        cur = _Cursor(tokens)
        tok = cur.advance()
        parse = table.get(tok.text)
        if parse is None:
            raise ParseError(expected, tok.span)
        parse(cur, *state)
    return name_tok


# -- model documents -------------------------------------------------------


class _ModelBuilder:
    def __init__(self) -> None:
        self.domains: dict[str, Domain] = {"bool": BOOL}
        self.values: dict[str, Domain] = {}  # the domain of each value, by its text
        self.nodes: list[Node] = []
        self.node_domains: dict[str, Domain] = {}
        self.edges: list[tuple[str, str]] = []
        self.functions: dict[str, StructuralFunction] = {}
        self.body_tokens: dict[str, Token] = {}  # the first token of each body, by subject
        self.refs: dict[str, None] = {}  # the variables the body being read names, in order

    def declared(self, name: str) -> bool:
        return name in self.node_domains

    def refuse_value(self, tok: Token) -> None:
        """Refuse a variable or domain named like a value: bare literals would
        be ambiguous."""
        other = self.values.get(tok.text)
        if other is not None:
            raise SemanticError(
                f"{tok.text!r} is already a value of domain {other.name}", tok.span
            )

    def add_node(
        self, node: Node, domain: Domain, tok: Token, parents: tuple = (), body: Expr | None = None
    ) -> None:
        """Add `node`, and for an endogenous one its function and in-edges."""
        if self.declared(node.name):
            raise SemanticError(f"{node.name!r} declared twice", tok.span)
        if node.name in self.domains:
            raise SemanticError(f"{node.name!r} is already a domain name", tok.span)
        self.refuse_value(tok)
        self.nodes.append(node)
        self.node_domains[node.name] = domain
        if node.kind is NodeKind.ENDOGENOUS:
            self.edges.extend((p, node.name) for p in parents)
            self.functions[node.name] = StructuralFunction(node.name, parents, body)


def parse_model(text: str) -> Scm:
    """Parse a model document into a validated Scm.

    Every line is read before any body is type-checked, so a line's syntax or
    naming error comes before a body's type error, which `build_scm` finds
    and which is reported at the body's first token."""
    builder = _ModelBuilder()
    name_tok = _parse_document(
        text, "model", _MODEL_LINES, "expected one of: domain, exo, latent, var, proxy", builder
    )
    graph = build_graph(builder.nodes, builder.edges)
    try:
        return build_scm(graph, builder.node_domains, builder.functions, name_tok.text)
    except SemanticError as err:
        if err.subject not in builder.body_tokens:
            raise
        raise SemanticError(err.args[0], builder.body_tokens[err.subject].span) from None


def _duplicate_model_line(cur: _Cursor, builder: _ModelBuilder) -> None:
    raise SemanticError("duplicate model line", cur.tokens[0].span)


def _parse_domain_line(cur: _Cursor, builder: _ModelBuilder) -> None:
    name_tok = _fresh_name(cur, "domain name")
    if name_tok.text in builder.domains:
        raise SemanticError(f"domain {name_tok.text!r} declared twice", name_tok.span)
    if builder.declared(name_tok.text):
        raise SemanticError(
            f"{name_tok.text!r} is already a variable name", name_tok.span
        )
    builder.refuse_value(name_tok)
    cur.expect("{")
    values: list[str] = []
    while True:
        v = _fresh_name(cur, "domain value")
        if v.text in values:
            raise SemanticError(f"domain value {v.text!r} repeated", v.span)
        if builder.declared(v.text):
            raise SemanticError(
                f"value {v.text!r} is already a variable name", v.span
            )
        if v.text in builder.domains or v.text == name_tok.text:
            raise SemanticError(f"value {v.text!r} is already a domain name", v.span)
        other = builder.values.get(v.text)
        if other is not None:
            raise SemanticError(f"value {v.text!r} already belongs to domain {other.name}", v.span)
        values.append(v.text)
        if not cur.match(","):
            break
    cur.expect("}")
    cur.expect_done()
    try:
        domain = Domain(name_tok.text, tuple(values))
    except ValueError as err:  # fewer than two values: the loop refused a repeat
        raise SemanticError(str(err), name_tok.span) from None
    builder.domains[domain.name] = domain
    builder.values.update(dict.fromkeys(values, domain))


def _parse_label(cur: _Cursor) -> str | None:
    if cur.match("label"):
        tok = cur.peek()
        if tok.kind != "string":
            raise ParseError("expected a quoted label", tok.span)
        cur.advance()
        return _unquote(tok)
    return None


def _parse_decl(cur: _Cursor, builder: _ModelBuilder, kind: NodeKind) -> None:
    """An `exo`, `latent` or `var` line: name, `:`, domain and label, then for
    `var` a body or a `<-` parent list."""
    name_tok = _fresh_name(cur, "variable name")
    cur.expect(":")
    domain_tok = cur.expect_ident("domain name")
    domain = builder.domains.get(domain_tok.text)
    if domain is None:
        raise SemanticError(f"unknown domain {domain_tok.text!r}", domain_tok.span)
    label = _parse_label(cur)

    tok = cur.peek()
    body: Expr | None = None
    parents: list[str] = []  # named by the `<-` form; a bare declaration has none
    if kind is not NodeKind.ENDOGENOUS:
        cur.expect_done()
    elif cur.match("<-"):
        while True:
            p = cur.expect_ident("parent name")
            if not builder.declared(p.text):
                raise SemanticError(f"unknown variable {p.text!r}", p.span)
            if p.text in parents:
                raise SemanticError(f"parent {p.text!r} repeated", p.span)
            parents.append(p.text)
            if not cur.match(","):
                break
        cur.expect_done()
    elif cur.match("="):
        # `build_scm` type-checks the body, so the parser only collects its parents
        builder.body_tokens[f"function of {name_tok.text}"] = cur.peek()
        builder.refs = {}
        body = _parse_expr(cur, builder)
        cur.expect_done()
        parents = list(builder.refs)
    elif tok.kind != "end":
        raise ParseError("expected '=', '<-', or end of line", tok.span)
    builder.add_node(Node(name_tok.text, kind, label), domain, name_tok, tuple(parents), body)


def _parse_proxy_decl(cur: _Cursor, builder: _ModelBuilder) -> None:
    name_tok = _fresh_name(cur, "proxy name")
    cur.expect("for")
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
        name_tok,
        (principal.text,),
        Ref(principal.text),
    )


# the parser of each model line, by its first keyword
_MODEL_LINES = {
    "model": _duplicate_model_line,
    "domain": _parse_domain_line,
    "exo": partial(_parse_decl, kind=NodeKind.EXOGENOUS),
    "latent": partial(_parse_decl, kind=NodeKind.LATENT),
    "var": partial(_parse_decl, kind=NodeKind.ENDOGENOUS),
    "proxy": _parse_proxy_decl,
}


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


def _opens(cur: _Cursor, text: str, depth: int) -> bool:
    """Consume `text`, a `(`, `!` or `if`, if it comes next; it opens level `depth + 1`."""
    if depth == MAX_EXPR_DEPTH and cur.peek().text == text:
        raise ParseError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels", cur.peek().span)
    return cur.match(text)


def _parse_expr(cur: _Cursor, builder: _ModelBuilder, depth: int = 0) -> Expr:
    if _opens(cur, "if", depth):
        cond = _parse_expr(cur, builder, depth + 1)
        cur.expect("then")
        then = _parse_expr(cur, builder, depth + 1)
        cur.expect("else")
        orelse = _parse_expr(cur, builder, depth + 1)
        return IfThenElse(cond, then, orelse)
    return _parse_binary(cur, builder, 0, depth)


def _parse_binary(cur: _Cursor, builder: _ModelBuilder, level: int, depth: int) -> Expr:
    """Entry `level` of `_BINARY` and all that binds tighter: the later
    entries, then `!`, then atoms. A chain of one operator is one node."""
    if level == len(_BINARY):
        if _opens(cur, "!", depth):
            return Not(_parse_binary(cur, builder, level, depth + 1))
        return _parse_atom(cur, builder, depth)
    op, cls = _BINARY[level]
    terms = [_parse_binary(cur, builder, level + 1, depth)]
    while cur.match(op):
        terms.append(_parse_binary(cur, builder, level + 1, depth))
    return cls(*terms) if len(terms) > 1 else terms[0]


def _parse_atom(cur: _Cursor, builder: _ModelBuilder, depth: int) -> Expr:
    tok = cur.peek()
    if _opens(cur, "(", depth):
        # a parenthesized `if` is one level, like the node it stands for
        inner = _parse_expr(cur, builder, depth + (cur.peek().text != "if"))
        cur.expect(")")
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
            builder.refs[tok.text] = None
            return Ref(tok.text)
        if tok.text in builder.values:
            return Lit(tok.text)
        raise SemanticError(f"unknown name {tok.text!r}", tok.span)
    raise ParseError("expected an expression", tok.span)


# -- pattern documents -----------------------------------------------------


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern document into a validated Pattern."""
    roles: dict[str, Role] = {}
    edges: list[tuple[str, str]] = []
    name_tok = _parse_document(
        text, "pattern", _PATTERN_LINES, "expected 'role' or 'edge'", roles, edges
    )
    try:
        return build_pattern(name_tok.text, tuple(roles.values()), edges)
    except SemanticError as err:
        raise SemanticError(err.args[0], name_tok.span) from None


def _parse_role_line(cur: _Cursor, roles: dict[str, Role], edges: list) -> None:
    r_name = _fresh_name(cur, "role name")
    cur.expect(":")
    kind_tok = cur.expect_ident("role kind")
    cur.expect_done()
    kind = ROLE_KIND_NAMES.get(kind_tok.text)
    if kind is None:
        raise SemanticError(
            f"unknown role kind {kind_tok.text!r}, expected one of "
            + ", ".join(sorted(ROLE_KIND_NAMES)),
            kind_tok.span,
        )
    if r_name.text in roles:
        raise SemanticError(f"role {r_name.text!r} declared twice", r_name.span)
    if kind is RoleKind.ACCOUNTABLE and any(r.kind is kind for r in roles.values()):
        raise SemanticError("a pattern allows at most one Accountable role", r_name.span)
    roles[r_name.text] = Role(r_name.text, kind)


def _parse_edge_line(cur: _Cursor, roles: dict[str, Role], edges: list) -> None:
    a = cur.expect_ident("role name")
    cur.expect("->")
    b = cur.expect_ident("role name")
    cur.expect_done()
    for endpoint in (a, b):
        if endpoint.text not in roles:
            raise SemanticError(f"unknown role {endpoint.text!r}", endpoint.span)
    if a.text == b.text:
        raise SemanticError("self-loop edge", a.span)
    edges.append((a.text, b.text))


# the parser of each pattern line, by its first keyword
_PATTERN_LINES = {"role": _parse_role_line, "edge": _parse_edge_line}


# -- serialization back to DSL --------------------------------------------


def _render_expr(e: Expr, ctx: int) -> str:
    """Render `e` inside a context of binding level `ctx`: 0 for if-then-else,
    i for entry i of `_BINARY` counting from 1, and one more for `!`."""
    if isinstance(e, Lit):
        return Domain.render(e.value)
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
            # a first term of the same operator was absorbed into the chain,
            # so every term binds one level tighter than the operator
            text = f" {op} ".join(_render_expr(t, level + 1) for t in e.terms)
            return f"({text})" if ctx > level else text
    raise SemanticError(f"cannot render expression node {type(e).__name__}")


def _table_to_expr(
    parents: tuple[str, ...], rows: dict[tuple, object], domains: dict[str, Domain], prefix=()
) -> Expr:
    """`rows` as conditionals on `parents`, the first outermost: one `if` per
    value but the last, testing a bool parent itself."""
    if not parents:
        return Lit(rows[prefix])  # type: ignore[arg-type]
    head, domain = parents[0], domains[parents[0]]
    branch = {v: _table_to_expr(parents[1:], rows, domains, prefix + (v,)) for v in domain.values}
    if domain == BOOL:
        return IfThenElse(Ref(head), branch[True], branch[False])
    result = branch[domain.values[-1]]
    for value in reversed(domain.values[:-1]):
        result = IfThenElse(Eq(Ref(head), Lit(value)), branch[value], result)
    return result


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# what `_TOKEN_RE` reads as one identifier
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _writable(name: object, described: str) -> None:
    """Refuse a name or value, `described` for the message, that the DSL
    would not read back as itself."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SemanticError(f"cannot serialize: {described} is not a DSL identifier")
    if name in KEYWORDS:
        raise SemanticError(f"cannot serialize: {described} is a reserved word")


def to_dsl(m: Scm) -> str:
    """Serialize a model back to its DSL form.

    Expression and structure-only functions round-trip exactly. A table body
    has no DSL syntax, so it is rewritten as an equivalent conditional
    expression: same semantics, different body representation. Models whose
    names collide across the DSL's single namespace (a variable named like a
    domain or one of its values) cannot be written down unambiguously and are
    rejected, as are names that are no DSL identifier or a reserved word,
    values of a domain other than `bool` that are not strings, labels that
    hold a line break, and tables whose rewrite would nest deeper than
    MAX_EXPR_DEPTH levels.
    """
    _writable(m.name, f"model name {m.name!r}")
    for node in m.graph.nodes:
        _writable(node.name, f"variable {node.name!r}")
        # a DSL string has no escape for any boundary `splitlines` splits on
        if node.label is not None and len(f"{node.label}.".splitlines()) > 1:
            raise SemanticError(f"cannot serialize: label of {node.name} holds a line break")
    taken: dict[str, str] = {node.name: "variable" for node in m.graph.nodes}
    # `bool` is predefined, so its name is taken even where no node uses it
    domains = list(dict.fromkeys([BOOL, *(m.domains[name] for name in m.graph.names)]))
    for domain in domains:
        if domain.name in taken:
            raise SemanticError(
                f"cannot serialize: domain name {domain.name!r} collides "
                f"with a {taken[domain.name]}"
            )
        taken[domain.name] = "domain name"
        if domain == BOOL:
            continue
        _writable(domain.name, f"domain name {domain.name!r}")
        for value in domain.values:
            _writable(value, f"value {value!r} of domain {domain.name}")
            if value in taken:
                raise SemanticError(
                    f"cannot serialize: value {value!r} of domain "
                    f"{domain.name} collides with a {taken[value]}"
                )
            taken[value] = f"value of domain {domain.name}"
    out = [f"model {m.name}", ""]
    out += [f"domain {d.name} {{ " + ", ".join(map(str, d.values)) + " }" for d in domains[1:]]
    if len(domains) > 1:
        out.append("")

    keywords = {NodeKind.EXOGENOUS: "exo", NodeKind.LATENT: "latent", NodeKind.ENDOGENOUS: "var"}
    for node in m.graph.nodes:
        label = f" label {_quote(node.label)}" if node.label is not None else ""
        if node.proxy_for is not None:
            out.append(f"proxy {node.name} for {node.proxy_for}{label}")
            continue
        line = f"{keywords[node.kind]} {node.name} : {m.domains[node.name].name}{label}"
        f = m.functions.get(node.name)
        body = f and f.body
        if isinstance(body, Table):
            body = _table_to_expr(f.parents, dict(body.rows), m.domains)
            what = f"cannot serialize: function of {node.name}"
            check_expr(body, m.domains[node.name], m.domains, domains, what)
        if body is not None:
            line += " = " + _render_expr(body, 0)
        elif f is not None and f.parents:
            line += " <- " + ", ".join(f.parents)
        out.append(line)
    return "\n".join(out) + "\n"
