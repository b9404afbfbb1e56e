"""Canonical JSON serialization for models, patterns, and reports.

`to_json` emits a deterministic document: sorted keys, two-space indent, a
trailing newline, sets as sorted arrays. `from_json` validates shape before
building anything and reports problems as SchemaError carrying the JSON path
of the offending value. The top-level object names its payload in a `format`
field:

    scm | pattern | identification-report | logging-recommendation
    | accountability-report

Each format is stated once, as a codec: a pair of an encoder, from object to
JSON data, and a decoder, from JSON data at a path back to the object. Codecs
are built from a few combinators (strings, values, optionals, arrays, name
sets, enums, objects and records), so one declaration drives both directions.
Only models and patterns add hand-written checks, for the cross-references
between their parts; `_placed` reports a builder's error at its subject.
"""

from __future__ import annotations

import json
from functools import reduce
from typing import Any, Callable, Container, Iterable

from ..errors import CausalAccountError, SchemaError
from ..graph import Node, NodeKind, Path, build_graph
from ..identify import (
    IdentificationReport,
    IdentificationStatus,
    LoggingRecommendation,
)
from ..limits import MAX_EXPR_DEPTH
from ..patterns import (
    AccountabilityReport,
    Pattern,
    PatternMatch,
    Role,
    RoleKind,
    Verdict,
    build_pattern,
)
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
)

# (encode, decode): encode maps an object to JSON data; decode(raw, path)
# maps JSON data back, raising SchemaError at `path` or below it
Codec = tuple[Callable[[Any], Any], Callable[[Any, str], Any]]


def _expect(value: Any, kind: type | tuple[type, ...], what: str, path: str) -> Any:
    if not isinstance(value, kind):
        raise SchemaError(f"expected {what}", path)
    return value


def _obj(raw: Any, path: str, keys: Container[str]) -> dict[str, Any]:
    obj = _expect(raw, dict, "an object", path)
    for key in obj:
        if key not in keys:
            raise SchemaError(f"unexpected key {key!r}", path)
    return obj


def _get(obj: dict[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", path)
    return obj[key]


def _same(value: Any) -> Any:
    return value


def _scalar(kind: type | tuple[type, ...], what: str) -> Codec:
    return _same, lambda raw, path: _expect(raw, kind, what, path)


_STR = _scalar(str, "a string")
_VALUE = _scalar((bool, str), "a boolean or string value")


def _format(fmt: str) -> Codec:
    """The `format` key of a payload of format `fmt`: that string and no other."""

    def decode(raw: Any, path: str) -> str:
        if _STR[1](raw, path) != fmt:
            raise SchemaError(f"expected format {fmt!r}, got {raw!r}", path)
        return raw

    return _same, decode


def _optional(codec: Codec) -> Codec:
    """`codec`, or null."""
    encode, decode = codec
    return (
        lambda obj: None if obj is None else encode(obj),
        lambda raw, path: None if raw is None else decode(raw, path),
    )


def _tuple_of(codec: Codec) -> Codec:
    """A tuple, as an array of `codec` items."""
    encode, decode = codec

    def decode_items(raw: Any, path: str) -> tuple:
        items = _expect(raw, list, "an array", path)
        return tuple(decode(item, f"{path}[{i}]") for i, item in enumerate(items))

    return lambda items: [encode(item) for item in items], decode_items


_STRS = _tuple_of(_STR)
_NAME_SET: Codec = (sorted, lambda raw, path: frozenset(_STRS[1](raw, path)))


def _enum(cls: type, what: str) -> Codec:
    """An enum member, as its value."""

    def decode(raw: Any, path: str) -> Any:
        text = _STR[1](raw, path)
        try:
            return cls(text)
        except ValueError:
            raise SchemaError(f"unknown {what} {text!r}", path) from None

    return lambda member: member.value, decode


def _object(optional: tuple[str, ...] = (), **codecs: Codec) -> Codec:
    """A dict, as an object with exactly the keys of `codecs`, decoded in
    their order; a key in `optional` may be absent and is then left out."""

    def encode(fields: dict[str, Any]) -> dict[str, Any]:
        return {key: codecs[key][0](value) for key, value in fields.items()}

    def decode(raw: Any, path: str) -> dict[str, Any]:
        obj = _obj(raw, path, codecs)
        return {
            key: dec(_get(obj, key, path), f"{path}.{key}")
            for key, (_, dec) in codecs.items()
            if key in obj or key not in optional
        }

    return encode, decode


def _record(cls: type, fmt: str | None = None, **codecs: Codec) -> Codec:
    """A dataclass, as an object whose keys are its attribute names. A report
    also writes its `format`, which the decoder does not require but, when
    present, checks. The constructor's errors become SchemaErrors at the
    record's path."""
    keys = {**codecs, "format": _format(fmt)} if fmt else codecs
    decode_fields = _object(("format",), **keys)[1]

    def encode(obj: Any) -> dict[str, Any]:
        out = {key: enc(getattr(obj, key)) for key, (enc, _) in codecs.items()}
        return {**out, "format": fmt} if fmt else out

    def decode(raw: Any, path: str) -> Any:
        fields = decode_fields(raw, path)
        fields.pop("format", None)
        try:
            return cls(**fields)
        except (CausalAccountError, ValueError) as err:
            raise SchemaError(str(err), path) from None

    return encode, decode


def _decode_pair(raw: Any, path: str) -> tuple[str, ...]:
    if len(_expect(raw, list, "an array", path)) != 2:
        raise SchemaError("expected a two-element array", path)
    return _STRS[1](raw, path)


def _decode_direction(raw: Any, path: str) -> str:
    text = _STR[1](raw, path)
    if text not in ("forward", "backward"):
        raise SchemaError(
            f"direction must be 'forward' or 'backward', got {text!r}", path
        )
    return text


_PAIR: Codec = (list, _decode_pair)
_EDGES = _tuple_of(_PAIR)
_PATH = _record(Path, nodes=_STRS, directions=_tuple_of((_same, _decode_direction)))


# -- expressions -----------------------------------------------------------

# op -> (class, JSON keys): a literal or a reference holds its field under its
# key, every other node its operands, `children()`, under its keys in order
_EXPRS: dict[str, tuple[type, tuple[str, ...]]] = {
    "lit": (Lit, ("value",)),
    "ref": (Ref, ("name",)),
    "not": (Not, ("a",)),
    "and": (And, ("a", "b")),
    "or": (Or, ("a", "b")),
    "eq": (Eq, ("a", "b")),
    "if": (IfThenElse, ("cond", "then", "else")),
}
_LEAVES = {"value": _VALUE, "name": _STR}
_CHAINS = (And, Or, Eq)
_EXPR_KEYS = {"op", "rows"}.union(*(keys for _, keys in _EXPRS.values()))


def _encode_row(row: tuple[tuple, Any]) -> dict[str, Any]:
    return _ROW[0]({"inputs": row[0], "output": row[1]})


def _decode_row(raw: Any, path: str) -> tuple[tuple, Any]:
    row = _ROW[1](raw, path)
    return row["inputs"], row["output"]


_ROW = _object(inputs=_tuple_of(_VALUE), output=_VALUE)
_ROWS = _tuple_of((_encode_row, _decode_row))


def _encode_expr(e: Expr | Table) -> dict[str, Any]:
    # a table is a function body of its own; it cannot nest
    if isinstance(e, Table):
        return {"op": "table", "rows": _ROWS[0](e.rows)}
    for op, (cls, keys) in _EXPRS.items():
        if isinstance(e, cls):
            break
    else:
        raise SchemaError(f"cannot serialize expression node {type(e).__name__}")
    if keys[0] in _LEAVES:
        return {"op": op, keys[0]: getattr(e, keys[0])}
    operands = [_encode_expr(child) for child in e.children()]
    if isinstance(e, _CHAINS):
        # a chain is written as the left-nested binary tree it stands for
        return reduce(lambda a, b: {"op": op, "a": a, "b": b}, operands)
    return {"op": op, **dict(zip(keys, operands))}


def _decode_expr(raw: Any, path: str, depth: int = MAX_EXPR_DEPTH) -> Expr | Table:
    """Decode the expression at `path`, which may nest `depth` more levels; a
    table only as a whole function body, where `depth` is the limit."""
    obj = _obj(raw, path, _EXPR_KEYS)
    op = _STR[1](_get(obj, "op", path), f"{path}.op")
    if op == "table":
        # a table is a function body of its own; it cannot nest
        if depth < MAX_EXPR_DEPTH:
            raise SchemaError("a table cannot nest inside an expression", path)
        return Table(_ROWS[1](_get(obj, "rows", path), f"{path}.rows"))
    if op not in _EXPRS:
        raise SchemaError(f"unknown expression op {op!r}", f"{path}.op")
    cls, keys = _EXPRS[op]
    if keys[0] in _LEAVES:
        return cls(_LEAVES[keys[0]][1](_get(obj, keys[0], path), f"{path}.{keys[0]}"))
    if depth == 0:
        raise SchemaError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels", path)
    spine = [(obj, path)]  # a chain's objects of this op down its `a` side
    while cls in _CHAINS and _obj(_get(obj, "a", path), f"{path}.a", _EXPR_KEYS).get("op") == op:
        obj, path = obj["a"], f"{path}.a"
        spine.append((obj, path))
    operands = [_decode_expr(_get(obj, key, path), f"{path}.{key}", depth - 1) for key in keys]
    for obj, path in reversed(spine[:-1]):
        operands.append(_decode_expr(_get(obj, "b", path), f"{path}.b", depth - 1))
    return cls(*operands)


_EXPR: Codec = (_encode_expr, _decode_expr)


# -- models and patterns ---------------------------------------------------


def _placed(err: CausalAccountError, path: str, **keys: Iterable) -> SchemaError:
    """A builder's `err` at its subject (kind, key): the last element of the
    array `<kind>s` at `path` whose key, in `keys[kind]`, is `key`; else at `path`."""
    places = {(k, key): f"{path}.{k}s[{i}]" for k, ks in keys.items() for i, key in enumerate(ks)}
    return SchemaError(str(err), places.get(err.subject, path))


_SCM = _object(
    ("format",),
    format=_format("scm"),
    name=_STR,
    domains=_tuple_of(_object(name=_STR, values=_tuple_of(_VALUE))),
    nodes=_tuple_of(
        _object(
            ("label", "proxy_for"),
            name=_STR,
            kind=_enum(NodeKind, "node kind"),
            domain=_STR,
            label=_optional(_STR),
            proxy_for=_optional(_STR),
        )
    ),
    edges=_EDGES,
    functions=_tuple_of(
        _record(StructuralFunction, target=_STR, parents=_STRS, body=_optional(_EXPR))
    ),
)


def _encode_scm(m: Scm) -> dict[str, Any]:
    domains = dict.fromkeys(m.domains[n.name] for n in m.graph.nodes)
    return _SCM[0](
        {
            "format": "scm",
            "name": m.name,
            "domains": [{"name": d.name, "values": d.values} for d in domains],
            "nodes": [
                {
                    "name": n.name,
                    "kind": n.kind,
                    "domain": m.domains[n.name].name,
                    "label": n.label,
                    "proxy_for": n.proxy_for,
                }
                for n in m.graph.nodes
            ],
            "edges": m.graph.edges,
            "functions": [m.functions[name] for name in m.endogenous_names],
        }
    )


def _decode_scm(raw: Any, path: str) -> Scm:
    fields = _SCM[1](raw, path)
    domains: dict[str, Domain] = {}
    for i, d in enumerate(fields["domains"]):
        d_path = f"{path}.domains[{i}]"
        if d["name"] in domains:
            raise SchemaError(f"domain {d['name']!r} declared twice", d_path)
        if d["name"] == "bool" and d["values"] != BOOL.values:
            raise SchemaError(
                "domain 'bool' is predefined as [false, true]", f"{d_path}.values"
            )
        try:
            domains[d["name"]] = Domain(d["name"], d["values"])
        except ValueError as err:
            raise SchemaError(str(err), d_path) from None

    nodes: list[Node] = []
    node_domains: dict[str, Domain] = {}
    for i, n in enumerate(fields["nodes"]):
        n_path = f"{path}.nodes[{i}]"
        if n["domain"] not in domains:
            raise SchemaError(f"unknown domain {n['domain']!r}", f"{n_path}.domain")
        nodes.append(Node(n["name"], n["kind"], n.get("label"), n.get("proxy_for")))
        node_domains[n["name"]] = domains[n["domain"]]

    functions: dict[str, StructuralFunction] = {}
    for i, f in enumerate(fields["functions"]):
        if f.target in functions:
            raise SchemaError(
                f"function for {f.target!r} declared twice", f"{path}.functions[{i}]"
            )
        functions[f.target] = f

    try:
        graph = build_graph(nodes, fields["edges"])
        return build_scm(graph, node_domains, functions, fields["name"])
    except CausalAccountError as err:
        names = [n.name for n in nodes]  # `functions` keeps the document's order, no repeat
        raise _placed(err, path, node=names, edge=fields["edges"], function=functions) from None


_PATTERN = _object(
    ("format", "constraints"),
    format=_format("pattern"),
    name=_STR,
    roles=_tuple_of(_record(Role, name=_STR, kind=_enum(RoleKind, "role kind"))),
    edges=_EDGES,
    constraints=_NAME_SET,
)


def _encode_pattern(p: Pattern) -> dict[str, Any]:
    return _PATTERN[0](
        {
            "format": "pattern",
            "name": p.name,
            "roles": p.roles,
            "edges": p.template_edges,
            "constraints": p.constraints,
        }
    )


def _decode_pattern(raw: Any, path: str) -> Pattern:
    # the constraints follow from the roles, so they are checked, not read
    fields = _PATTERN[1](raw, path)
    try:
        p = build_pattern(fields["name"], fields["roles"], fields["edges"])
    except CausalAccountError as err:
        roles = [r.name for r in fields["roles"]]
        raise _placed(err, path, role=roles, edge=fields["edges"]) from None
    if fields.get("constraints", p.constraints) != p.constraints:
        message = f"expected {sorted(p.constraints)}, the constraints the roles imply"
        raise SchemaError(message, f"{path}.constraints")
    return p


# -- reports ---------------------------------------------------------------


def _decode_binding(raw: Any, path: str) -> dict[str, str]:
    obj = _expect(raw, dict, "an object", path)
    return {role: _STR[1](node, f"{path}.{role}") for role, node in obj.items()}


_WITNESS = _object(edge=_PAIR, path=_PATH)


def _encode_witnesses(paths: dict[tuple[str, str], Path]) -> list[dict[str, Any]]:
    return [_WITNESS[0]({"edge": edge, "path": path}) for edge, path in paths.items()]


def _decode_witnesses(raw: Any, path: str) -> dict[tuple[str, str], Path]:
    out: dict[tuple[str, str], Path] = {}
    for i, item in enumerate(_expect(raw, list, "an array", path)):
        witness = _WITNESS[1](item, f"{path}[{i}]")
        if witness["edge"] in out:
            raise SchemaError(
                f"witness for edge {witness['edge']} declared twice", f"{path}[{i}]"
            )
        out[witness["edge"]] = witness["path"]
    return out


_IDENTIFICATION = _record(
    IdentificationReport,
    "identification-report",
    status=_enum(IdentificationStatus, "status"),
    treatment=_STR,
    outcome=_STR,
    backdoor_paths=_tuple_of(_PATH),
    minimal_backdoor_sets=_tuple_of(_NAME_SET),
    frontdoor_sets=_tuple_of(_NAME_SET),
    notes=_STRS,
)
_LOGGING = _record(
    LoggingRecommendation,
    "logging-recommendation",
    must_log=_NAME_SET,
    adjustment_set_used=_NAME_SET,
    rationale=_STRS,
)
_ACCOUNTABILITY = _record(
    AccountabilityReport,
    "accountability-report",
    verdict=_enum(Verdict, "verdict"),
    logging=_optional(_LOGGING),
    pattern=_STR,
    agent=_STR,
    effect=_STR,
    match=_record(
        PatternMatch,
        binding=(dict, _decode_binding),
        witness_paths=(_encode_witnesses, _decode_witnesses),
    ),
    identification=_IDENTIFICATION,
)

# format -> (type, encode, decode)
_FORMATS: dict[str, tuple[type, Callable[[Any], Any], Callable[[Any, str], Any]]] = {
    "scm": (Scm, _encode_scm, _decode_scm),
    "pattern": (Pattern, _encode_pattern, _decode_pattern),
    "identification-report": (IdentificationReport, *_IDENTIFICATION),
    "logging-recommendation": (LoggingRecommendation, *_LOGGING),
    "accountability-report": (AccountabilityReport, *_ACCOUNTABILITY),
}
FORMATS = tuple(_FORMATS)


def _dumps(data: Any) -> str | None:
    """Canonical JSON text of `data`; None where `json` recurses too deep."""
    try:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    except RecursionError:
        return None


def to_json(obj: object) -> str:
    """Serialize a supported object to canonical JSON text."""
    for cls, encode, _ in _FORMATS.values():
        if isinstance(obj, cls):
            if (text := _dumps(data := encode(obj))) is not None:
                return text
            # `json` recurses once per nested object, a chain once per term,
            # and only the functions of a model nest that deep
            deep = (f["target"] for f in data["functions"] if not _dumps({"f": [f]}))
            raise SchemaError(f"function of {next(deep)} nests too deep for JSON")
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def from_json(text: str) -> object:
    """Parse canonical JSON text back into the object it describes."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    except RecursionError:
        raise SchemaError("JSON nests too deep to read") from None
    fmt = _STR[1](_get(_expect(raw, dict, "an object", "$"), "format", "$"), "$.format")
    if fmt not in _FORMATS:
        raise SchemaError(
            f"unknown format {fmt!r}, expected one of " + ", ".join(FORMATS), "$.format"
        )
    return _FORMATS[fmt][2](raw, "$")
