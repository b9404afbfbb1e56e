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
between their parts.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Container

from ..errors import CausalAccountError, SchemaError
from ..graph import Node, NodeKind, Path, build_graph
from ..identify import (
    IdentificationReport,
    IdentificationStatus,
    LoggingRecommendation,
)
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

# op -> (class, {JSON key: attribute}), for encoding and decoding alike;
# `else` is a Python keyword, so IfThenElse keeps that branch in `orelse`
_EXPRS: dict[str, tuple[type, dict[str, str]]] = {
    "lit": (Lit, {"value": "value"}),
    "ref": (Ref, {"name": "name"}),
    "not": (Not, {"a": "a"}),
    "and": (And, {"a": "a", "b": "b"}),
    "or": (Or, {"a": "a", "b": "b"}),
    "eq": (Eq, {"a": "a", "b": "b"}),
    "if": (IfThenElse, {"cond": "cond", "then": "then", "else": "orelse"}),
}
# every other key holds an operand
_LEAVES = {"value": _VALUE, "name": _STR}
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
            return {"op": op} | {
                key: _LEAVES.get(key, _OPERAND)[0](getattr(e, attr))
                for key, attr in keys.items()
            }
    raise SchemaError(f"cannot serialize expression node {type(e).__name__}")


def _decode_expr(raw: Any, path: str) -> Expr | Table:
    obj = _obj(raw, path, _EXPR_KEYS)
    op = _STR[1](_get(obj, "op", path), f"{path}.op")
    if op == "table":
        return Table(_ROWS[1](_get(obj, "rows", path), f"{path}.rows"))
    if op not in _EXPRS:
        raise SchemaError(f"unknown expression op {op!r}", f"{path}.op")
    cls, keys = _EXPRS[op]
    return cls(
        **{
            attr: _LEAVES.get(key, _OPERAND)[1](_get(obj, key, path), f"{path}.{key}")
            for key, attr in keys.items()
        }
    )


def _decode_operand(raw: Any, path: str) -> Expr:
    e = _decode_expr(raw, path)
    if isinstance(e, Table):
        raise SchemaError("a table cannot nest inside an expression", path)
    return e


_OPERAND: Codec = (_encode_expr, _decode_operand)
_EXPR: Codec = (_encode_expr, _decode_expr)


# -- models and patterns ---------------------------------------------------

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
        if n["name"] in node_domains:
            raise SchemaError(f"node {n['name']!r} declared twice", n_path)
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
        raise SchemaError(str(err), path) from None


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
        return build_pattern(fields["name"], fields["roles"], fields["edges"])
    except CausalAccountError as err:
        raise SchemaError(str(err), path) from None


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


def to_json(obj: object) -> str:
    """Serialize a supported object to canonical JSON text."""
    for cls, encode, _ in _FORMATS.values():
        if isinstance(obj, cls):
            return json.dumps(encode(obj), indent=2, sort_keys=True) + "\n"
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def from_json(text: str) -> object:
    """Parse canonical JSON text back into the object it describes."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    fmt = _STR[1](_get(_expect(raw, dict, "an object", "$"), "format", "$"), "$.format")
    if fmt not in _FORMATS:
        raise SchemaError(
            f"unknown format {fmt!r}, expected one of " + ", ".join(FORMATS), "$.format"
        )
    return _FORMATS[fmt][2](raw, "$")
