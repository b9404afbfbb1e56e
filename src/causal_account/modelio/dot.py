"""Graphviz DOT text export.

Produces plain text only; rendering is left to external tooling. Latent nodes
come out dashed, an optional pattern match highlights its bound nodes with a
gray fill. Nodes and edges are emitted in declaration order so the output is
deterministic.
"""

from __future__ import annotations

import re

from ..graph import CausalGraph
from ..patterns import PatternMatch
from .dsl import _quote

_BARE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"graph", "digraph", "subgraph", "node", "edge", "strict"})


def _dot_id(name: str) -> str:
    if _BARE_ID.match(name) and name.lower() not in _RESERVED:
        return name
    return _quote(name)


def to_dot(
    g: CausalGraph, highlights: PatternMatch | None = None, name: str = "m"
) -> str:
    """Serialize the graph to DOT text.

    `highlights`, when given, fills the nodes bound by the match.
    """
    highlighted = frozenset(highlights.binding.values()) if highlights else frozenset()
    if not g.nodes:
        return f"digraph {_dot_id(name)} {{ }}\n"
    lines = [f"digraph {_dot_id(name)} {{"]
    for node in g.nodes:
        attrs: list[str] = []
        if node.label is not None:
            attrs.append(f"label={_quote(node.label)}")
        if not node.kind.observable:
            attrs.append("style=dashed")
        elif node.name in highlighted:
            attrs.append("style=filled")
            attrs.append("fillcolor=gray")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(node.name)}{suffix};")
    for a, b in g.edges:
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
