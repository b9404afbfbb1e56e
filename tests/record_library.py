"""Record the library transcript that `test_library_transcript.py` replays.

    PYTHONPATH=src python tests/record_library.py

Each line of `library_transcript.jsonl` is one library call: its inputs and
its outcome. The inputs are written into the line, so the replay reads only
the file and an edit to `oracles.py` or `generators.py` cannot change what is
replayed:

- a graph, as one string of node tokens `name:kind` or `name:kind:principal`
  (kind `x` exogenous, `n` endogenous, `l` latent; a principal marks a
  proxy), then `|`, then edge tokens `a>b`; or a model, as DSL text;
- the call's name and its arguments.

The outcome is either the result, or the error's type and message. A report,
a pattern or a model is stored as the bytes `to_json` writes, zlib-compressed
and base64-encoded; smaller results are stored as plain JSON.

The graphs are seeded `oracles.random_dag` graphs (5 to 11 nodes, edge
probability 0.3, latent probability 0.2) passed through
`oracles.with_proxies`. Per graph the calls are:

- for a few shuffled ordered pairs of observable nodes, `identify` with and
  without `trust_proxies`, and `logging_set` with a random `allowed` and a
  random `trust_proxies`;
- `check_accountability` on the first match of `lindberg` and of `raci`;
- a prefix of `iter_matches` of one pattern under a small limit;
- `build_graph` on the graph with one edge added against the order, which is
  often a cycle, and `build_pattern` on random roles and template edges.

The models are seeded `generators.random_scm` models, read back from their
`to_dsl` text; per model the calls are `parse_model` of that text,
`consistent_world_count` and `counterfactual` with random evidence, `do` and
query.

Regenerate it only with a change meant to alter output, and say in
CHANGES.md which lines changed and why.
"""

from __future__ import annotations

import base64
import itertools
import json
import random
import zlib
from pathlib import Path

from causal_account import (
    AccountabilityReport,
    CausalAccountError,
    IdentificationReport,
    LoggingRecommendation,
    Node,
    NodeKind,
    Pattern,
    Scm,
    build_graph,
    build_pattern,
    builtin_pattern,
    check_accountability,
    counterfactual,
    identify,
    iter_matches,
    logging_set,
)
from causal_account.modelio import parse_model, to_dsl, to_json
from causal_account.scm import consistent_world_count

HERE = Path(__file__).resolve().parent
TRANSCRIPT = HERE / "library_transcript.jsonl"
SEED = 23
GRAPHS = 80
PAIRS = 2
MODELS = 30
CFS = 2
PATTERNS = ("lindberg", "raci")
ROLE_KINDS = ("Agent", "Mediator", "Accountable", "Consulted", "Discussion", "Informed")

_KINDS = {"x": NodeKind.EXOGENOUS, "n": NodeKind.ENDOGENOUS, "l": NodeKind.LATENT}
_LETTERS = {kind: letter for letter, kind in _KINDS.items()}


def _pack(text: str) -> str:
    return base64.b64encode(zlib.compress(text.encode(), 9)).decode("ascii")


def unpack(packed: str) -> str:
    return zlib.decompress(base64.b64decode(packed)).decode()


def graph_text(nodes, edges) -> str:
    """The string form of a graph's nodes and edges."""
    tokens = [
        f"{n.name}:{_LETTERS[n.kind]}" + (f":{n.proxy_for}" if n.proxy_for else "")
        for n in nodes
    ]
    return " ".join(tokens + ["|"] + [f"{a}>{b}" for a, b in edges])


def graph_parts(text: str) -> tuple[list[Node], list[tuple[str, ...]]]:
    """The nodes and edges that `graph_text` wrote."""
    head, tail = text.split("|")
    nodes = []
    for token in head.split():
        name, kind, *principal = token.split(":")
        nodes.append(Node(name, _KINDS[kind], proxy_for=(principal or [None])[0]))
    return nodes, [tuple(edge.split(">")) for edge in tail.split()]


def _check(g, case: dict):
    """`check_accountability` on the first match, None when there is none."""
    p = builtin_pattern(case["pattern"])
    m = next(iter_matches(g, p), None)
    return None if m is None else check_accountability(g, p, m)


def _matches(g, case: dict) -> list:
    found = iter_matches(g, builtin_pattern(case["pattern"]), limit=case["limit"])
    return [list(m.binding.values()) for m in itertools.islice(found, case["count"])]


def _values(m, answer: dict) -> dict:
    """A counterfactual answer, each value set in domain order."""
    return {name: [v for v in m.domains[name].values if v in got] for name, got in answer.items()}


# call -> its result for the parsed graph or model and the case
GRAPH_CALLS = {
    "identify": lambda g, c: identify(g, c["x"], c["y"], c["trust_proxies"]),
    "logging_set": lambda g, c: logging_set(g, c["x"], c["y"], c["allowed"], c["trust_proxies"]),
    "check_accountability": _check,
    "iter_matches": _matches,
}
MODEL_CALLS = {
    "parse_model": lambda m, c: m,
    "consistent_world_count": lambda m, c: consistent_world_count(m, c["evidence"]),
    "counterfactual": lambda m, c: _values(
        m, counterfactual(m, c["evidence"], c["do"], c["query"])
    ),
}
SERIALIZED = (IdentificationReport, LoggingRecommendation, AccountabilityReport, Pattern, Scm)


def outcome(case: dict) -> dict:
    """Run one case. The outcome is {"json": the `to_json` text} for a
    report, a pattern or a model, {"result": the result as JSON reads it
    back} for anything else, or {"error": [type name, message]}."""
    call = case["call"]
    try:
        if call == "build_graph":
            result = build_graph(*graph_parts(case["graph"])).topological_order()
        elif call == "build_pattern":
            result = build_pattern("p", case["roles"], case["edges"])
        elif call in GRAPH_CALLS:
            result = GRAPH_CALLS[call](build_graph(*graph_parts(case["graph"])), case)
        else:
            result = MODEL_CALLS[call](parse_model(case["model"]), case)
    except CausalAccountError as err:
        return {"error": [type(err).__name__, str(err)]}
    if isinstance(result, SERIALIZED):
        return {"json": to_json(result)}
    return {"result": json.loads(json.dumps(result))}


def graph_cases(rng: random.Random):
    # the replay imports this module and needs no generator
    from oracles import random_dag, with_proxies

    g = with_proxies(rng, random_dag(rng, rng.randint(5, 11), 0.3, 0.2))
    text = graph_text(g.nodes, g.edges)
    observable = list(g.observable_names())
    pairs = list(itertools.permutations(observable, 2))
    rng.shuffle(pairs)
    # trust_proxies changes nothing on a graph without a proxy
    trusts = (False, True) if any(n.proxy_for for n in g.nodes) else (False,)
    for x, y in pairs[:PAIRS]:
        for trust in trusts:
            yield {"call": "identify", "graph": text, "x": x, "y": y, "trust_proxies": trust}
        allowed = sorted(rng.sample(observable, rng.randint(0, len(observable))), key=g.index)
        yield {
            "call": "logging_set",
            "graph": text,
            "x": x,
            "y": y,
            "allowed": allowed,
            "trust_proxies": rng.random() < 0.5,
        }
    for name in PATTERNS:
        yield {"call": "check_accountability", "graph": text, "pattern": name}
    yield {
        "call": "iter_matches",
        "graph": text,
        "pattern": rng.choice(PATTERNS),
        "limit": rng.randint(1, 30),
        "count": rng.randint(1, 4),
    }
    # one edge against the declaration order: a cycle when a path runs the
    # other way, an edge into a root otherwise
    names = g.names
    i, j = sorted(rng.sample(range(len(names)), 2))
    yield {"call": "build_graph", "graph": graph_text(g.nodes, [*g.edges, (names[j], names[i])])}
    # one Effect role, but now and then none or a second one
    roles = [[f"r{k}", rng.choice(ROLE_KINDS)] for k in range(rng.randint(2, 5))]
    for _ in range(rng.choice((0, 1, 1, 1, 1, 1, 1, 1, 2))):
        rng.choice(roles)[1] = "Effect"
    role_names = [r[0] for r in roles]
    edges = [list(rng.sample(role_names, 2)) for _ in range(rng.randint(1, 5))]
    yield {"call": "build_pattern", "roles": roles, "edges": edges}


def model_cases(rng: random.Random):
    from generators import random_scm

    m = random_scm(rng, max_nodes=6)
    try:
        text = to_dsl(m)
    except CausalAccountError:
        return
    yield {"call": "parse_model", "model": text}
    names = list(m.graph.names)
    endogenous = list(m.endogenous_names)

    def evidence() -> dict:
        observed = rng.sample(names, rng.randint(0, min(3, len(names))))
        return {name: rng.choice(m.domains[name].values) for name in observed}

    yield {"call": "consistent_world_count", "model": text, "evidence": evidence()}
    for _ in range(CFS):
        targets = rng.sample(endogenous, rng.randint(0, min(2, len(endogenous))))
        yield {
            "call": "counterfactual",
            "model": text,
            "evidence": evidence(),
            "do": {name: rng.choice(m.domains[name].values) for name in targets},
            "query": rng.sample(names, rng.randint(1, len(names))),
        }


def cases() -> list[dict]:
    rng = random.Random(SEED)
    graphs = [case for _ in range(GRAPHS) for case in graph_cases(rng)]
    return graphs + [case for _ in range(MODELS) for case in model_cases(rng)]


def record() -> None:
    lines = []
    for case in cases():
        out = outcome(case)
        if "json" in out:
            out = {"json_zlib": _pack(out["json"])}
        lines.append(json.dumps({**case, **out}, sort_keys=True))
    TRANSCRIPT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} cases written to {TRANSCRIPT}")


if __name__ == "__main__":
    record()
