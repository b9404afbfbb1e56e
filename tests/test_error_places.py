"""A builder's structure error is placed at the element it names, by both readers.

Seeded random models and patterns, each with one structure fault, are built
directly, written as a JSON document and written as DSL text. The builder's
own error gives the subject. `from_json` must report the error, with the
builder's message, at the last element of the document that holds that
subject; the DSL reader, where it reports the builder's error too (and not a
refusal of its own, such as a parent named before it is declared), on the
last line that declares the subject. An error that names no element stays
at the document: at `$`, or at the DSL document's name on line 1.
"""

import json
import random
import re

import pytest

from causal_account import (
    BOOL,
    CausalAccountError,
    Node,
    NodeKind,
    ParseError,
    RoleKind,
    SchemaError,
    SemanticError,
    StructuralFunction,
    build_graph,
    build_pattern,
    build_scm,
    from_json,
    parse_model,
    parse_pattern,
)

SEED = 25
CASES = 600  # refusals with a subject, of models and of patterns each

ROOT_KINDS = ("exogenous", "latent")
KEYWORD = {"exogenous": "exo", "latent": "latent"}
# the JSON key that holds each kind of subject in its array `<kind>s`
KEY_OF = {
    "node": lambda element: element["name"],
    "edge": tuple,
    "function": lambda element: element["target"],
    "role": lambda element: element["name"],
}


def random_model(rng):
    """Boolean nodes as [name, kind, principal] in an order that declares
    every parent first, and edges into endogenous nodes from earlier ones."""
    nodes, edges = [], []
    for i in range(rng.randint(2, 7)):
        name = f"v{i}"
        latents = [n[0] for n in nodes if n[1] == "latent"]
        kind = rng.choice(("exogenous", "latent", "endogenous", "proxy")[: 4 if latents else 3])
        if kind == "proxy":
            principal = rng.choice(latents)
            nodes.append([name, "endogenous", principal])
            edges.append((principal, name))
            continue
        nodes.append([name, kind, None])
        if kind == "endogenous":
            edges += [(n[0], name) for n in nodes[:-1] if rng.random() < 0.4]
    return nodes, edges


def parents_of(nodes, edges):
    """The structure-only function of each endogenous name: its in-edges."""
    endogenous = [n[0] for n in nodes if n[1] == "endogenous"]
    return {name: tuple(dict.fromkeys(a for a, b in edges if b == name)) for name in endogenous}


def add_model_fault(rng, nodes, edges):
    """One structure fault; returns the functions, which may disagree with
    the edges."""
    names = [n[0] for n in nodes]
    fault = rng.randrange(7)
    if fault == 0:  # a name declared again, as a root
        nodes.append([rng.choice(names), rng.choice(ROOT_KINDS), None])
    elif fault == 1:  # an edge against the declaration order
        i, j = sorted(rng.sample(range(len(names)), 2))
        edges.append((names[j], names[i]))
    elif fault == 2:
        name = rng.choice(names)
        edges.append((name, name))
    elif fault == 3:
        edges.append(("zz", rng.choice(names)))
    elif fault == 4:  # a proxy of a node that is not latent, or of no node
        principal = rng.choice([n[0] for n in nodes if n[1] != "latent"] + ["zz"])
        nodes.append(["p", "endogenous", principal])
        edges += [(principal, "p")] if principal in names else []
    elif fault == 5:  # a proxy with a second parent
        nodes += [["l", "latent", None], ["p", "endogenous", "l"]]
        edges += [("l", "p"), (rng.choice(names), "p")]
    functions = parents_of(nodes, edges)
    if fault == 6 and functions:  # a function whose parents are not the node's
        target = rng.choice(list(functions))
        others = [name for name in names[: names.index(target)] if name not in functions[target]]
        functions[target] = functions[target][1:] + tuple(others[:1])
    return functions


def model_json(nodes, edges, functions):
    return json.dumps(
        {
            "format": "scm",
            "name": "m",
            "domains": [{"name": "bool", "values": [False, True]}],
            "nodes": [
                {"name": name, "kind": kind, "domain": "bool", "proxy_for": principal}
                for name, kind, principal in nodes
            ],
            "edges": [list(edge) for edge in edges],
            "functions": [
                {"target": target, "parents": list(parents), "body": None}
                for target, parents in functions.items()
            ],
        }
    )


def model_dsl(nodes, edges):
    """The DSL text of the model, and the line that declares each node for
    the last time; None where the DSL cannot state every edge."""
    lines, declared, stated = ["model m"], {}, set()
    for name, kind, principal in nodes:
        if principal is not None:
            lines.append(f"proxy {name} for {principal}")
            stated.add((principal, name))
        elif kind == "endogenous":
            parents = list(dict.fromkeys(a for a, b in edges if b == name))
            lines.append(f"var {name} : bool" + (" <- " + ", ".join(parents) if parents else ""))
            stated.update((p, name) for p in parents)
        else:
            lines.append(f"{KEYWORD[kind]} {name} : bool")
        declared[name] = len(lines)
    if stated != set(edges):
        return None, declared
    return "\n".join(lines) + "\n", declared


def build_model(nodes, edges, functions):
    graph = build_graph([Node(name, NodeKind(kind), None, p) for name, kind, p in nodes], edges)
    domains = {name: BOOL for name, _, _ in nodes}
    fs = {target: StructuralFunction(target, ps, None) for target, ps in functions.items()}
    return build_scm(graph, domains, fs, "m")


def random_pattern(rng):
    """Roles as [name, kind], one Effect and at most one Accountable, and
    template edges from earlier roles to later ones."""
    others = [k.value for k in RoleKind if k not in (RoleKind.EFFECT, RoleKind.ACCOUNTABLE)]
    roles = [[f"r{i}", rng.choice(others)] for i in range(rng.randint(2, 6))]
    effect, accountable = rng.sample(range(len(roles)), 2)
    roles[effect][1] = "Effect"
    if rng.random() < 0.5:
        roles[accountable][1] = "Accountable"
    names = [r[0] for r in roles]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.4]
    return roles, edges


def add_pattern_fault(rng, roles, edges):
    names = [r[0] for r in roles]
    fault = rng.randrange(7)
    if fault == 0:
        roles.append([rng.choice(names), rng.choice([k.value for k in RoleKind])])
    elif fault == 1:  # a second Effect role, or none
        roles[rng.randrange(len(roles))][1] = rng.choice(("Effect", "Agent"))
    elif fault == 2:
        for role in rng.sample(roles, 2):
            role[1] = "Accountable"
    elif fault == 3:
        name = rng.choice(names)
        edges.append((name, name))
    elif fault == 4:
        edges.append(rng.choice([("zz", rng.choice(names)), (rng.choice(names), "zz")]))
    else:  # an edge against the order: a cycle where a path runs the other way
        i, j = sorted(rng.sample(range(len(names)), 2))
        edges.append((names[j], names[i]))


def pattern_json(roles, edges):
    return json.dumps(
        {
            "format": "pattern",
            "name": "p",
            "roles": [{"name": name, "kind": kind} for name, kind in roles],
            "edges": [list(edge) for edge in edges],
        }
    )


def pattern_dsl(roles, edges):
    lines, declared = ["pattern p"], {}
    for name, kind in roles:
        lines.append(f"role {name} : {kind}")
        declared["role", name] = len(lines)
    for a, b in edges:
        lines.append(f"edge {a} -> {b}")
        declared["edge", (a, b)] = len(lines)
    return "\n".join(lines) + "\n", declared


def refusal(build, *parts):
    try:
        build(*parts)
    except CausalAccountError as err:
        return err
    return None


def check_json(text, err):
    """`from_json` reports `err` at the last element holding its subject."""
    with pytest.raises(SchemaError) as got:
        from_json(text)
    assert str(got.value) == f"{got.value.path}: {err}"
    if err.subject is None:
        assert got.value.path == "$"
        return
    kind, key = err.subject
    array, index = re.fullmatch(r"\$\.(\w+)\[(\d+)\]", got.value.path).groups()
    assert array == f"{kind}s"
    keys = [KEY_OF[kind](element) for element in json.loads(text)[array]]
    assert keys[int(index)] == key
    assert key not in keys[int(index) + 1 :]


def check_dsl(parse, text, err, line):
    """The DSL reader reports `err`, where it reaches the builder, on `line`;
    returns whether it did."""
    with pytest.raises((ParseError, SemanticError)) as got:
        parse(text)
    if str(got.value) != f"{got.value.span}: {err}":
        return False
    assert got.value.span.line == line
    return True


def test_model_refusals_are_placed_at_their_subject():
    rng = random.Random(SEED)
    placed = in_dsl = 0
    while placed < CASES:
        nodes, edges = random_model(rng)
        functions = add_model_fault(rng, nodes, edges)
        err = refusal(build_model, nodes, edges, functions)
        if err is None or err.subject is None:
            continue
        placed += 1
        check_json(model_json(nodes, edges, functions), err)
        text, declared = model_dsl(nodes, edges)
        if text is None or functions != parents_of(nodes, edges):
            continue  # the DSL cannot state this model
        kind, key = err.subject
        line = declared[key[1] if kind == "edge" else key]
        in_dsl += check_dsl(parse_model, text, err, line)
    # every fault but an edge into a root or a proxy, or a wrong function,
    # reaches the builders through the DSL for some of the models
    assert in_dsl > CASES // 5


def test_pattern_refusals_are_placed_at_their_subject():
    rng = random.Random(SEED)
    placed = unplaced = in_dsl = 0
    while placed < CASES:
        roles, edges = random_pattern(rng)
        add_pattern_fault(rng, roles, edges)
        err = refusal(build_pattern, "p", roles, edges)
        if err is None:
            continue
        check_json(pattern_json(roles, edges), err)
        text, declared = pattern_dsl(roles, edges)
        if err.subject is None:
            unplaced += 1
            assert check_dsl(parse_pattern, text, err, 1)
            continue
        placed += 1
        # an unknown role is the reader's own refusal, on the edge's line too
        with pytest.raises(SemanticError) as got:
            parse_pattern(text)
        assert got.value.span.line == declared[err.subject]
        in_dsl += str(got.value) == f"{got.value.span}: {err}"
    assert unplaced > 0
    assert in_dsl > CASES // 2
