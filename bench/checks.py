"""Checks of every warm-up answer against the references in oracle.py.

`check_all` raises `Wrong` on the first answer that disagrees and returns
the number of operations per pass that failed with the known fault: a `dag`
instance marked `fault` whose `identify` ends in EnumerationLimit. Any other
exception is a wrong answer. Negative answers the program reports with its
documented exit code 1 (NotAttributable, no admissible adjustment set,
inconsistent evidence) are answers like any other and must be right.
"""

from __future__ import annotations

import itertools
import math

from oracle import GraphRef, ModelRef, Wrong, expect, graph_ref, nx_satisfies_backdoor, parse_value
from workloads import render

from causal_account import builtin_pattern, from_json, parse_model, to_dsl

# The paper's rideshare verdicts, stated as the paper gives them.
PAPER_VERDICTS = {
    ("check", "uber", "--pattern", "raci", "--hint", "Accountable=Uber"): "Accountable",
    ("check", "uber", "--pattern", "lindberg", "--hint", "Agent=Driver", "--hint", "Effect=Accident"): "NotAttributable",
}


def check_all(w, answers: dict[int, object]) -> int:
    checker = {"desk": check_desk, "dag": check_dag, "audit": check_audit, "worlds": check_worlds}[w.name]
    faults = 0
    for i, op in enumerate(w.ops):
        answer = answers.get(i)
        expect(answer is not None, f"no answer for operation {op.spec}")
        if isinstance(answer, dict) and "error" in answer:
            if op.spec.get("fault") and answer["error"] == "EnumerationLimit":
                faults += 1
                continue
            raise Wrong(f"{op.spec} raised {answer['error']}: {answer['message']}")
        try:
            checker(w, op.spec, answer)
        except Wrong as exc:
            raise Wrong(f"{op.spec}: {exc}") from None
    return faults


# -- shared ------------------------------------------------------------------


def render_set(ref: GraphRef, names) -> str:
    return "{" + ", ".join(ref.sort(names)) + "}"


def parse_set(text: str) -> frozenset[str]:
    expect(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
    inner = text[1:-1].strip()
    return frozenset(s.strip() for s in inner.split(",")) if inner else frozenset()


def check_path_lines(ref: GraphRef, lines: list[str], x: str, y: str) -> None:
    """Printed back-door paths: real edges, and exactly the networkx set."""
    seen = set()
    for line in lines:
        tokens = line.split(" ")
        nodes, arrows = tokens[0::2], tokens[1::2]
        for a, arrow, b in zip(nodes, arrows, nodes[1:]):
            edge = (a, b) if arrow == "->" else (b, a)
            expect(arrow in ("->", "<-") and ref.dg.has_edge(*edge), f"path {line!r} uses no edge {edge}")
        expect(arrows[:1] == ["<-"], f"path {line!r} does not start into {x}")
        seen.add(tuple(nodes))
    expect(len(seen) == len(lines), "a back-door path is listed twice")
    expect(seen == ref.backdoor_paths(x, y), f"back-door paths differ from networkx for ({x}, {y})")


def check_identification(ref: GraphRef, x, y, status, paths, backdoor, frontdoor) -> None:
    check_path_lines(ref, paths, x, y)
    ref.check_minimal_sets(backdoor, x, y)
    expect(backdoor == ref.minimal_backdoor_sets(x, y), f"minimal back-door sets {backdoor} for ({x}, {y})")
    expect(frontdoor == ref.frontdoor_sets(x, y), f"front-door sets {frontdoor} for ({x}, {y})")
    expect(status == ref.status(x, y), f"status {status} for ({x}, {y})")


# -- desk ----------------------------------------------------------------------


def _options(argv) -> dict[str, list[str]]:
    opts: dict[str, list[str]] = {}
    it = iter(argv[2:])
    for flag in it:
        opts.setdefault(flag, []).append(next(it))
    return opts


def _bindings(mref: ModelRef, pairs) -> dict:
    out = {}
    for pair in pairs:
        name, _, raw = pair.partition("=")
        out[name] = parse_value(raw, mref.values[name])
    return out


def _row(mref: ModelRef, world: dict) -> str:
    return " ".join(f"{n}={render(world[n])}" for n in mref.names)


def check_desk(w, spec, answer) -> None:
    argv = spec["argv"]
    cmd, name = argv[0], argv[1]
    m = w.inputs["models"][name]
    ref, mref = graph_ref(m.graph), ModelRef(m)
    opts = _options(argv)
    code, lines = answer["code"], answer["out"].splitlines()
    x, y = opts.get("--x", [None])[0], opts.get("--y", [None])[0]

    if cmd == "validate" or (cmd == "export" and opts.get("--format") == ["json"]):
        expect(code == 0, f"exit {code}")
        if opts.get("--format") == ["json"]:
            expect(from_json(answer["out"]) == m, "JSON does not give back the model")
            expect(parse_model(to_dsl(m)) == m, "DSL does not give back the model")
        else:
            expect(
                lines == [f"ok: model {m.name} ({len(m.graph.nodes)} node(s), {len(m.graph.edges)} edge(s))"],
                f"validate printed {lines}",
            )
    elif cmd == "export":
        expect(code == 0, f"exit {code}")
        body = [line.strip().rstrip(";") for line in lines[1:-1]]
        edges = {tuple(line.split(" -> ")) for line in body if " -> " in line}
        nodes = [line.split(" ")[0] for line in body if " -> " not in line]
        expect(edges == set(ref.dg.edges) and nodes == list(m.graph.names), "DOT lists other nodes or edges")
        filled = {line.split(" ")[0] for line in body if "style=filled" in line}
        if "--highlight-match" in opts:
            hints = dict(h.split("=") for h in opts.get("--hint", []))
            first = ref.matches(builtin_pattern(opts["--highlight-match"][0]), hints)[0]
            expect(filled == set(first.values()), f"highlighted {filled}, first match binds {first}")
        else:
            expect(not filled, "nodes highlighted without a match")
    elif cmd == "eval":
        expect(code == 0, f"exit {code}")
        world = mref.evaluate(_bindings(mref, opts["--set"]))
        expect(lines == [f"{n}={render(world[n])}" for n in mref.names], "eval values differ")
    elif cmd == "worlds":
        expect(code == 0, f"exit {code}")
        evidence = _bindings(mref, opts.get("--evidence", []))
        rows = [_row(mref, wd) for wd in mref.worlds(evidence)]
        expect(lines == [f"worlds: {len(rows)}"] + rows, "worlds differ")
        if not evidence:
            expect(len(rows) == math.prod(len(mref.values[r]) for r in mref.roots), "world count is not the root product")
    elif cmd == "do":
        expect(code == 0, f"exit {code}")
        pins = _bindings(mref, opts["--set"])
        rows = [
            _row(mref, mref.evaluate(dict(zip(mref.roots, vals)), pins))
            for vals in itertools.product(*(mref.values[r] for r in mref.roots))
        ]
        expect(lines == rows, "intervened worlds differ")
    elif cmd == "cf":
        query = opts["--query"][0].split(",")
        result = mref.counterfactual(_bindings(mref, opts.get("--evidence", [])), _bindings(mref, opts.get("--do", [])), query)
        if result is None:
            expect(code == 1 and not lines, "inconsistent evidence must exit 1")
            return
        expect(code == 0, f"exit {code}")
        parts = []
        for q in [n for n in mref.names if n in query]:
            ordered = [render(v) for v in mref.values[q] if v in result[q]]
            parts.append(f"{q}={ordered[0]}" if len(ordered) == 1 else f"{q}={{{', '.join(ordered)}}}")
        expect(lines == [" ".join(parts)], f"counterfactual printed {lines}, expected {parts}")
    elif cmd == "dsep":
        expect(code == 0, f"exit {code}")
        given = opts.get("--given", [""])[0].split(",") if opts.get("--given") else []
        truth = ref.d_separated({x}, {y}, set(filter(None, given)))
        expect(lines == [f"d-separated: {'true' if truth else 'false'}"], f"dsep printed {lines}")
    elif cmd == "backdoor":
        expect(code == 0, f"exit {code}")
        if "--z" in opts:
            truth = nx_satisfies_backdoor(m.graph, opts["--z"][0].split(","), x, y)
            expect(lines == [f"satisfies backdoor: {'true' if truth else 'false'}"], f"backdoor printed {lines}")
            return
        printed = [parse_set(line) for line in lines if line != "none"]
        ref.check_minimal_sets(printed, x, y)
        expected = [render_set(ref, z) for z in ref.minimal_backdoor_sets(x, y)] or ["none"]
        expect(lines == expected, f"backdoor printed {lines}, expected {expected}")
    elif cmd == "frontdoor":
        expect(code == 0, f"exit {code}")
        expected = [render_set(ref, z) for z in ref.frontdoor_sets(x, y)] or ["none"]
        expect(lines == expected, f"frontdoor printed {lines}, expected {expected}")
    elif cmd == "identify":
        expect(code == 0, f"exit {code}")
        field = lambda key: [ln[len(key) + 2 :] for ln in lines if ln.startswith(key + ": ")]  # noqa: E731
        expect(field("treatment") == [x] and field("outcome") == [y], "identify names the wrong pair")
        check_identification(
            ref,
            x,
            y,
            field("status")[0],
            field("backdoor path"),
            [parse_set(s) for s in field("minimal backdoor set")],
            [parse_set(s) for s in field("frontdoor set")],
        )
    elif cmd == "logset":
        rec = ref.logging(x, y)
        if rec is None:
            expect(code == 1 and not lines, f"logset without an adjustment set must exit 1, got {code}")
            return
        expect(code == 0, f"exit {code}")
        must, chosen = rec
        expect(lines[:2] == [f"must log: {render_set(ref, must)}", f"adjustment set: {render_set(ref, chosen)}"], f"logset printed {lines[:2]}")
        expect(len(lines) == 2 + len(m.graph.names), "one rationale line per variable")
    elif cmd in ("match", "check"):
        pattern = builtin_pattern(opts["--pattern"][0])
        hints = dict(h.split("=") for h in opts.get("--hint", []))
        found = ref.matches(pattern, hints)
        roles = pattern.role_names()
        if cmd == "match":
            expected = [f"match: {' '.join(f'{r}={b[r]}' for r in roles)}" for b in found] or ["no match"]
            expect(lines == expected, f"match printed {lines}, expected {expected}")
            return
        if not found:
            expect(code == 1 and lines == [f"no match for pattern {pattern.name}"], "no match must exit 1")
            return
        verdict, chosen = ref.verdict(found[0], *_agent_effect(pattern))
        if tuple(argv) in PAPER_VERDICTS:
            expect(verdict == PAPER_VERDICTS[tuple(argv)], f"reference verdict {verdict} contradicts the paper")
        expect(f"verdict: {verdict}" in lines, f"check printed {lines}, expected {verdict}")
        expect(code == (0 if verdict == "Accountable" else 1), f"exit {code} for {verdict}")
        expect(lines[1] == f"match: {' '.join(f'{r}={found[0][r]}' for r in roles)}", "check judged another match")
        if chosen is not None:
            expect(f"adjustment set: {render_set(ref, chosen)}" in lines, "check chose another adjustment set")
    else:
        raise Wrong(f"no check for command {cmd}")


def _agent_effect(pattern) -> tuple[str, str]:
    agent = next(r.name for r in pattern.roles if r.kind.value == "Agent")
    effect = next(r.name for r in pattern.roles if r.kind.value == "Effect")
    return agent, effect


# -- dag -------------------------------------------------------------------------


def _sets(lists) -> list[frozenset[str]]:
    return [frozenset(z) for z in lists]


def check_dag(w, spec, answer) -> None:
    g, x, y = w.inputs["graphs"][spec["graph"]], spec["x"], spec["y"]
    ref = graph_ref(g)
    check_identification(ref, x, y, answer["status"], answer["paths"], _sets(answer["backdoor"]), _sets(answer["frontdoor"]))
    rec = ref.logging(x, y)
    if rec is None:
        expect(answer["must_log"] is None, "logging set given where no adjustment set exists")
    else:
        expect(
            (frozenset(answer["must_log"]), frozenset(answer["adjust"])) == rec,
            f"logging set {answer['must_log']} / {answer['adjust']}, expected {rec}",
        )


# -- audit -----------------------------------------------------------------------


def check_audit(w, spec, answer) -> None:
    g = w.inputs["graphs"][spec["graph"]]
    pattern = w.inputs["patterns"][spec["pattern"]]
    ref = graph_ref(g)
    roles = pattern.role_names()
    found = ref.matches(pattern, {})
    expected = [[b[r] for r in roles] for b in found]
    expect(answer["matches"] == expected, f"{len(answer['matches'])} matches, the reference finds {len(expected)} (or another order)")
    if not found:
        expect(answer["verdict"] is None, "a verdict without a match")
        return
    verdict, chosen = ref.verdict(found[0], *_agent_effect(pattern))
    expect(answer["verdict"] == verdict, f"verdict {answer['verdict']}, expected {verdict}")
    if chosen is not None:
        expect(answer["status"] == "IdentifiableBackdoor", f"status {answer['status']} under an Accountable verdict")
        expect(frozenset(answer["adjust"]) == chosen, f"adjustment set {answer['adjust']}, expected {set(chosen)}")


# -- worlds ----------------------------------------------------------------------


def check_worlds(w, spec, answer) -> None:
    wm = w.inputs["models"][spec["model"]]
    names = wm.order
    evidence = spec["evidence"]
    abduced = []
    for vals in wm.root_space():
        world = wm.evaluate(dict(zip(wm.roots, vals)))
        if all(world[k] == v for k, v in evidence.items()):
            abduced.append(world)
    if "do" not in spec:
        expect(answer == [[render(wd[n]) for n in names] for wd in abduced], "consistent worlds differ from the generator's evaluation")
        if not evidence:
            expect(len(answer) == math.prod(len(wm.domains[r].values) for r in wm.roots), "world count is not the root product")
        return
    expected: dict[str, set] = {q: set() for q in spec["query"]}
    for world in abduced:
        predicted = wm.evaluate({r: world[r] for r in wm.roots}, spec["do"])
        for q in spec["query"]:
            expected[q].add(render(predicted[q]))
    expect(answer == {q: sorted(v) for q, v in expected.items()}, f"counterfactual {answer}, expected {expected}")
    if spec["kind"] == "full":
        pinned = wm.evaluate(evidence, spec["do"])
        expect(answer == {q: [render(pinned[q])] for q in spec["query"]}, "full-evidence counterfactual differs from the intervention")
