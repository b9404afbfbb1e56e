"""The four benchmark workloads: their inputs and their operation lists.

`build(workload, seed)` makes the inputs and returns a `Workload` whose
`ops` is the fixed operation list one pass runs. The instance lists are
drawn from fixed generator seeds (listed in README.md), so every run times
the same mix; `--seed` fixes the order in which a pass visits them. Every
operation returns a JSON-ready answer that the checks compare with the
reference computations in `checks.py`.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("desk", "dag", "audit", "worlds")


@dataclass
class Op:
    """One operation: `call` runs the program, `answer` makes its result comparable."""

    spec: dict
    call: Callable[[], object]
    answer: Callable[[object], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict = field(default_factory=dict)


def build(name: str, seed: int) -> Workload:
    builders = {"desk": _build_desk, "dag": _build_dag, "audit": _build_audit, "worlds": _build_worlds}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    w = builders[name]()
    random.Random(seed).shuffle(w.ops)
    return w


def _same(result):
    return result


def render(value) -> str:
    """A domain value as the CLI prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# -- desk: CLI commands over the bundled models ----------------------------

PATTERNS = ("lindberg", "raci")

# The quick tour of the top-level README, command for command.
README_TOUR = (
    ("validate", "titus"),
    ("worlds", "titus"),
    ("do", "titus", "--set", "ED=true", "--then", "eval"),
    ("cf", "titus", "--evidence", "BD=true", "--do", "TM=false", "--query", "ED,BD"),
    ("identify", "uber", "--x", "Driver", "--y", "Accident"),
    ("logset", "uav_weather", "--x", "Pilot", "--y", "UAVCrash"),
    ("match", "titus", "--pattern", "lindberg"),
    ("check", "uber", "--pattern", "raci", "--hint", "Accountable=Uber"),
    ("dsep", "uav_weather", "--x", "Pilot", "--y", "Permission"),
    ("backdoor", "uber", "--x", "Driver", "--y", "Accident", "--z", "Manuals"),
    ("frontdoor", "uav_attacker", "--x", "Pilot", "--y", "UAV"),
    ("export", "titus", "--format", "dot", "--highlight-match", "lindberg", "--hint", "Agent=TM"),
)


# The paper's rideshare verdicts: raci with Accountable=Uber holds Uber's
# driver to account, the bare lindberg chain from Driver to Accident cannot.
PAPER_CASES = (
    ("check", "uber", "--pattern", "raci", "--hint", "Accountable=Uber"),
    ("check", "uber", "--pattern", "lindberg", "--hint", "Agent=Driver", "--hint", "Effect=Accident"),
    ("check", "uav_attacker", "--pattern", "lindberg", "--hint", "Agent=Pilot", "--hint", "Effect=UAV"),
)


def desk_commands(models) -> list[tuple[str, ...]]:
    """Every command of the desk pass, as argv tuples."""
    cmds = list(README_TOUR) + list(PAPER_CASES)
    for name, m in models.items():
        g = m.graph
        roots = [n.name for n in g.nodes if n.kind.is_root]
        observable = [n.name for n in g.nodes if n.kind.observable]
        endo = [n for n in g.names if g.parents(n)]
        last = g.names[-1]
        cmds += [
            ("validate", name),
            ("validate", name, "--format", "json"),
            ("export", name, "--format", "json"),
            ("export", name),
            ("eval", name, *(a for i, r in enumerate(roots) for a in ("--set", f"{r}={'true' if i % 2 == 0 else 'false'}"))),
            ("worlds", name),
            ("worlds", name, "--evidence", f"{last}=true"),
            ("do", name, "--set", f"{endo[0]}=true"),
            ("cf", name, "--evidence", f"{last}=true", "--do", f"{endo[0]}=false", "--query", ",".join(g.names[-2:])),
        ]
        for p in PATTERNS:
            cmds += [("match", name, "--pattern", p), ("check", name, "--pattern", p)]
        for x in observable:
            for y in observable:
                if x == y:
                    continue
                given = next(n for n in observable if n not in (x, y))
                cmds += [
                    ("identify", name, "--x", x, "--y", y),
                    ("backdoor", name, "--x", x, "--y", y),
                    ("frontdoor", name, "--x", x, "--y", y),
                    ("logset", name, "--x", x, "--y", y),
                    ("dsep", name, "--x", x, "--y", y, "--given", given),
                ]
    return cmds


def run_cli(main, argv) -> dict:
    """Run one CLI command in process, as a shell user would, capturing stdout.

    Exit codes follow the program's contract: 0, or the code of the
    ClickException or SystemExit the command ended with.
    """
    import click

    out = io.StringIO()
    code, err = 0, ""
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=list(argv), prog_name="causal-account", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except click.ClickException as exc:
            code, err = exc.exit_code, exc.format_message()
    return {"code": code, "out": out.getvalue(), "err": err}


def _build_desk() -> Workload:
    from causal_account import cli, models

    loaded = {name: models.load_model(name) for name in models.BUNDLED_MODELS}
    ops = [
        Op({"argv": list(argv)}, (lambda argv=argv: run_cli(cli.main, argv)), _same)
        for argv in desk_commands(loaded)
    ]
    return Workload("desk", ops, {"models": loaded})


# -- dag: identification on random DAGs ------------------------------------

DAG_SEEDS = range(40)
# Instances the program fails on today: x is a root, so {} adjusts, yet
# backdoor_paths lists every skeleton path first and hits the path cap.
DAG_FAULTS = ((18, 18, "n1", "n3"), (18, 18, "n1", "n2"))


def _descendants(g, x):
    out, todo = set(), [x]
    children: dict[str, list[str]] = {}
    for a, b in g.edges:
        children.setdefault(a, []).append(b)
    while todo:
        for c in children.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def dag_instance(seed: int):
    """(graph, x, y): n in 10..13, p = 0.3, x has a parent, y descends from x."""
    from gen import random_dag

    rng = random.Random(seed)
    g = random_dag(rng, rng.randint(10, 13), 0.3)
    has_parent = {b for _, b in g.edges}
    order = {name: i for i, name in enumerate(g.names)}
    treatments = [n for n in g.names if n in has_parent and _descendants(g, n)]
    x = rng.choice(treatments)
    y = rng.choice(sorted(_descendants(g, x), key=order.__getitem__))
    return g, x, y


def _dag_answer(result) -> dict:
    report, rec = result
    names = lambda zs: [sorted(z) for z in zs]  # noqa: E731
    return {
        "status": report.status.value,
        "paths": [str(p) for p in report.backdoor_paths],
        "backdoor": names(report.minimal_backdoor_sets),
        "frontdoor": names(report.frontdoor_sets),
        "must_log": sorted(rec.must_log) if rec else None,
        "adjust": sorted(rec.adjustment_set_used) if rec else None,
    }


def _build_dag() -> Workload:
    import causal_account as ca
    from gen import random_dag

    def op(g, x, y):
        report = ca.identify(g, x, y)
        try:
            rec = ca.logging_set(g, x, y)
        except ca.NotIdentifiable:
            rec = None
        return report, rec

    graphs, ops = [], []
    for seed in DAG_SEEDS:
        g, x, y = dag_instance(seed)
        ops.append(Op({"graph": len(graphs), "x": x, "y": y}, (lambda g=g, x=x, y=y: op(g, x, y)), _dag_answer))
        graphs.append(g)
    for seed, n, x, y in DAG_FAULTS:
        g = random_dag(random.Random(seed), n, 0.3)
        ops.append(
            Op({"graph": len(graphs), "x": x, "y": y, "fault": True}, (lambda g=g, x=x, y=y: op(g, x, y)), _dag_answer)
        )
        graphs.append(g)
    return Workload("dag", ops, {"graphs": graphs})


# -- audit: pattern matching and accountability checks ---------------------

AUDIT_SEEDS = range(1000, 1012)


def audit_graph(seed: int):
    """n in 12..16, p = 0.2."""
    from gen import random_dag

    rng = random.Random(seed)
    return random_dag(rng, rng.randint(12, 16), 0.2)


def _build_audit() -> Workload:
    import causal_account as ca

    def op(g, p):
        found = ca.match_pattern(g, p)
        return p, found, (ca.check_accountability(g, p, found[0]) if found else None)

    def answer(result) -> dict:
        p, found, report = result
        roles = p.role_names()
        return {
            "matches": [[m.binding[r] for r in roles] for m in found],
            "verdict": report.verdict.value if report else None,
            "status": report.identification.status.value if report else None,
            "adjust": sorted(report.logging.adjustment_set_used) if report and report.logging else None,
        }

    patterns = {name: ca.builtin_pattern(name) for name in PATTERNS}
    graphs, ops = [], []
    for seed in AUDIT_SEEDS:
        g = audit_graph(seed)
        for name, p in patterns.items():
            ops.append(Op({"graph": len(graphs), "pattern": name}, (lambda g=g, p=p: op(g, p)), answer))
        graphs.append(g)
    return Workload("audit", ops, {"graphs": graphs, "patterns": patterns})


# -- worlds: association and counterfactual queries ------------------------

# (generator seed, roots, endogenous nodes, queries); the queries are
# "none" (no evidence), "some" (evidence on two or three endogenous nodes),
# "cf" (counterfactual under that evidence) and "full" (counterfactual with
# every root observed). Most operations sit at 2^10 and 2^11 worlds so that
# a run times enough of them for a 90th percentile; one query per size up
# to 2^14 keeps the large end in the mix.
WORLD_MODELS = (
    (1, 10, 4, ("none", "some", "cf", "full")),
    (2, 10, 6, ("none", "some", "cf", "full")),
    (3, 10, 8, ("none", "some", "cf", "full")),
    (4, 10, 5, ("none", "some", "cf", "full")),
    (5, 11, 5, ("some", "cf", "full")),
    (6, 11, 7, ("none", "cf", "full")),
    (7, 12, 6, ("some", "cf")),
    (8, 13, 6, ("full",)),
    (9, 14, 6, ("none",)),
)


def world_query(wm, rng: random.Random, kind: str) -> dict:
    """Evidence drawn from an actual world, so no query is inconsistent."""
    u = {r: rng.choice((False, True)) for r in wm.roots}
    world = wm.evaluate(u)
    endo = list(wm.order[len(wm.roots):])
    if kind == "none":
        return {"evidence": {}}
    if kind == "full":
        evidence = u
    else:
        evidence = {n: world[n] for n in sorted(rng.sample(endo, min(3, len(endo))), key=endo.index)}
    if kind == "some":
        return {"evidence": evidence}
    target = rng.choice(endo[:-1])
    pinned = rng.choice([v for v in wm.domains[target].values if v != world[target]])
    downstream = endo[endo.index(target) + 1 :]
    return {"evidence": evidence, "do": {target: pinned}, "query": downstream[-2:]}


def _build_worlds() -> Workload:
    import causal_account as ca
    from gen import random_world_model

    def worlds_answer(result):
        return [[render(v) for v in w.values()] for w in result]

    def cf_answer(result):
        return {q: sorted(render(v) for v in vals) for q, vals in result.items()}

    models, ops = [], []
    for seed, n_roots, n_endo, kinds in WORLD_MODELS:
        rng = random.Random(seed)
        wm = random_world_model(rng, n_roots, n_endo, f"w{seed}")
        for kind in kinds:
            q = world_query(wm, rng, kind)
            spec = {"model": len(models), "kind": kind, **q}
            m = wm.scm
            if "do" in q:
                call = lambda m=m, q=q: ca.counterfactual(m, q["evidence"], q["do"], q["query"])  # noqa: E731
                ops.append(Op(spec, call, cf_answer))
            else:
                call = lambda m=m, q=q: ca.consistent_worlds(m, q["evidence"])  # noqa: E731
                ops.append(Op(spec, call, worlds_answer))
        models.append(wm)
    return Workload("worlds", ops, {"models": models})
