"""Record the CLI transcript that `test_transcript.py` replays.

    PYTHONPATH=src python tests/record_transcript.py

The transcript (`cli_transcript.jsonl`) pins the bytes of every command the
benchmark's `desk` workload runs (each bundled model and built-in pattern,
the README tour and the paper's verdicts) and of a list of usage errors that
must exit 2: malformed models and patterns, bad hints and bad values of
`CAUSAL_ACCOUNT_MAX_ENUM`, and of three `cf` refusals: the cap over a model
whose every root is requisite, contradictory evidence, and an intervention
on a root after consistent evidence. It also pins the help of the group and
of every command and each command run with no argument (at a fixed width of
80 columns), and the ways a MODEL or `--pattern` argument fails to load: a
missing model, after `export`'s own option checks, and a `.json` file that
holds the other kind of payload. It pins how a model or pattern whose
structure is malformed is refused (cycles, self-loops, edges into roots,
unknown endpoints, malformed proxies, cyclic templates, trailing input
after a label, a domain or a value named like a value or a domain, a
comparison of two values of a domain that no variable uses, a JSON
pattern whose constraints are not the ones its roles imply), that a
repeated JSON edge collapses, and which error wins in a model that holds
two. It pins, through the text and the JSON reader alike, the refusal of
each structure rule of the builders: a repeated role, a second Accountable
or Effect role, a self-loop and an unknown role in a template; a repeated
node, a table row of the wrong arity, parents that disagree with the edges,
and a proxy for a root or off its principal's domain in a model. Each such
refusal shows where the reader places it: at the line and column, or the
JSON path, of the node, edge, role or function the builder names. Its first
line holds the input files the commands read, by relative name; each
further line holds one command: argv, the environment it sets, exit code,
stdout and stderr. The argv list is written into the file, so the replay
needs nothing but the file.

Regenerate it only with a change meant to alter output, and say in
CHANGES.md which lines changed and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from click.testing import CliRunner

from causal_account import models
from causal_account.cli import main
from causal_account.limits import ENV_VAR
from causal_account.modelio import parse_model, to_json

HERE = Path(__file__).resolve().parent
TRANSCRIPT = HERE / "cli_transcript.jsonl"


def _json_model(nodes: list[tuple], edges: list[list[str]], functions=()) -> str:
    """A JSON model named g over boolean `nodes`, each (name, kind) or
    (name, kind, principal) for a proxy."""
    return json.dumps(
        {
            "format": "scm",
            "name": "g",
            "domains": [{"name": "bool", "values": [False, True]}],
            "nodes": [
                {"name": n[0], "kind": n[1], "domain": "bool", "proxy_for": (n[2:] or [None])[0]}
                for n in nodes
            ],
            "edges": edges,
            "functions": list(functions),
        }
    )


def _json_pattern(roles: list[tuple[str, str]], edges: list[list[str]]) -> str:
    """A JSON pattern named bad over (name, kind) `roles`."""
    return json.dumps(
        {
            "format": "pattern",
            "name": "bad",
            "roles": [{"name": name, "kind": kind} for name, kind in roles],
            "edges": edges,
        }
    )


FILES = {
    "bad_char.scm.txt": "model bad\nexo A : bool\nvar B : bool = A $ A\n",
    "bad_ref.scm.txt": "model bad\nexo A : bool\nvar B : bool = A & C\n",
    "forward_ref.scm.txt": "model bad\nvar A : bool <- B\nvar B : bool <- A\n",
    "bad_edge.pat.txt": "pattern bad\nrole Agent : Agent\nrole Effect : Effect\nedge Agent -> Nobody\n",
    "bad_kind.pat.txt": "pattern bad\nrole Agent : Hero\n",
    "tiny.json": to_json(parse_model("model tiny\nexo A : bool\nvar B : bool = !A\n")),
    "lindberg.json": to_json(models.load_pattern("lindberg")),
    "two_cycle.json": _json_model(
        [("A", "endogenous"), ("B", "endogenous")], [["A", "B"], ["B", "A"]]
    ),
    "stuck_on_cycle.json": _json_model(
        [("A", "exogenous"), ("B", "endogenous"), ("C", "endogenous"), ("D", "endogenous")],
        [["A", "B"], ["B", "C"], ["C", "B"], ["C", "D"]],
    ),
    "domain_like_value.scm.txt": "model bad\ndomain color { red, green }\ndomain red { a, b }\n",
    "value_like_domain.scm.txt": "model bad\ndomain x { bool, other }\n",
    "below_cycle.json": _json_model(
        [("D", "endogenous"), ("B", "endogenous"), ("C", "endogenous")],
        [["B", "C"], ["C", "B"], ["C", "D"]],
    ),
    "self_loop.json": _json_model([("A", "endogenous")], [["A", "A"]]),
    "into_root.json": _json_model([("A", "exogenous"), ("B", "exogenous")], [["A", "B"]]),
    "unknown_endpoint.json": _json_model([("A", "exogenous")], [["A", "Z"]]),
    "proxy_unknown.json": _json_model([("P", "endogenous", "L")], []),
    "proxy_not_latent.json": _json_model(
        [("L", "exogenous"), ("P", "endogenous", "L")], [["L", "P"]]
    ),
    "proxy_two_parents.json": _json_model(
        [("L", "latent"), ("A", "exogenous"), ("P", "endogenous", "L")],
        [["L", "P"], ["A", "P"]],
    ),
    "repeated_edge.json": _json_model(
        [("A", "exogenous"), ("B", "endogenous")],
        [["A", "B"], ["A", "B"]],
        [{"target": "B", "parents": ["A"], "body": None}],
    ),
    "cycle.pat.txt": "pattern loop\nrole Agent : Agent\nrole Effect : Effect\n"
    "edge Agent -> Effect\nedge Effect -> Agent\n",
    "cycle_pat.json": json.dumps(
        {
            "format": "pattern",
            "name": "loop",
            "roles": [{"name": "Agent", "kind": "Agent"}, {"name": "Effect", "kind": "Effect"}],
            "edges": [["Agent", "Effect"], ["Effect", "Agent"]],
        }
    ),
    "bogus_constraints.json": json.dumps(
        {
            **json.loads(to_json(models.load_pattern("lindberg"))),
            "constraints": ["unique-accountable", "bogus"],
        }
    ),
    "trailing_exo.scm.txt": 'model bad\nexo A : bool label "a" extra\n',
    "trailing_latent.scm.txt": 'model bad\nlatent A : bool label "a" B\n',
    "trailing_var.scm.txt": 'model bad\nexo A : bool\nvar B : bool label "b" A\n',
    # `slow == slow` compares values of a domain that no variable uses
    "unused_domain.scm.txt": "model bad\ndomain Speed { slow, fast }\nexo A : bool\n"
    "var X : bool = slow == slow\n",
    # two errors each: an ill-typed body on line 4 or 5, then a later line
    # refused or an earlier comparison of values no variable uses
    "two_errors_syntax.scm.txt": "model bad\ndomain Level { lo, hi }\nexo A : bool\n"
    "var B : bool = A == lo\nvar C : bool = A &\n",
    "two_errors_redeclared.scm.txt": "model bad\ndomain Level { lo, hi }\nexo A : bool\n"
    "var B : bool = A == lo\nexo A : bool\n",
    "two_errors_unused.scm.txt": "model bad\ndomain Speed { slow, fast }\n"
    "domain Level { lo, hi }\nexo A : bool\nvar B : bool = (slow == fast) | (A == lo)\n",
    "repeat_role.pat.txt": "pattern bad\nrole Agent : Agent\nrole Effect : Effect\n"
    "role Agent : Mediator\nedge Agent -> Effect\n",
    "two_accountable.pat.txt": "pattern bad\nrole Boss : Accountable\nrole Agent : Agent\n"
    "role Chief : Accountable\nrole Effect : Effect\nedge Agent -> Effect\n",
    "two_effects.pat.txt": "pattern bad\nrole Agent : Agent\nrole Effect : Effect\n"
    "role Harm : Effect\nedge Agent -> Effect\n",
    "self_loop.pat.txt": "pattern bad\nrole Agent : Agent\nrole Effect : Effect\n"
    "edge Agent -> Effect\nedge Effect -> Effect\n",
    "repeat_role_pat.json": _json_pattern(
        [("Agent", "Agent"), ("Effect", "Effect"), ("Agent", "Mediator")], [["Agent", "Effect"]]
    ),
    "two_accountable_pat.json": _json_pattern(
        [("Boss", "Accountable"), ("Agent", "Agent"), ("Chief", "Accountable"), ("Effect", "Effect")],
        [["Agent", "Effect"]],
    ),
    "two_effects_pat.json": _json_pattern(
        [("Agent", "Agent"), ("Effect", "Effect"), ("Harm", "Effect")], [["Agent", "Effect"]]
    ),
    "self_loop_pat.json": _json_pattern(
        [("Agent", "Agent"), ("Effect", "Effect")], [["Agent", "Effect"], ["Effect", "Effect"]]
    ),
    "unknown_role_pat.json": _json_pattern(
        [("Agent", "Agent"), ("Effect", "Effect")], [["Agent", "Effect"], ["Agent", "Nobody"]]
    ),
    "duplicate_node.json": _json_model(
        [("A", "exogenous"), ("B", "endogenous"), ("A", "exogenous")],
        [["A", "B"]],
        [{"target": "B", "parents": ["A"], "body": None}],
    ),
    "table_arity.json": _json_model(
        [("A", "exogenous"), ("B", "endogenous")],
        [["A", "B"]],
        [
            {
                "target": "B",
                "parents": ["A"],
                "body": {"op": "table", "rows": [{"inputs": [True, False], "output": True}]},
            }
        ],
    ),
    "parents_disagree.json": _json_model(
        [("A", "exogenous"), ("C", "exogenous"), ("B", "endogenous")],
        [["A", "B"]],
        [{"target": "B", "parents": ["C"], "body": None}],
    ),
    "proxy_domain.json": json.dumps(
        {
            "format": "scm",
            "name": "g",
            "domains": [
                {"name": "bool", "values": [False, True]},
                {"name": "Level", "values": ["lo", "hi"]},
            ],
            "nodes": [
                {"name": "L", "kind": "latent", "domain": "Level"},
                {"name": "P", "kind": "endogenous", "domain": "bool", "proxy_for": "L"},
            ],
            "edges": [["L", "P"]],
            "functions": [{"target": "P", "parents": ["L"], "body": None}],
        }
    ),
    "proxy_exo.scm.txt": "model bad\nexo A : bool\nproxy P for A\n",
    "redeclared_then_syntax.scm.txt": "model bad\nexo A : bool\nexo A : bool\nvar B : bool = A &\n",
    "unused_domain.json": json.dumps(
        {
            "format": "scm",
            "name": "bad",
            "domains": [
                {"name": "bool", "values": [False, True]},
                {"name": "Speed", "values": ["slow", "fast"]},
            ],
            "nodes": [
                {"name": "A", "kind": "exogenous", "domain": "bool"},
                {"name": "X", "kind": "endogenous", "domain": "bool"},
            ],
            "edges": [],
            "functions": [
                {
                    "target": "X",
                    "parents": [],
                    "body": {
                        "op": "eq",
                        "a": {"op": "lit", "value": "slow"},
                        "b": {"op": "lit", "value": "slow"},
                    },
                }
            ],
        }
    ),
}

USAGE_ERRORS: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = (
    ({}, ("validate", "bad_char.scm.txt")),
    ({}, ("validate", "bad_ref.scm.txt")),
    ({}, ("identify", "forward_ref.scm.txt", "--x", "A", "--y", "B")),
    ({}, ("match", "titus", "--pattern", "bad_edge.pat.txt")),
    ({}, ("check", "uber", "--pattern", "bad_kind.pat.txt")),
    ({}, ("check", "uber", "--pattern", "raci", "--hint", "Accountable")),
    ({}, ("check", "uber", "--pattern", "raci", "--hint", "=Uber")),
    ({}, ("check", "uber", "--pattern", "raci", "--hint", "Nobody=Uber")),
    ({}, ("match", "uber", "--pattern", "raci", "--hint", "Accountable=Nobody")),
    ({}, ("match", "uber", "--pattern", "raci", "--hint", "Accountable=Uber", "--hint", "Accountable=Driver")),
    ({ENV_VAR: "abc"}, ("worlds", "titus")),
    ({ENV_VAR: "-1"}, ("backdoor", "uber", "--x", "Driver", "--y", "Accident")),
    ({ENV_VAR: "1.5"}, ("identify", "uber", "--x", "Driver", "--y", "Accident")),
)

# counterfactual refusals: the order of the cap, the evidence and the
# intervention checks shows in which message wins
CF_REFUSALS: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = (
    ({ENV_VAR: "1"}, ("cf", "uav_weather", "--evidence", "UAVCrash=true", "--do", "Pilot=false", "--query", "UAVCrash")),
    ({}, ("cf", "titus", "--evidence", "I=false", "--evidence", "BD=true", "--do", "TM=false", "--query", "BD")),
    ({}, ("cf", "titus", "--evidence", "BD=true", "--do", "I=false", "--query", "BD")),
)

# model and pattern arguments that fail to load; `./tiny.json` is reported
# as typed
LOADING_ERRORS: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = (
    ({}, ("export", "nosuch.scm.txt", "--format", "json", "--highlight-match", "lindberg")),
    ({}, ("backdoor", "nosuch.scm.txt", "--x", "A", "--y", "B")),
    ({}, ("frontdoor", "nosuch.scm.txt", "--x", "A", "--y", "B")),
    ({}, ("match", "titus", "--pattern", "./tiny.json")),
    ({}, ("validate", "lindberg.json")),
)

# models and patterns refused for their structure: by `build_graph` (JSON
# models), by `build_pattern` (cyclic templates), or by the line parser
STRUCTURE_ERRORS: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = tuple(
    ({}, ("validate", name))
    for name in (
        "two_cycle.json",
        "stuck_on_cycle.json",
        "self_loop.json",
        "into_root.json",
        "unknown_endpoint.json",
        "proxy_unknown.json",
        "proxy_not_latent.json",
        "proxy_two_parents.json",
        "trailing_exo.scm.txt",
        "trailing_latent.scm.txt",
        "trailing_var.scm.txt",
        "below_cycle.json",
        "domain_like_value.scm.txt",
        "value_like_domain.scm.txt",
        "unused_domain.scm.txt",
        "unused_domain.json",
    )
) + (
    ({}, ("match", "titus", "--pattern", "cycle.pat.txt")),
    ({}, ("match", "titus", "--pattern", "cycle_pat.json")),
)

# a repeated JSON edge collapses into one
COLLAPSED_EDGES: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = (
    ({}, ("validate", "repeated_edge.json", "--format", "json")),
)

# a JSON pattern whose constraints are not the ones its roles imply is refused
PATTERN_CONSTRAINTS: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = (
    ({}, ("match", "titus", "--pattern", "bogus_constraints.json")),
)

# models with two errors: which one is reported shows the order of the checks
TWO_ERRORS: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = tuple(
    ({}, ("validate", name))
    for name in (
        "two_errors_syntax.scm.txt",
        "two_errors_redeclared.scm.txt",
        "two_errors_unused.scm.txt",
    )
)

# models and patterns that break one of the builders' structure rules,
# through both readers; the last model also breaks the syntax on a later line
BUILDER_ERRORS: tuple[tuple[dict[str, str], tuple[str, ...]], ...] = tuple(
    ({}, ("match", "titus", "--pattern", name))
    for name in (
        "repeat_role.pat.txt",
        "two_accountable.pat.txt",
        "two_effects.pat.txt",
        "self_loop.pat.txt",
        "repeat_role_pat.json",
        "two_accountable_pat.json",
        "two_effects_pat.json",
        "self_loop_pat.json",
        "unknown_role_pat.json",
    )
) + tuple(
    ({}, ("validate", name))
    for name in (
        "duplicate_node.json",
        "table_arity.json",
        "parents_disagree.json",
        "proxy_domain.json",
        "proxy_exo.scm.txt",
        "redeclared_then_syntax.scm.txt",
    )
)


def help_and_usage() -> list[tuple[dict[str, str], tuple[str, ...]]]:
    """`--help` of the group and of each command, then each command with
    no argument, at 80 columns whatever the terminal."""
    width = {"COLUMNS": "80"}
    names = sorted(main.commands)
    return (
        [(width, ("--help",))]
        + [(width, (name, "--help")) for name in names]
        + [(width, ())]
        + [(width, (name,)) for name in names]
    )


def invoke(runner: CliRunner, argv, env) -> dict:
    """Run one command as a shell user would, stdout and stderr apart; the
    cap variable is unset unless `env` sets it."""
    res = runner.invoke(main, list(argv), env={ENV_VAR: None, **env}, catch_exceptions=False)
    return {"code": res.exit_code, "stdout": res.stdout, "stderr": res.stderr}


def commands() -> list[tuple[dict[str, str], tuple[str, ...]]]:
    sys.dont_write_bytecode = True  # leave bench/ untouched
    sys.path.insert(0, str(HERE.parent / "bench"))
    from workloads import desk_commands

    loaded = {name: models.load_model(name) for name in models.BUNDLED_MODELS}
    return (
        [({}, argv) for argv in desk_commands(loaded)]
        + list(USAGE_ERRORS)
        + list(CF_REFUSALS)
        + list(LOADING_ERRORS)
        + help_and_usage()
        + list(STRUCTURE_ERRORS)
        + list(COLLAPSED_EDGES)
        + list(PATTERN_CONSTRAINTS)
        + list(TWO_ERRORS)
        + list(BUILDER_ERRORS)
    )


def record() -> None:
    runner = CliRunner()
    lines = [json.dumps({"files": FILES})]
    with runner.isolated_filesystem():
        for name, text in FILES.items():
            Path(name).write_text(text, encoding="utf-8")
        for env, argv in commands():
            entry = {"argv": list(argv), "env": env, **invoke(runner, argv, env)}
            refused = (
                USAGE_ERRORS
                + LOADING_ERRORS
                + STRUCTURE_ERRORS
                + PATTERN_CONSTRAINTS
                + TWO_ERRORS
                + BUILDER_ERRORS
            )
            if (env, argv) in refused and entry["code"] != 2:
                raise SystemExit(f"expected exit 2 from {argv}, got {entry['code']}")
            if (env, argv) in CF_REFUSALS and entry["code"] == 0:
                raise SystemExit(f"expected a refusal from {argv}, got exit 0")
            lines.append(json.dumps(entry, ensure_ascii=False))
    TRANSCRIPT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines) - 1} commands written to {TRANSCRIPT}")


if __name__ == "__main__":
    record()
