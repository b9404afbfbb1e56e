"""End-to-end tests for the command line interface.

Every assertion here but two goes through click's CliRunner, so stdout,
stderr, and exit codes are checked exactly as a shell user would see them.
The two exceptions launch `python -m causal_account` in a fresh process,
once with the test-only dependencies blocked.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import causal_account
from causal_account import (
    AccountabilityReport,
    Domain,
    IdentificationReport,
    Ref,
    StructuralFunction,
    build_graph,
    build_scm,
    builtin_pattern,
    check_accountability,
    from_json,
    identify,
    intervene,
    match_pattern,
    parse_model,
    to_dot,
    to_json,
)
from causal_account.cli import main
from causal_account.models import BUNDLED_MODELS, load_model, model_text, pattern_text
from causal_account.scm import world_count

from oracles import brute_consistent_worlds, random_dag, render_assignment


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


@pytest.fixture()
def dag18(tmp_path):
    """random_dag(Random(1), 18, 0.3) as a structure-only model file: more
    than 100,000 back-door paths run from n6 to n9."""
    g = random_dag(random.Random(1), 18, 0.3)
    lines = ["model dag18"]
    for node in g.nodes:
        if node.kind.value == "exogenous":
            lines.append(f"exo {node.name} : bool")
        elif g.parents(node.name):
            lines.append(f"var {node.name} : bool <- " + ", ".join(g.parents(node.name)))
        else:
            lines.append(f"var {node.name} : bool")
    path = tmp_path / "dag18.scm.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_python(*args):
    """Run the interpreter in a fresh process that imports this package."""
    src = str(Path(causal_account.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def assert_usage_error(res, message):
    """Exit 2 with `message` on the one error line, and no traceback."""
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert [line for line in lines if line.startswith("Error:")] == [f"Error: {message}"]


class TestVersionAndHelp:
    def test_version(self, runner):
        res = invoke(runner, "--version")
        assert res.exit_code == 0
        assert res.stdout == "causal-account, version 0.1.0\n"

    def test_help_lists_subcommands(self, runner):
        res = invoke(runner, "--help")
        assert res.exit_code == 0
        for name in (
            "validate",
            "eval",
            "worlds",
            "do",
            "cf",
            "dsep",
            "backdoor",
            "frontdoor",
            "identify",
            "logset",
            "match",
            "check",
            "export",
        ):
            assert name in res.stdout

    def test_no_args_shows_usage(self, runner):
        res = invoke(runner)
        assert res.exit_code == 2

    def test_runs_as_a_module(self):
        res = run_python("-m", "causal_account", "validate", "titus")
        assert res.returncode == 0, res.stderr
        assert res.stdout == "ok: model titus (4 node(s), 3 edge(s))\n"

    def test_runs_without_the_test_dependencies(self):
        # click is the one runtime dependency
        res = run_python(
            "-c",
            "import runpy, sys\n"
            "for name in ('networkx', 'hypothesis', 'pytest'):\n"
            "    sys.modules[name] = None\n"
            "sys.argv = ['causal_account', 'eval', 'titus', '--set', 'I=true']\n"
            "runpy.run_module('causal_account', run_name='__main__', alter_sys=True)\n",
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "I=true\nTM=true\nED=true\nBD=true\n"


class TestValidate:
    def test_bundled_model(self, runner):
        res = invoke(runner, "validate", "titus")
        assert res.exit_code == 0
        assert res.stdout == "ok: model titus (4 node(s), 3 edge(s))\n"

    def test_json_format_is_canonical(self, runner):
        res = invoke(runner, "validate", "uber", "--format", "json")
        assert res.exit_code == 0
        assert res.stdout == to_json(load_model("uber"))

    def test_structure_only_variables_reported(self, runner, tmp_path):
        path = tmp_path / "skeleton.txt"
        path.write_text(
            "model skeleton\n"
            "exo A : bool\n"
            "var B : bool <- A\n"
            "var C : bool = B\n"
        )
        res = invoke(runner, "validate", str(path))
        assert res.exit_code == 0
        assert res.stdout == (
            "ok: model skeleton (3 node(s), 2 edge(s))\n"
            "structure-only: B\n"
        )

    def test_empty_node_name_is_schema_error(self, runner, tmp_path):
        payload = json.loads(to_json(load_model("titus")))
        payload["nodes"].append({"name": "", "kind": "exogenous", "domain": "bool"})
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(payload))
        res = invoke(runner, "validate", str(path))
        assert_usage_error(res, "$.nodes[4]: invalid node name ''")

    def test_unknown_name_usage_error(self, runner):
        res = invoke(runner, "validate", "nope")
        assert res.exit_code == 2
        assert "'nope' is neither a model file nor a bundled model name" in res.stderr
        assert "titus" in res.stderr

    def test_model_from_dsl_file(self, runner, tmp_path):
        path = tmp_path / "copy.txt"
        path.write_text(model_text("titus"))
        res = invoke(runner, "validate", str(path))
        assert res.exit_code == 0
        assert res.stdout == "ok: model titus (4 node(s), 3 edge(s))\n"

    def test_model_from_json_file(self, runner, tmp_path):
        path = tmp_path / "copy.json"
        path.write_text(to_json(load_model("uav_weather")))
        res = invoke(runner, "validate", str(path))
        assert res.exit_code == 0
        assert res.stdout == "ok: model uav_weather (8 node(s), 8 edge(s))\n"

    def test_json_file_with_wrong_payload(self, runner, tmp_path):
        path = tmp_path / "pattern.json"
        path.write_text(to_json(builtin_pattern("raci")))
        res = invoke(runner, "validate", str(path))
        assert res.exit_code == 2
        assert "does not contain a model" in res.stderr

    def test_parse_error_reports_position(self, runner, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("model broken\nexo A bool\n")
        res = invoke(runner, "validate", str(path))
        assert res.exit_code == 2
        assert "line 2" in res.stderr


class TestEval:
    def test_full_assignment(self, runner):
        res = invoke(runner, "eval", "titus", "--set", "I=true")
        assert res.exit_code == 0
        assert res.stdout == "I=true\nTM=true\nED=true\nBD=true\n"

    def test_string_domain_values(self, runner, tmp_path):
        path = tmp_path / "speed.txt"
        path.write_text(
            "model speed\n"
            "domain level { low, high }\n"
            "exo S : level\n"
            "var Fast : bool = S == high\n"
        )
        res = invoke(runner, "eval", str(path), "--set", "S=high")
        assert res.exit_code == 0
        assert res.stdout == "S=high\nFast=true\n"

    def test_bool_valued_domain_of_another_name(self, runner, tmp_path):
        # values are read by the text they are written as, whatever the domain's name
        flag = Domain("flag", (False, True))
        graph = build_graph([("S", "exogenous"), ("Y", "endogenous")], [("S", "Y")])
        m = build_scm(graph, {"S": flag, "Y": flag}, {"Y": StructuralFunction("Y", ("S",), Ref("S"))})
        path = tmp_path / "flag.json"
        path.write_text(to_json(m))
        res = invoke(runner, "worlds", str(path))
        assert (res.exit_code, res.stdout) == (0, "worlds: 2\nS=false Y=false\nS=true Y=true\n")
        res = invoke(runner, "eval", str(path), "--set", "S=true")
        assert (res.exit_code, res.stdout) == (0, "S=true\nY=true\n")
        res = invoke(runner, "cf", str(path), "--evidence", "Y=true", "--query", "S")
        assert (res.exit_code, res.stdout) == (0, "S=true\n")
        res = invoke(runner, "eval", str(path), "--set", "S=True")
        assert res.exit_code == 2
        assert "'True' is not a value of domain flag (false, true)" in res.stderr

    def test_non_root_is_usage_error(self, runner):
        res = invoke(runner, "eval", "titus", "--set", "I=true", "--set", "TM=false")
        assert_usage_error(res, "root assignment sets non-root variable(s): TM")

    def test_missing_root_is_usage_error(self, runner):
        res = invoke(runner, "eval", "titus")
        assert res.exit_code == 2
        assert "missing value(s) for I" in res.stderr

    def test_out_of_domain_value(self, runner):
        res = invoke(runner, "eval", "titus", "--set", "I=maybe")
        assert res.exit_code == 2
        assert "'maybe' is not a value of domain bool (false, true)" in res.stderr

    def test_malformed_binding(self, runner):
        res = invoke(runner, "eval", "titus", "--set", "I")
        assert res.exit_code == 2
        assert "--set must look like NAME=VALUE, got 'I'" in res.stderr

    def test_duplicate_binding(self, runner):
        res = invoke(runner, "eval", "titus", "--set", "I=true", "--set", "I=false")
        assert res.exit_code == 2
        assert "I" in res.stderr


class TestWorlds:
    def test_all_worlds(self, runner):
        res = invoke(runner, "worlds", "titus")
        assert res.exit_code == 0
        assert res.stdout == (
            "worlds: 2\n"
            "I=false TM=false ED=false BD=false\n"
            "I=true TM=true ED=true BD=true\n"
        )

    def test_evidence_filters(self, runner):
        res = invoke(runner, "worlds", "titus", "--evidence", "BD=true")
        assert res.exit_code == 0
        assert res.stdout == "worlds: 1\nI=true TM=true ED=true BD=true\n"

    def test_contradictory_evidence_yields_zero(self, runner):
        res = invoke(
            runner,
            "worlds",
            "titus",
            "--evidence",
            "I=true",
            "--evidence",
            "BD=false",
        )
        assert res.exit_code == 0
        assert res.stdout == "worlds: 0\n"

    def test_enumeration_cap(self, runner, monkeypatch):
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "1")
        res = invoke(runner, "worlds", "uav_weather")
        assert res.exit_code == 1
        assert "Error:" in res.stderr
        assert res.stdout == ""

    def test_malformed_cap_is_usage_error(self, runner, monkeypatch):
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "abc")
        res = invoke(runner, "worlds", "titus")
        assert_usage_error(res, "CAUSAL_ACCOUNT_MAX_ENUM must be an integer, got 'abc'")
        assert res.stdout == ""

    def test_worlds_stream_without_a_list(self, runner, monkeypatch):
        def refuse(*args):
            raise AssertionError("worlds are listed, not streamed")

        for module in (causal_account, causal_account.scm, causal_account.cli):
            monkeypatch.setattr(module, "consistent_worlds", refuse, raising=False)
        res = invoke(runner, "worlds", "titus", "--evidence", "BD=true")
        assert res.exit_code == 0
        assert res.stdout == "worlds: 1\nI=true TM=true ED=true BD=true\n"

    def test_structure_only_fails_before_the_count(self, runner, tmp_path):
        path = tmp_path / "m.scm.txt"
        path.write_text("model m\nexo A : bool\nvar B : bool <- A\n")
        res = invoke(runner, "worlds", str(path))
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "structure-only" in res.stderr


# 2^12 worlds: twelve boolean roots, with boolean and three-valued variables
GENERATED_TEXT = "\n".join(
    ["model gen12", "domain level { low, mid, high }"]
    + [f"exo r{i} : bool" for i in range(1, 13)]
    + [
        "var a : bool = r1 & !r2 | r3",
        "var b : level = if a then high else if r4 == r5 then mid else low",
        "var c : bool = b == mid | r6 & r7",
        "var d : level = if c then b else if r8 then low else high",
        "var e : bool = !(d == high) & (r9 | r10) | r11 == r12",
    ]
)


class TestWorldOutput:
    """`worlds` and `do --then eval` print every world as the reference
    renderer does, in the order of the per-world oracle."""

    @staticmethod
    def lines(m, worlds) -> str:
        return "".join(render_assignment(m, w) + "\n" for w in worlds)

    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("name", [*BUNDLED_MODELS, "generated"])
    def test_worlds_and_do_bytes(self, runner, tmp_path, monkeypatch, name, batch):
        if batch is not None:
            monkeypatch.setattr(causal_account.cli, "_ECHO_LINES", batch)
        if name == "generated":
            spec = str(tmp_path / "gen12.scm.txt")
            Path(spec).write_text(GENERATED_TEXT)
            m = parse_model(GENERATED_TEXT)
            assert world_count(m) == 2**12
        else:
            spec, m = name, load_model(name)
        every = brute_consistent_worlds(m, {})
        res = invoke(runner, "worlds", spec)
        assert (res.exit_code, res.stderr) == (0, "")
        assert res.stdout == f"worlds: {len(every)}\n" + self.lines(m, every)

        last = m.endogenous_names[-1]
        for value in m.domains[last].values:
            evidence = {last: value}
            expected = brute_consistent_worlds(m, evidence)
            res = invoke(
                runner, "worlds", spec, "--evidence", f"{last}={m.domains[last].render(value)}"
            )
            assert (res.exit_code, res.stderr) == (0, "")
            assert res.stdout == f"worlds: {len(expected)}\n" + self.lines(m, expected)

        target = m.endogenous_names[0]
        value = m.domains[target].values[-1]
        mutilated = intervene(m, {target: value})
        res = invoke(
            runner, "do", spec, "--set", f"{target}={m.domains[target].render(value)}"
        )
        assert (res.exit_code, res.stderr) == (0, "")
        assert res.stdout == self.lines(mutilated, brute_consistent_worlds(mutilated, {}))


class TestDo:
    def test_then_eval_enumerates_roots(self, runner):
        res = invoke(runner, "do", "titus", "--set", "ED=true", "--then", "eval")
        assert res.exit_code == 0
        assert res.stdout == (
            "I=false TM=false ED=true BD=true\n"
            "I=true TM=true ED=true BD=true\n"
        )

    def test_then_export_prints_mutilated_graph(self, runner):
        res = invoke(runner, "do", "titus", "--set", "ED=true", "--then", "export")
        assert res.exit_code == 0
        assert "TM -> ED;" not in res.stdout
        assert "ED -> BD;" in res.stdout
        assert res.stdout.startswith("digraph titus {\n")

    def test_intervening_on_root_is_usage_error(self, runner):
        res = invoke(runner, "do", "titus", "--set", "I=true", "--then", "eval")
        assert res.exit_code == 2
        assert "I is exogenous" in res.stderr

    def test_set_is_required(self, runner):
        res = invoke(runner, "do", "titus", "--then", "eval")
        assert res.exit_code == 2

    def test_cap_outranks_structure_only_function(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "skeleton.txt"
        path.write_text(
            "model skeleton\n"
            "exo A : bool\n"
            "exo B : bool\n"
            "var C : bool <- A, B\n"
            "var D : bool = A\n"
        )
        res = invoke(runner, "do", str(path), "--set", "D=true")
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == "Error: variable C is declared structure-only\n"
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "1")
        res = invoke(runner, "do", str(path), "--set", "D=true")
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == (
            "Error: 4 root combinations exceed the cap of 2^1 "
            "(override with CAUSAL_ACCOUNT_MAX_ENUM)\n"
        )


class TestCf:
    def test_worked_example(self, runner):
        res = invoke(
            runner,
            "cf",
            "titus",
            "--evidence",
            "BD=true",
            "--do",
            "TM=false",
            "--query",
            "ED,BD",
        )
        assert res.exit_code == 0
        assert res.stdout == "ED=false BD=false\n"

    def test_ambiguous_value_renders_as_set(self, runner):
        res = invoke(
            runner, "cf", "uav_attacker", "--evidence", "UAV=true", "--query", "Pilot"
        )
        assert res.exit_code == 0
        assert res.stdout == "Pilot={false, true}\n"

    def test_inconsistent_evidence_fails(self, runner):
        res = invoke(
            runner,
            "cf",
            "titus",
            "--evidence",
            "I=true",
            "--evidence",
            "ED=false",
            "--query",
            "BD",
        )
        assert res.exit_code == 1
        assert "no root assignment is consistent with the evidence" in res.stderr

    def test_empty_query_rejected(self, runner):
        res = invoke(runner, "cf", "titus", "--evidence", "BD=true", "--query", ",")
        assert res.exit_code == 2

    def test_unknown_query_node(self, runner):
        res = invoke(runner, "cf", "titus", "--evidence", "BD=true", "--query", "ZZ")
        assert res.exit_code == 2
        assert "ZZ" in res.stderr


class TestDsep:
    def test_separated(self, runner):
        res = invoke(runner, "dsep", "uav_weather", "--x", "Pilot", "--y", "Permission")
        assert res.exit_code == 0
        assert res.stdout == "d-separated: true\n"

    def test_collider_conditioning_connects(self, runner):
        res = invoke(
            runner,
            "dsep",
            "uav_weather",
            "--x",
            "Pilot",
            "--y",
            "Permission",
            "--given",
            "TakeOff",
        )
        assert res.exit_code == 0
        assert res.stdout == "d-separated: false\n"

    def test_multi_node_sets(self, runner):
        res = invoke(
            runner,
            "dsep",
            "uav_weather",
            "--x",
            "Pilot,Permission",
            "--y",
            "UAVCrash",
            "--given",
            "TakeOff,Weather",
        )
        assert res.exit_code == 0
        assert res.stdout in ("d-separated: true\n", "d-separated: false\n")

    @pytest.mark.parametrize(
        "x, y, flag",
        [
            ("", "Pilot", "--x"),
            (",", "Pilot", "--x"),
            ("Pilot", "", "--y"),
            ("Pilot", " , ", "--y"),
        ],
    )
    def test_empty_set_is_usage_error(self, runner, x, y, flag):
        res = invoke(runner, "dsep", "uav_weather", "--x", x, "--y", y)
        assert_usage_error(res, f"{flag} needs at least one variable name")

    def test_overlap_is_usage_error(self, runner):
        res = invoke(
            runner,
            "dsep",
            "titus",
            "--x",
            "TM",
            "--y",
            "BD",
            "--given",
            "TM",
        )
        assert res.exit_code == 2


class TestBackdoor:
    def test_enumerates_minimal_sets_in_order(self, runner):
        res = invoke(runner, "backdoor", "uber", "--x", "Driver", "--y", "Accident")
        assert res.exit_code == 0
        assert res.stdout == "{Uber}\n{Developers}\n{EmergencyBrakingDisabled}\n"

    def test_negative_cap_is_usage_error(self, runner, monkeypatch):
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "-1")
        res = invoke(runner, "backdoor", "uber", "--x", "Driver", "--y", "Accident")
        assert_usage_error(res, "CAUSAL_ACCOUNT_MAX_ENUM must be non-negative, got -1")

    def test_empty_set_when_no_backdoor_paths(self, runner):
        res = invoke(runner, "backdoor", "titus", "--x", "TM", "--y", "ED")
        assert res.exit_code == 0
        assert res.stdout == "{}\n"

    def test_none_when_latent_confounder_blocks_everything(self, runner):
        res = invoke(runner, "backdoor", "uav_attacker", "--x", "Pilot", "--y", "UAV")
        assert res.exit_code == 0
        assert res.stdout == "none\n"

    def test_explicit_set_accepted(self, runner):
        res = invoke(
            runner, "backdoor", "uber", "--x", "Driver", "--y", "Accident", "--z", "Uber"
        )
        assert res.exit_code == 0
        assert res.stdout == "satisfies backdoor: true\n"

    def test_explicit_set_rejected(self, runner):
        res = invoke(
            runner,
            "backdoor",
            "uber",
            "--x",
            "Driver",
            "--y",
            "Accident",
            "--z",
            "Manuals",
        )
        assert res.exit_code == 0
        assert res.stdout == "satisfies backdoor: false\n"

    def test_endpoint_overlap_is_usage_error(self, runner):
        res = invoke(runner, "backdoor", "titus", "--x", "TM", "--y", "TM")
        assert res.exit_code == 2

    @pytest.mark.parametrize("command", ["backdoor", "frontdoor"])
    def test_same_endpoints_with_a_set_is_usage_error(self, runner, command):
        # Attacker is latent, which alone would answer false
        res = invoke(
            runner,
            command,
            "uav_attacker",
            "--x",
            "Pilot",
            "--y",
            "Pilot",
            "--z",
            "Attacker",
        )
        assert_usage_error(res, "path endpoints must differ")


class TestFrontdoor:
    def test_enumerates_sets(self, runner):
        res = invoke(runner, "frontdoor", "uav_attacker", "--x", "Pilot", "--y", "UAV")
        assert res.exit_code == 0
        assert res.stdout == "{RC}\n"

    def test_none_without_mediator(self, runner):
        res = invoke(runner, "frontdoor", "titus", "--x", "I", "--y", "TM")
        assert res.exit_code == 0
        assert res.stdout == "none\n"

    def test_explicit_set(self, runner):
        res = invoke(
            runner,
            "frontdoor",
            "uav_attacker",
            "--x",
            "Pilot",
            "--y",
            "UAV",
            "--z",
            "RC",
        )
        assert res.exit_code == 0
        assert res.stdout == "satisfies frontdoor: true\n"

    def test_endpoint_errors_are_usage_errors(self, runner):
        res = invoke(runner, "frontdoor", "titus", "--x", "TM", "--y", "TM")
        assert res.exit_code == 2
        assert res.stderr.endswith("Error: treatment and outcome must differ\n")
        res = invoke(runner, "frontdoor", "titus", "--x", "TM", "--y", "nope")
        assert res.exit_code == 2
        assert res.stderr.endswith("Error: unknown node 'nope'\n")

    def test_five_mediators(self, runner, tmp_path):
        # a latent u -> x, u -> y and x -> m_i -> y for five mediators
        path = tmp_path / "fan.scm.txt"
        path.write_text(
            "model fan\nlatent u : bool\nvar x : bool <- u\n"
            + "".join(f"var m{i} : bool <- x\n" for i in range(5))
            + "var y : bool <- u, m0, m1, m2, m3, m4\n"
        )
        res = invoke(runner, "frontdoor", str(path), "--x", "x", "--y", "y")
        assert res.exit_code == 0
        assert res.stdout == "{m0, m1, m2, m3, m4}\n"

    def test_malformed_cap_is_usage_error(self, runner, monkeypatch):
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "abc")
        res = invoke(runner, "frontdoor", "uav_attacker", "--x", "Pilot", "--y", "UAV")
        assert_usage_error(res, "CAUSAL_ACCOUNT_MAX_ENUM must be an integer, got 'abc'")

    def test_eighteen_node_pair_in_budget(self, runner, dag18):
        # the back-door paths are never listed
        start = time.process_time()
        res = invoke(runner, "frontdoor", dag18, "--x", "n6", "--y", "n9")
        assert time.process_time() - start < 0.25
        assert res.exit_code == 0
        assert res.stdout == "none\n"


class TestIdentify:
    def test_frontdoor_report_text(self, runner):
        res = invoke(runner, "identify", "uav_attacker_ids", "--x", "Pilot", "--y", "UAV")
        assert res.exit_code == 0
        assert res.stdout == (
            "treatment: Pilot\n"
            "outcome: UAV\n"
            "status: IdentifiableFrontdoor\n"
            "backdoor path: Pilot <- Attacker -> UAV\n"
            "frontdoor set: {RC}\n"
            "note: 1 back-door path(s) from Pilot to UAV\n"
        )

    def test_trust_proxies_switches_to_backdoor(self, runner):
        res = invoke(
            runner,
            "identify",
            "uav_attacker_ids",
            "--x",
            "Pilot",
            "--y",
            "UAV",
            "--trust-proxies",
        )
        assert res.exit_code == 0
        assert res.stdout == (
            "treatment: Pilot\n"
            "outcome: UAV\n"
            "status: IdentifiableBackdoor\n"
            "backdoor path: Pilot <- Attacker -> UAV\n"
            "minimal backdoor set: {IDS}\n"
            "frontdoor set: {RC}\n"
            "note: 1 back-door path(s) from Pilot to UAV\n"
            "note: PartialControl: IDS stands in for latent Attacker; "
            "adjusting through a proxy only partially controls for the real variable\n"
        )

    def test_json_format_round_trips(self, runner):
        res = invoke(
            runner, "identify", "uber", "--x", "Driver", "--y", "Accident",
            "--format", "json",
        )
        assert res.exit_code == 0
        report = from_json(res.stdout)
        assert isinstance(report, IdentificationReport)
        assert report == identify(load_model("uber").graph, "Driver", "Accident")

    def test_unknown_node_is_usage_error(self, runner):
        res = invoke(runner, "identify", "titus", "--x", "ZZ", "--y", "BD")
        assert res.exit_code == 2

    def test_path_longer_than_the_recursion_limit(self, runner, tmp_path):
        # n1 -> n2 -> ... -> n1500 plus n1 -> n1500: one back-door path
        path = tmp_path / "chain.scm.txt"
        path.write_text(
            "model chain\nexo n1 : bool\n"
            + "".join(f"var n{i} : bool <- n{i - 1}\n" for i in range(2, 1500))
            + "var n1500 : bool <- n1499, n1\n"
        )
        res = invoke(runner, "identify", str(path), "--x", "n1499", "--y", "n1500")
        assert res.exit_code == 0
        # each node of that path blocks it on its own
        assert res.stdout == (
            "treatment: n1499\n"
            "outcome: n1500\n"
            "status: IdentifiableBackdoor\n"
            "backdoor path: "
            + " <- ".join(f"n{i}" for i in range(1499, 0, -1))
            + " -> n1500\n"
            + "".join(f"minimal backdoor set: {{n{i}}}\n" for i in range(1, 1499))
            + "note: 1 back-door path(s) from n1499 to n1500\n"
        )


class TestLogset:
    def test_recommendation_text(self, runner):
        res = invoke(runner, "logset", "uav_weather", "--x", "Pilot", "--y", "UAVCrash")
        assert res.exit_code == 0
        assert res.stdout == (
            "must log: {Pilot, TakeOff, UAVInFlight, UAVCrash}\n"
            "adjustment set: {}\n"
            "Weather: not needed, every back-door path stays blocked without it\n"
            "Permission: not needed, every back-door path stays blocked without it\n"
            "Pilot: the treatment\n"
            "VisibilityLimit: collider on a back-door path; "
            "leaving it unlogged keeps that path blocked\n"
            "PermittedToFly: not needed, every back-door path stays blocked without it\n"
            "TakeOff: lies on a directed path from Pilot to UAVCrash\n"
            "UAVInFlight: lies on a directed path from Pilot to UAVCrash\n"
            "UAVCrash: the outcome\n"
        )

    def test_eighteen_node_pair_in_budget(self, runner, dag18):
        start = time.process_time()
        res = invoke(runner, "logset", dag18, "--x", "n6", "--y", "n9")
        assert time.process_time() - start < 0.25
        assert res.exit_code == 0
        assert res.stdout.splitlines()[:2] == ["must log: {n6, n9}", "adjustment set: {}"]

    def test_allowed_restriction_changes_choice(self, runner):
        res = invoke(
            runner,
            "logset",
            "uber",
            "--x",
            "Driver",
            "--y",
            "Accident",
            "--allowed",
            "Developers,Manuals",
        )
        assert res.exit_code == 0
        assert res.stdout.splitlines()[1] == "adjustment set: {Developers}"

    def test_no_admissible_set_fails(self, runner):
        res = invoke(
            runner,
            "logset",
            "uber",
            "--x",
            "Driver",
            "--y",
            "Accident",
            "--allowed",
            "Manuals",
        )
        assert res.exit_code == 1
        assert (
            "no admissible back-door adjustment set for (Driver, Accident) "
            "within {Manuals}" in res.stderr
        )

    def test_allowed_lists_only_the_sets_inside(self, runner, tmp_path, monkeypatch):
        # five forks b_i -> a_i -> x, b_i -> y give 2^5 minimal back-door sets,
        # past a cap of 2^4; only one of them lies inside {a1, ..., a5}
        path = tmp_path / "forks.scm.txt"
        path.write_text(
            "model forks\n"
            + "".join(
                f"exo b{i} : bool\nvar a{i} : bool <- b{i}\n" for i in range(1, 6)
            )
            + "var x : bool <- a1, a2, a3, a4, a5\n"
            + "var y : bool <- x, b1, b2, b3, b4, b5\n"
        )
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "4")
        res = invoke(
            runner, "logset", str(path), "--x", "x", "--y", "y",
            "--allowed", "a1,a2,a3,a4,a5",
        )
        assert res.exit_code == 0
        assert res.stdout.splitlines()[1] == "adjustment set: {a1, a2, a3, a4, a5}"
        res = invoke(runner, "backdoor", str(path), "--x", "x", "--y", "y")
        assert res.exit_code == 1
        assert res.stderr == (
            "Error: more than 2^4 minimal sets (override with CAUSAL_ACCOUNT_MAX_ENUM)\n"
        )

    def test_unidentifiable_pair_fails(self, runner):
        res = invoke(runner, "logset", "uav_attacker", "--x", "Pilot", "--y", "UAV")
        assert res.exit_code == 1
        assert "no admissible back-door adjustment set" in res.stderr

    def test_json_format_round_trips(self, runner):
        res = invoke(
            runner,
            "logset",
            "uav_weather",
            "--x",
            "Pilot",
            "--y",
            "UAVCrash",
            "--format",
            "json",
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["format"] == "logging-recommendation"
        assert payload["must_log"] == ["Pilot", "TakeOff", "UAVCrash", "UAVInFlight"]


class TestMatch:
    def test_all_matches_in_order(self, runner):
        res = invoke(runner, "match", "titus", "--pattern", "lindberg")
        assert res.exit_code == 0
        assert res.stdout == (
            "match: Agent=I Mediator=TM Effect=ED\n"
            "match: Agent=I Mediator=TM Effect=BD\n"
            "match: Agent=I Mediator=ED Effect=BD\n"
            "match: Agent=TM Mediator=ED Effect=BD\n"
        )

    def test_no_match(self, runner):
        res = invoke(runner, "match", "titus", "--pattern", "raci")
        assert res.exit_code == 0
        assert res.stdout == "no match\n"

    def test_hint_narrows_matches(self, runner):
        res = invoke(
            runner, "match", "uber", "--pattern", "raci", "--hint", "Accountable=Uber"
        )
        assert res.exit_code == 0
        assert res.stdout == (
            "match: Accountable=Uber Responsible=Driver Consulted=Developers "
            "Discussion=Manuals Mediator=CarSoftware Effect=Accident Informed=Police\n"
        )

    def test_hint_with_unknown_role(self, runner):
        res = invoke(runner, "match", "titus", "--pattern", "lindberg", "--hint", "Boss=TM")
        assert res.exit_code == 2
        assert "hint names role 'Boss', pattern lindberg has roles Agent, Mediator, Effect" in res.stderr

    def test_hint_with_unknown_node(self, runner):
        res = invoke(
            runner, "match", "titus", "--pattern", "lindberg", "--hint", "Agent=Police"
        )
        assert res.exit_code == 2
        assert "unknown node 'Police'" in res.stderr

    def test_pattern_from_dsl_file(self, runner, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(pattern_text("lindberg"))
        res = invoke(runner, "match", "titus", "--pattern", str(path))
        assert res.exit_code == 0
        assert res.stdout.count("match:") == 4

    def test_pattern_from_json_file(self, runner, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(to_json(builtin_pattern("raci")))
        res = invoke(
            runner, "match", "uber", "--pattern", str(path), "--hint", "Accountable=Uber"
        )
        assert res.exit_code == 0
        assert res.stdout.startswith("match: Accountable=Uber")

    def test_json_file_with_wrong_payload(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(to_json(load_model("titus")))
        res = invoke(runner, "match", "titus", "--pattern", str(path))
        assert res.exit_code == 2
        assert "does not contain a pattern" in res.stderr

    def test_unknown_pattern_name(self, runner):
        res = invoke(runner, "match", "titus", "--pattern", "nope")
        assert res.exit_code == 2
        assert "'nope' is neither a pattern file nor a built-in pattern name" in res.stderr


class TestCheck:
    def test_accountable_verdict_full_text(self, runner):
        res = invoke(
            runner, "check", "uber", "--pattern", "raci", "--hint", "Accountable=Uber"
        )
        assert res.exit_code == 0
        assert res.stdout == (
            "pattern: raci\n"
            "match: Accountable=Uber Responsible=Driver Consulted=Developers "
            "Discussion=Manuals Mediator=CarSoftware Effect=Accident Informed=Police\n"
            "agent: Driver\n"
            "effect: Accident\n"
            "verdict: Accountable\n"
            "status: IdentifiableBackdoor\n"
            "must log: {Uber, Driver, CarSoftware, Accident}\n"
            "adjustment set: {Uber}\n"
            "Uber: member of the chosen adjustment set\n"
            "Developers: not needed, every back-door path stays blocked without it\n"
            "Manuals: collider on a back-door path; "
            "leaving it unlogged keeps that path blocked\n"
            "Driver: the treatment\n"
            "CarSoftware: lies on a directed path from Driver to Accident\n"
            "EmergencyBrakingDisabled: not needed, "
            "every back-door path stays blocked without it\n"
            "Accident: the outcome\n"
            "Police: descendant of the treatment, inadmissible for adjustment\n"
            "note: 2 back-door path(s) from Driver to Accident\n"
            "note: controls restricted to {Uber, Developers, Manuals, Police}\n"
        )

    def test_judges_the_first_match_where_listing_refuses(
        self, runner, tmp_path, monkeypatch
    ):
        # a complete DAG of 48 nodes has C(48, 3) = 17,296 lindberg bindings,
        # past the default cap of 2^14; the first match needs none of them
        path = tmp_path / "dense.scm.txt"
        path.write_text(
            "model dense\nexo n1 : bool\n"
            + "".join(
                f"var n{k} : bool <- " + ", ".join(f"n{i}" for i in range(1, k)) + "\n"
                for k in range(2, 49)
            )
        )
        res = invoke(runner, "match", str(path), "--pattern", "lindberg")
        assert res.exit_code == 1
        assert res.stderr == (
            "Error: more than 2^14 candidate bindings for pattern lindberg "
            "(override with CAUSAL_ACCOUNT_MAX_ENUM)\n"
        )
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "15")
        res = invoke(runner, "match", str(path), "--pattern", "lindberg")
        assert res.exit_code == 0
        assert res.stdout.count("match:") == 17_296
        monkeypatch.delenv("CAUSAL_ACCOUNT_MAX_ENUM")
        res = invoke(runner, "check", str(path), "--pattern", "lindberg")
        assert res.exit_code == 0
        assert res.stdout.startswith(
            "pattern: lindberg\n"
            "match: Agent=n1 Mediator=n2 Effect=n3\n"
            "agent: n1\n"
            "effect: n3\n"
            "verdict: Accountable\n"
        )
        res = invoke(
            runner, "export", str(path), "--highlight-match", "lindberg"
        )
        assert res.exit_code == 0
        assert res.stdout.startswith(
            "digraph dense {\n"
            "  n1 [style=filled, fillcolor=gray];\n"
            "  n2 [style=filled, fillcolor=gray];\n"
            "  n3 [style=filled, fillcolor=gray];\n"
            "  n4;\n"
        )

    def test_not_attributable_exits_one(self, runner):
        res = invoke(
            runner, "check", "uber", "--pattern", "lindberg", "--hint", "Agent=Driver"
        )
        assert res.exit_code == 1
        assert res.stdout == (
            "pattern: lindberg\n"
            "match: Agent=Driver Mediator=CarSoftware Effect=Accident\n"
            "agent: Driver\n"
            "effect: Accident\n"
            "verdict: NotAttributable\n"
            "status: NotIdentifiableByCriteria\n"
            "note: 2 back-door path(s) from Driver to Accident\n"
            "note: controls restricted to {}\n"
        )

    def test_frontdoor_identifiable_effect_is_still_not_attributable(self, runner):
        # RC identifies Pilot -> UAV by the front door, but it lies on the
        # directed path, so it is no admissible control and the verdict stands
        res = invoke(runner, "identify", "uav_attacker", "--x", "Pilot", "--y", "UAV")
        assert "status: IdentifiableFrontdoor" in res.stdout
        res = invoke(
            runner,
            "check",
            "uav_attacker",
            "--pattern",
            "lindberg",
            "--hint",
            "Agent=Pilot",
            "--hint",
            "Effect=UAV",
        )
        assert res.exit_code == 1
        assert res.stdout == (
            "pattern: lindberg\n"
            "match: Agent=Pilot Mediator=RC Effect=UAV\n"
            "agent: Pilot\n"
            "effect: UAV\n"
            "verdict: NotAttributable\n"
            "status: NotIdentifiableByCriteria\n"
            "note: 1 back-door path(s) from Pilot to UAV\n"
            "note: controls restricted to {}\n"
        )

    def test_both_criteria_fail_note(self, runner, tmp_path):
        # u confounds x and y, and v confounds the mediator m with y
        path = tmp_path / "both.scm.txt"
        path.write_text(
            "model both\nlatent u : bool\nlatent v : bool\nexo x0 : bool\n"
            "var x : bool <- x0, u\nvar m : bool <- x, v\nvar y : bool <- m, u, v\n"
        )
        res = invoke(
            runner, "check", str(path), "--pattern", "lindberg",
            "--hint", "Agent=x", "--hint", "Effect=y",
        )
        assert res.exit_code == 1
        assert res.stdout == (
            "pattern: lindberg\n"
            "match: Agent=x Mediator=m Effect=y\n"
            "agent: x\n"
            "effect: y\n"
            "verdict: NotAttributable\n"
            "status: NotIdentifiableByCriteria\n"
            "note: 1 back-door path(s) from x to y\n"
            "note: back-door and front-door criteria both fail; the effect may "
            "still be identifiable by methods outside these criteria\n"
            "note: controls restricted to {}\n"
        )

    def test_lists_no_frontdoor_sets(self, runner, tmp_path, monkeypatch):
        # x -> a_i -> b_i -> y for i = 1..5 has 2^5 minimal front-door sets,
        # past a cap of 2^4; check needs none of them, frontdoor lists them
        path = tmp_path / "chains.scm.txt"
        path.write_text(
            "model chains\nexo x : bool\n"
            + "".join(
                f"var a{i} : bool <- x\nvar b{i} : bool <- a{i}\n" for i in range(1, 6)
            )
            + "var y : bool <- b1, b2, b3, b4, b5\n"
        )
        monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", "4")
        res = invoke(
            runner, "check", str(path), "--pattern", "lindberg",
            "--hint", "Agent=x", "--hint", "Effect=y",
        )
        assert res.exit_code == 0
        assert "verdict: Accountable\n" in res.stdout
        res = invoke(runner, "frontdoor", str(path), "--x", "x", "--y", "y")
        assert res.exit_code == 1
        assert res.stderr == (
            "Error: more than 2^4 minimal sets (override with CAUSAL_ACCOUNT_MAX_ENUM)\n"
        )

    def test_no_match_exits_one(self, runner):
        res = invoke(runner, "check", "titus", "--pattern", "raci")
        assert res.exit_code == 1
        assert res.stdout == "no match for pattern raci\n"

    def test_json_format_round_trips_and_keeps_exit_code(self, runner):
        res = invoke(
            runner,
            "check",
            "uber",
            "--pattern",
            "lindberg",
            "--hint",
            "Agent=Driver",
            "--format",
            "json",
        )
        assert res.exit_code == 1
        report = from_json(res.stdout)
        assert isinstance(report, AccountabilityReport)
        g = load_model("uber").graph
        lindberg = builtin_pattern("lindberg")
        match = next(
            m for m in match_pattern(g, lindberg) if m.binding["Agent"] == "Driver"
        )
        assert report == check_accountability(g, lindberg, match)

    def test_accountable_json_exits_zero(self, runner):
        res = invoke(
            runner,
            "check",
            "uber",
            "--pattern",
            "raci",
            "--hint",
            "Accountable=Uber",
            "--format",
            "json",
        )
        assert res.exit_code == 0
        report = from_json(res.stdout)
        assert report.verdict.name == "ACCOUNTABLE"


class TestExport:
    def test_dot_matches_library(self, runner):
        res = invoke(runner, "export", "titus", "--format", "dot")
        assert res.exit_code == 0
        assert res.stdout == to_dot(load_model("titus").graph, name="titus")

    def test_json_matches_library(self, runner):
        res = invoke(runner, "export", "uav_attacker", "--format", "json")
        assert res.exit_code == 0
        assert res.stdout == to_json(load_model("uav_attacker"))

    def test_dot_is_default_format(self, runner):
        res = invoke(runner, "export", "titus")
        assert res.exit_code == 0
        assert res.stdout.startswith("digraph titus {")

    def test_highlight_first_match(self, runner):
        res = invoke(
            runner,
            "export",
            "titus",
            "--format",
            "dot",
            "--highlight-match",
            "lindberg",
            "--hint",
            "Agent=TM",
        )
        assert res.exit_code == 0
        assert (
            '  TM [label="Titus Manlius\' son reacted", style=filled, fillcolor=gray];\n'
            in res.stdout
        )
        assert '  I [label="Insults"];\n' in res.stdout

    def test_highlight_without_match_fails(self, runner):
        res = invoke(
            runner, "export", "titus", "--format", "dot", "--highlight-match", "raci"
        )
        assert res.exit_code == 1
        assert "no match of pattern raci to highlight" in res.stderr

    def test_highlight_with_json_is_usage_error(self, runner):
        res = invoke(
            runner, "export", "titus", "--format", "json",
            "--highlight-match", "nosuchpattern",
        )
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "Error: --highlight-match needs --format dot\n" in res.stderr

    def test_hint_without_highlight_is_usage_error(self, runner):
        res = invoke(runner, "export", "titus", "--hint", "Nope=TM")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "Error: --hint needs --highlight-match\n" in res.stderr

    def test_latent_nodes_stay_dashed(self, runner):
        res = invoke(runner, "export", "uav_attacker", "--format", "dot")
        assert res.exit_code == 0
        assert "Attacker [style=dashed];" in res.stdout


# x <- L_i -> y under three latents, each with three proxies: trusting them,
# 27 candidate sets stand in for the one separator {L0, L1, L2}
FAN = (
    "model fan\n"
    + "".join(f"latent L{i} : bool\n" for i in range(3))
    + "var x : bool <- L0, L1, L2\nvar y : bool <- x, L0, L1, L2\n"
    + "".join(f"proxy p{i}_{j} for L{i}\n" for i in range(3) for j in range(3))
)
# the complete DAG on n1..n6: more than 2^4 back-door paths from n5 to n6
DENSE = "model dense\nexo n1 : bool\n" + "".join(
    f"var n{k} : bool <- " + ", ".join(f"n{i}" for i in range(1, k)) + "\n" for k in range(2, 7)
)


@pytest.mark.parametrize(
    "argv, cap, head",
    [
        (("worlds", "uav_weather"), 1, "4 root combinations exceed the cap of 2^1 "),
        (("backdoor", "uber", "--x", "Driver", "--y", "Accident"), 1, "more than 2^1 minimal sets "),
        (("identify", FAN, "--x", "x", "--y", "y", "--trust-proxies"), 4,
         "more than 2^4 candidate sets "),
        (("identify", DENSE, "--x", "n5", "--y", "n6"), 4, "more than 2^4 paths between n5 and n6 "),
        (("match", "titus", "--pattern", "lindberg"), 1,
         "more than 2^1 candidate bindings for pattern lindberg "),
    ],
    ids=["worlds", "minimal-sets", "candidate-sets", "paths", "bindings"],
)
def test_every_cap_yields_to_the_one_override(runner, tmp_path, monkeypatch, argv, cap, head):
    command, model, *rest = argv
    if "\n" in model:
        (tmp_path / "m.scm.txt").write_text(model, encoding="utf-8")
        model = str(tmp_path / "m.scm.txt")
    monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", str(cap))
    res = invoke(runner, command, model, *rest)
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr.startswith("Error: " + head)
    assert res.stderr.endswith("(override with CAUSAL_ACCOUNT_MAX_ENUM)\n")
    monkeypatch.setenv("CAUSAL_ACCOUNT_MAX_ENUM", str(cap + 2))
    res = invoke(runner, command, model, *rest)
    assert res.exit_code == 0 and res.stdout
