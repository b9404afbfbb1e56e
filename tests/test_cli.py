"""End-to-end tests for the command line interface.

Every assertion here but one goes through click's CliRunner, so stdout,
stderr, and exit codes are checked exactly as a shell user would see them.
The exception launches `python -m causal_account` in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import causal_account
from causal_account import (
    AccountabilityReport,
    IdentificationReport,
    builtin_pattern,
    check_accountability,
    from_json,
    identify,
    match_pattern,
    to_dot,
    to_json,
)
from causal_account.cli import main
from causal_account.models import load_model, model_text, pattern_text


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


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
        src = str(Path(causal_account.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        res = subprocess.run(
            [sys.executable, "-m", "causal_account", "validate", "titus"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "ok: model titus (4 node(s), 3 edge(s))\n"


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

    def test_judges_the_first_match_where_listing_refuses(self, runner, tmp_path):
        # a complete DAG of 45 nodes has C(45, 3) = 14,190 lindberg bindings,
        # past the default cap of 10,000; the first match needs none of them
        path = tmp_path / "dense.scm.txt"
        path.write_text(
            "model dense\nexo n1 : bool\n"
            + "".join(
                f"var n{k} : bool <- " + ", ".join(f"n{i}" for i in range(1, k)) + "\n"
                for k in range(2, 46)
            )
        )
        res = invoke(runner, "match", str(path), "--pattern", "lindberg")
        assert res.exit_code == 1
        assert res.stderr == "Error: more than 10000 candidate bindings for pattern lindberg\n"
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

    def test_latent_nodes_stay_dashed(self, runner):
        res = invoke(runner, "export", "uav_attacker", "--format", "dot")
        assert res.exit_code == 0
        assert "Attacker [style=dashed];" in res.stdout
