"""Tests of the benchmark itself: generators, references, answer classing.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import all_dags, brute_minimal_backdoor_sets  # noqa: E402
from oracles import random_dag as oracle_random_dag  # noqa: E402
from spans import Tracer  # noqa: E402

import causal_account as ca  # noqa: E402
import causal_account.cli  # noqa: E402,F401
from causal_account.models import BUNDLED_MODELS, load_model  # noqa: E402


def _specs(w):
    return [json.dumps(op.spec, sort_keys=True) for op in w.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    first, again = workloads.build(name, 7), workloads.build(name, 7)
    assert _specs(first) == _specs(again)
    # another seed visits the same operations in another order
    other = workloads.build(name, 8)
    assert sorted(_specs(other)) == sorted(_specs(first))
    assert _specs(other) != _specs(first)


def test_dag_generator_matches_the_test_oracle_generator():
    for seed in range(20):
        ours = gen.random_dag(random.Random(seed), 12, 0.3)
        theirs = oracle_random_dag(random.Random(seed), 12, 0.3)
        assert ours == theirs


def test_world_model_generator_is_deterministic_and_agrees_with_evaluate():
    a = gen.random_world_model(random.Random(3), 4, 5, "w")
    b = gen.random_world_model(random.Random(3), 4, 5, "w")
    assert a.scm == b.scm
    for vals in a.root_space():
        u = dict(zip(a.roots, vals))
        assert ca.evaluate(a.scm, u) == a.evaluate(u)


def test_backdoor_reference_agrees_with_program_and_brute_force():
    for g in list(all_dags(4))[::7]:
        ref = oracle.GraphRef(g)
        for x in g.names:
            for y in g.names:
                if x == y:
                    continue
                ours = ref.minimal_backdoor_sets(x, y)
                assert ours == ca.minimal_backdoor_sets(g, x, y)
                assert set(ours) == brute_minimal_backdoor_sets(g, x, y)
                assert ref.backdoor_paths(x, y) == {p.nodes for p in ca.backdoor_paths(g, x, y)}


def test_frontdoor_reference_agrees_with_program():
    for seed in range(8):
        g = oracle_random_dag(random.Random(seed), 7, 0.4, latent_probability=0.3)
        ref = oracle.GraphRef(g)
        for x in g.observable_names():
            for y in g.observable_names():
                if x != y:
                    assert ref.frontdoor_sets(x, y) == list(ca.identify(g, x, y).frontdoor_sets)


@pytest.mark.parametrize("name", BUNDLED_MODELS)
def test_model_reference_agrees_with_program(name):
    m = load_model(name)
    ref = oracle.ModelRef(m)
    assert ref.worlds({}) == ca.consistent_worlds(m, {})
    last = m.graph.names[-1]
    assert ref.worlds({last: True}) == ca.consistent_worlds(m, {last: True})


def _checked(name: str, ops) -> int:
    w = workloads.build(name, 1)
    w.ops = ops
    answers = {}
    for i, op in enumerate(ops):
        try:
            answers[i] = op.answer(op.call())
        except ca.CausalAccountError as exc:
            answers[i] = {"error": type(exc).__name__, "message": str(exc)}
    return checks.check_all(w, answers)


def _desk_op(*argv):
    return workloads.Op({"argv": list(argv)}, lambda: workloads.run_cli(ca.cli.main, argv), workloads._same)


def test_exit_1_negative_answers_are_successes():
    ops = [
        _desk_op("logset", "uav_attacker", "--x", "Pilot", "--y", "UAV"),
        _desk_op("check", "uber", "--pattern", "lindberg", "--hint", "Agent=Driver", "--hint", "Effect=Accident"),
    ]
    assert [op.call()["code"] for op in ops] == [1, 1]
    assert _checked("desk", ops) == 0


def test_a_wrong_desk_answer_is_caught():
    op = _desk_op("dsep", "uav_weather", "--x", "Pilot", "--y", "Permission")
    w = workloads.build("desk", 1)
    w.ops = [op]
    with pytest.raises(oracle.Wrong):
        checks.check_all(w, {0: {"code": 0, "out": "d-separated: false\n", "err": ""}})


def test_the_dag_fault_is_counted_as_failed_and_other_errors_are_wrong():
    w = workloads.build("dag", 1)
    fault = next(op for op in w.ops if op.spec.get("fault"))
    healthy = next(op for op in w.ops if not op.spec.get("fault"))
    assert _checked("dag", [fault, healthy]) == 1
    w.ops = [healthy]
    with pytest.raises(oracle.Wrong):
        checks.check_all(w, {0: {"error": "EnumerationLimit", "message": "cap"}})


def test_missing_or_reordered_audit_matches_are_caught():
    w = workloads.build("audit", 1)
    op = next(op for op in w.ops if op.spec["pattern"] == "lindberg")
    w.ops = [op]
    answer = op.answer(op.call())
    assert checks.check_all(w, {0: answer}) == 0
    wrong = [
        {**answer, "matches": [], "verdict": None, "status": None, "adjust": None},
        {**answer, "matches": answer["matches"][:-1]},
        {**answer, "matches": answer["matches"][::-1]},
    ]
    for bad in wrong:
        with pytest.raises(oracle.Wrong):
            checks.check_all(w, {0: bad})


def test_tracer_reports_every_per_layer_metric_and_nests_spans():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        g = load_model("uber").graph
        raci = ca.builtin_pattern("raci")
        ca.check_accountability(g, raci, ca.match_pattern(g, raci)[0])
        tracer.op = 1  # an operation left out of the figures below
        ca.match_pattern(g, raci)
        ca.identify(g, "Driver", "Accident")
    finally:
        tracer.uninstall()
    assert not hasattr(ca.identify, "__wrapped__")
    metrics = tracer.per_layer({0}, 1)
    metrics["trace.overhead_pct"] = 0.0
    assert set(run.metric_units()[1]) == set(metrics)
    names = [s[0] for s in tracer.spans]
    identify_span = names.index("identify.identify")
    assert tracer.spans[identify_span][3] == names.index("patterns.check_accountability")
    assert metrics["patterns.matches_found"] == 1
    assert metrics["identify.blocked_checks"] > 0
