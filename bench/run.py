"""Benchmark entry point: one run of one workload, result as one JSON line.

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

With `--trace 0` it times `setup_s` over fresh launches, then starts the
measuring process (child.py), checks every answer of its warm-up pass
against the references (checks.py) and prints the end-to-end metrics. With
`--trace 1` the measuring process also runs traced and the per-layer
metrics are printed instead. Every child runs with PYTHONHASHSEED=0 and
`src` on its path. A wrong answer, a missing program or a child that fails
ends the run with a non-zero exit and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 9  # timed set-up launches per run, after one untimed launch
BUDGET_S = 170.0  # a run must end well within three minutes


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def setup_seconds(workload: str, seed: int, env) -> float:
    """Median CPU time, at reference speed, a fresh process needs to build its inputs."""
    import child

    times = []
    for _ in range(PROBES + 1):
        proc = subprocess.run(child_cmd(workload, seed, "probe"), stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=60)
        words = proc.stdout.split()
        if proc.returncode != 0 or words[:1] != [b"ready"]:
            raise SystemExit(f"set-up launch failed with exit code {proc.returncode}")
        cpu, kernel = float(words[1]), float(words[2])
        times.append(cpu * child.REFERENCE_S / kernel)
    return statistics.median(times[1:])  # the first launch also writes bytecode


def measure(workload: str, seed: int, seconds: int, trace: int, env, timeout: float):
    proc = subprocess.run(
        child_cmd(workload, seed, "measure", seconds, trace),
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"measuring process failed with exit code {proc.returncode}")
    answers, summary = {}, None
    for line in proc.stdout.decode().splitlines():
        obj = json.loads(line)
        if "op" in obj:
            answers[obj["op"]] = obj["answer"]
        else:
            summary = obj
    if summary is None:
        raise SystemExit("measuring process printed no summary")
    return answers, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "causal_account" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'causal_account'} is missing")
    sys.path.insert(0, str(SRC))
    import checks
    import child
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = child_env()
    setup = None if args.trace else setup_seconds(args.workload, args.seed, env)
    answers, result = measure(
        args.workload, args.seed, args.seconds, args.trace, env, BUDGET_S - (perf_counter() - started)
    )

    w = workloads.build(args.workload, args.seed)
    try:
        faults = checks.check_all(w, answers)
    except checks.Wrong as exc:
        raise SystemExit(f"wrong answer: {exc}") from None
    summary = result["summary"]
    failed_ops = len(summary["failed_ops"])
    if failed_ops != faults:
        raise SystemExit(f"{failed_ops} operations failed in the timed passes, {faults} in the checked pass")
    failed = failed_ops * summary["passes"]
    def completed(key):
        return [t for i, ts in enumerate(summary[key]) if i not in summary["failed_ops"] for t in ts]

    latencies = completed("scaled_s")
    print(
        f"{args.workload}: {summary['passes']} passes of {len(w.ops)} operations, "
        f"{summary['attempted']} attempted, {failed} failed, {len(latencies)} latency samples",
        file=sys.stderr,
    )
    print(
        f"unscaled: ops_per_s {child.typical_rate(summary, scaled=False):.4f}, "
        f"latency_p50_ms {1000 * statistics.median(completed('times_s')):.4f}; "
        f"kernel median {1000 * summary['kernel_s']:.4f} ms "
        f"(reference {1000 * child.REFERENCE_S} ms)",
        file=sys.stderr,
    )
    if not args.trace and len(latencies) < child.MIN_TIMED:
        print(f"warning: only {len(latencies)} operations timed; latency_p90_ms is no tail", file=sys.stderr)
    end_to_end, per_layer = metric_units()
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in per_layer.items()}
    else:
        values = {
            "ops_per_s": child.typical_rate(summary),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_p90_ms": 1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "setup_s": setup,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end.items()}
    print(json.dumps({"correct": True, "attempted": summary["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
