"""Steadiness check: run each workload many times and report the spread.

    python3 bench/steady.py

Runs `run.py` once per seed 1 to 10 for each workload of BENCHMARK.json,
with its run length, then prints, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4), the quartile spread as a share of
the median, and that spread against the metric's bound. The unscaled
CPU-time figures and the speed kernel's time, which run.py prints on
stderr, get the same rows without a bound. It also prints the harness's own
cost per operation. A JSON copy of all values goes to bench/out/steady.json.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def harness_overhead() -> dict[str, float]:
    """Per-operation cost of the timing loop and of the desk stdout capture, in µs."""
    sys.path.insert(0, str(ROOT / "src"))
    import types

    import child
    import workloads

    n = 20000
    empty = workloads.Op({}, lambda: None, workloads._same)
    start = perf_counter()
    for _ in range(n):
        child.attempt(empty)
    loop_us = 1e6 * (perf_counter() - start) / n
    silent = types.SimpleNamespace(main=lambda **kwargs: None)
    start = perf_counter()
    for _ in range(n):
        workloads.run_cli(silent, [])
    capture_us = 1e6 * (perf_counter() - start) / n
    return {"timing_loop_us": loop_us, "desk_capture_us": capture_us}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print("harness overhead per operation (µs):", json.dumps(harness_overhead()), flush=True)
    report: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, RUNS + 1):
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            unscaled = re.search(r"unscaled: ops_per_s ([0-9.]+), latency_p50_ms ([0-9.]+); kernel median ([0-9.]+)", proc.stderr)
            for name, text in zip(("unscaled ops_per_s", "unscaled p50_ms", "kernel_ms"), unscaled.groups()):
                values.setdefault(name, []).append(float(text))
            print(f"{workload} seed {seed}: {perf_counter() - start:.1f} s wall, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            line = f"  {name:18s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {100 * spread:5.1f}%"
            if name in bounds:
                line += f"  bound {100 * bounds[name]:4.0f}%"
                line += "" if spread < bounds[name] / 3 else "  (above a third of the bound)"
            print(line)
        print(f"  failed share per run: {sorted(shares)}")
        report[workload] = rows
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
