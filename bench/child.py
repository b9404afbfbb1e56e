"""The measuring process, started by run.py with a fixed hash seed.

    python3 bench/child.py WORKLOAD SEED probe
    python3 bench/child.py WORKLOAD SEED measure SECONDS TRACE

`probe` builds the inputs, then prints "ready", the CPU time the process
has used since the interpreter started, and the median of three
speed-kernel samples; run.py
turns these into `setup_s`. `measure` builds the inputs, runs one untimed
warm-up pass whose answers it streams to run.py for checking, then times
whole passes for SECONDS seconds of wall time. An operation's time is the
CPU time of its thread, so time the host takes the virtual CPU away is not
counted, scaled by the speed kernel (below). Each later answer must equal
the warm-up answer of the same operation. With TRACE 1 the first half of
the time runs untraced and the second half traced, so that the two
throughputs give the tracing overhead. The last line is a JSON summary.

Standard output carries one JSON object per line; nothing else may print.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import random
import re
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time, thread_time

import workloads

OUT = Path(__file__).resolve().parent / "out"


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def digest(answer) -> str:
    return hashlib.blake2b(repr(answer).encode(), digest_size=16).hexdigest()


def attempt(op):
    """Run one operation; the result or the exception it raised, and its CPU time."""
    start = thread_time()
    try:
        result = op.call()
    except Exception as exc:  # recorded and judged by the checks, never hidden
        return None, exc, thread_time() - start
    return result, None, thread_time() - start


def error_answer(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


# -- machine speed ----------------------------------------------------------
#
# The host's CPU speed drifts by up to a factor of two over tens of seconds,
# which no amount of repetition inside one run averages out. So each pass
# also times a fixed pure-Python kernel (graph closure, tokenizing, string
# rendering: the kinds of work the program does) between operations, at
# most every CAL_EVERY_S, and each operation is scaled by REFERENCE_S over
# the kernel's median time in the samples taken around it. The kernel is
# the benchmark's own code; a change to the program cannot move it.

_RNG = random.Random(5)
_N = 30
_CHILDREN = {i: tuple(j for j in range(i + 1, _N) if _RNG.random() < 0.15) for i in range(_N)}
_TEXT = "\n".join(
    f'var n{i} : bool label "node {i}" = ' + " & ".join(f"n{c}" for c in _CHILDREN[i]) for i in range(_N)
)
_TOKEN = re.compile(r'\s*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<str>"[^"]*")|(?P<op>[:=&|!(),]))')
MIN_TIMED = 100  # completed operations a run times, so that its p90 has 10 beyond it
CAL_EVERY_S = 0.05
CAL_WINDOW = 6  # kernel samples around an operation that set its scale
REFERENCE_S = 0.0009  # the kernel sample's median on the reference machine when quiet


class _Node:
    __slots__ = ("name", "kids", "label")

    def __init__(self, name, kids, label):
        self.name, self.kids, self.label = name, kids, label


def _kernel() -> int:
    memo: dict[int, frozenset[int]] = {}

    def closure(i: int) -> frozenset[int]:
        if i not in memo:
            acc: set[int] = set()
            for c in _CHILDREN[i]:
                acc.add(c)
                acc |= closure(c)
            memo[i] = frozenset(acc)
        return memo[i]

    total = sum(len(closure(i)) for i in range(_N))
    nodes = {}
    for line in _TEXT.splitlines():
        toks = [m.group(m.lastgroup) for m in _TOKEN.finditer(line)]
        nodes[toks[1]] = _Node(toks[1], tuple(t for t in toks[7:] if t != "&"), toks[5].strip('"'))
    rendered = "\n".join(f"{n.name} [label={n.label!r}] -> {', '.join(n.kids)}" for n in nodes.values())
    return total + len(rendered)


def speed_sample() -> float:
    """CPU time of two kernel runs."""
    start = thread_time()
    _kernel()
    _kernel()
    return thread_time() - start


def timed_passes(ops, seconds: float, expected: list[str], tracer=None, min_timed: int = 0) -> dict:
    """Whole passes until the next one would overrun `seconds` and at least
    `min_timed` operations have completed (at least one pass).

    Returns each operation's time in every pass, raw and scaled to reference
    speed, and the operations that raised (a raising operation raises in
    every pass, or the answers differ). Each operation is scaled by the
    median of the CAL_WINDOW kernel samples taken nearest to it in time.
    """
    raw: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    kernel: list[float] = []
    failed: set[int] = set()
    attempted = passes = 0
    start = perf_counter()
    while True:
        marks: list[float] = []
        samples: list[tuple[float, float]] = [(perf_counter(), speed_sample())]
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = attempted
            marks.append(perf_counter())
            result, exc, elapsed = attempt(op)
            attempted += 1
            raw[i].append(elapsed)
            if exc is not None:
                failed.add(i)
                answer = error_answer(exc)
            else:
                answer = op.answer(result)
            if digest(answer) != expected[i]:
                raise SystemExit(f"operation {op.spec} answered differently from its warm-up pass")
            if perf_counter() - samples[-1][0] > CAL_EVERY_S:
                samples.append((perf_counter(), speed_sample()))
        samples.append((perf_counter(), speed_sample()))
        at = [t for t, _ in samples]
        for i, mark in enumerate(marks):
            j = bisect.bisect(at, mark)
            window = samples[max(0, j - CAL_WINDOW // 2) : j + CAL_WINDOW // 2]
            scaled[i].append(raw[i][-1] * REFERENCE_S / statistics.median(d for _, d in window))
        kernel.extend(d for _, d in samples)
        passes += 1
        wall = perf_counter() - start
        if wall + wall / passes > seconds and passes * (len(ops) - len(failed)) >= min_timed:
            break
    return {
        "times_s": raw,
        "scaled_s": scaled,
        "kernel_s": statistics.median(kernel),
        "failed_ops": sorted(failed),
        "attempted": attempted,
        "passes": passes,
    }


def typical_rate(summary: dict, scaled: bool = True) -> float:
    """Completed operations per second of a typical pass.

    A typical pass takes each operation's median time over the passes, at
    reference speed if `scaled`; failed operations' time counts too.
    """
    times = summary["scaled_s" if scaled else "times_s"]
    completed = len(times) - len(summary["failed_ops"])
    return completed / sum(statistics.median(ts) for ts in times)


def main(argv: list[str]) -> None:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    w = workloads.build(workload, seed)
    if mode == "probe":
        # CPU time since the interpreter started, then the kernel's, to scale it
        ready = process_time()
        print("ready", ready, statistics.median(speed_sample() for _ in range(3)), flush=True)
        return
    seconds, trace = float(argv[3]), argv[4] == "1"

    expected = []
    for i, op in enumerate(w.ops):
        result, exc, _ = attempt(op)
        answer = error_answer(exc) if exc is not None else op.answer(result)
        emit({"op": i, "answer": answer})
        expected.append(digest(answer))

    # Everything alive now (modules, inputs) goes to the collector's
    # permanent generation, so a collector pause during timing scales with
    # what the operations themselves allocate and not with the size of the
    # inputs; without this, `dag` medians jumped between the neighbouring
    # operations' times from run to run. Collect first: frozen garbage
    # would never be freed and would count in peak_rss_mb.
    gc.collect()
    gc.freeze()
    if not trace:
        summary = timed_passes(w.ops, seconds, expected, min_timed=MIN_TIMED)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit({"summary": summary})
        return

    from spans import Tracer

    untraced = timed_passes(w.ops, seconds / 2, expected)
    tracer = Tracer()
    cli_main = sys.modules["causal_account.cli"].main if workload == "desk" else None
    tracer.install(cli_main)
    traced = timed_passes(w.ops, seconds / 2, expected, tracer)
    # only the operations that completed: a failing operation's spans stop
    # where it raised, and would mix the fault into the layer figures
    completed = {k for k in range(traced["attempted"]) if k % len(w.ops) not in traced["failed_ops"]}
    metrics = tracer.per_layer(completed, len(completed))

    metrics["trace.overhead_pct"] = 100.0 * (typical_rate(untraced) / typical_rate(traced) - 1.0)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}.jsonl")
    emit({"summary": traced, "per_layer": metrics})


if __name__ == "__main__":
    main(sys.argv[1:])
