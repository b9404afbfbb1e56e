"""In-memory spans around the program's layers, installed from outside.

`Tracer.install()` replaces each public function listed in `TARGETS` (and
the few private helpers named there) in every `causal_account` module that
holds it, so each caller goes through the wrapper under the name it already
uses: `patterns` reaches `identify` through its own namespace, `identify`
reaches `is_blocked` through its own. Span wrappers record (name, start,
end, parent, operation id); counter wrappers on the hottest functions
(`is_blocked`, `evaluate`, `_witness`, called up to millions of times) only
count, and their time stays in the enclosing span. `per_layer()` turns the
spans of the timed operations into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, kind) with kind "span" or "count"
TARGETS = (
    ("causal_account.graph", "build_graph", "span"),
    ("causal_account.graph", "all_paths", "span"),
    ("causal_account.graph", "is_blocked", "count"),
    ("causal_account.graph", "d_separated", "span"),
    ("causal_account.graph", "d_separated_paths", "span"),
    ("causal_account.graph", "d_separated_reachable", "span"),
    ("causal_account.identify", "backdoor_paths", "span"),
    ("causal_account.identify", "satisfies_backdoor", "span"),
    ("causal_account.identify", "minimal_backdoor_sets", "span"),
    ("causal_account.identify", "satisfies_frontdoor", "span"),
    ("causal_account.identify", "_frontdoor_sets", "span"),
    ("causal_account.identify", "identify", "span"),
    ("causal_account.identify", "confounded", "span"),
    ("causal_account.identify", "logging_set", "span"),
    ("causal_account.patterns", "build_pattern", "span"),
    ("causal_account.patterns", "builtin_pattern", "span"),
    ("causal_account.patterns", "match_pattern", "span"),
    ("causal_account.patterns", "_witness", "count"),
    ("causal_account.patterns", "validate_match", "span"),
    ("causal_account.patterns", "check_accountability", "span"),
    ("causal_account.scm", "build_scm", "span"),
    ("causal_account.scm", "evaluate", "count"),
    ("causal_account.scm", "consistent_worlds", "span"),
    ("causal_account.scm", "intervene", "span"),
    ("causal_account.scm", "counterfactual", "span"),
    ("causal_account.modelio.dsl", "parse_model", "span"),
    ("causal_account.modelio.dsl", "parse_pattern", "span"),
    ("causal_account.modelio.dsl", "to_dsl", "span"),
    ("causal_account.modelio.jsonio", "to_json", "span"),
    ("causal_account.modelio.jsonio", "from_json", "span"),
    ("causal_account.modelio.dot", "to_dot", "span"),
)


def _worlds_visited(args) -> int:
    m = args[0]
    total = 1
    for name in m.root_names:
        total *= len(m.domains[name].values)
    return total


class Tracer:
    """Spans and counters for one process; `op` is the current operation id."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (name, op id) -> calls
        self.sizes: Counter = Counter()  # (name, op id) -> amount
        self.op: int | None = None
        self.replaced: list = []  # (namespace, attribute, original)

    def span(self, name: str, fn, size=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if size is not None:
                for key, amount in size(args, result):
                    self.sizes[key, self.op] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, self.op] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, cli_main=None) -> None:
        """Wrap every target in every loaded `causal_account` module namespace."""
        sizes = {
            "graph.all_paths": lambda a, r: [("graph.paths_listed", len(r))],
            "patterns.match_pattern": lambda a, r: [("patterns.matches_found", len(r))],
            "scm.consistent_worlds": lambda a, r: [
                ("scm.worlds_visited", _worlds_visited(a)),
                ("scm.worlds_kept", len(r)),
            ],
        }
        replace = {}
        for module, func, kind in TARGETS:
            original = getattr(sys.modules[module], func)
            name = f"{module.split('.')[1]}.{func}"  # the layer: cli, modelio, graph, ...
            if kind == "span":
                replace[id(original)] = self.span(name, original, sizes.get(name))
            else:
                replace[id(original)] = self.counter(name, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "causal_account" and not modname.startswith("causal_account."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in replace:
                    self.replaced.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)])
        if cli_main is not None:
            # the whole command, click parsing and rendering included
            self.replaced.append((cli_main, "main", cli_main.main))
            cli_main.main = self.span("cli.command", cli_main.main)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()

    def per_layer(self, ops: set[int], n_ops: int) -> dict[str, float]:
        """Per-layer metrics over the spans of the given operations, per operation."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        frontdoor_outer = 0.0
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op not in ops:
                continue
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if name in ("identify._frontdoor_sets", "identify.satisfies_frontdoor") and (
                parent < 0 or spans[parent][0] != "identify._frontdoor_sets"
            ):
                frontdoor_outer += end - start
        counts: Counter = Counter()
        for (name, op), n in self.counts.items():
            if op in ops:
                counts[name] += n
        sizes: Counter = Counter()
        for (name, op), n in self.sizes.items():
            if op in ops:
                sizes[name] += n
        per = 1.0 / max(n_ops, 1)
        ms = 1000.0 * per
        visited = sizes["scm.worlds_visited"]
        kept = sizes["scm.worlds_kept"]
        enumerate_s = total["scm.consistent_worlds"]
        dsep_calls = calls["graph.d_separated"]
        return {
            "cli.self_ms": self_time["cli.command"] * ms,
            "modelio.parse_ms": (total["modelio.parse_model"] + total["modelio.parse_pattern"]) * ms,
            "modelio.parse_calls": (calls["modelio.parse_model"] + calls["modelio.parse_pattern"]) * per,
            "modelio.render_ms": (total["modelio.to_json"] + total["modelio.to_dot"] + total["modelio.to_dsl"]) * ms,
            "graph.dsep_calls": dsep_calls * per,
            "graph.dsep_us": 1e6 * total["graph.d_separated"] / dsep_calls if dsep_calls else 0.0,
            "graph.all_paths_calls": calls["graph.all_paths"] * per,
            "graph.paths_listed": sizes["graph.paths_listed"] * per,
            "graph.all_paths_ms": total["graph.all_paths"] * ms,
            "identify.blocked_checks": counts["graph.is_blocked"] * per,
            "identify.backdoor_sets_ms": total["identify.minimal_backdoor_sets"] * ms,
            "identify.frontdoor_checks": calls["identify.satisfies_frontdoor"] * per,
            "identify.frontdoor_ms": frontdoor_outer * ms,
            "identify.logging_set_ms": total["identify.logging_set"] * ms,
            "patterns.match_ms": total["patterns.match_pattern"] * ms,
            "patterns.matches_found": sizes["patterns.matches_found"] * per,
            "patterns.check_self_ms": self_time["patterns.check_accountability"] * ms,
            "scm.worlds_visited": visited * per,
            "scm.worlds_kept": kept * per,
            "scm.evidence_hit_ratio": kept / visited if visited else 0.0,
            "scm.enumerate_ms": enumerate_s * ms,
            "scm.worlds_per_s": visited / enumerate_s if enumerate_s else 0.0,
            "scm.evaluate_calls": counts["scm.evaluate"] * per,
            "scm.predict_ms": self_time["scm.counterfactual"] * ms,
        }

    def dump(self, path) -> None:
        """Write the counters as [name, op id, amount] triples, then the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            counters = {"counts": [[*k, n] for k, n in self.counts.items()], "sizes": [[*k, n] for k, n in self.sizes.items()]}
            fh.write(json.dumps(counters) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
