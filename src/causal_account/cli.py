"""Command-line front end.

Every analysis is a subcommand over a model given either as a file path
(`.scm.txt` DSL or `.json`) or as the name of a bundled model. Output is
line-oriented text by default, canonical JSON or DOT where a schema exists.
Exit codes: 0 on success, 1 on analysis errors and negative check verdicts,
2 on usage and parse errors.
"""

from __future__ import annotations

import functools
from pathlib import Path

import click

from . import __version__, models
from .errors import (
    CausalAccountError,
    GraphError,
    InterveneOnExogenous,
    MissingExogenous,
    ParseError,
    PatternError,
    SchemaError,
    SemanticError,
    ValueOutOfDomain,
)
from .graph import CausalGraph, d_separated
from .identify import identify, logging_set, minimal_backdoor_sets, satisfies_backdoor, satisfies_frontdoor
from .modelio import from_json, parse_model, parse_pattern, to_dot, to_json
from .patterns import (
    Pattern,
    Verdict,
    builtin_pattern,
    check_accountability,
    iter_matches,
    match_pattern,
)
from .scm import (
    Assignment,
    Scm,
    consistent_world_count,
    counterfactual,
    evaluate,
    intervene,
    iter_worlds,
    world_count,
)

_USAGE_ERRORS = (
    ParseError,
    SemanticError,
    SchemaError,
    GraphError,
    ValueOutOfDomain,
    MissingExogenous,
    InterveneOnExogenous,
    PatternError,
)


def _guard(fn):
    """Map library errors onto exit codes 2 (usage) and 1 (analysis)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _USAGE_ERRORS as err:
            raise click.UsageError(str(err)) from err
        except CausalAccountError as err:
            raise click.ClickException(str(err)) from err

    return wrapper


def _load_model(spec: str) -> Scm:
    path = Path(spec)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".json"):
            obj = from_json(text)
            if not isinstance(obj, Scm):
                raise click.UsageError(f"{spec} does not contain a model")
            return obj
        return parse_model(text)
    if spec in models.BUNDLED_MODELS:
        return models.load_model(spec)
    raise click.UsageError(
        f"{spec!r} is neither a model file nor a bundled model name "
        f"({', '.join(models.BUNDLED_MODELS)})"
    )


def _load_pattern(spec: str) -> Pattern:
    if spec in models.BUNDLED_PATTERNS:
        return builtin_pattern(spec)
    path = Path(spec)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".json"):
            obj = from_json(text)
            if not isinstance(obj, Pattern):
                raise click.UsageError(f"{spec} does not contain a pattern")
            return obj
        return parse_pattern(text)
    raise click.UsageError(
        f"{spec!r} is neither a pattern file nor a built-in pattern name "
        f"({', '.join(models.BUNDLED_PATTERNS)})"
    )


def _parse_bindings(m: Scm, pairs: tuple[str, ...], what: str) -> Assignment:
    out: Assignment = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise click.UsageError(f"{what} must look like NAME=VALUE, got {pair!r}")
        if name in out:
            raise click.UsageError(f"{what} sets {name} twice")
        m.graph.require(name)
        out[name] = m.domain_of(name).parse(raw)
    return out


def _parse_hints(p: Pattern, pairs: tuple[str, ...]) -> dict[str, str]:
    hints: dict[str, str] = {}
    for pair in pairs:
        role, sep, node = pair.partition("=")
        if not sep or not role:
            raise click.UsageError(f"--hint must look like Role=Node, got {pair!r}")
        if role in hints:
            raise click.UsageError(f"--hint binds role {role} twice")
        hints[role] = node
    return hints


def _split_names(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(part for part in (s.strip() for s in text.split(",")) if part)


def _render_set(g: CausalGraph, names) -> str:
    return "{" + ", ".join(g.sort_names(names)) + "}"


def _render_assignment(m: Scm, a: Assignment) -> str:
    return " ".join(
        f"{name}={m.domains[name].render(a[name])}"
        for name in m.graph.names
        if name in a
    )


def _echo_identification(g: CausalGraph, report) -> None:
    click.echo(f"treatment: {report.treatment}")
    click.echo(f"outcome: {report.outcome}")
    click.echo(f"status: {report.status.value}")
    for path in report.backdoor_paths:
        click.echo(f"backdoor path: {path}")
    for zset in report.minimal_backdoor_sets:
        click.echo(f"minimal backdoor set: {_render_set(g, zset)}")
    for zset in report.frontdoor_sets:
        click.echo(f"frontdoor set: {_render_set(g, zset)}")
    for note in report.notes:
        click.echo(f"note: {note}")


def _echo_logging(g: CausalGraph, rec) -> None:
    click.echo(f"must log: {_render_set(g, rec.must_log)}")
    click.echo(f"adjustment set: {_render_set(g, rec.adjustment_set_used)}")
    for line in rec.rationale:
        click.echo(line)


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Output rendering.",
)


@click.group()
@click.version_option(__version__, prog_name="causal-account")
def main() -> None:
    """Causal models, identifiability, and accountability patterns."""


@main.command()
@click.argument("model")
@_format_option
@_guard
def validate(model: str, fmt: str) -> None:
    """Parse MODEL and report its shape."""
    m = _load_model(model)
    if fmt == "json":
        click.echo(to_json(m), nl=False)
        return
    unspecified = [name for name in m.endogenous_names if not m.functions[name].specified]
    click.echo(
        f"ok: model {m.name} "
        f"({len(m.graph.nodes)} node(s), {len(m.graph.edges)} edge(s))"
    )
    if unspecified:
        click.echo("structure-only: " + ", ".join(unspecified))


@main.command("eval")
@click.argument("model")
@click.option("--set", "sets", multiple=True, metavar="NAME=VALUE", help="Root variable value; repeatable.")
@_guard
def eval_cmd(model: str, sets: tuple[str, ...]) -> None:
    """Evaluate MODEL under a full root assignment."""
    m = _load_model(model)
    world = evaluate(m, _parse_bindings(m, sets, "--set"))
    for name in m.graph.names:
        click.echo(f"{name}={m.domains[name].render(world[name])}")


@main.command()
@click.argument("model")
@click.option("--evidence", multiple=True, metavar="NAME=VALUE", help="Observed value; repeatable.")
@_guard
def worlds(model: str, evidence: tuple[str, ...]) -> None:
    """List the total assignments consistent with the evidence."""
    m = _load_model(model)
    observed = _parse_bindings(m, evidence, "--evidence")
    # count first, then stream: the checks fail before any output, and no
    # list of worlds is held
    click.echo(f"worlds: {consistent_world_count(m, observed)}")
    for world in iter_worlds(m, observed):
        click.echo(_render_assignment(m, world))


@main.command()
@click.argument("model")
@click.option("--set", "sets", multiple=True, required=True, metavar="NAME=VALUE", help="Intervened value; repeatable.")
@click.option(
    "--then",
    type=click.Choice(["eval", "export"]),
    default="eval",
    show_default=True,
    help="What to do with the mutilated model.",
)
@_guard
def do(model: str, sets: tuple[str, ...], then: str) -> None:
    """Cut incoming edges and pin values, then evaluate or export."""
    m = _load_model(model)
    mutilated = intervene(m, _parse_bindings(m, sets, "--set"))
    if then == "export":
        click.echo(to_dot(mutilated.graph, name=mutilated.name), nl=False)
        return
    # checked before the functions, so the cap wins over a structure-only one
    world_count(mutilated)
    for world in iter_worlds(mutilated, {}):
        click.echo(_render_assignment(mutilated, world))


@main.command()
@click.argument("model")
@click.option("--evidence", multiple=True, metavar="NAME=VALUE", help="Observed value; repeatable.")
@click.option("--do", "dos", multiple=True, metavar="NAME=VALUE", help="Counterfactual intervention; repeatable.")
@click.option("--query", required=True, metavar="NAME[,NAME]", help="Variables to report.")
@_guard
def cf(model: str, evidence: tuple[str, ...], dos: tuple[str, ...], query: str) -> None:
    """Answer a counterfactual query."""
    m = _load_model(model)
    names = _split_names(query)
    if not names:
        raise click.UsageError("--query needs at least one variable name")
    result = counterfactual(
        m,
        _parse_bindings(m, evidence, "--evidence"),
        _parse_bindings(m, dos, "--do"),
        names,
    )
    parts = []
    for name in m.graph.sort_names(result):
        domain = m.domains[name]
        ordered = [v for v in domain.values if v in result[name]]
        if len(ordered) == 1:
            parts.append(f"{name}={domain.render(ordered[0])}")
        else:
            parts.append(
                f"{name}={{" + ", ".join(domain.render(v) for v in ordered) + "}"
            )
    click.echo(" ".join(parts))


@main.command()
@click.argument("model")
@click.option("--x", required=True, metavar="NAME[,NAME]")
@click.option("--y", required=True, metavar="NAME[,NAME]")
@click.option("--given", default=None, metavar="NAME[,NAME]")
@_guard
def dsep(model: str, x: str, y: str, given: str | None) -> None:
    """Decide d-separation of --x and --y given --given."""
    m = _load_model(model)
    answer = d_separated(m.graph, _split_names(x), _split_names(y), _split_names(given))
    click.echo(f"d-separated: {'true' if answer else 'false'}")


@main.command()
@click.argument("model")
@click.option("--x", required=True, metavar="NAME")
@click.option("--y", required=True, metavar="NAME")
@click.option("--z", default=None, metavar="NAME[,NAME]", help="Check this set instead of enumerating.")
@_guard
def backdoor(model: str, x: str, y: str, z: str | None) -> None:
    """Check or enumerate back-door adjustment sets."""
    m = _load_model(model)
    if z is not None:
        ok = satisfies_backdoor(m.graph, _split_names(z), x, y)
        click.echo(f"satisfies backdoor: {'true' if ok else 'false'}")
        return
    found = minimal_backdoor_sets(m.graph, x, y)
    if not found:
        click.echo("none")
    for zset in found:
        click.echo(_render_set(m.graph, zset))


@main.command()
@click.argument("model")
@click.option("--x", required=True, metavar="NAME")
@click.option("--y", required=True, metavar="NAME")
@click.option("--z", default=None, metavar="NAME[,NAME]", help="Check this set instead of enumerating.")
@_guard
def frontdoor(model: str, x: str, y: str, z: str | None) -> None:
    """Check or enumerate front-door mediator sets."""
    m = _load_model(model)
    if z is not None:
        ok = satisfies_frontdoor(m.graph, _split_names(z), x, y)
        click.echo(f"satisfies frontdoor: {'true' if ok else 'false'}")
        return
    found = identify(m.graph, x, y).frontdoor_sets
    if not found:
        click.echo("none")
    for zset in found:
        click.echo(_render_set(m.graph, zset))


@main.command("identify")
@click.argument("model")
@click.option("--x", required=True, metavar="NAME")
@click.option("--y", required=True, metavar="NAME")
@click.option("--trust-proxies", is_flag=True, help="Let proxies stand in for their latent principals.")
@_format_option
@_guard
def identify_cmd(model: str, x: str, y: str, trust_proxies: bool, fmt: str) -> None:
    """Report how the effect of --x on --y is identified."""
    m = _load_model(model)
    report = identify(m.graph, x, y, trust_proxies)
    if fmt == "json":
        click.echo(to_json(report), nl=False)
        return
    _echo_identification(m.graph, report)


@main.command()
@click.argument("model")
@click.option("--x", required=True, metavar="NAME")
@click.option("--y", required=True, metavar="NAME")
@click.option("--allowed", default=None, metavar="NAME[,NAME]", help="Restrict adjustment sets to these nodes.")
@_format_option
@_guard
def logset(model: str, x: str, y: str, allowed: str | None, fmt: str) -> None:
    """Recommend the variables to log for the --x to --y effect."""
    m = _load_model(model)
    restriction = _split_names(allowed) if allowed is not None else None
    rec = logging_set(m.graph, x, y, allowed=restriction)
    if fmt == "json":
        click.echo(to_json(rec), nl=False)
        return
    _echo_logging(m.graph, rec)


@main.command()
@click.argument("model")
@click.option("--pattern", "pattern_spec", required=True, metavar="NAME|FILE")
@click.option("--hint", "hint_pairs", multiple=True, metavar="ROLE=NODE")
@_guard
def match(model: str, pattern_spec: str, hint_pairs: tuple[str, ...]) -> None:
    """List the matches of a pattern in MODEL."""
    m = _load_model(model)
    p = _load_pattern(pattern_spec)
    found = match_pattern(m.graph, p, _parse_hints(p, hint_pairs))
    if not found:
        click.echo("no match")
        return
    for item in found:
        click.echo(
            "match: "
            + " ".join(f"{role}={item.binding[role]}" for role in p.role_names())
        )


@main.command()
@click.argument("model")
@click.option("--pattern", "pattern_spec", required=True, metavar="NAME|FILE")
@click.option("--hint", "hint_pairs", multiple=True, metavar="ROLE=NODE")
@_format_option
@_guard
def check(model: str, pattern_spec: str, hint_pairs: tuple[str, ...], fmt: str) -> None:
    """Match a pattern and decide accountability; exit 1 when negative."""
    m = _load_model(model)
    p = _load_pattern(pattern_spec)
    first = next(iter_matches(m.graph, p, _parse_hints(p, hint_pairs)), None)
    if first is None:
        click.echo(f"no match for pattern {p.name}")
        raise SystemExit(1)
    report = check_accountability(m.graph, p, first)
    if fmt == "json":
        click.echo(to_json(report), nl=False)
    else:
        click.echo(f"pattern: {report.pattern}")
        click.echo(
            "match: "
            + " ".join(
                f"{role}={report.match.binding[role]}" for role in p.role_names()
            )
        )
        click.echo(f"agent: {report.agent}")
        click.echo(f"effect: {report.effect}")
        click.echo(f"verdict: {report.verdict.value}")
        click.echo(f"status: {report.identification.status.value}")
        if report.logging is not None:
            _echo_logging(m.graph, report.logging)
        for note in report.identification.notes:
            click.echo(f"note: {note}")
    if report.verdict is Verdict.NOT_ATTRIBUTABLE:
        raise SystemExit(1)


@main.command()
@click.argument("model")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["dot", "json"]),
    default="dot",
    show_default=True,
    help="Export format.",
)
@click.option("--highlight-match", "highlight", default=None, metavar="NAME|FILE", help="Highlight the first match of this pattern.")
@click.option("--hint", "hint_pairs", multiple=True, metavar="ROLE=NODE")
@_guard
def export(model: str, fmt: str, highlight: str | None, hint_pairs: tuple[str, ...]) -> None:
    """Write MODEL as DOT or canonical JSON."""
    m = _load_model(model)
    if fmt == "json":
        click.echo(to_json(m), nl=False)
        return
    match_to_highlight = None
    if highlight is not None:
        p = _load_pattern(highlight)
        hints = _parse_hints(p, hint_pairs)
        match_to_highlight = next(iter_matches(m.graph, p, hints), None)
        if match_to_highlight is None:
            raise click.ClickException(f"no match of pattern {p.name} to highlight")
    click.echo(to_dot(m.graph, match_to_highlight, name=m.name), nl=False)
