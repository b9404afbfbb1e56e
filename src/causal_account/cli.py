"""Command-line front end.

Every analysis is a subcommand over a model given either as a file path
(`.scm.txt` DSL or `.json`) or as the name of a bundled model. Output is
line-oriented text by default, canonical JSON or DOT where a schema exists.
Exit codes: 0 on success, 1 on analysis errors and negative check verdicts,
2 on usage and parse errors.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path
from typing import Iterable

import click

from . import __version__, models
from .errors import (
    CausalAccountError,
    GraphError,
    InterveneOnExogenous,
    InvalidSetting,
    MissingExogenous,
    NonRootAssignment,
    ParseError,
    PatternError,
    SchemaError,
    SemanticError,
    ValueOutOfDomain,
)
from .graph import CausalGraph, d_separated
# the back-door and front-door functions are called by name in `_criterion_command`
from .identify import (
    _frontdoor_sets,
    identify,
    logging_set,
    minimal_backdoor_sets,
    satisfies_backdoor,
    satisfies_frontdoor,
)
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
    NonRootAssignment,
    InterveneOnExogenous,
    PatternError,
    InvalidSetting,
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


def _model_command(fn):
    """Give a command the MODEL argument, first among its parameters, and
    call it with the loaded model in its place; errors map as in `_guard`."""

    @functools.wraps(fn)
    def command(model: str, **options):
        return fn(_load_model(model), **options)

    return click.argument("model")(_guard(command))


def _read_file(spec: str, kind: type, what: str, parse):
    """The `kind` in the `.json` or DSL file `spec`; None if there is no such file."""
    path = Path(spec)
    if not path.is_file():
        return None
    text = path.read_text(encoding="utf-8")
    obj = from_json(text) if path.name.endswith(".json") else parse(text)
    if not isinstance(obj, kind):
        raise click.UsageError(f"{spec} does not contain a {what}")
    return obj


def _load_model(spec: str) -> Scm:
    if (m := _read_file(spec, Scm, "model", parse_model)) is not None:
        return m
    if spec in models.BUNDLED_MODELS:
        return models.load_model(spec)
    raise click.UsageError(
        f"{spec!r} is neither a model file nor a bundled model name "
        f"({', '.join(models.BUNDLED_MODELS)})"
    )


def _load_pattern(spec: str) -> Pattern:
    if spec in models.BUNDLED_PATTERNS:
        return builtin_pattern(spec)
    if (p := _read_file(spec, Pattern, "pattern", parse_pattern)) is not None:
        return p
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


# worlds printed per click.echo call, which costs more than rendering a line
_ECHO_LINES = 1 << 12


def _echo_worlds(m: Scm, worlds: Iterable[Assignment]) -> None:
    """Print each world of `m` as `name=value` pairs in declaration order.

    Every variable gets a table from each value to its rendered pair, built
    once, so a line is one join of lookups; the worlds come from
    `iter_worlds`, keyed in declaration order.
    """
    tables = [
        {value: f"{name}={m.domains[name].render(value)}" for value in m.domains[name].values}
        for name in m.graph.names
    ]

    def line(world: Assignment) -> str:
        return " ".join(map(dict.__getitem__, tables, world.values()))

    lines = map(line, worlds)
    while batch := list(itertools.islice(lines, _ECHO_LINES)):
        click.echo("\n".join(batch))


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


def _echo_match(p: Pattern, match) -> None:
    click.echo("match: " + " ".join(f"{role}={match.binding[role]}" for role in p.role_names()))


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
@_model_command
@_format_option
def validate(m: Scm, fmt: str) -> None:
    """Parse MODEL and report its shape."""
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
@_model_command
@click.option("--set", "sets", multiple=True, metavar="NAME=VALUE", help="Root variable value; repeatable.")
def eval_cmd(m: Scm, sets: tuple[str, ...]) -> None:
    """Evaluate MODEL under a full root assignment."""
    world = evaluate(m, _parse_bindings(m, sets, "--set"))
    for name in m.graph.names:
        click.echo(f"{name}={m.domains[name].render(world[name])}")


@main.command()
@_model_command
@click.option("--evidence", multiple=True, metavar="NAME=VALUE", help="Observed value; repeatable.")
def worlds(m: Scm, evidence: tuple[str, ...]) -> None:
    """List the total assignments consistent with the evidence."""
    observed = _parse_bindings(m, evidence, "--evidence")
    # count first, then stream: the checks fail before any output, and no
    # list of worlds is held
    click.echo(f"worlds: {consistent_world_count(m, observed)}")
    _echo_worlds(m, iter_worlds(m, observed))


@main.command()
@_model_command
@click.option("--set", "sets", multiple=True, required=True, metavar="NAME=VALUE", help="Intervened value; repeatable.")
@click.option(
    "--then",
    type=click.Choice(["eval", "export"]),
    default="eval",
    show_default=True,
    help="What to do with the mutilated model.",
)
def do(m: Scm, sets: tuple[str, ...], then: str) -> None:
    """Cut incoming edges and pin values, then evaluate or export."""
    mutilated = intervene(m, _parse_bindings(m, sets, "--set"))
    if then == "export":
        click.echo(to_dot(mutilated.graph, name=mutilated.name), nl=False)
        return
    # checked before the functions, so the cap wins over a structure-only one
    world_count(mutilated)
    _echo_worlds(mutilated, iter_worlds(mutilated, {}))


@main.command()
@_model_command
@click.option("--evidence", multiple=True, metavar="NAME=VALUE", help="Observed value; repeatable.")
@click.option("--do", "dos", multiple=True, metavar="NAME=VALUE", help="Counterfactual intervention; repeatable.")
@click.option("--query", required=True, metavar="NAME[,NAME]", help="Variables to report.")
def cf(m: Scm, evidence: tuple[str, ...], dos: tuple[str, ...], query: str) -> None:
    """Answer a counterfactual query."""
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
@_model_command
@click.option("--x", required=True, metavar="NAME[,NAME]")
@click.option("--y", required=True, metavar="NAME[,NAME]")
@click.option("--given", default=None, metavar="NAME[,NAME]")
def dsep(m: Scm, x: str, y: str, given: str | None) -> None:
    """Decide d-separation of --x and --y given --given."""
    xs, ys = _split_names(x), _split_names(y)
    if not xs:
        raise click.UsageError("--x needs at least one variable name")
    if not ys:
        raise click.UsageError("--y needs at least one variable name")
    answer = d_separated(m.graph, xs, ys, _split_names(given))
    click.echo(f"d-separated: {'true' if answer else 'false'}")


def _criterion_command(criterion: str, check: str, listing: str, summary: str) -> None:
    """Define the command that checks --z against `criterion` or lists the sets
    that meet it. `check` and `listing` name functions of this module, looked
    up when the command runs, so a wrapper installed after import is called."""

    @main.command(criterion, help=summary)
    @_model_command
    @click.option("--x", required=True, metavar="NAME")
    @click.option("--y", required=True, metavar="NAME")
    @click.option("--z", default=None, metavar="NAME[,NAME]", help="Check this set instead of enumerating.")
    def command(m: Scm, x: str, y: str, z: str | None) -> None:
        if z is not None:
            ok = globals()[check](m.graph, _split_names(z), x, y)
            click.echo(f"satisfies {criterion}: {'true' if ok else 'false'}")
            return
        found = globals()[listing](m.graph, x, y)
        if not found:
            click.echo("none")
        for zset in found:
            click.echo(_render_set(m.graph, zset))


_criterion_command("backdoor", "satisfies_backdoor", "minimal_backdoor_sets", "Check or enumerate back-door adjustment sets.")
_criterion_command("frontdoor", "satisfies_frontdoor", "_frontdoor_sets", "Check or enumerate front-door mediator sets.")


@main.command("identify")
@_model_command
@click.option("--x", required=True, metavar="NAME")
@click.option("--y", required=True, metavar="NAME")
@click.option("--trust-proxies", is_flag=True, help="Let proxies stand in for their latent principals.")
@_format_option
def identify_cmd(m: Scm, x: str, y: str, trust_proxies: bool, fmt: str) -> None:
    """Report how the effect of --x on --y is identified."""
    report = identify(m.graph, x, y, trust_proxies)
    if fmt == "json":
        click.echo(to_json(report), nl=False)
        return
    _echo_identification(m.graph, report)


@main.command()
@_model_command
@click.option("--x", required=True, metavar="NAME")
@click.option("--y", required=True, metavar="NAME")
@click.option("--allowed", default=None, metavar="NAME[,NAME]", help="Restrict adjustment sets to these nodes.")
@_format_option
def logset(m: Scm, x: str, y: str, allowed: str | None, fmt: str) -> None:
    """Recommend the variables to log for the --x to --y effect."""
    restriction = _split_names(allowed) if allowed is not None else None
    rec = logging_set(m.graph, x, y, allowed=restriction)
    if fmt == "json":
        click.echo(to_json(rec), nl=False)
        return
    _echo_logging(m.graph, rec)


@main.command()
@_model_command
@click.option("--pattern", "pattern_spec", required=True, metavar="NAME|FILE")
@click.option("--hint", "hint_pairs", multiple=True, metavar="ROLE=NODE")
def match(m: Scm, pattern_spec: str, hint_pairs: tuple[str, ...]) -> None:
    """List the matches of a pattern in MODEL."""
    p = _load_pattern(pattern_spec)
    found = match_pattern(m.graph, p, _parse_hints(p, hint_pairs))
    if not found:
        click.echo("no match")
        return
    for item in found:
        _echo_match(p, item)


@main.command()
@_model_command
@click.option("--pattern", "pattern_spec", required=True, metavar="NAME|FILE")
@click.option("--hint", "hint_pairs", multiple=True, metavar="ROLE=NODE")
@_format_option
def check(m: Scm, pattern_spec: str, hint_pairs: tuple[str, ...], fmt: str) -> None:
    """Match a pattern and decide accountability; exit 1 when negative."""
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
        _echo_match(p, report.match)
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
    if highlight is not None and fmt == "json":
        raise click.UsageError("--highlight-match needs --format dot")
    if hint_pairs and highlight is None:
        raise click.UsageError("--hint needs --highlight-match")
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
