"""The README's shell examples, run through the CLI.

Each `$ causal-account ...` line of a `sh` block is one example; the lines
under it, up to a blank line, the next `$` line or the end of the block, are
its output. A shown `...` line ends the output early: what is shown above it
must be a prefix of the real output. An example that shows no output only has
to exit 0 or 1.
"""

import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from causal_account.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    in_sh = False
    shown = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            shown = None
        elif in_sh and line.startswith("$ causal-account "):
            shown = []
            examples.append((line[2:], shown))
        elif (in_sh and line.startswith("$")) or not line:
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, shown):
    res = CliRunner().invoke(main, shlex.split(command)[1:])
    assert res.exit_code in (0, 1), res.output
    if "..." in shown:
        head = shown[: shown.index("...")]
        assert res.stdout.splitlines()[: len(head)] == head
    elif shown:
        assert res.stdout.splitlines() == shown
