"""Record the expression goldens that `test_expression_goldens.py` replays.

    PYTHONPATH=src python tests/record_expression_goldens.py

Each line of `expression_goldens.jsonl` holds one seeded random model whose
function `y` has a random boolean body: chains of `|`, `&` and `==` of 2 to
400 terms, with `!`, `if`, redundant parentheses and shorter chains of the
other operators nested in the terms. A line holds the DSL text, the bytes
`to_dsl` writes for the parsed model and the bytes `to_json` writes for it.
The JSON of a long chain is mostly indentation (each level of a chain's left
spine indents two more spaces), so its bytes are stored zlib-compressed and
base64-encoded; the replay decompresses them and compares bytes exactly.

Regenerate it only with a change meant to alter output, and say in
CHANGES.md why.
"""

from __future__ import annotations

import base64
import json
import random
import zlib
from pathlib import Path

from causal_account.modelio import parse_model, to_dsl, to_json

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "expression_goldens.jsonl"
SEED = 21
COUNT = 120

HEADER = """model g
domain speed { low, mid, high }
exo a : bool
exo b : bool
exo c : bool
exo d : bool
exo s : speed
exo t : speed
var y : bool = """

BOOLS = ("a", "b", "c", "d", "true", "false")
SPEEDS = ("s", "t", "low", "mid", "high")


def _length(rng: random.Random) -> int:
    """A chain length: mostly short, now and then up to 400 terms."""
    if rng.random() < 0.1:
        return rng.randint(100, 400)
    return rng.randint(2, 12)


def _chain(rng: random.Random, depth: int, length: int) -> str:
    """A chain of one randomly chosen operator, `length` terms long."""
    op = rng.choice(("|", "&", "=="))
    if op != "==":
        return f" {op} ".join(_term(rng, depth) for _ in range(length))
    # the first two terms share a domain; every later term compares a bool
    if rng.random() < 0.5:
        head = [rng.choice(SPEEDS), rng.choice(SPEEDS)]
    else:
        head = [_term(rng, depth), _term(rng, depth)]
    return " == ".join(head + [_term(rng, depth) for _ in range(length - 2)])


def _term(rng: random.Random, depth: int) -> str:
    """One boolean operand, parenthesized where an operator needs it."""
    roll = rng.random()
    if depth == 0 or roll < 0.55:
        return rng.choice(BOOLS)
    if roll < 0.65:
        return "!" + _term(rng, depth - 1)
    if roll < 0.75:
        return f"(if {_chain(rng, depth - 1, 2)} then {_term(rng, depth - 1)} else {_term(rng, depth - 1)})"
    if roll < 0.8:
        return f"(({_term(rng, depth - 1)}))"
    return f"({_chain(rng, depth - 1, rng.randint(2, 5))})"


def _body(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return f"if {_term(rng, 2)} then {_chain(rng, 2, _length(rng))} else {_term(rng, 2)}"
    return _chain(rng, 2, _length(rng))


def _pack(text: str) -> str:
    return base64.b64encode(zlib.compress(text.encode(), 9)).decode("ascii")


def unpack(packed: str) -> str:
    return zlib.decompress(base64.b64decode(packed)).decode()


def main() -> None:
    rng = random.Random(SEED)
    with GOLDENS.open("w", encoding="utf-8") as out:
        for _ in range(COUNT):
            dsl = HEADER + _body(rng) + "\n"
            m = parse_model(dsl)
            line = {"dsl": dsl, "to_dsl": to_dsl(m), "to_json_zlib": _pack(to_json(m))}
            out.write(json.dumps(line, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
