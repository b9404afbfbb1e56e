"""Replay the checked-in expression goldens byte for byte.

`expression_goldens.jsonl` was written by `record_expression_goldens.py`;
this test reads only that file. Each model must serialize to the recorded
`to_dsl` and `to_json` bytes and read back equal from both.
"""

import json

from record_expression_goldens import GOLDENS, unpack

from causal_account.modelio import from_json, parse_model, to_dsl, to_json


def test_expression_bodies_serialize_as_recorded():
    lines = GOLDENS.read_text(encoding="utf-8").splitlines()
    differ = []
    for i, line in enumerate(lines):
        want = json.loads(line)
        m = parse_model(want["dsl"])
        dsl, text = to_dsl(m), to_json(m)
        if (dsl, text) != (want["to_dsl"], unpack(want["to_json_zlib"])):
            differ.append(i)
        elif parse_model(dsl) != m or from_json(text) != m:
            differ.append(i)
    assert len(lines) >= 100
    assert differ == []
