"""Replay the checked-in library transcript.

`library_transcript.jsonl` was written by `record_library.py`; this test
reads only that file. Each line names a library call and carries its inputs:
the call must return what the line records (the `to_json` text of a report,
a pattern or a model, byte for byte) or raise the recorded error with the
recorded message.
"""

import json

from record_library import TRANSCRIPT, outcome, unpack

OUTCOMES = ("json_zlib", "result", "error")


def test_library_calls_match_the_transcript():
    lines = TRANSCRIPT.read_text(encoding="utf-8").splitlines()
    differ = []
    for number, line in enumerate(lines, 1):
        want = json.loads(line)
        case = {key: value for key, value in want.items() if key not in OUTCOMES}
        if "json_zlib" in want:
            want["json"] = unpack(want.pop("json_zlib"))
        if outcome(case) != {key: want[key] for key in ("json", *OUTCOMES) if key in want}:
            differ.append((number, case["call"]))
    assert len(lines) > 800
    assert differ == []
