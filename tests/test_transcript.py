"""Replay the checked-in CLI transcript byte for byte.

`cli_transcript.jsonl` was written by `record_transcript.py`; this test
reads only that file, so any change to a command's exit code, stdout or
stderr shows here, including bytes no golden pins.
"""

import json
from pathlib import Path

from click.testing import CliRunner
from record_transcript import TRANSCRIPT, invoke


def test_cli_output_matches_the_transcript():
    header, *lines = TRANSCRIPT.read_text(encoding="utf-8").splitlines()
    runner = CliRunner()
    differ = []
    with runner.isolated_filesystem():
        for name, text in json.loads(header)["files"].items():
            Path(name).write_text(text, encoding="utf-8")
        for line in lines:
            want = json.loads(line)
            got = invoke(runner, want["argv"], want["env"])
            if got != {k: want[k] for k in ("code", "stdout", "stderr")}:
                differ.append(want["argv"])
    assert len(lines) > 1200
    assert differ == []
