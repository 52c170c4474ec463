"""Every case of cli_corpus.json prints the same stdout, byte for byte, and
exits with the same code.

The digests detect a change; they are not an oracle.  A change that moves
one lists the case and its reason in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from corrwork import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")


def test_every_case_replays_its_exit_code_and_stdout(capsys):
    cases = json.loads(CORPUS.read_text())["cases"]
    changed = []
    for case in cases:
        code = cli.main(case["argv"])
        out = capsys.readouterr().out
        got = (code, hashlib.sha256(out.encode()).hexdigest())
        if got != (case["exit"], case["stdout_sha256"]):
            changed.append(" ".join(case["argv"]))
    assert not changed
