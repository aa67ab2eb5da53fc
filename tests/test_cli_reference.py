"""The CLI's golden outputs: a refactor leaves every pinned call's stdout
byte-identical and its exit code unchanged.

`cli_reference.json` holds the sha256 of stdout and the exit code of each
call that `cli_reference.calls()` lists; `cli_reference.py` writes it and
says which calls those are.  Horizons 64 and 256 of ``run --output json``
are pinned by the benchmark's own reference digests.
"""

import json

import pytest

from cli_reference import REFERENCE, calls, invoke

PINNED = json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_reference_pins_every_call():
    assert sorted(PINNED) == sorted(" ".join(argv) for argv in calls())


@pytest.mark.parametrize("command", sorted(PINNED))
def test_output_matches_reference(command):
    assert invoke(command.split(" ")) == PINNED[command]
