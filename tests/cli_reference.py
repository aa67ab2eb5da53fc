"""Write cli_reference.json: the golden outputs of the CLI.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/cli_reference.py

For every call in `calls()` the file records the sha256 of stdout and the
exit code of `cli.main`, run in process.  The calls are, on each shipped
scenario, ``run --output json --horizon 8``, text ``run``, ``validate`` and
``caratheodory``; ``run --output json`` at horizons 1 to 4 on the
documents in `SHORT_HORIZON`, whose checks read a sequence: there the
horizon decides whether the declared cycle or stabilization is sampled in
full, how many samples the order and pointwise tests read, or how high
the divergence ladder climbs; and ``compare`` of both kinds at ``--n`` 1,
8, 16 and 64 (the cap), in json and in text.  `tests/test_cli_reference.py`
makes the same calls and compares, so a refactor that changes any of
these outputs fails tier 1.
Regenerate only for a change that is meant to alter output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "cli_reference.json"
SHORT_HORIZON = ("borel_cantelli_parts.json", "continuity_above_basic.json",
                 "continuity_below_basic.json", "dct_stabilizing.json",
                 "dct_geometric.json", "fatou_alternating.json", "fatou_constant.json",
                 "mct_basic.json", "mct_decreasing_basic.json",
                 "mct_decreasing_infinite.json", "mct_divergent.json",
                 "series_truncation.json")


def calls() -> list:
    """Every pinned call, as an argv whose scenario paths are relative to ROOT."""
    out = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        name = f"scenarios/{path.name}"
        out += [["run", name, "--output", "json", "--horizon", "8"], ["run", name],
                ["validate", name], ["caratheodory", name]]
    for path in SHORT_HORIZON:
        out += [["run", f"scenarios/{path}", "--output", "json", "--horizon", h]
                for h in ("1", "2", "3", "4")]
    for kind in ("sup_measure", "series_measure"):
        for n in ("1", "8", "16", "64"):
            for output in ("json", "text"):
                out.append(["compare", kind, "--n", n, "--output", output])
    return out


def invoke(argv: list) -> dict:
    """The sha256 of the call's stdout and its exit code; stderr is dropped."""
    from ordmeasure import cli
    argv = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"sha256": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest(),
            "exit": code}


def main() -> int:
    doc = {" ".join(argv): invoke(argv) for argv in calls()}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
