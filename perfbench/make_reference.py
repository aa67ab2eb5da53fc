"""Write reference.json: the sha256 of every default-seed item's CLI output.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Each digest is taken from ``python -m ordmeasure.cli`` stdout, which must
exit 0.  The ``suite`` items at horizon 64 are ``ordmeasure run --output
json`` on the shipped scenarios, the reference output of the project.
Regenerate only for a change that is meant to alter reports.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DEFAULT_SEED, HERE, ROOT, WORK, cli, sha
import workloads


def main() -> int:
    digests = {}
    work = WORK / "reference"
    try:
        for workload in sorted(workloads.WORKLOADS):
            items = workloads.build_items(workload, DEFAULT_SEED, ROOT)
            workloads.write_inputs(items, work / workload)
            for item in items:
                proc = cli(item.cli_args())
                if proc is None or proc.returncode != 0:
                    print(f"{item.id}: CLI failed", file=sys.stderr)
                    return 1
                digests[item.id] = sha(proc.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"default_seed": DEFAULT_SEED, "digests": dict(sorted(digests.items()))}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
