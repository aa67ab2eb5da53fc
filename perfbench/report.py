"""Print every end-to-end metric of every workload in one table.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``perfbench/run.py --trace 0`` once per workload, one after another,
and prints one row per metric, with its unit, and one column per workload,
followed by ``failed_ratio``, the failed item executions divided by the
attempted ones.  Exits 1 if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: run failed with exit code {proc.returncode}")
            return 1
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])

    names = list(results)
    print(f"{'metric':<16} {'unit':<6}" + "".join(f"{n:>14}" for n in names))
    first = results[names[0]]["metrics"]
    for metric, entry in first.items():
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>14.6g}" for n in names)
        print(f"{metric:<16} {entry['unit']:<6}{cells}")
    ratios = "".join(f"{results[n]['failed'] / results[n]['attempted']:>14.6g}"
                     for n in names)
    print(f"{'failed_ratio':<16} {'1':<6}{ratios}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
