"""Self-test of the benchmark's generators and tracer.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It exits 0 when all of these hold, and prints each failure otherwise:

1. For seeds 1 to 3, every generated ``ground`` and ``loewner`` document
   passes ``python -m ordmeasure.cli validate`` with exit 0, and every check
   in it reaches ``holds``.
2. On small inputs (the shipped scenarios at horizon 8, a cover-sum outer
   measure on 5 points, Loewner documents of dimension 2 with values up to
   6, and a comparison at n = 4) the traced counters match closed forms:
   ``outer.measurable.calls`` is 2^n for each extraction, the order tests
   under each outer-measure validation are 2^n + n 2^(n-1) + 2^(n-1)(2^n+1),
   ``measures.identities.pairs`` is |family|^2, which is also the report's
   ``pairs_checked``, and ``integral.ladder.rungs`` is at most
   max(1, ceil(max finite value)) + 1 for each integral.  A wrapper that
   misses a binding of a traced function breaks one of these.
3. Two traced runs of the small inputs give the same count and ratio
   metrics, and traced reports equal untraced ones.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys

from run import ROOT, WORK, cli, run_item
import workloads
from workloads import Item

sys.path.insert(0, str(ROOT / "src"))

from ordmeasure.rationals import is_infinite  # noqa: E402
from tracing import Tracer  # noqa: E402

SEEDS = (1, 2, 3)


def check_generated(errors: list):
    work = WORK / "selftest"
    try:
        for workload in ("ground", "loewner"):
            for seed in SEEDS:
                items = workloads.build_items(workload, seed, ROOT)
                workloads.write_inputs(items, work)
                for item in items:
                    if item.doc is None:
                        continue
                    proc = cli(["validate", str(item.path)])
                    if proc is None or proc.returncode != 0:
                        errors.append(f"seed {seed} {item.id}: validate failed")
                    report = json.loads(run_item(item))
                    statuses = {c["status"] for c in report["checks"]}
                    if statuses != {"holds"}:
                        errors.append(f"seed {seed} {item.id}: {sorted(statuses)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def small_items() -> list:
    items = [Item(f"suite/{path.stem}@8", json.loads(path.read_text(encoding="utf-8")), 8)
             for path in sorted((ROOT / "scenarios").glob("*.json"))]
    rng = random.Random("selftest")
    items.append(Item("ground/n5", workloads.ground_document(5, rng, nblocks=2), 64))
    items += [Item(f"loewner/d2-{kind}", workloads.loewner_document(2, kind, rng, top=6), 64)
              for kind in workloads.LOEWNER_KINDS]
    items.append(Item("compare/series_measure-4", compare=("series_measure", 4)))
    return items


def traced_run(items: list, errors: list):
    """Run the items traced, checking counters against closed forms."""
    tracer = Tracer()
    expected_pairs = [0]

    def extract(args, result, before):
        made = tracer.calls["outer.measurable"] - before.get("outer.measurable", 0)
        if made != 2 ** args[0].ground_size:
            errors.append(f"{tracer.item}: {made} measurable tests, "
                          f"expected 2^{args[0].ground_size}")

    def validate(args, result, before):
        n = args[2]
        made = tracer.calls["extended.ext_leq"] - before.get("extended.ext_leq", 0)
        # positivity of each value, single-point monotonicity, pairs a <= b
        expected = 2 ** n + n * 2 ** (n - 1) + 2 ** (n - 1) * (2 ** n + 1)
        if made != expected:
            errors.append(f"{tracer.item}: {made} order tests in validate, "
                          f"expected {expected}")

    def identities(args, result, before):
        pairs = len(args[0].space.sets) ** 2
        expected_pairs[0] += pairs
        if result.details["pairs_checked"] != pairs:
            errors.append(f"{tracer.item}: pairs_checked "
                          f"{result.details['pairs_checked']} != |family|^2 {pairs}")

    def integrate(args, result, before):
        rungs = tracer.calls["integral.truncate"] - before.get("integral.truncate", 0)
        top = max((v for v in args[0].values if not is_infinite(v)), default=0)
        if not 1 <= rungs <= max(1, math.ceil(top)) + 1:
            errors.append(f"{tracer.item}: {rungs} ladder rungs for top value {top}")

    tracer.on_exit.update({"outer.validate": validate,
                           "outer.extract": extract,
                           "measures.identities": identities,
                           "integral.integrate": integrate})
    tracer.install()
    try:
        texts = [tracer.run_item(item.id, lambda item=item: run_item(item))
                 for item in items]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    if metrics["measures.identities.pairs"][0] != expected_pairs[0]:
        errors.append(f"measures.identities.pairs {metrics['measures.identities.pairs'][0]}"
                      f" != {expected_pairs[0]}")
    for name in ("outer.measurable.calls", "measures.identities.pairs",
                 "integral.ladder.rungs"):
        if metrics[name][0] == 0:
            errors.append(f"{name} is 0 on the small inputs")
    return texts, {k: v for k, (v, unit) in metrics.items() if unit in ("count", "1")}


def main() -> int:
    errors = []
    check_generated(errors)
    items = small_items()
    plain = [run_item(item) for item in items]
    first_texts, first = traced_run(items, errors)
    second_texts, second = traced_run(items, errors)
    if first != second:
        diff = sorted(k for k in first if first[k] != second[k])
        errors.append(f"counts differ between traced runs: {diff}")
    for item, a, b, c in zip(items, plain, first_texts, second_texts):
        if not a == b == c:
            errors.append(f"{item.id}: traced report differs from untraced")
    for error in errors:
        print(f"FAILED {error}")
    print(f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
