"""The ordmeasure benchmark: time to verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite|ground|loewner --seed N \\
        --seconds S --trace 0|1

The runner imports the library from ``src/`` and builds the workload's
items from the seed (see ``workloads.py``).  Load comes from this one
process as a single closed-loop caller: each item starts when the previous
one returns, and CLI subprocesses run one at a time.  Every pass parses
every document again, as the CLI does.

Times are scaled to a reference speed of the host (see ``Clock``): the
wall time of each timed call is divided by the host's speed relative to
the reference, measured by calibration chunks around and during the call.

``--trace 0`` measures the end-to-end metrics with tracing off: a fixed
number of in-process passes per second of ``--seconds`` (see
``workloads.WORKLOADS``), then one pass through ``python -m
ordmeasure.cli``.  ``--trace 1`` runs one untraced and one traced
in-process pass and reports the per-layer metrics of the traced one; its
spans are written to ``perfbench/.out/``.

Every item execution is checked.  It fails when it raises, when a check
misses its expectation, when its report differs between passes or from the
CLI's stdout, when the CLI exits non-zero, or when its sha256 differs from
``reference.json``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print the same metrics for a reader.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, not the library)

DEFAULT_SEED = 0
SETUP_REPS = 11
STARTUP_REPS = 5
CLI_TIMEOUT_S = 150
WORK = HERE / ".work"
OUT = HERE / ".out"
# Calibration runs a fixed stdlib kernel: CHUNK_KERNELS of them around each
# timed call, and SAMPLE_KERNELS every SAMPLE_PERIOD_S during it.  On the
# reference host one kernel takes REFERENCE_KERNEL_S, about its median on a
# 2-core x86 machine.
CHUNK_KERNELS = 20
SAMPLE_KERNELS = 2
SAMPLE_PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.0005
# An untraced item sample covers at least MIN_SAMPLE_S of executions of the
# item, and at most MAX_REPEATS of them (see timed_item).
MIN_SAMPLE_S = 0.05
MAX_REPEATS = 16
KERNEL_MATRIX = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i + 2 * j) % 5)
                  for j in range(5)] for i in range(5)]


def kernel():
    """Stdlib work like the library's: exact Fraction elimination, sets, dicts."""
    a = [row[:] for row in KERNEL_MATRIX]
    det = Fraction(1)
    for c in range(5):
        p = next(r for r in range(c, 5) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        det *= a[c][c]
        for r in range(c + 1, 5):
            f = a[r][c] / a[c][c]
            for k in range(c, 5):
                a[r][k] -= f * a[c][k]
    sets = {frozenset(range(i % 7, i % 7 + 3)): i for i in range(200)}
    return det, len(sets)


def calibration(kernels: int) -> float:
    """Wall time of one kernel, averaged over `kernels` of them."""
    t0 = time.perf_counter()
    for _ in range(kernels):
        kernel()
    return (time.perf_counter() - t0) / kernels


def pin_to_one_cpu():
    """Run this process, and the CLI processes it starts, on one CPU.

    Each CPU of a shared host changes speed on its own, so calibration only
    tracks the speed of the timed work when both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Clock:
    """Wall times scaled to the reference speed of the host.

    Each CPU of a shared host changes speed by up to 3x, over tenths of a
    second and over minutes, as its neighbours load it.  The process's CPU
    time moves with its wall time, so it is no steadier.  Calibration, a
    stdlib kernel that never calls the library, measures that speed: a
    chunk runs before the first timed call and after each one, and a
    SIGALRM handler samples it every SAMPLE_PERIOD_S during the call.  A
    call's scaled time is its wall time, less the time spent in the
    handler, times REFERENCE_KERNEL_S over the mean kernel time of the
    chunks around it and the samples inside it.  A change to the library
    moves the scaled time as it moves the wall time; the host's speed
    largely cancels.

    A CLI process runs on the same CPU (see `pin_to_one_cpu`), so a sample
    taken while this process waits for it measures that CPU too; the child
    waits while the sample runs, and that time is left out like any other.
    """

    def __init__(self):
        self.before = calibration(CHUNK_KERNELS)
        self.speeds = [self.before]
        self.samples = []
        self.paused = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration(SAMPLE_KERNELS))
        self.paused += time.perf_counter() - t0

    def time(self, fn):
        """Call fn(); return its result and its scaled time in seconds."""
        self.samples, self.paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - t0 - self.paused
            signal.signal(signal.SIGALRM, previous)
            after = calibration(CHUNK_KERNELS)
            kernel_s = statistics.fmean([self.before, after, *self.samples])
            scaled = raw * REFERENCE_KERNEL_S / kernel_s
            self.before = after
            self.speeds += [after, *self.samples]
            self.raw_s += raw
            self.scaled_s += scaled
        return result, scaled

    def note(self) -> str:
        return (f"host speed {REFERENCE_KERNEL_S / statistics.median(self.speeds):.3f}"
                f" of the reference; {self.raw_s:.3f} s wall time scaled to"
                f" {self.scaled_s:.3f} s")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ledger:
    """Attempted and failed item executions, with the reasons."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference["digests"]
        self.check_seeded = seed == reference["default_seed"]
        self.first = {}  # item id -> canonical report of the first pass
        self.attempted = 0
        self.failures = []

    def record(self, item, text, error=None):
        self.attempted += 1
        reason = error
        if reason is None:
            referenced = self.check_seeded or not item.seeded
            if item.id in self.first and self.first[item.id] != text:
                reason = "report differs from the first pass"
            elif referenced and item.id not in self.reference:
                reason = "no reference digest"
            elif referenced and sha(text) != self.reference[item.id]:
                reason = "digest differs from the reference"
            elif item.doc is not None and not json.loads(text)["all_ok"]:
                reason = "a check missed its expectation"
            self.first.setdefault(item.id, text)
        if reason is not None:
            self.failures.append(f"{item.id}: {reason}")

    def record_cli(self, item, proc):
        self.attempted += 1
        if proc is None:
            self.failures.append(f"{item.id} (cli): timed out")
        elif proc.returncode != 0:
            self.failures.append(f"{item.id} (cli): exit code {proc.returncode}")
        elif proc.stdout != self.first.get(item.id):
            self.failures.append(f"{item.id} (cli): stdout differs from in-process")


def setup_once(workload: str, seed: int, work: Path):
    """Import the library, build the items and write the CLI input files."""
    for name in [m for m in sys.modules if m == "ordmeasure" or m.startswith("ordmeasure.")]:
        del sys.modules[name]
    for name in ("ordmeasure", "ordmeasure.scenarios", "ordmeasure.compare"):
        importlib.import_module(name)
    items = workloads.build_items(workload, seed, ROOT)
    workloads.write_inputs(items, work)
    return items


def run_item(item) -> str:
    from ordmeasure import compare, scenarios
    if item.compare is not None:
        return scenarios.canonical_dumps(compare.comparison_experiment(*item.compare))
    scenario = scenarios.parse_scenario(item.doc)
    report = scenarios.run_scenario(scenario, scenarios.RunConfig(horizon=item.horizon))
    return scenarios.canonical_dumps(report)


def timed_item(item, ledger, clock, tracer=None, repeat=False) -> float:
    """Run one item in-process, record its verdict, return its scaled time.

    A full collection precedes the timing, so that no item pays for the
    garbage of the items before it, whatever order the seed gives them.
    With `repeat`, an item whose execution takes less than MIN_SAMPLE_S
    runs again, back to back in one timed call, until its executions add up
    to about that (at most MAX_REPEATS of them), and its time is their
    mean: a single execution of a few milliseconds is too short for the
    calibration around it to cancel the host's speed.
    """
    def attempt():
        try:
            if tracer is None:
                text = run_item(item)
            else:
                text = tracer.run_item(item.id, lambda: run_item(item))
        except Exception as exc:  # an item that raises is a failed item
            ledger.record(item, None, f"raised {type(exc).__name__}: {exc}")
        else:
            ledger.record(item, text)

    gc.collect()
    first = clock.time(attempt)[1]
    executions = min(MAX_REPEATS, math.ceil(MIN_SAMPLE_S / first)) if repeat else 1
    if executions <= 1:
        return first
    gc.collect()
    rest = clock.time(lambda: [attempt() for _ in range(executions - 1)])[1]
    return (first + rest) / executions


def in_process_pass(items, ledger, clock, tracer=None) -> float:
    return sum(timed_item(item, ledger, clock, tracer) for item in items)


def cli(args):
    """One CLI invocation, or None when it exceeds CLI_TIMEOUT_S and is killed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        return subprocess.run([sys.executable, "-m", "ordmeasure.cli", *args],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def tail(samples):
    """Highest order statistic with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(items, ledger, clock, seconds, pass_seconds):
    """End-to-end metrics with tracing off, in scaled times.

    The number of in-process passes follows from `seconds` alone, not from
    the clock, so that every run of a workload pools the same number of
    item samples: one pass per `pass_seconds`, at least one.  One pass
    through the CLI follows them.  A pass's time is the sum of its
    in-process item times, each the mean of its executions in that pass
    (see timed_item).
    """
    passes = max(1, int(seconds // pass_seconds))
    pass_s, item_s, cli_s = [], [], 0.0
    for _ in range(passes):
        times = [timed_item(item, ledger, clock, repeat=True) for item in items]
        pass_s.append(sum(times))
        item_s += times
    for item in items:
        proc, elapsed = clock.time(lambda: cli(item.cli_args()))
        ledger.record_cli(item, proc)
        cli_s += elapsed
    tail_s, tail_pct = tail(item_s)
    metrics = {
        "run_s": (statistics.median(pass_s), "s"),
        "item_p50_ms": (statistics.median(item_s) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "cli_s": (cli_s, "s"),
    }
    notes = {
        "run_s": "median of passes " + ", ".join(f"{p:.3f}" for p in pass_s),
        "item_p50_ms": f"{len(item_s)} samples",
        "item_tail_ms": f"p{tail_pct:.1f} of {len(item_s)} samples, 10 beyond",
        "cli_s": f"one pass, {len(items)} invocations",
    }
    return metrics, notes


def traced(items, ledger, clock, workload, seed):
    """Per-layer metrics from one traced pass, against one untraced pass.

    The layer times are wall times; the pass times and the CLI start-up
    are scaled (see Clock).
    """
    from tracing import Tracer

    plain_s = in_process_pass(items, ledger, clock)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = in_process_pass(items, ledger, clock, tracer)
    finally:
        tracer.uninstall()
    startup = []
    for _ in range(STARTUP_REPS):
        proc, elapsed = clock.time(lambda: cli(["compare", "sup_measure", "--n", "1"]))
        startup.append(elapsed)
        if proc is None or proc.returncode != 0:
            raise RuntimeError("trivial CLI invocation failed")

    metrics = tracer.metrics()
    metrics["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "1")

    layers = tracer.layer_self_s()
    total = sum(layers.values()) or 1.0
    shares = {layer: value / total for layer, value in layers.items()}
    predicted = workloads.WORKLOADS[workload]["predicted"]
    claimed, rivals = tracer.prediction(predicted)
    verdict = "confirmed" if claimed > max(rivals.values()) else "not confirmed"
    summary = {
        "workload": workload, "seed": seed, "predicted": predicted,
        "verdict": verdict, "predicted_share": claimed / total,
        "layer_self_s": layers, "layer_shares": shares,
        "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"summary": summary,
                   "spans": [dict(zip(("id", "parent", "name", "start", "end", "item"),
                                      s)) for s in tracer.spans]}, fh)
    notes = {"trace.overhead_ratio": f"{traced_s:.3f} s traced / {plain_s:.3f} s"}
    lines = [f"layer {k:<10} self {v:9.4f} s  share {shares[k]:.3f}"
             for k, v in sorted(layers.items(), key=lambda kv: -kv[1])]
    lines.append(f"prediction {'+'.join(predicted)} dominant: {verdict} "
                 f"(share {claimed / total:.3f})")
    return metrics, notes, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ordmeasure").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / str(os.getpid())
    pin_to_one_cpu()
    try:
        clock = Clock()
        setups = []
        for _ in range(SETUP_REPS):
            items, elapsed = clock.time(lambda: setup_once(args.workload, args.seed, work))
            setups.append(elapsed)
        ledger = Ledger(reference, args.seed)
        lines = []
        if args.trace:
            metrics, notes, lines = traced(items, ledger, clock, args.workload, args.seed)
        else:
            metrics, notes = measure(items, ledger, clock, args.seconds,
                                     workloads.WORKLOADS[args.workload]["pass_seconds"])
            metrics["setup_s"] = (statistics.median(setups), "s")
            notes["setup_s"] = f"median of {SETUP_REPS} set-ups"
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (rss, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(ledger.failures)
    for reason in ledger.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  items {len(items)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"{'failed_ratio':<40} {failed / ledger.attempted:>14.6g} 1"
              f"  ({failed} of {ledger.attempted} item executions)")
    for line in lines:
        print(line)
    print(clock.note())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
