"""Per-layer tracing of ordmeasure from outside the library.

``Tracer.install()`` replaces each traced library function, in every
``ordmeasure`` module that binds it by name (``outer`` imports ``ext_add``
directly, ``cli`` imports ``check_measure_identities`` directly, and so on),
with a wrapper that records into the tracer; ``uninstall()`` puts the
originals back.  Nothing in the library changes.

Every wrapped call pushes a frame, so each key gets exact self time: its
wall time minus the wall time of the wrapped calls made inside it.  Leaf
calls (``spaces``, ``extended``) are only counted and timed.  Calls at the
coarser boundaries (check, integrate, validate, extract, certify, and the
benchmark's own items) also record a span with its parent span; spans are
kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from ordmeasure import (extended, integral, measures, outer, scenarios, sequences,
                        spaces)

# (owner, attribute, key, is_span).  Methods are patched on their class.
TARGETS = [
    (spaces, "leq", "spaces.leq", False),
    (spaces, "is_psd", "spaces.is_psd", False),
    (spaces, "add", "spaces.arith", False),
    (spaces, "sub", "spaces.arith", False),
    (spaces, "neg", "spaces.arith", False),
    (spaces, "scale", "spaces.arith", False),
    (extended, "ext_add", "extended.ext_add", False),
    (extended, "ext_leq", "extended.ext_leq", False),
    (extended, "ext_scale", "extended.ext_scale", False),
    (extended, "ext_sum", "extended.other", False),
    (extended, "ext_sub_finite", "extended.other", False),
    (extended, "is_ext_positive", "extended.other", False),
    (measures.Measure, "evaluate", "measures.evaluate", False),
    (measures, "check_measure_identities", "measures.identities", False),
    (measures, "power_set_space", "measures.space_build", False),
    (measures, "generate_sigma_algebra", "measures.space_build", False),
    (measures, "validate_sigma_algebra", "measures.space_build", False),
    (outer, "validate_outer_measure", "outer.validate", True),
    (outer, "extract_measurable_algebra", "outer.extract", True),
    (outer, "caratheodory_measurable", "outer.measurable", False),
    (integral, "integrate_extended", "integral.integrate", True),
    (integral, "_ladder_supremum", "integral.ladder", False),
    (integral, "truncate", "integral.truncate", False),
    (integral, "integrate_elementary", "integral.ladder", False),
    (integral, "integrate_signed", "integral.signed", False),
    (integral, "mct", "integral.certify", True),
    (integral, "mct_decreasing", "integral.certify", True),
    (integral, "dct", "integral.certify", True),
    (integral, "fatou", "integral.certify", True),
    (sequences.SequenceSpec, "term", "sequences.term", False),
    (scenarios, "parse_scenario", "scenarios.parse", False),
    (scenarios, "canonical_dumps", "scenarios.dumps", False),
    (scenarios, "run_check", "scenarios.check", True),
]

# Self-time keys of each layer, for the dominant-layer verdict.
LAYERS = {
    "spaces": ["spaces.leq", "spaces.is_psd", "spaces.arith"],
    "extended": ["extended.ext_add", "extended.ext_leq", "extended.ext_scale",
                 "extended.other"],
    "measures": ["measures.evaluate", "measures.identities", "measures.space_build"],
    "outer": ["outer.validate", "outer.extract", "outer.measurable"],
    "integral": ["integral.integrate", "integral.ladder", "integral.truncate",
                 "integral.signed", "integral.certify"],
    "sequences": ["sequences.term"],
    "scenarios": ["scenarios.parse", "scenarios.dumps", "scenarios.check"],
}

# Every directive name the scenario harness dispatches.
DIRECTIVES = [
    "validate", "identities", "continuity_below", "continuity_above",
    "borel_cantelli", "bridge", "integrate", "integral_laws", "ae", "mct",
    "mct_decreasing", "fatou", "dct", "triangle", "push_forward",
    "l1_quotient", "caratheodory",
]


class Tracer:
    """Counts, self times and spans of the wrapped library calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # counts read from arguments and results
        self.check_s = defaultdict(float)  # inclusive time per directive name
        self.spans = []  # [id, parent id, name, start, end, item id]
        self.item = None  # id of the benchmark item being run
        self.on_exit = {}  # key -> hook(args, result, calls before the call)
        self._frames = []  # active wrapped calls: [child wall time, key]
        self._span_stack = []
        self._distinct = set()
        self._patched = []

    def _wrap(self, fn, key, is_span):
        frames, calls, self_s = self._frames, self.calls, self.self_s
        clock = time.perf_counter
        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        hooks = self.on_exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = dict(calls) if key in hooks else None
            frame = [0.0, key]
            frames.append(frame)
            if is_span:
                parent = self._span_stack[-1][0] if self._span_stack else None
                name = (f"{key}.{args[1].get('check')}" if key == "scenarios.check"
                        else key)
                span = [len(self.spans), parent, name, 0.0, 0.0, self.item]
                self.spans.append(span)
                self._span_stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                self_s[key] += elapsed - frame[0]
                calls[key] += 1
                if is_span:
                    span[3], span[4] = t0, t0 + elapsed
                    self._span_stack.pop()
            if after is not None:
                after(args, result, elapsed)
            if before is not None:
                hooks[key](args, result, before)
            return result

        return wrapper

    def run_item(self, item_id: str, fn):
        """Run one benchmark item under a root span named by its id."""
        self.item = item_id
        try:
            return self._wrap(fn, "item", True)()
        finally:
            self.item = None

    def _inside(self, key) -> bool:
        return any(frame[1] == key for frame in self._frames)

    def _after_extended_ext_leq(self, args, result, elapsed):
        if self._inside("outer.validate"):
            self.counts["outer.validate.ext_leq_calls"] += 1

    def _after_measures_identities(self, args, result, elapsed):
        self.counts["measures.identities.pairs"] += result.details["pairs_checked"]

    def _after_measures_space_build(self, args, result, elapsed):
        # power_set_space delegates to generate_sigma_algebra: count once.
        if not self._inside("measures.space_build"):
            self.counts["measures.space_build.sets"] += len(result.sets)

    def _after_outer_measurable(self, args, result, elapsed):
        self.counts["outer.measurable.true"] += bool(result)

    def _after_integral_integrate(self, args, result, elapsed):
        f, mu = args
        self._distinct.add((mu, f.values))

    def _after_scenarios_check(self, args, result, elapsed):
        self.check_s[args[1].get("check")] += elapsed

    def install(self):
        """Wrap every traced function in every module that binds it."""
        wrappers = {}
        for owner, attr, key, is_span in TARGETS:
            fn = vars(owner)[attr]
            wrappers[id(fn)] = (fn, self._wrap(fn, key, is_span))
            self._patch(owner, attr, fn, wrappers[id(fn)][1])
        for name, module in list(sys.modules.items()):
            if name != "ordmeasure" and not name.startswith("ordmeasure."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, value, wrappers[id(value)][1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_self_s(self) -> dict:
        return {layer: sum(self.self_s[k] for k in keys)
                for layer, keys in LAYERS.items()}

    def prediction(self, predicted: list):
        """Self time of the predicted layers or keys, and of each other layer.

        An entry of `predicted` is a layer name or a single self-time key;
        what it claims is taken out of the rest of its layer.
        """
        claimed = {k for entry in predicted for k in LAYERS.get(entry, [entry])}
        rivals = {layer: sum(self.self_s[k] for k in keys if k not in claimed)
                  for layer, keys in LAYERS.items()}
        return sum(self.self_s[k] for k in claimed), rivals

    def metrics(self) -> dict:
        """Per-layer metrics by name, as (value, unit) pairs."""
        c, s, n = self.calls, self.self_s, self.counts
        m = {
            "spaces.leq.calls": (c["spaces.leq"], "count"),
            "spaces.leq.self_s": (s["spaces.leq"], "s"),
            "spaces.is_psd.calls": (c["spaces.is_psd"], "count"),
            "spaces.is_psd.self_s": (s["spaces.is_psd"], "s"),
            "spaces.arith.calls": (c["spaces.arith"], "count"),
            "spaces.arith.self_s": (s["spaces.arith"], "s"),
            "extended.ext_add.calls": (c["extended.ext_add"], "count"),
            "extended.ext_leq.calls": (c["extended.ext_leq"], "count"),
            "extended.ext_scale.calls": (c["extended.ext_scale"], "count"),
            "extended.self_s": (sum(s[k] for k in LAYERS["extended"]), "s"),
            "measures.evaluate.calls": (c["measures.evaluate"], "count"),
            "measures.evaluate.self_s": (s["measures.evaluate"], "s"),
            "measures.identities.pairs": (n["measures.identities.pairs"], "count"),
            "measures.identities.self_s": (s["measures.identities"], "s"),
            "measures.space_build.sets": (n["measures.space_build.sets"], "count"),
            "measures.space_build.self_s": (s["measures.space_build"], "s"),
            "outer.validate.self_s": (s["outer.validate"], "s"),
            "outer.validate.ext_leq_calls": (n["outer.validate.ext_leq_calls"], "count"),
            "outer.extract.self_s": (s["outer.extract"] + s["outer.measurable"], "s"),
            "outer.measurable.calls": (c["outer.measurable"], "count"),
            "outer.measurable_ratio": (_ratio(n["outer.measurable.true"],
                                              c["outer.measurable"]), "1"),
            "integral.integrate.calls": (c["integral.integrate"], "count"),
            "integral.integrate.self_s": (s["integral.integrate"], "s"),
            "integral.integrate.distinct_ratio": (_ratio(len(self._distinct),
                                                         c["integral.integrate"]), "1"),
            "integral.ladder.rungs": (c["integral.truncate"], "count"),
            "integral.ladder.self_s": (s["integral.ladder"] + s["integral.truncate"], "s"),
            "integral.signed.calls": (c["integral.signed"], "count"),
            "integral.certify.self_s": (s["integral.certify"], "s"),
            "sequences.term.calls": (c["sequences.term"], "count"),
            "scenarios.parse.self_s": (s["scenarios.parse"], "s"),
            "scenarios.dumps.self_s": (s["scenarios.dumps"], "s"),
        }
        for name in DIRECTIVES:
            m[f"scenarios.check.{name}.s"] = (self.check_s[name], "s")
        return m


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
