"""Scenario files: schema, validation pipeline, and the check harness.

A scenario is a JSON document describing one measure space plus named
functions and sequences, followed by a list of check directives.  Exact
rationals are strings ("p/q" or "p"), the point at infinity is the string
"infinity", sets are sorted index arrays, and extended elements are either
{"finite": [coords...]} or "infinity".  The canonical serialized form has
sorted keys and two-space indentation; parsing and re-serializing a
canonical file is byte-identical.

Top-level keys:

  space          {"kind": "reals" | "coord" | "entrywise_mat" | "loewner_sym",
                  "dim": n, "rows": r, "cols": c}
  ground_size    number of ground points, 1..16 (1-based checks index sets by point)
  sigma_algebra  {"power_set": true}, {"generators": [[points...], ...]}
                 (closure is computed), or {"sets": [[points...], ...]}
                 (the family is validated as given)
  measure        {"atom_values": {"<smallest point of atom>": ExtElement}}
  outer_measure  {"outer_values": {"<strictly increasing points>": ExtElement}}
                 (keys like "0,2", "" for the empty set, each set once)
                 or {"induced_from_measure": true}; ground_size 1..12
  functions      {"name": {"values": ["3/2", "infinity", "-1", ...]}}
  sequences      {"name": <sequence spec>}  (function sequences)
  checks         [<directive>, ...]

Sequence specs (terms are function names or inline {"values": [...]}):

  {"kind": "explicit", "terms": [...]}
      final term repeats forever, so stabilization is implied
  {"kind": "geometric", "base": f, "bump": g, "ratio": "-1/2"}
      term n is base + ratio^n * bump; |ratio| < 1, declared limit base
  {"kind": "truncation_ladder", "of": f}
      term n is f truncated at level n; increasing with declared limit f
  {"kind": "alternating", "terms": [...]}
      cycles through the terms forever
  {"kind": "scaled_index", "shape": g}
      term n is n * shape; declared divergent

A sequence may carry a "monotonicity" key; it is accepted but not read,
since every check that needs a monotone sequence tests the order itself at
every sampled index.

Check directives are objects {"check": <name>, <key>: ...}, each with an
optional "expect": "holds" | "fails" | "hypothesis-not-met" |
"not-certifiable" (default "holds").  The table `_CHECKS` below is the one
place a directive's keys are defined: for each check it gives the module
and the handler that run it, each key's JSON type, whether the key is
required, and what the key resolves to (a named function or sequence, a
set list or set sequence, a rational, an element, a space, a matrix).  A
set sequence is {"kind": "explicit" | "alternating", "terms": [[points...],
...]} or a bare array of sets (explicit); an explicit one repeats its final
term.

`parse_scenario` resolves every directive and every named sequence, so a
document that parses (`ordmeasure validate`) raises no schema error when it
runs; only the horizon is applied at run time.
"""

from __future__ import annotations

import importlib
import json
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import measures as measures_mod
from .errors import (
    MAX_GROUND_SIZE,
    MAX_HORIZON,
    CertificationError,
    DimensionLimitError,
    Frozen,
    HypothesisError,
    NotIntegrableError,
    SchemaError,
    ValidationError,
    check_cap,
)
from .extended import ExtElement, ext_to_json, finite, infinity
from .measures import MeasurableSpace, Measure, mask_to_points, points_to_mask
from .rationals import (
    format_rational,
    is_infinite,
    parse_ext_scalar,
    parse_rational,
)
from .reports import (
    CheckResult,
    FAILS,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    NOT_CERTIFIABLE,
    STATUSES,
)
from .sequences import (
    DEFAULT_EPSILONS,
    DEFAULT_HORIZON,
    DeclaredLimit,
    DivergesToInfinity,
    SequenceSpec,
    StabilizesAt,
    check_horizon,
    repeat_last,
)
from .spaces import Element, SpaceDescriptor, coord, entrywise_mat, loewner_sym, reals


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _capped(path: str, fn: Callable, *args):
    """`fn(*args)`, with a size cap that it breaks made a schema error at `path`."""
    try:
        return fn(*args)
    except DimensionLimitError as exc:
        raise SchemaError(str(exc), path) from None


def _parse_size(doc: dict, key: str, path: str) -> int:
    value = doc.get(key)
    # bool is a subclass of int, but `true` is not a size
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(f"{key} must be a positive integer, got {json.dumps(value)}",
                          f"{path}/{key}")
    return value


def parse_space(doc, path: str) -> SpaceDescriptor:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("space needs a 'kind'", path)
    kind = doc["kind"]
    if kind == "reals":
        return reals()
    if kind == "coord":
        return coord(_parse_size(doc, "dim", path))
    if kind == "entrywise_mat":
        return entrywise_mat(_parse_size(doc, "rows", path),
                             _parse_size(doc, "cols", path))
    if kind == "loewner_sym":
        dim = _parse_size(doc, "dim", path)
        return _capped(path + "/dim", loewner_sym, dim)
    raise SchemaError(f"unknown space kind {kind!r}", path + "/kind")


def parse_element(doc, space: SpaceDescriptor, path: str) -> Element:
    if not isinstance(doc, list):
        raise SchemaError("element must be an array of rationals", path)
    if len(doc) != space.ncoords:
        raise SchemaError(
            f"element needs {space.ncoords} coordinates, got {len(doc)}", path
        )
    coords = tuple(parse_rational(v, f"{path}/{i}") for i, v in enumerate(doc))
    return Element(space, coords)


def parse_ext_element(doc, space: SpaceDescriptor, path: str) -> ExtElement:
    if doc == "infinity":
        return infinity(space)
    if isinstance(doc, dict) and "finite" in doc:
        return finite(parse_element(doc["finite"], space, path + "/finite"))
    raise SchemaError("expected {\"finite\": [...]} or \"infinity\"", path)


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _require_json(value, kind, what: str, path: str):
    """`value`, when it is a JSON object (`dict`), array (`list`) or string
    (`str`) as asked; `kind` is one of these types or a tuple of them."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise SchemaError(f"{what} must be {' or '.join(_JSON_KINDS[k] for k in kinds)}",
                          path)
    return value


def _parse_points(doc, ground_size: int, path: str) -> int:
    if not isinstance(doc, list):
        raise SchemaError("set must be an array of point indices", path)
    points = []
    for i, p in enumerate(doc):
        # bool is a subclass of int, but `true` is not a point
        if isinstance(p, bool) or not isinstance(p, int) or not 0 <= p < ground_size:
            raise SchemaError(f"point {json.dumps(p)} outside the ground set",
                              f"{path}/{i}")
        points.append(p)
    return points_to_mask(points)


class _NamedSequence(Frozen):
    """A named function sequence: the value list of term n, and what it declares.

    `witnesses` are value lists that are functions of a kind ("ext" or
    "signed") exactly when every term n >= 1 is: the terms of an explicit or
    alternating sequence, and finitely many lists decided in closed form for
    a generated one (see `_parse_sequence`).
    """

    __slots__ = ("values", "metadata", "witnesses")

    def __init__(self, values: Callable[[int], list], metadata, witnesses: tuple):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "metadata", metadata)
        object.__setattr__(self, "witnesses", witnesses)


class Directive(Frozen):
    """One check directive with every key resolved by the check table."""

    __slots__ = ("check", "expect", "args")

    def __init__(self, check: str, expect: str, args: dict):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "expect", expect)
        object.__setattr__(self, "args", args)

    def get(self, key: str, default=None):
        """`check` or `expect` read as from the directive's JSON object, which
        is what wrappers of `run_check` read."""
        return {"check": self.check, "expect": self.expect}.get(key, default)


class Scenario:
    """A parsed document: its space, measures, named functions and sequences,
    and its resolved directives.  `specs` holds the one `SequenceSpec` of
    each (named sequence, kind) that directives use, so they share its terms."""

    __slots__ = ("source", "backend", "space", "measure", "outer", "functions",
                 "sequences", "checks", "specs")

    def __init__(self, source: dict, backend: SpaceDescriptor, space: MeasurableSpace,
                 measure: Optional[Measure], outer, functions: Dict[str, list],
                 sequences: Dict[str, _NamedSequence]):
        self.source = source
        self.backend = backend
        self.space = space
        self.measure = measure
        self.outer = outer  # an outer.OuterMeasure, or None
        self.functions = functions  # name -> ExtScalar values (may be negative)
        self.sequences = sequences
        self.checks: List[Directive] = []
        self.specs: Dict[tuple, SequenceSpec] = {}


def _parse_function_values(doc, ground: int, path: str) -> list:
    if not isinstance(doc, dict) or "values" not in doc:
        raise SchemaError("function needs a 'values' array", path)
    values = _require_json(doc["values"], list, "values", path + "/values")
    if len(values) != ground:
        raise SchemaError(f"function needs {ground} values, got {len(values)}",
                          path + "/values")
    return [parse_ext_scalar(v, f"{path}/values/{i}") for i, v in enumerate(values)]


def _resolve_term(functions: dict, ground: int, term, path: str) -> list:
    """A sequence term: a function name or an inline {"values": [...]}."""
    if not isinstance(term, str):
        return _parse_function_values(term, ground, path)
    if term not in functions:
        raise SchemaError(f"unresolved function reference {term!r}", path)
    return functions[term]


def _cycling(terms: list):
    return lambda n: terms[(n - 1) % len(terms)]


def _parse_sequence(functions: dict, ground: int, doc, path: str) -> _NamedSequence:
    """Compile a sequence spec into term value lists with metadata."""
    doc = _require_json(doc, dict, "sequence", path)
    kind = doc.get("kind")

    def term(key):
        return _resolve_term(functions, ground, doc.get(key), f"{path}/{key}")

    if kind in ("explicit", "alternating"):
        terms = [
            _resolve_term(functions, ground, t, f"{path}/terms/{i}")
            for i, t in enumerate(_require_json(doc.get("terms", []), list, "terms",
                                                path + "/terms"))
        ]
        if not terms:
            raise SchemaError(f"{kind} sequence needs terms", path)
        if kind == "alternating":
            return _NamedSequence(_cycling(terms), None, tuple(terms))
        metadata = (DivergesToInfinity() if doc.get("metadata") == "diverges"
                    else StabilizesAt(len(terms)))
        return _NamedSequence(repeat_last(terms), metadata, tuple(terms))

    # The witnesses of a generated kind.  Geometric: terms 1 and 2 are
    # measurable exactly when every term is (their difference fixes the
    # bump on each atom when the ratio is not 0, and every term is the base
    # when it is), and the least value over n >= 1 at each point is
    # base + min(0, ratio * bump, ratio^2 * bump), where 0 is approached
    # but not attained.  Truncation ladder: the rung above every finite
    # value keeps those values and makes infinity a value of its own.
    # Scaled index: term 1, the shape, has every term's sign and level sets.
    if kind == "geometric":
        base, bump = term("base"), term("bump")
        ratio = parse_rational(doc.get("ratio"), path + "/ratio")
        if abs(ratio) >= 1:
            raise SchemaError("geometric ratio must satisfy |ratio| < 1",
                              path + "/ratio")
        if any(is_infinite(v) for v in base + bump):
            raise SchemaError("geometric sequences need finite base and bump", path)

        def geometric(n):
            return [b + ratio**n * h for b, h in zip(base, bump)]
        least = [b + min(0, ratio * h, ratio**2 * h) for b, h in zip(base, bump)]
        return _NamedSequence(geometric, DeclaredLimit(list(base)),
                              (geometric(1), geometric(2), least))

    if kind == "truncation_ladder":
        f = term("of")

        def rung(n):
            return [Fraction(n) if is_infinite(v) else min(v, Fraction(n)) for v in f]
        top = max((v for v in f if not is_infinite(v)), default=Fraction(0))
        return _NamedSequence(rung, DeclaredLimit(list(f)),
                              (rung(max(1, math.floor(top) + 1)),))

    if kind == "scaled_index":
        shape = term("shape")
        if any(is_infinite(v) for v in shape):
            raise SchemaError("scaled_index shape must be finite", path)

        def scaled(n):
            return [Fraction(n) * v for v in shape]
        return _NamedSequence(scaled, DivergesToInfinity(), (scaled(1),))

    raise SchemaError(f"unknown sequence kind {kind!r}", path)


# Resolvers of directive keys.  Each takes the scenario being parsed, the
# key's JSON value (already of the key's JSON type) and its path.

def _as_function(integral, space: MeasurableSpace, values: list, kind: str, path: str):
    """`values` made an "ext" (extended-positive) or "signed" function of
    the `integral` module, or "either": signed when some value is negative.
    The resolvers import `integral`, so only a document with functions
    loads it."""
    if kind == "ext" or (kind == "either" and all(is_infinite(v) or v >= 0
                                                  for v in values)):
        return integral.ext_function(space, values)
    if any(is_infinite(v) for v in values):
        raise SchemaError("a signed function cannot take the value infinity", path)
    return integral.signed_function(space, values)


def _function(kind: str):
    """A function reference, made a function of `kind` (see `_as_function`)."""
    def resolve(scenario: Scenario, name: str, path: str):
        from . import integral
        values = _resolve_term(scenario.functions, scenario.space.ground_size, name, path)
        return _as_function(integral, scenario.space, values, kind, path)
    return resolve


def _function_sequence(kind: str):
    """A sequence reference whose terms are "ext" or "signed" functions,
    resolved to its `SequenceSpec`, one per sequence and kind in a scenario.
    The sequence's witnesses are made functions when the first directive
    names it, so a term that is not one, at any index, is a schema error of
    that directive."""
    def resolve(scenario: Scenario, name: str, path: str):
        if name not in scenario.sequences:
            raise SchemaError(f"unresolved sequence reference {name!r}", path)
        key = (name, kind)
        if key not in scenario.specs:
            from . import integral
            seq, space = scenario.sequences[name], scenario.space
            for values in seq.witnesses:
                _as_function(integral, space, values, kind, path)
            scenario.specs[key] = SequenceSpec(
                lambda n: _as_function(integral, space, seq.values(n), kind, path),
                metadata=seq.metadata)
        return scenario.specs[key]
    return resolve


def _set_list(scenario: Scenario, doc: list, path: str) -> list:
    return [_parse_points(s, scenario.space.ground_size, f"{path}/{i}")
            for i, s in enumerate(doc)]


def _set_sequence(scenario: Scenario, doc, path: str):
    """A set sequence, resolved to its `SequenceSpec`."""
    if isinstance(doc, list):
        kind, terms = "explicit", _set_list(scenario, doc, path)
    else:
        kind = doc.get("kind", "explicit")
        terms = _set_list(scenario, _require_json(doc.get("terms", []), list, "terms",
                                                  path + "/terms"), path + "/terms")
    if not terms:
        raise SchemaError("set sequence needs terms", path)
    if kind == "explicit":
        return SequenceSpec(repeat_last(terms), metadata=StabilizesAt(len(terms)))
    if kind == "alternating":
        return SequenceSpec(_cycling(terms))
    raise SchemaError(f"unknown set sequence kind {kind!r}", path)


def _matrix(scenario: Scenario, doc: list, path: str) -> list:
    return [
        [parse_rational(v, f"{path}/{i}/{j}") for j, v in
         enumerate(_require_json(row, list, "matrix row", f"{path}/{i}"))]
        for i, row in enumerate(doc)
    ]


def _function_list(scenario: Scenario, doc: list, path: str) -> list:
    signed = _function("signed")
    return [signed(scenario, _require_json(name, str, "function reference",
                                           f"{path}/{i}"), f"{path}/{i}")
            for i, name in enumerate(doc)]


_REQUIRED = object()


class _Key(Frozen):
    """One directive key: its JSON type(s), its resolver, and its default.

    A key without a default is required; an absent optional key takes the
    default as it is.
    """

    __slots__ = ("json", "resolve", "default")

    def __init__(self, json, resolve: Callable, default=_REQUIRED):
        object.__setattr__(self, "json", json)
        object.__setattr__(self, "resolve", resolve)
        object.__setattr__(self, "default", default)


class _Check(Frozen):
    """A check's module, its handler, its keys, and the scenario section it
    runs on.

    `module` names the submodule of the library operation that the check
    runs, or is None for a check that the harness answers itself.
    `run_check` imports it when a directive of the check first runs, so a
    call compiles only the check modules its directives name.  The handler
    is called as ``handler(module, scenario, config, **resolved keys)``.
    `admits` is called as ``admits(scenario, resolved keys, directive path)``
    once the keys are resolved; it rejects the directive with a SchemaError,
    or with a DimensionLimitError past a size cap.
    """

    __slots__ = ("module", "handler", "keys", "needs", "admits")

    def __init__(self, module: Optional[str], handler: Callable,
                 keys: Optional[Dict[str, _Key]] = None,
                 needs: Optional[str] = "measure",
                 admits: Callable = lambda scenario, args, path: None):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "handler", handler)
        object.__setattr__(self, "keys", keys or {})
        object.__setattr__(self, "needs", needs)
        object.__setattr__(self, "admits", admits)


_EXT = _Key(str, _function("ext"))
_SIGNED = _Key(str, _function("signed"))
_SETS = _Key((list, dict), _set_sequence)
_EXT_SEQUENCE = _Key(str, _function_sequence("ext"))


def _push_forward_shape(scenario: Scenario, args: dict, path: str):
    """One matrix row per target coordinate, one entry per backend coordinate."""
    rows, width = args["target"].ncoords, scenario.backend.ncoords
    if len(args["matrix"]) != rows:
        raise SchemaError(f"matrix needs {rows} rows, got {len(args['matrix'])}",
                          path + "/matrix")
    for i, row in enumerate(args["matrix"]):
        if len(row) != width:
            raise SchemaError(f"matrix row needs {width} entries, got {len(row)}",
                              f"{path}/matrix/{i}")


def _check_validate(module, scenario: Scenario, config) -> CheckResult:
    space = scenario.space
    details = {"atoms": [mask_to_points(a) for a in space.atoms],
               "members": 1 << len(space.atoms)}
    if scenario.measure is not None:
        details["classification"] = scenario.measure.classification()
    return CheckResult("validate", HOLDS, details)


def _check_integrate(integral, scenario: Scenario, config, function,
                     expected) -> CheckResult:
    report = integral.integrate_extended(function, scenario.measure)
    details = {"value": ext_to_json(report.value), "ladder": report.trail}
    status = FAILS if expected is not None and expected != report.value else HOLDS
    return CheckResult("integrate", status, details)


def _check_caratheodory(outer, scenario: Scenario, config,
                        expected_family) -> CheckResult:
    details, identities = outer.caratheodory_report(scenario.outer)
    status = HOLDS if identities.ok else FAILS
    if (expected_family is not None and [mask_to_points(m) for m in sorted(expected_family)]
            != details["measurable_family"]):
        status = FAILS
    return CheckResult("caratheodory", status, details)


# Directive name -> module, handler and keys.  Handlers look library
# operations up on the module they are passed, at call time, so a wrapper
# installed on a module attribute (as perfbench/tracing.py installs) sees
# every call.
_CHECKS = {
    "validate": _Check(None, _check_validate, needs=None),
    "identities": _Check(
        "measures", lambda m, s, c: m.check_measure_identities(s.measure),
        admits=lambda s, args, path: measures_mod.require_exhaustive(s.space)),
    "continuity_below": _Check(
        "measure_checks",
        lambda m, s, c, sets: m.continuity_from_below(s.measure, sets, horizon=c.horizon),
        {"sets": _SETS}),
    "continuity_above": _Check(
        "measure_checks",
        lambda m, s, c, sets: m.continuity_from_above(s.measure, sets, horizon=c.horizon),
        {"sets": _SETS}),
    "borel_cantelli": _Check(
        "measure_checks",
        lambda m, s, c, sets, lower_bound: m.borel_cantelli(
            s.measure, sets, lower_bound, horizon=c.horizon),
        {"sets": _SETS,
         "lower_bound": _Key(list, lambda s, v, p: parse_element(v, s.backend, p), None)}),
    "bridge": _Check(
        "measure_checks",
        lambda m, s, c, sets: m.operator_measure_bridge(s.measure, sets),
        {"sets": _Key(list, _set_list, [])}),
    "integrate": _Check(
        "integral", _check_integrate,
        {"function": _EXT,
         "expected": _Key((dict, str), lambda s, v, p: parse_ext_element(v, s.backend, p),
                          None)}),
    "integral_laws": _Check(
        "integral_checks",
        lambda m, s, c, f, g, r1, r2: m.check_integral_laws(s.measure, f, g, r1, r2),
        {"f": _EXT, "g": _EXT,
         "r1": _Key(str, lambda s, v, p: parse_rational(v, p), Fraction(1)),
         "r2": _Key(str, lambda s, v, p: parse_rational(v, p), Fraction(1))}),
    "ae": _Check(
        "integral_checks", lambda m, s, c, function: m.ae_analysis(function, s.measure),
        {"function": _EXT}),
    "mct": _Check(
        "integral",
        lambda m, s, c, sequence, limit: m.mct(
            s.measure, sequence, limit, horizon=c.horizon, epsilons=c.epsilons),
        {"sequence": _EXT_SEQUENCE, "limit": _EXT}),
    "mct_decreasing": _Check(
        "integral",
        lambda m, s, c, sequence, limit: m.mct_decreasing(
            s.measure, sequence, limit, horizon=c.horizon, epsilons=c.epsilons),
        {"sequence": _EXT_SEQUENCE, "limit": _EXT}),
    "fatou": _Check(
        "integral",
        lambda m, s, c, sequence: m.fatou(s.measure, sequence, horizon=c.horizon),
        {"sequence": _EXT_SEQUENCE}),
    "dct": _Check(
        "integral",
        lambda m, s, c, sequence, limit, dominator: m.dct(
            s.measure, sequence, limit, dominator, horizon=c.horizon,
            epsilons=c.epsilons),
        {"sequence": _Key(str, _function_sequence("signed")),
         "limit": _SIGNED, "dominator": _EXT}),
    "triangle": _Check(
        "integral_checks",
        lambda m, s, c, function: m.triangle_inequality(s.measure, function),
        {"function": _SIGNED}),
    "push_forward": _Check(
        "integral_checks",
        lambda m, s, c, target, matrix, function: m.push_forward(
            s.measure, matrix, target, function),
        {"target": _Key(dict, lambda s, v, p: parse_space(v, p)),
         "matrix": _Key(list, _matrix),
         "function": _Key(str, _function("either"), None)},
        admits=_push_forward_shape),
    "l1_quotient": _Check(
        "integral_checks",
        lambda m, s, c, functions: m.l1_quotient(s.measure, functions),
        {"functions": _Key(list, _function_list, [])}),
    "caratheodory": _Check(
        "outer", _check_caratheodory,
        {"expected_family": _Key(list, _set_list, None)},
        needs="outer_measure"),
}


def _parse_directive(scenario: Scenario, doc, path: str) -> Directive:
    """Resolve one directive through the check table."""
    name = doc.get("check") if isinstance(doc, dict) else None
    if not isinstance(name, str):
        raise SchemaError("a directive must be an object with a string 'check'", path)
    if name not in _CHECKS:
        raise SchemaError(f"unknown check {name!r}", path + "/check")
    expect = doc.get("expect", HOLDS)
    if expect not in STATUSES:
        raise SchemaError(f"expect must be one of {', '.join(STATUSES)}, "
                          f"got {json.dumps(expect)}", path + "/expect")
    spec = _CHECKS[name]
    if spec.needs is not None and spec.needs not in scenario.source:
        raise SchemaError(f"{name} needs the scenario's '{spec.needs}'", path)
    args = {}
    for key, k in spec.keys.items():
        kpath = f"{path}/{key}"
        if key in doc:
            value = _require_json(doc[key], k.json, key, kpath)
            try:
                args[key] = k.resolve(scenario, value, kpath)
            except ValidationError as exc:  # e.g. a negative or non-measurable function
                raise SchemaError(str(exc), kpath) from None
        elif k.default is _REQUIRED:
            raise SchemaError(f"{name} needs '{key}'", kpath)
        else:
            args[key] = k.default
    _capped(path, spec.admits, scenario, args, path)
    return Directive(name, expect, args)


def parse_scenario(doc: dict, path_prefix: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", path_prefix)
    backend = parse_space(doc.get("space"), path_prefix + "/space")
    ground = _parse_size(doc, "ground_size", path_prefix)
    _capped(path_prefix + "/ground_size", check_cap, "ground size", ground, MAX_GROUND_SIZE)

    apath = path_prefix + "/sigma_algebra"
    alg_doc = _require_json(doc.get("sigma_algebra", {"power_set": True}), dict,
                            "sigma_algebra", apath)
    if alg_doc.get("power_set"):
        space = measures_mod.power_set_space(ground)
    elif "generators" in alg_doc:
        gens = [
            _parse_points(g, ground, f"{apath}/generators/{i}")
            for i, g in enumerate(_require_json(alg_doc["generators"], list,
                                                "generators", apath + "/generators"))
        ]
        space = measures_mod.generate_sigma_algebra(gens, ground)
    elif "sets" in alg_doc:
        sets = [
            _parse_points(g, ground, f"{apath}/sets/{i}")
            for i, g in enumerate(_require_json(alg_doc["sets"], list,
                                                "sets", apath + "/sets"))
        ]
        space = measures_mod.validate_sigma_algebra(sets, ground)
    else:
        raise SchemaError("sigma_algebra needs power_set, generators, or sets", apath)

    mu = None
    if "measure" in doc:
        mpath = path_prefix + "/measure"
        mdoc = doc["measure"]
        if not isinstance(mdoc, dict) or "atom_values" not in mdoc:
            raise SchemaError("measure needs 'atom_values'", mpath)
        atom_by_point = {}
        for atom in space.atoms:
            atom_by_point[str(min(mask_to_points(atom)))] = atom
        atom_values = {}
        for key, vdoc in _require_json(mdoc["atom_values"], dict, "atom_values",
                                       mpath + "/atom_values").items():
            if key not in atom_by_point:
                raise SchemaError(
                    f"{key!r} is not the smallest point of an atom "
                    f"(atoms: {[mask_to_points(a) for a in space.atoms]})",
                    f"{mpath}/atom_values/{key}",
                )
            atom_values[atom_by_point[key]] = parse_ext_element(
                vdoc, backend, f"{mpath}/atom_values/{key}"
            )
        missing = [a for a in space.atoms if a not in atom_values]
        if missing:
            raise SchemaError(
                f"missing atom values for {[mask_to_points(a) for a in missing]}",
                mpath + "/atom_values",
            )
        mu = Measure(space, backend, atom_values)

    outer = None
    if "outer_measure" in doc:
        from . import outer as outer_mod
        opath = path_prefix + "/outer_measure"
        odoc = _require_json(doc["outer_measure"], dict, "outer_measure", opath)
        if odoc.get("induced_from_measure"):
            if mu is None:
                raise SchemaError("induced outer measure needs a measure", opath)
            outer = _capped(opath, outer_mod.induce_outer, mu)
        elif "outer_values" in odoc:
            values = {}
            for key, vdoc in _require_json(odoc["outer_values"], dict, "outer_values",
                                           opath + "/outer_values").items():
                kpath = f"{opath}/outer_values/{key}"
                # Keys are strictly increasing ASCII decimal points like "0,2";
                # "" is the empty set.
                if key == "":
                    pts = []
                else:
                    parts = key.split(",")
                    try:
                        pts = [int(p) for p in parts if p.isascii() and p.isdigit()]
                    except ValueError:  # more digits than int() converts
                        pts = []
                    if len(pts) != len(parts):
                        raise SchemaError(f"bad set key {key!r}", kpath)
                    if any(p >= q for p, q in zip(pts, pts[1:])):
                        raise SchemaError(
                            f"points of set key {key!r} are not strictly increasing",
                            kpath)
                    if pts[-1] >= ground:
                        raise SchemaError(f"point outside ground set in {key!r}",
                                          kpath)
                mask = points_to_mask(pts)
                if mask in values:
                    raise SchemaError(f"set key {key!r} names the set {pts} again",
                                      kpath)
                values[mask] = parse_ext_element(vdoc, backend, kpath)
            outer = _capped(opath, outer_mod.validate_outer_measure, values, backend,
                            ground)
        else:
            raise SchemaError(
                "outer_measure needs outer_values or induced_from_measure", opath
            )

    functions = {}
    for name, fdoc in _require_json(doc.get("functions", {}), dict, "functions",
                                    path_prefix + "/functions").items():
        functions[name] = _parse_function_values(fdoc, ground,
                                                 f"{path_prefix}/functions/{name}")

    sequences = {
        name: _parse_sequence(functions, ground, sdoc,
                              f"{path_prefix}/sequences/{name}")
        for name, sdoc in _require_json(doc.get("sequences", {}), dict, "sequences",
                                        path_prefix + "/sequences").items()
    }
    scenario = Scenario(source=doc, backend=backend, space=space, measure=mu, outer=outer,
                        functions=functions, sequences=sequences)
    cpath = path_prefix + "/checks"
    scenario.checks.extend(
        _parse_directive(scenario, directive, f"{cpath}/{i}")
        for i, directive in enumerate(_require_json(doc.get("checks", []), list,
                                                    "checks", cpath))
    )
    return scenario


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file.  A file that cannot be read, is not
    UTF-8 or not JSON, holds an integer past Python's digit limit, nests too
    deeply for the decoder, or writes a key twice in one object is a
    `SchemaError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    repeated = {}  # id -> (object, key) for each object that writes a key twice

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    repeated[id(obj)] = obj, key
                    break
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: arrays and objects nested too deeply") from None
    if repeated:
        _raise_repeated_key(doc, repeated)
    return parse_scenario(doc)


def _raise_repeated_key(doc, repeated: dict):
    """Name the JSON pointer of an object of `doc` that writes a key twice.

    `repeated` maps id(object) to (object, key) for every such object;
    some of them may be the dropped earlier value of a repeated key, but
    the outermost one is in `doc`.  The walk keeps its own stack, so any
    depth that the decoder accepts is searched.
    """
    stack = [(doc, "")]
    while stack:
        value, path = stack.pop()
        if id(value) in repeated:
            raise SchemaError(f"key {repeated[id(value)][1]!r} is written twice", path)
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        stack.extend((v, f"{path}/{k}") for k, v in items)


class RunConfig:
    __slots__ = ("horizon", "epsilons")

    def __init__(self, horizon: int = DEFAULT_HORIZON, epsilons: tuple = DEFAULT_EPSILONS):
        self.horizon = check_cap("horizon", check_horizon(horizon), MAX_HORIZON)
        self.epsilons = epsilons


def run_check(scenario: Scenario, directive: Directive, config: RunConfig) -> CheckResult:
    """Dispatch one resolved directive to its module operation.

    The harness adds no mathematics of its own: every directive maps to
    exactly one library operation, and hypothesis or certification failures
    raised there are converted into the corresponding statuses.
    """
    spec = _CHECKS[directive.check]
    module = spec.module and importlib.import_module(f".{spec.module}", __package__)
    try:
        return spec.handler(module, scenario, config, **directive.args)
    except (HypothesisError, NotIntegrableError) as exc:
        return CheckResult(directive.check, HYPOTHESIS_NOT_MET, {"reason": str(exc)})
    except CertificationError as exc:
        return CheckResult(directive.check, NOT_CERTIFIABLE, {"reason": str(exc)})


def run_scenario(scenario: Scenario, config: Optional[RunConfig] = None) -> dict:
    """Execute all directives in order and assemble a deterministic report."""
    config = config or RunConfig()
    results = []
    all_ok = True
    for directive in scenario.checks:
        result = run_check(scenario, directive, config)
        matched = result.status == directive.expect
        all_ok = all_ok and matched
        entry = result.to_json()
        entry["expect"] = directive.expect
        entry["matched_expectation"] = matched
        results.append(entry)
    return {
        "horizon": config.horizon,
        "epsilon_schedule": [format_rational(e) for e in config.epsilons],
        "checks": results,
        "all_ok": all_ok,
    }
