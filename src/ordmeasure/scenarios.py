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
  outer_measure  {"outer_values": {"<sorted points list>": ExtElement}}
                 or {"induced_from_measure": true}; ground_size 1..12
  functions      {"name": {"values": ["3/2", "infinity", "-1", ...]}}
  sequences      {"name": <sequence spec>}  (function sequences)
  checks         [<directive>, ...]

Sequence specs (terms are function names or inline {"values": [...]}):

  {"kind": "explicit", "terms": [...], "monotonicity": "increasing"}
      final term repeats forever, so stabilization is implied
  {"kind": "geometric", "base": f, "bump": g, "ratio": "-1/2"}
      term n is base + ratio^n * bump; |ratio| < 1, declared limit base
  {"kind": "truncation_ladder", "of": f}
      term n is f truncated at level n; increasing with declared limit f
  {"kind": "alternating", "terms": [...]}
      cycles through the terms forever
  {"kind": "scaled_index", "shape": g}
      term n is n * shape; declared divergent

Check directives are objects {"check": <name>, <key>: ...}, each with an
optional "expect": "holds" | "fails" | "hypothesis-not-met" |
"not-certifiable" (default "holds").  The table `_CHECKS` below is the one
place a directive's keys are defined: for each check it gives the handler,
each key's JSON type, whether the key is required, and what the key
resolves to (a named function or sequence, a set list or set sequence, a
rational, an element, a space, a matrix).  A set sequence is {"kind":
"explicit" | "alternating", "terms": [[points...], ...]} or a bare array of
sets (explicit); an explicit one repeats its final term.

`parse_scenario` resolves every directive and every named sequence, so a
document that parses (`ordmeasure validate`) raises no schema error when it
runs; only the horizon is applied at run time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import integral as integral_mod
from . import measures as measures_mod
from . import outer as outer_mod
from .errors import (
    MAX_GROUND_SIZE,
    CertificationError,
    DimensionLimitError,
    HypothesisError,
    NotIntegrableError,
    SchemaError,
    ValidationError,
    check_cap,
)
from .extended import ExtElement, ext_to_json, finite, infinity
from .integral import ext_function, signed_function
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


@dataclass(frozen=True)
class _NamedSequence:
    """A named function sequence: the value list of term n, and what it declares."""

    values: Callable[[int], list]
    metadata: object
    monotonicity: str
    terms: tuple = ()  # every term of an explicit or alternating sequence


@dataclass(frozen=True)
class Directive:
    """One check directive with every key resolved by the check table."""

    check: str
    expect: str
    args: dict

    def get(self, key: str, default=None):
        """`check` or `expect` read as from the directive's JSON object, which
        is what wrappers of `run_check` read."""
        return {"check": self.check, "expect": self.expect}.get(key, default)


@dataclass
class Scenario:
    source: dict
    backend: SpaceDescriptor
    space: MeasurableSpace
    measure: Optional[Measure]
    outer: Optional[outer_mod.OuterMeasure]
    functions: Dict[str, list]  # name -> ExtScalar values (may be negative)
    sequences: Dict[str, _NamedSequence]
    checks: List[Directive]


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


def _stabilizing(terms: list):
    """Term n of the list, its final term repeating forever."""
    return lambda n: terms[min(n, len(terms)) - 1]


def _cycling(terms: list):
    return lambda n: terms[(n - 1) % len(terms)]


def _parse_sequence(functions: dict, ground: int, doc, path: str) -> _NamedSequence:
    """Compile a sequence spec into term value lists with metadata."""
    doc = _require_json(doc, dict, "sequence", path)
    kind = doc.get("kind")
    monotonicity = doc.get("monotonicity", "none")

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
            return _NamedSequence(_cycling(terms), None, "none", tuple(terms))
        metadata = (DivergesToInfinity() if doc.get("metadata") == "diverges"
                    else StabilizesAt(len(terms)))
        return _NamedSequence(_stabilizing(terms), metadata, monotonicity, tuple(terms))

    if kind == "geometric":
        base, bump = term("base"), term("bump")
        ratio = parse_rational(doc.get("ratio"), path + "/ratio")
        if abs(ratio) >= 1:
            raise SchemaError("geometric ratio must satisfy |ratio| < 1",
                              path + "/ratio")
        if any(is_infinite(v) for v in base + bump):
            raise SchemaError("geometric sequences need finite base and bump", path)
        return _NamedSequence(
            lambda n: [b + ratio**n * h for b, h in zip(base, bump)],
            DeclaredLimit(list(base)), monotonicity)

    if kind == "truncation_ladder":
        f = term("of")
        return _NamedSequence(
            lambda n: [Fraction(n) if is_infinite(v) else min(v, Fraction(n)) for v in f],
            DeclaredLimit(list(f)), "increasing")

    if kind == "scaled_index":
        shape = term("shape")
        if any(is_infinite(v) for v in shape):
            raise SchemaError("scaled_index shape must be finite", path)
        return _NamedSequence(lambda n: [Fraction(n) * v for v in shape],
                              DivergesToInfinity(), "increasing")

    raise SchemaError(f"unknown sequence kind {kind!r}", path)


# Resolvers of directive keys.  Each takes the scenario being parsed, the
# key's JSON value (already of the key's JSON type) and its path.

def _as_function(space: MeasurableSpace, values: list, kind: str, path: str):
    """`values` made an "ext" (extended-positive) or "signed" function, or
    "either": signed when some value is negative."""
    if kind == "ext" or (kind == "either" and all(is_infinite(v) or v >= 0
                                                  for v in values)):
        return ext_function(space, values)
    if any(is_infinite(v) for v in values):
        raise SchemaError("a signed function cannot take the value infinity", path)
    return signed_function(space, values)


def _function(kind: str):
    """A function reference, made a function of `kind` (see `_as_function`)."""
    def resolve(scenario: Scenario, name: str, path: str):
        values = _resolve_term(scenario.functions, scenario.space.ground_size, name, path)
        return _as_function(scenario.space, values, kind, path)
    return resolve


def _function_sequence(kind: str):
    """A sequence reference whose terms are "ext" or "signed" functions;
    resolves to the map from a horizon to the sequence.  The terms of an
    explicit or alternating sequence are made functions here, so a bad term
    is a schema error of the directive."""
    def resolve(scenario: Scenario, name: str, path: str):
        if name not in scenario.sequences:
            raise SchemaError(f"unresolved sequence reference {name!r}", path)
        seq, space = scenario.sequences[name], scenario.space
        for values in seq.terms:
            _as_function(space, values, kind, path)
        return lambda horizon: SequenceSpec(
            lambda n: _as_function(space, seq.values(n), kind, path), horizon=horizon,
            metadata=seq.metadata, monotonicity=seq.monotonicity)
    return resolve


def _set_list(scenario: Scenario, doc: list, path: str) -> list:
    return [_parse_points(s, scenario.space.ground_size, f"{path}/{i}")
            for i, s in enumerate(doc)]


def _set_sequence(scenario: Scenario, doc, path: str):
    """A set sequence; resolves to the map from a horizon to the sequence."""
    if isinstance(doc, list):
        kind, terms = "explicit", _set_list(scenario, doc, path)
    else:
        kind = doc.get("kind", "explicit")
        terms = _set_list(scenario, _require_json(doc.get("terms", []), list, "terms",
                                                  path + "/terms"), path + "/terms")
    if not terms:
        raise SchemaError("set sequence needs terms", path)
    if kind == "explicit":
        return lambda horizon: SequenceSpec(_stabilizing(terms), horizon=horizon,
                                            metadata=StabilizesAt(len(terms)))
    if kind == "alternating":
        return lambda horizon: SequenceSpec(_cycling(terms), horizon=horizon)
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


@dataclass(frozen=True)
class _Key:
    """One directive key: its JSON type(s), its resolver, and its default.

    A key without a default is required; an absent optional key takes the
    default as it is.
    """

    json: object
    resolve: Callable
    default: object = _REQUIRED


@dataclass(frozen=True)
class _Check:
    """A check's handler, its keys, and the scenario section it runs on.

    The handler is called as ``handler(scenario, config, **resolved keys)``.
    """

    handler: Callable
    keys: Dict[str, _Key] = field(default_factory=dict)
    needs: Optional[str] = "measure"
    # called with the scenario while parsing, to reject it past a size cap
    admits: Callable = lambda scenario: None


_EXT = _Key(str, _function("ext"))
_SIGNED = _Key(str, _function("signed"))
_SETS = _Key((list, dict), _set_sequence)
_EXT_SEQUENCE = _Key(str, _function_sequence("ext"))


def _check_validate(scenario: Scenario, config) -> CheckResult:
    space = scenario.space
    details = {"atoms": [mask_to_points(a) for a in space.atoms],
               "members": 1 << len(space.atoms)}
    if scenario.measure is not None:
        details["classification"] = scenario.measure.classification()
    return CheckResult("validate", HOLDS, details)


def _check_integrate(scenario: Scenario, config, function, expected) -> CheckResult:
    report = integral_mod.integrate_extended(function, scenario.measure)
    details = {"value": ext_to_json(report.value), "ladder": report.trail}
    status = FAILS if expected is not None and expected != report.value else HOLDS
    return CheckResult("integrate", status, details)


def _check_caratheodory(scenario: Scenario, config, expected_family) -> CheckResult:
    details, identities = outer_mod.caratheodory_report(scenario.outer)
    status = HOLDS if identities.ok else FAILS
    if (expected_family is not None and [mask_to_points(m) for m in sorted(expected_family)]
            != details["measurable_family"]):
        status = FAILS
    return CheckResult("caratheodory", status, details)


# Directive name -> handler and keys.  Handlers look library operations up
# on their modules at call time, so a wrapper installed on a module
# attribute (as perfbench/tracing.py installs) sees every call.
_CHECKS = {
    "validate": _Check(_check_validate, needs=None),
    "identities": _Check(
        lambda s, c: measures_mod.check_measure_identities(s.measure),
        admits=lambda s: measures_mod.require_exhaustive(s.space)),
    "continuity_below": _Check(
        lambda s, c, sets: measures_mod.continuity_from_below(
            s.measure, sets(c.horizon), horizon=c.horizon),
        {"sets": _SETS}),
    "continuity_above": _Check(
        lambda s, c, sets: measures_mod.continuity_from_above(
            s.measure, sets(c.horizon), horizon=c.horizon),
        {"sets": _SETS}),
    "borel_cantelli": _Check(
        lambda s, c, sets, lower_bound: measures_mod.borel_cantelli(
            s.measure, sets(c.horizon), lower_bound, horizon=c.horizon),
        {"sets": _SETS,
         "lower_bound": _Key(list, lambda s, v, p: parse_element(v, s.backend, p), None)}),
    "bridge": _Check(
        lambda s, c, sets: measures_mod.operator_measure_bridge(s.measure, sets),
        {"sets": _Key(list, _set_list, [])}),
    "integrate": _Check(
        _check_integrate,
        {"function": _EXT,
         "expected": _Key((dict, str), lambda s, v, p: parse_ext_element(v, s.backend, p),
                          None)}),
    "integral_laws": _Check(
        lambda s, c, f, g, r1, r2: integral_mod.check_integral_laws(s.measure, f, g,
                                                                    r1, r2),
        {"f": _EXT, "g": _EXT,
         "r1": _Key(str, lambda s, v, p: parse_rational(v, p), Fraction(1)),
         "r2": _Key(str, lambda s, v, p: parse_rational(v, p), Fraction(1))}),
    "ae": _Check(lambda s, c, function: integral_mod.ae_analysis(function, s.measure),
                 {"function": _EXT}),
    "mct": _Check(
        lambda s, c, sequence, limit: integral_mod.mct(
            s.measure, sequence(c.horizon), limit, horizon=c.horizon,
            epsilons=c.epsilons),
        {"sequence": _EXT_SEQUENCE, "limit": _EXT}),
    "mct_decreasing": _Check(
        lambda s, c, sequence, limit: integral_mod.mct_decreasing(
            s.measure, sequence(c.horizon), limit, horizon=c.horizon,
            epsilons=c.epsilons),
        {"sequence": _EXT_SEQUENCE, "limit": _EXT}),
    "fatou": _Check(
        lambda s, c, sequence: integral_mod.fatou(s.measure, sequence(c.horizon),
                                                  horizon=c.horizon),
        {"sequence": _EXT_SEQUENCE}),
    "dct": _Check(
        lambda s, c, sequence, limit, dominator: integral_mod.dct(
            s.measure, sequence(c.horizon), limit, dominator, horizon=c.horizon,
            epsilons=c.epsilons),
        {"sequence": _Key(str, _function_sequence("signed")),
         "limit": _SIGNED, "dominator": _EXT}),
    "triangle": _Check(
        lambda s, c, function: integral_mod.triangle_inequality(s.measure, function),
        {"function": _SIGNED}),
    "push_forward": _Check(
        lambda s, c, target, matrix, function: integral_mod.push_forward(
            s.measure, matrix, target, function),
        {"target": _Key(dict, lambda s, v, p: parse_space(v, p)),
         "matrix": _Key(list, _matrix, []),
         "function": _Key(str, _function("either"), None)}),
    "l1_quotient": _Check(
        lambda s, c, functions: integral_mod.l1_quotient(s.measure, functions),
        {"functions": _Key(list, _function_list, [])}),
    "caratheodory": _Check(
        _check_caratheodory,
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
    _capped(path, spec.admits, scenario)
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
                # Keys are sorted point lists like "0,2"; "" is the empty set.
                if key == "":
                    mask = 0
                else:
                    try:
                        pts = [int(p) for p in key.split(",")]
                    except ValueError:
                        raise SchemaError(f"bad set key {key!r}", kpath)
                    if any(p < 0 or p >= ground for p in pts):
                        raise SchemaError(f"point outside ground set in {key!r}",
                                          kpath)
                    mask = points_to_mask(pts)
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
    scenario = Scenario(
        source=doc, backend=backend, space=space, measure=mu, outer=outer,
        functions=functions, sequences=sequences, checks=[],
    )
    cpath = path_prefix + "/checks"
    scenario.checks.extend(
        _parse_directive(scenario, directive, f"{cpath}/{i}")
        for i, directive in enumerate(_require_json(doc.get("checks", []), list,
                                                    "checks", cpath))
    )
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", "")
    return parse_scenario(doc)


@dataclass
class RunConfig:
    horizon: int = DEFAULT_HORIZON
    epsilons: tuple = DEFAULT_EPSILONS


def run_check(scenario: Scenario, directive: Directive, config: RunConfig) -> CheckResult:
    """Dispatch one resolved directive to its module operation.

    The harness adds no mathematics of its own: every directive maps to
    exactly one library operation, and hypothesis or certification failures
    raised there are converted into the corresponding statuses.
    """
    try:
        return _CHECKS[directive.check].handler(scenario, config, **directive.args)
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
