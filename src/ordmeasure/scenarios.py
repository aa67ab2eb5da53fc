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
  ground_size    number of ground points (1-based checks index sets by point)
  sigma_algebra  {"power_set": true}, {"generators": [[points...], ...]}
                 (closure is computed), or {"sets": [[points...], ...]}
                 (the family is validated as given)
  measure        {"atom_values": {"<smallest point of atom>": ExtElement}}
  outer_measure  {"outer_values": {"<sorted points list>": ExtElement}}
                 or {"induced_from_measure": true}
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

Check directives (each may carry "expect": "holds" | "fails" |
"hypothesis-not-met" | "not-certifiable"; default "holds"):

  {"check": "validate"}
  {"check": "identities"}
  {"check": "continuity_below", "sets": <set sequence>}
  {"check": "continuity_above", "sets": <set sequence>}
  {"check": "borel_cantelli", "sets": <set sequence>, "lower_bound": [coords]}
  {"check": "bridge", "sets": [[points...], ...]}
  {"check": "integrate", "function": f, "expected": ExtElement}
  {"check": "integral_laws", "f": f, "g": g, "r1": "2", "r2": "1/3"}
  {"check": "ae", "function": f}
  {"check": "mct" | "mct_decreasing", "sequence": s, "limit": f}
  {"check": "fatou", "sequence": s}
  {"check": "dct", "sequence": s, "limit": f, "dominator": g}
  {"check": "triangle", "function": f}
  {"check": "push_forward", "matrix": [[entries...]], "target": <space>,
   "function": f}
  {"check": "l1_quotient", "functions": [names...]}
  {"check": "caratheodory", "expected_family": [[points...], ...]}

Set sequences are {"kind": "explicit" | "alternating", "terms":
[[points...], ...]}; explicit set sequences repeat their final term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from . import integral as integral_mod
from . import measures as measures_mod
from . import outer as outer_mod
from .errors import (
    CertificationError,
    HypothesisError,
    NotIntegrableError,
    SchemaError,
)
from .extended import ExtElement, finite, infinity
from .integral import ExtFunction, SignedFunction, ext_function, signed_function
from .measures import MeasurableSpace, Measure, mask_to_points, points_to_mask
from .rationals import (
    format_ext_scalar,
    format_rational,
    is_infinite,
    parse_ext_scalar,
    parse_rational,
)
from .reports import CheckResult, HOLDS, HYPOTHESIS_NOT_MET, NOT_CERTIFIABLE
from .sequences import (
    DEFAULT_EPSILONS,
    DEFAULT_HORIZON,
    DeclaredLimit,
    DivergesToInfinity,
    SequenceSpec,
    StabilizesAt,
)
from .spaces import Element, SpaceDescriptor, SpaceKind, coord, entrywise_mat
from .spaces import MAX_LOEWNER_DIM, loewner_sym, reals


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


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
        if dim > MAX_LOEWNER_DIM:
            raise SchemaError(
                f"Loewner backend limited to dim <= {MAX_LOEWNER_DIM}, got {dim}",
                path + "/dim",
            )
        return loewner_sym(dim)
    raise SchemaError(f"unknown space kind {kind!r}", path + "/kind")


def space_to_json(space: SpaceDescriptor) -> dict:
    if space.kind is SpaceKind.REALS:
        return {"kind": "reals"}
    if space.kind is SpaceKind.COORD:
        return {"kind": "coord", "dim": space.dim}
    if space.kind is SpaceKind.ENTRYWISE_MAT:
        return {"kind": "entrywise_mat", "rows": space.rows, "cols": space.cols}
    return {"kind": "loewner_sym", "dim": space.dim}


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


def ext_element_to_json(v: ExtElement):
    if v.is_infinite:
        return "infinity"
    return {"finite": [format_rational(c) for c in v.finite.coords]}


def _parse_points(doc, ground_size: int, path: str) -> int:
    if not isinstance(doc, list):
        raise SchemaError("set must be an array of point indices", path)
    points = []
    for i, p in enumerate(doc):
        if not isinstance(p, int) or p < 0 or p >= ground_size:
            raise SchemaError(f"point {p!r} outside the ground set", f"{path}/{i}")
        points.append(p)
    return points_to_mask(points)


@dataclass
class FunctionDef:
    """Raw scalar list; coerced to an extended or signed function on demand."""

    values: list  # ExtScalar entries (Fractions may be negative)

    def as_ext(self, space: MeasurableSpace) -> ExtFunction:
        return ext_function(space, self.values)

    def as_signed(self, space: MeasurableSpace) -> SignedFunction:
        if any(is_infinite(v) for v in self.values):
            raise SchemaError("a signed function cannot take the value infinity")
        return signed_function(space, self.values)

    def to_json(self) -> dict:
        return {"values": [format_ext_scalar(v) for v in self.values]}


@dataclass
class Scenario:
    source: dict
    backend: SpaceDescriptor
    space: MeasurableSpace
    measure: Optional[Measure]
    outer: Optional[outer_mod.OuterMeasure]
    functions: Dict[str, FunctionDef]
    sequences: Dict[str, dict]
    checks: List[dict]

    def function(self, name: str, path: str = "") -> FunctionDef:
        if name not in self.functions:
            raise SchemaError(f"unresolved function reference {name!r}", path)
        return self.functions[name]


def _parse_function_values(doc, path: str) -> FunctionDef:
    if not isinstance(doc, dict) or "values" not in doc:
        raise SchemaError("function needs a 'values' array", path)
    vals = [parse_ext_scalar(v, f"{path}/values/{i}")
            for i, v in enumerate(doc["values"])]
    return FunctionDef(vals)


def parse_scenario(doc: dict, path_prefix: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", path_prefix)
    backend = parse_space(doc.get("space"), path_prefix + "/space")
    ground = doc.get("ground_size")
    if not isinstance(ground, int) or ground < 1:
        raise SchemaError("ground_size must be a positive integer",
                          path_prefix + "/ground_size")

    alg_doc = doc.get("sigma_algebra", {"power_set": True})
    apath = path_prefix + "/sigma_algebra"
    if alg_doc.get("power_set"):
        space = measures_mod.power_set_space(ground)
    elif "generators" in alg_doc:
        gens = [
            _parse_points(g, ground, f"{apath}/generators/{i}")
            for i, g in enumerate(alg_doc["generators"])
        ]
        space = measures_mod.generate_sigma_algebra(gens, ground)
    elif "sets" in alg_doc:
        sets = [
            _parse_points(g, ground, f"{apath}/sets/{i}")
            for i, g in enumerate(alg_doc["sets"])
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
        for key, vdoc in mdoc["atom_values"].items():
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
        odoc = doc["outer_measure"]
        if odoc.get("induced_from_measure"):
            if mu is None:
                raise SchemaError("induced outer measure needs a measure", opath)
            outer = outer_mod.induce_outer(mu)
        elif "outer_values" in odoc:
            values = {}
            for key, vdoc in odoc["outer_values"].items():
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
            outer = outer_mod.validate_outer_measure(values, backend, ground)
        else:
            raise SchemaError(
                "outer_measure needs outer_values or induced_from_measure", opath
            )

    functions = {}
    for name, fdoc in doc.get("functions", {}).items():
        fdef = _parse_function_values(fdoc, f"{path_prefix}/functions/{name}")
        if len(fdef.values) != ground:
            raise SchemaError(
                f"function {name!r} needs {ground} values",
                f"{path_prefix}/functions/{name}/values",
            )
        functions[name] = fdef

    sequences = dict(doc.get("sequences", {}))
    checks = list(doc.get("checks", []))
    return Scenario(
        source=doc, backend=backend, space=space, measure=mu, outer=outer,
        functions=functions, sequences=sequences, checks=checks,
    )


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


def _resolve_term(scenario: Scenario, term, path: str) -> FunctionDef:
    if isinstance(term, str):
        return scenario.function(term, path)
    return _parse_function_values(term, path)


def _build_function_sequence(scenario: Scenario, name: str,
                             config: RunConfig, path: str):
    """Compile a sequence spec into term value lists with metadata."""
    if name not in scenario.sequences:
        raise SchemaError(f"unresolved sequence reference {name!r}", path)
    doc = scenario.sequences[name]
    kind = doc.get("kind")
    spath = f"/sequences/{name}"
    monotonicity = doc.get("monotonicity", "none")

    if kind == "explicit":
        terms = [
            _resolve_term(scenario, t, f"{spath}/terms/{i}").values
            for i, t in enumerate(doc.get("terms", []))
        ]
        if not terms:
            raise SchemaError("explicit sequence needs terms", spath)
        meta_doc = doc.get("metadata")
        if meta_doc == "diverges":
            metadata = DivergesToInfinity()
        else:
            metadata = StabilizesAt(len(terms))

        def gen(n, _terms=terms):
            return _terms[min(n, len(_terms)) - 1]

        return SequenceSpec(gen, horizon=config.horizon, metadata=metadata,
                            monotonicity=monotonicity)

    if kind == "geometric":
        base = _resolve_term(scenario, doc.get("base"), spath + "/base").values
        bump = _resolve_term(scenario, doc.get("bump"), spath + "/bump").values
        ratio = parse_rational(doc.get("ratio"), spath + "/ratio")
        if abs(ratio) >= 1:
            raise SchemaError("geometric ratio must satisfy |ratio| < 1",
                              spath + "/ratio")
        if len(base) != len(bump):
            raise SchemaError("base and bump must have equal length", spath)
        if any(is_infinite(v) for v in base + bump):
            raise SchemaError("geometric sequences need finite base and bump", spath)

        def gen(n, _b=base, _h=bump, _r=ratio):
            return [b + _r**n * h for b, h in zip(_b, _h)]

        return SequenceSpec(gen, horizon=config.horizon,
                            metadata=DeclaredLimit(list(base)),
                            monotonicity=monotonicity)

    if kind == "truncation_ladder":
        f = _resolve_term(scenario, doc.get("of"), spath + "/of").values

        def gen(n, _f=f):
            return [Fraction(n) if is_infinite(v) else min(v, Fraction(n)) for v in _f]

        return SequenceSpec(gen, horizon=config.horizon,
                            metadata=DeclaredLimit(list(f)),
                            monotonicity="increasing")

    if kind == "alternating":
        terms = [
            _resolve_term(scenario, t, f"{spath}/terms/{i}").values
            for i, t in enumerate(doc.get("terms", []))
        ]
        if not terms:
            raise SchemaError("alternating sequence needs terms", spath)

        def gen(n, _terms=terms):
            return _terms[(n - 1) % len(_terms)]

        return SequenceSpec(gen, horizon=config.horizon, metadata=None,
                            monotonicity="none")

    if kind == "scaled_index":
        shape = _resolve_term(scenario, doc.get("shape"), spath + "/shape").values
        if any(is_infinite(v) for v in shape):
            raise SchemaError("scaled_index shape must be finite", spath)

        def gen(n, _s=shape):
            return [Fraction(n) * v for v in _s]

        return SequenceSpec(gen, horizon=config.horizon,
                            metadata=DivergesToInfinity(),
                            monotonicity="increasing")

    raise SchemaError(f"unknown sequence kind {kind!r}", spath)


def _wrap_ext_sequence(seq: SequenceSpec, space: MeasurableSpace) -> SequenceSpec:
    return SequenceSpec(
        generator=lambda n: ext_function(space, seq.term(n)),
        horizon=seq.horizon, metadata=seq.metadata,
        monotonicity=seq.monotonicity,
    )


def _wrap_signed_sequence(seq: SequenceSpec, space: MeasurableSpace) -> SequenceSpec:
    return SequenceSpec(
        generator=lambda n: signed_function(space, seq.term(n)),
        horizon=seq.horizon, metadata=seq.metadata,
        monotonicity=seq.monotonicity,
    )


def _parse_set_sequence(scenario: Scenario, doc, config: RunConfig,
                        path: str) -> SequenceSpec:
    ground = scenario.space.ground_size
    if isinstance(doc, list):
        doc = {"kind": "explicit", "terms": doc}
    kind = doc.get("kind", "explicit")
    terms = [
        _parse_points(t, ground, f"{path}/terms/{i}")
        for i, t in enumerate(doc.get("terms", []))
    ]
    if not terms:
        raise SchemaError("set sequence needs terms", path)
    if kind == "explicit":
        def gen(n, _terms=terms):
            return _terms[min(n, len(_terms)) - 1]
        return SequenceSpec(gen, horizon=config.horizon,
                            metadata=StabilizesAt(len(terms)))
    if kind == "alternating":
        def gen(n, _terms=terms):
            return _terms[(n - 1) % len(_terms)]
        return SequenceSpec(gen, horizon=config.horizon)
    raise SchemaError(f"unknown set sequence kind {kind!r}", path)


def _require_measure(scenario: Scenario) -> Measure:
    if scenario.measure is None:
        raise SchemaError("this check needs a 'measure' in the scenario")
    return scenario.measure


def run_check(scenario: Scenario, directive: dict, config: RunConfig,
              index: int) -> CheckResult:
    """Dispatch one directive to its module operation.

    The harness adds no mathematics of its own: every directive maps to
    exactly one library operation, and hypothesis or certification failures
    raised there are converted into the corresponding statuses.
    """
    name = directive.get("check")
    path = f"/checks/{index}"
    try:
        if name == "validate":
            details = {"atoms": [mask_to_points(a) for a in scenario.space.atoms],
                       "members": len(scenario.space.sets)}
            if scenario.measure is not None:
                details["classification"] = scenario.measure.classification()
            return CheckResult("validate", HOLDS, details)

        if name == "identities":
            return measures_mod.check_measure_identities(_require_measure(scenario))

        if name == "continuity_below":
            seq = _parse_set_sequence(scenario, directive.get("sets"), config,
                                      path + "/sets")
            return measures_mod.continuity_from_below(
                _require_measure(scenario), seq, horizon=config.horizon)

        if name == "continuity_above":
            seq = _parse_set_sequence(scenario, directive.get("sets"), config,
                                      path + "/sets")
            return measures_mod.continuity_from_above(
                _require_measure(scenario), seq, horizon=config.horizon)

        if name == "borel_cantelli":
            mu = _require_measure(scenario)
            seq = _parse_set_sequence(scenario, directive.get("sets"), config,
                                      path + "/sets")
            x = None
            if "lower_bound" in directive:
                x = parse_element(directive["lower_bound"], scenario.backend,
                                  path + "/lower_bound")
            return measures_mod.borel_cantelli(mu, seq, x, horizon=config.horizon)

        if name == "bridge":
            mu = _require_measure(scenario)
            sets = [
                _parse_points(s, scenario.space.ground_size, f"{path}/sets/{i}")
                for i, s in enumerate(directive.get("sets", []))
            ]
            return measures_mod.operator_measure_bridge(mu, sets)

        if name == "integrate":
            mu = _require_measure(scenario)
            f = scenario.function(directive.get("function"), path).as_ext(
                scenario.space)
            report = integral_mod.integrate_extended(f, mu)
            details = {"value": ext_element_to_json(report.value),
                       "ladder": report.trail}
            if "expected" in directive:
                expected = parse_ext_element(directive["expected"],
                                             scenario.backend, path + "/expected")
                if expected != report.value:
                    return CheckResult("integrate", "fails", details)
            return CheckResult("integrate", HOLDS, details)

        if name == "integral_laws":
            mu = _require_measure(scenario)
            f = scenario.function(directive.get("f"), path).as_ext(scenario.space)
            g = scenario.function(directive.get("g"), path).as_ext(scenario.space)
            r1 = parse_rational(directive.get("r1", "1"), path + "/r1")
            r2 = parse_rational(directive.get("r2", "1"), path + "/r2")
            return integral_mod.check_integral_laws(mu, f, g, r1, r2)

        if name == "ae":
            mu = _require_measure(scenario)
            f = scenario.function(directive.get("function"), path).as_ext(
                scenario.space)
            return integral_mod.ae_analysis(f, mu)

        if name in ("mct", "mct_decreasing"):
            mu = _require_measure(scenario)
            seq = _build_function_sequence(scenario, directive.get("sequence"),
                                           config, path + "/sequence")
            f = scenario.function(directive.get("limit"), path).as_ext(scenario.space)
            wrapped = _wrap_ext_sequence(seq, scenario.space)
            op = integral_mod.mct if name == "mct" else integral_mod.mct_decreasing
            return op(mu, wrapped, f, horizon=config.horizon,
                      epsilons=config.epsilons)

        if name == "fatou":
            mu = _require_measure(scenario)
            seq = _build_function_sequence(scenario, directive.get("sequence"),
                                           config, path + "/sequence")
            return integral_mod.fatou(mu, _wrap_ext_sequence(seq, scenario.space),
                                      horizon=config.horizon)

        if name == "dct":
            mu = _require_measure(scenario)
            seq = _build_function_sequence(scenario, directive.get("sequence"),
                                           config, path + "/sequence")
            f = scenario.function(directive.get("limit"), path).as_signed(
                scenario.space)
            g = scenario.function(directive.get("dominator"), path).as_ext(
                scenario.space)
            return integral_mod.dct(mu, _wrap_signed_sequence(seq, scenario.space),
                                    f, g, horizon=config.horizon,
                                    epsilons=config.epsilons)

        if name == "triangle":
            mu = _require_measure(scenario)
            f = scenario.function(directive.get("function"), path).as_signed(
                scenario.space)
            return integral_mod.triangle_inequality(mu, f)

        if name == "push_forward":
            mu = _require_measure(scenario)
            target = parse_space(directive.get("target"), path + "/target")
            matrix = [
                [parse_rational(v, f"{path}/matrix/{i}/{j}")
                 for j, v in enumerate(row)]
                for i, row in enumerate(directive.get("matrix", []))
            ]
            f = None
            if "function" in directive:
                fdef = scenario.function(directive["function"], path)
                if any(not is_infinite(v) and v < 0 for v in fdef.values):
                    f = fdef.as_signed(scenario.space)
                else:
                    f = fdef.as_ext(scenario.space)
            return integral_mod.push_forward(mu, matrix, target, f)

        if name == "l1_quotient":
            mu = _require_measure(scenario)
            fs = [
                scenario.function(fname, f"{path}/functions/{i}").as_signed(
                    scenario.space)
                for i, fname in enumerate(directive.get("functions", []))
            ]
            return integral_mod.l1_quotient(mu, fs)

        if name == "caratheodory":
            if scenario.outer is None:
                raise SchemaError("caratheodory needs an 'outer_measure'", path)
            space, restricted = outer_mod.extract_measurable_algebra(scenario.outer)
            identity_report = measures_mod.check_measure_identities(restricted)
            details = {
                "measurable_family": [mask_to_points(m) for m in space.members()],
                "atoms": [mask_to_points(a) for a in space.atoms],
                "restriction_identities": identity_report.status,
                "restricted_measure": {
                    str(min(mask_to_points(a))): ext_element_to_json(v)
                    for a, v in restricted.atom_values.items()
                },
            }
            status = HOLDS if identity_report.ok else "fails"
            if "expected_family" in directive:
                expected = [
                    _parse_points(s, scenario.space.ground_size,
                                  f"{path}/expected_family/{i}")
                    for i, s in enumerate(directive["expected_family"])
                ]
                if sorted(expected) != space.members():
                    status = "fails"
            return CheckResult("caratheodory", status, details)

        raise SchemaError(f"unknown check {name!r}", path)
    except HypothesisError as exc:
        return CheckResult(name or "?", HYPOTHESIS_NOT_MET, {"reason": str(exc)})
    except CertificationError as exc:
        return CheckResult(name or "?", NOT_CERTIFIABLE, {"reason": str(exc)})
    except NotIntegrableError as exc:
        return CheckResult(name or "?", HYPOTHESIS_NOT_MET, {"reason": str(exc)})


def run_scenario(scenario: Scenario, config: Optional[RunConfig] = None) -> dict:
    """Execute all directives in order and assemble a deterministic report."""
    config = config or RunConfig()
    results = []
    all_ok = True
    for i, directive in enumerate(scenario.checks):
        expect = directive.get("expect", HOLDS)
        result = run_check(scenario, directive, config, i)
        matched = result.status == expect
        all_ok = all_ok and matched
        entry = result.to_json()
        entry["expect"] = expect
        entry["matched_expectation"] = matched
        results.append(entry)
    return {
        "horizon": config.horizon,
        "epsilon_schedule": [format_rational(e) for e in config.epsilons],
        "checks": results,
        "all_ok": all_ok,
    }
