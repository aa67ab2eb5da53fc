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
from .extended import ExtElement, ext_to_json, finite, infinity
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
from .spaces import Element, SpaceDescriptor, coord, entrywise_mat
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


def _require_json(value, kind: type, what: str, path: str):
    """`value`, when it is a JSON object (`dict`), array (`list`) or string
    (`str`) as asked."""
    if not isinstance(value, kind):
        raise SchemaError(f"{what} must be {_JSON_KINDS[kind]}", path)
    return value


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
        if _require_json(name, str, "function reference", path) not in self.functions:
            raise SchemaError(f"unresolved function reference {name!r}", path)
        return self.functions[name]


def _parse_function_values(doc, path: str) -> FunctionDef:
    if not isinstance(doc, dict) or "values" not in doc:
        raise SchemaError("function needs a 'values' array", path)
    values = _require_json(doc["values"], list, "values", path + "/values")
    vals = [parse_ext_scalar(v, f"{path}/values/{i}") for i, v in enumerate(values)]
    return FunctionDef(vals)


def parse_scenario(doc: dict, path_prefix: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", path_prefix)
    backend = parse_space(doc.get("space"), path_prefix + "/space")
    ground = _parse_size(doc, "ground_size", path_prefix)
    if ground > measures_mod.MAX_GROUND_SIZE:
        raise SchemaError(
            f"ground size limited to <= {measures_mod.MAX_GROUND_SIZE}, got {ground}",
            path_prefix + "/ground_size",
        )

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
        if ground > outer_mod.MAX_OUTER_GROUND_SIZE:
            raise SchemaError(
                f"outer measures limited to ground size <= "
                f"{outer_mod.MAX_OUTER_GROUND_SIZE}, got {ground}", opath)
        if odoc.get("induced_from_measure"):
            if mu is None:
                raise SchemaError("induced outer measure needs a measure", opath)
            outer = outer_mod.induce_outer(mu)
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
            outer = outer_mod.validate_outer_measure(values, backend, ground)
        else:
            raise SchemaError(
                "outer_measure needs outer_values or induced_from_measure", opath
            )

    functions = {}
    for name, fdoc in _require_json(doc.get("functions", {}), dict, "functions",
                                    path_prefix + "/functions").items():
        fdef = _parse_function_values(fdoc, f"{path_prefix}/functions/{name}")
        if len(fdef.values) != ground:
            raise SchemaError(
                f"function {name!r} needs {ground} values",
                f"{path_prefix}/functions/{name}/values",
            )
        functions[name] = fdef

    sequences = _require_json(doc.get("sequences", {}), dict, "sequences",
                              path_prefix + "/sequences")
    checks = _require_json(doc.get("checks", []), list, "checks", path_prefix + "/checks")
    for i, directive in enumerate(checks):
        check = directive.get("check") if isinstance(directive, dict) else None
        if not isinstance(check, str):
            raise SchemaError("a directive must be an object with a string 'check'",
                              f"{path_prefix}/checks/{i}")
    return Scenario(
        source=doc, backend=backend, space=space, measure=mu, outer=outer,
        functions=functions, sequences=dict(sequences), checks=list(checks),
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
    if _require_json(name, str, "sequence reference", path) not in scenario.sequences:
        raise SchemaError(f"unresolved sequence reference {name!r}", path)
    spath = f"/sequences/{name}"
    doc = _require_json(scenario.sequences[name], dict, "sequence", spath)
    kind = doc.get("kind")
    monotonicity = doc.get("monotonicity", "none")

    if kind == "explicit":
        terms = [
            _resolve_term(scenario, t, f"{spath}/terms/{i}").values
            for i, t in enumerate(_require_json(doc.get("terms", []), list, "terms",
                                                spath + "/terms"))
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
            for i, t in enumerate(_require_json(doc.get("terms", []), list, "terms",
                                                spath + "/terms"))
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


def _parse_set_sequence(scenario: Scenario, doc, config: RunConfig,
                        path: str) -> SequenceSpec:
    ground = scenario.space.ground_size
    if isinstance(doc, list):
        doc = {"kind": "explicit", "terms": doc}
    kind = _require_json(doc, dict, "set sequence", path).get("kind", "explicit")
    terms = [
        _parse_points(t, ground, f"{path}/terms/{i}")
        for i, t in enumerate(_require_json(doc.get("terms", []), list, "terms",
                                            path + "/terms"))
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


@dataclass
class _Directive:
    """One check directive, with the scenario and settings it runs under."""

    scenario: Scenario
    doc: dict
    config: RunConfig
    path: str

    def measure(self) -> Measure:
        if self.scenario.measure is None:
            raise SchemaError("this check needs a 'measure' in the scenario")
        return self.scenario.measure

    def ext(self, key: str) -> ExtFunction:
        return self.scenario.function(self.doc.get(key), self.path).as_ext(
            self.scenario.space)

    def signed(self, key: str) -> SignedFunction:
        return self.scenario.function(self.doc.get(key), self.path).as_signed(
            self.scenario.space)

    def sets(self) -> SequenceSpec:
        return _parse_set_sequence(self.scenario, self.doc.get("sets"), self.config,
                                   self.path + "/sets")

    def sequence(self, convert) -> SequenceSpec:
        """The named function sequence, each term made by `convert(space, values)`."""
        seq = _build_function_sequence(self.scenario, self.doc.get("sequence"),
                                       self.config, self.path + "/sequence")
        space = self.scenario.space
        return SequenceSpec(
            generator=lambda n: convert(space, seq.term(n)),
            horizon=seq.horizon, metadata=seq.metadata,
            monotonicity=seq.monotonicity,
        )


def _check_validate(d: _Directive) -> CheckResult:
    space = d.scenario.space
    details = {"atoms": [mask_to_points(a) for a in space.atoms],
               "members": len(space.sets)}
    if d.scenario.measure is not None:
        details["classification"] = d.scenario.measure.classification()
    return CheckResult("validate", HOLDS, details)


def _check_continuity_below(d: _Directive) -> CheckResult:
    seq = d.sets()
    return measures_mod.continuity_from_below(d.measure(), seq,
                                              horizon=d.config.horizon)


def _check_continuity_above(d: _Directive) -> CheckResult:
    seq = d.sets()
    return measures_mod.continuity_from_above(d.measure(), seq,
                                              horizon=d.config.horizon)


def _check_borel_cantelli(d: _Directive) -> CheckResult:
    mu, seq = d.measure(), d.sets()
    x = None
    if "lower_bound" in d.doc:
        x = parse_element(d.doc["lower_bound"], d.scenario.backend,
                          d.path + "/lower_bound")
    return measures_mod.borel_cantelli(mu, seq, x, horizon=d.config.horizon)


def _check_bridge(d: _Directive) -> CheckResult:
    mu = d.measure()
    sets = [
        _parse_points(s, d.scenario.space.ground_size, f"{d.path}/sets/{i}")
        for i, s in enumerate(d.doc.get("sets", []))
    ]
    return measures_mod.operator_measure_bridge(mu, sets)


def _check_integrate(d: _Directive) -> CheckResult:
    mu = d.measure()
    report = integral_mod.integrate_extended(d.ext("function"), mu)
    details = {"value": ext_to_json(report.value), "ladder": report.trail}
    if "expected" in d.doc:
        expected = parse_ext_element(d.doc["expected"], d.scenario.backend,
                                     d.path + "/expected")
        if expected != report.value:
            return CheckResult("integrate", "fails", details)
    return CheckResult("integrate", HOLDS, details)


def _check_integral_laws(d: _Directive) -> CheckResult:
    mu, f, g = d.measure(), d.ext("f"), d.ext("g")
    r1 = parse_rational(d.doc.get("r1", "1"), d.path + "/r1")
    r2 = parse_rational(d.doc.get("r2", "1"), d.path + "/r2")
    return integral_mod.check_integral_laws(mu, f, g, r1, r2)


def _check_ae(d: _Directive) -> CheckResult:
    mu = d.measure()
    return integral_mod.ae_analysis(d.ext("function"), mu)


def _check_mct(d: _Directive) -> CheckResult:
    return integral_mod.mct(d.measure(), d.sequence(ext_function), d.ext("limit"),
                            horizon=d.config.horizon, epsilons=d.config.epsilons)


def _check_mct_decreasing(d: _Directive) -> CheckResult:
    return integral_mod.mct_decreasing(
        d.measure(), d.sequence(ext_function), d.ext("limit"),
        horizon=d.config.horizon, epsilons=d.config.epsilons)


def _check_dct(d: _Directive) -> CheckResult:
    return integral_mod.dct(d.measure(), d.sequence(signed_function), d.signed("limit"),
                            d.ext("dominator"), horizon=d.config.horizon,
                            epsilons=d.config.epsilons)


def _check_push_forward(d: _Directive) -> CheckResult:
    mu = d.measure()
    target = parse_space(d.doc.get("target"), d.path + "/target")
    mpath = d.path + "/matrix"
    matrix = []
    for i, row in enumerate(_require_json(d.doc.get("matrix", []), list, "matrix",
                                          mpath)):
        row = _require_json(row, list, "matrix row", f"{mpath}/{i}")
        matrix.append([parse_rational(v, f"{mpath}/{i}/{j}") for j, v in enumerate(row)])
    f = None
    if "function" in d.doc:
        fdef = d.scenario.function(d.doc["function"], d.path)
        if any(not is_infinite(v) and v < 0 for v in fdef.values):
            f = fdef.as_signed(d.scenario.space)
        else:
            f = fdef.as_ext(d.scenario.space)
    return integral_mod.push_forward(mu, matrix, target, f)


def _check_l1_quotient(d: _Directive) -> CheckResult:
    mu = d.measure()
    fpath = d.path + "/functions"
    fs = [
        d.scenario.function(name, f"{fpath}/{i}").as_signed(d.scenario.space)
        for i, name in enumerate(_require_json(d.doc.get("functions", []), list,
                                               "functions", fpath))
    ]
    return integral_mod.l1_quotient(mu, fs)


def _check_caratheodory(d: _Directive) -> CheckResult:
    if d.scenario.outer is None:
        raise SchemaError("caratheodory needs an 'outer_measure'", d.path)
    details, identities = outer_mod.caratheodory_report(d.scenario.outer)
    status = HOLDS if identities.ok else "fails"
    if "expected_family" in d.doc:
        expected = [
            _parse_points(s, d.scenario.space.ground_size,
                          f"{d.path}/expected_family/{i}")
            for i, s in enumerate(d.doc["expected_family"])
        ]
        family = [mask_to_points(m) for m in sorted(expected)]
        if family != details["measurable_family"]:
            status = "fails"
    return CheckResult("caratheodory", status, details)


# Directive name -> handler.  Handlers look library operations up on their
# modules at call time, so a wrapper installed on a module attribute (as
# perfbench/tracing.py installs) sees every call.
_CHECKS = {
    "validate": _check_validate,
    "identities": lambda d: measures_mod.check_measure_identities(d.measure()),
    "continuity_below": _check_continuity_below,
    "continuity_above": _check_continuity_above,
    "borel_cantelli": _check_borel_cantelli,
    "bridge": _check_bridge,
    "integrate": _check_integrate,
    "integral_laws": _check_integral_laws,
    "ae": _check_ae,
    "mct": _check_mct,
    "mct_decreasing": _check_mct_decreasing,
    "fatou": lambda d: integral_mod.fatou(d.measure(), d.sequence(ext_function),
                                          horizon=d.config.horizon),
    "dct": _check_dct,
    "triangle": lambda d: integral_mod.triangle_inequality(d.measure(),
                                                           d.signed("function")),
    "push_forward": _check_push_forward,
    "l1_quotient": _check_l1_quotient,
    "caratheodory": _check_caratheodory,
}


def run_check(scenario: Scenario, directive: dict, config: RunConfig,
              index: int) -> CheckResult:
    """Dispatch one directive to its module operation.

    The harness adds no mathematics of its own: every directive maps to
    exactly one library operation, and hypothesis or certification failures
    raised there are converted into the corresponding statuses.
    """
    name = directive.get("check")
    path = f"/checks/{index}"
    if name not in _CHECKS:
        raise SchemaError(f"unknown check {name!r}", path)
    try:
        return _CHECKS[name](_Directive(scenario, directive, config, path))
    except (HypothesisError, NotIntegrableError) as exc:
        return CheckResult(name, HYPOTHESIS_NOT_MET, {"reason": str(exc)})
    except CertificationError as exc:
        return CheckResult(name, NOT_CERTIFIABLE, {"reason": str(exc)})


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
