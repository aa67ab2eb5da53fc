"""Scenario files: schema, validation pipeline, and the check harness.

A scenario is a JSON document describing one measure space plus named
functions and sequences, followed by a list of check directives.  Exact
rationals are strings ("p/q" or "p"), the point at infinity is the string
"infinity", sets are sorted index arrays, and extended elements are either
{"finite": [coords...]} or "infinity".  The canonical serialized form has
sorted keys and two-space indentation; parsing and re-serializing a
canonical file is byte-identical.

Top-level keys:

  space          the backend E: {"kind": <kind>, <keys>}, at most 1,024 coordinates
  ground_size    number of ground points, 1..16 (1-based checks index sets by point)
  sigma_algebra  {"power_set": true} alone, {"generators": [[points...], ...]}
                 (closure is computed), or {"sets": [[points...], ...]}
                 (the family is validated as given)
  measure        {"atom_values": {"<smallest point of atom>": ExtElement}}
  outer_measure  {"outer_values": {"<strictly increasing points>": ExtElement}}
                 (keys like "0,2", "" for the empty set, each set once)
                 or {"induced_from_measure": true} alone; ground_size 1..12
  functions      {"name": {"values": ["3/2", "infinity", "-1", ...]}}
  sequences      {"name": {"kind": <kind>, <keys>}}  (function sequences)
  checks         [{"check": <name>, <keys>}, ...]

One selector rule serves `sigma_algebra` and `outer_measure`: the flag
(`power_set`, `induced_from_measure`) is a JSON boolean; `true` admits no
other selector key of its section (`generators`, `sets`; `outer_values`),
and otherwise the section holds exactly one of them.

A kinded object is read from its family's table, which maps each kind to
the constructor that builds it and that constructor's keys, in argument
order (`_Key`: JSON type, resolver, default or required): `_SPACES` (also a
`push_forward` target), `_SEQUENCES` (a term is a function name or an
inline {"values": [...]}), `_SET_SEQUENCES` ("explicit" when it names no
kind; a bare array of sets is an explicit list) and `_CHECKS`, which also
names the module, the operation and the `RunConfig` options of each check.
An object admits its tag ("kind", or "check"), its own kind's keys and its
family's one extra: a directive's "expect", one of "holds" (the default),
"fails", "hypothesis-not-met" and "not-certifiable", and a sequence's
"monotonicity", not read, since every check that needs a monotone sequence
tests the order itself at each sampled index.  Any other object admits
only the keys shown here.  The first other key, in document order, is a
schema error at its pointer, once the kind is known.  A declared limit
that is no function of the directive's kind, such as an infinite one
under `dct`, is a schema error of the directive.

`parse_scenario` reads one section at a time and resolves every directive
and every named sequence, so a document that parses (`ordmeasure
validate`) raises no schema error when it runs; only the horizon is
applied at run time.  Every refusal is a SchemaError that names a JSON
pointer: a library refusal (a broken axiom or size cap) goes through one
translator, `_at`, to the section that was read, or to the document key
of the set or key that its witness names.  A pointer goes one key deeper
only through `_pointer`, which escapes ``~`` and ``/`` in the key as
RFC 6901 asks.
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional

from . import measures as measures_mod
from .errors import (MAX_GROUND_SIZE, MAX_HORIZON, CertificationError, DimensionLimitError,
                     Frozen, HypothesisError, NotIntegrableError, SchemaError,
                     ValidationError, check_cap)
from .extended import ExtElement, ext_to_json, finite, infinity
from .measures import MeasurableSpace, Measure, mask_to_points, points_to_mask
from .rationals import format_rational, over_one_den, parse_ext_scalar, parse_rational
from .reports import (CheckResult, FAILS, HOLDS, HYPOTHESIS_NOT_MET, NOT_CERTIFIABLE,
                      STATUSES)
from .sequences import (DEFAULT_HORIZON, SequenceSpec, check_horizon, epsilon_schedule,
                        geometric, listed, scaled_index, truncation_ladder, typed)
from .spaces import (Element, SpaceDescriptor, canonical, coord, entrywise_mat, loewner_sym,
                     reals)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _pointer(path: str, key) -> str:
    """The JSON pointer `path` one key (or array index) deeper, with ``~`` and
    ``/`` in the key escaped as ``~0`` and ``~1`` (RFC 6901)."""
    return f"{path}/{str(key).replace('~', '~0').replace('/', '~1')}"


def _at(path: str, fn: Callable, *args, keys: Optional[dict] = None,
        message: Optional[str] = None):
    """``fn(*args)``, with a size cap that it breaks or a ValidationError made a
    schema error at `path`, and `message` if given.  The pointer goes one key
    deeper when the witness names a ``"key"``, or a ``"set"`` that `keys` maps
    (by mask) to the document key that wrote it."""
    try:
        return fn(*args)
    except DimensionLimitError as exc:
        raise SchemaError(str(exc), path) from None
    except ValidationError as exc:
        witness = exc.witness or {}
        key = witness.get("key")
        if keys is not None and "set" in witness:
            key = keys.get(points_to_mask(witness["set"]))
        raise SchemaError(message or str(exc),
                          path if key is None else _pointer(path, key)) from None


def _size(scenario, value, path: str) -> int:
    """A positive integer (not `true`), named in a refusal by the last key of `path`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(f"{path[path.rindex('/') + 1:]} must be a positive integer, "
                          f"got {json.dumps(value)}", path)
    return value


def parse_space(doc, path: str) -> SpaceDescriptor:
    """A backend, built by the entry of `_SPACES` for its kind."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("space needs a 'kind'", path)
    return _build(_SPACES, doc["kind"], None, doc, "space", path)


def parse_element(doc, space: SpaceDescriptor, path: str) -> Element:
    if not isinstance(doc, list):
        raise SchemaError("element must be an array of rationals", path)
    if len(doc) != space.ncoords:
        raise SchemaError(
            f"element needs {space.ncoords} coordinates, got {len(doc)}", path
        )
    coords = tuple(parse_rational(v, f"{path}/{i}") for i, v in enumerate(doc))
    try:
        return Element(space, coords)
    except ValueError as exc:  # a Loewner matrix that is not symmetric
        raise SchemaError(str(exc), path) from None


def parse_ext_element(doc, space: SpaceDescriptor, path: str) -> ExtElement:
    if doc == "infinity":
        return infinity(space)
    if isinstance(doc, dict) and "finite" in doc:
        _known(doc, ("finite",), "element", path)
        return finite(parse_element(doc["finite"], space, path + "/finite"))
    raise SchemaError("expected {\"finite\": [...]} or \"infinity\"", path)


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "true or false"}


def _require_json(value, kind, what: str, path: str):
    """`value`, when it is the JSON object (`dict`), array (`list`), string
    (`str`) or boolean (`bool`) asked for, or one of a tuple of these."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise SchemaError(f"{what} must be {' or '.join(_JSON_KINDS[k] for k in kinds)}",
                          path)
    return value


def _known(doc: dict, keys, what: str, path: str) -> dict:
    """`doc`, when it holds only `keys`; else its first other key, in
    document order, is a schema error at that key."""
    unknown = next((key for key in doc if key not in keys), None)
    if unknown is not None:
        raise SchemaError(f"{what} has no key {unknown!r}", _pointer(path, unknown))
    return doc


def _items(doc, what: str, path: str, read: Callable) -> list:
    """``read(item, item path)`` for each item of `doc`, which must be an array."""
    doc = _require_json(doc, list, what, path)
    return [read(item, f"{path}/{i}") for i, item in enumerate(doc)]


def _parse_points(ground_size: int, doc, path: str) -> int:
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


class Directive(Frozen):
    """One check directive with every key resolved by the check table."""

    __slots__ = ("check", "expect", "args")

    def get(self, key: str, default=None):
        """`check` or `expect` read as from the directive's JSON object, which
        is what wrappers of `run_check` read."""
        return {"check": self.check, "expect": self.expect}.get(key, default)


class Scenario:
    """A parsed document: its space, measures, named functions and sequences
    (`_parse_sequence` pairs), and its resolved directives.  `specs` holds the
    one `SequenceSpec` of each (named sequence, kind) that directives use."""

    __slots__ = ("source", "backend", "space", "measure", "outer", "functions",
                 "sequences", "checks", "specs")

    def __init__(self, source: dict, backend: SpaceDescriptor, space: MeasurableSpace,
                 measure: Optional[Measure], outer, functions: Dict[str, tuple]):
        self.source = source
        self.backend = backend
        self.space = space
        self.measure = measure
        self.outer = outer  # an outer.OuterMeasure, or None
        self.functions = functions  # name -> the (nums, den, inf) form of its values
        self.sequences: Dict[str, tuple] = {}
        self.checks: List[Directive] = []
        self.specs: Dict[tuple, SequenceSpec] = {}


def _parse_function_values(doc, ground: int, path: str) -> tuple:
    """A function's values, as their (nums, den, inf) form (`over_one_den`)."""
    if not isinstance(doc, dict) or "values" not in doc:
        raise SchemaError("function needs a 'values' array", path)
    values = _require_json(_known(doc, ("values",), "function", path)["values"], list,
                           "values", path + "/values")
    if len(values) != ground:
        raise SchemaError(f"function needs {ground} values, got {len(values)}",
                          path + "/values")
    return over_one_den([parse_ext_scalar(v, f"{path}/values/{i}")
                         for i, v in enumerate(values)])


def _resolve_term(scenario: Scenario, term, path: str) -> tuple:
    """A function term: a function name or an inline {"values": [...]}."""
    if not isinstance(term, str):
        return _parse_function_values(term, scenario.space.ground_size, path)
    if term not in scenario.functions:
        raise SchemaError(f"unresolved function reference {term!r}", path)
    return scenario.functions[term]


def _parse_sequence(scenario: Scenario, doc, path: str) -> tuple:
    """``(spec, witnesses)`` of a named sequence, built by its entry of `_SEQUENCES`
    on (nums, den, inf) forms (`over_one_den`, not always reduced)."""
    doc = _require_json(doc, dict, "sequence", path)
    return _build(_SEQUENCES, doc.get("kind"), scenario, doc, "sequence", path,
                  extra=("monotonicity",))


def _as_function(integral, space: MeasurableSpace, values: tuple, kind: str, path: str):
    """`values`, a (nums, den, inf) form, made an "ext" (extended-positive) or
    "signed" function of the `integral` module, or "either": signed when
    some value is negative.  A value that is no such function (negative,
    infinite or not measurable) is a SchemaError at `path`.  The resolvers
    import `integral`, so only a document with functions loads it."""
    ext = kind == "ext" or (kind == "either" and min(values[0]) >= 0)
    return _at(path, (integral.ExtFunction if ext else integral.SignedFunction).from_nums,
               space, *values)


def _function(kind: str):
    """A function reference, made a function of `kind` (see `_as_function`)."""
    def resolve(scenario: Scenario, name: str, path: str):
        from . import integral
        values = _resolve_term(scenario, name, path)
        return _as_function(integral, scenario.space, values, kind, path)
    return resolve


def _function_sequence(kind: str):
    """A sequence reference whose terms are "ext" or "signed" functions,
    resolved to its `SequenceSpec`, one per sequence and kind in a scenario.
    The sequence's witnesses and declared limit are made functions when the
    first directive names it, so a term that is not one, at any index, or a
    limit that is not one, is a schema error of that directive; once they
    pass, every term is built by the trusted constructor on its reduced
    form, unvalidated."""
    def resolve(scenario: Scenario, name: str, path: str):
        if name not in scenario.sequences:
            raise SchemaError(f"unresolved sequence reference {name!r}", path)
        key = (name, kind)
        if key not in scenario.specs:
            from . import integral
            (seq, witnesses), space = scenario.sequences[name], scenario.space
            for values in witnesses:
                _as_function(integral, space, values, kind, path)
            cls = integral.ExtFunction if kind == "ext" else integral.SignedFunction
            scenario.specs[key] = typed(seq, lambda form: integral._trusted(
                cls, space, *canonical(*form[:2]), form[2]),
                partial(_as_function, integral, space, kind=kind, path=path))
        return scenario.specs[key]
    return resolve


def _measurable_set(scenario: Scenario, doc, path: str) -> int:
    """A set of points that is in the scenario's algebra."""
    mask = _parse_points(scenario.space.ground_size, doc, path)
    _at(path, scenario.space.require_measurable, mask)
    return mask


def _set_list(scenario: Scenario, doc: list, path: str) -> list:
    return _items(doc, "sets", path, partial(_measurable_set, scenario))


def _set_sequence(scenario: Scenario, doc, path: str):
    """A set sequence's `SequenceSpec`, built by its entry of `_SET_SEQUENCES`
    ("explicit" when it names none, or is a bare array of sets)."""
    if isinstance(doc, dict):
        return _build(_SET_SEQUENCES, doc.get("kind", "explicit"), scenario, doc,
                      "set sequence", path)[0]
    kind = _SET_SEQUENCES["explicit"]  # its sets at `path`/<j>, not under "terms"
    return _at(path, kind.build, _set_list(scenario, doc, path), message=kind.message)[0]


def _matrix(scenario: Scenario, doc: list, path: str) -> list:
    return _items(doc, "matrix", path,
                  lambda row, rpath: _items(row, "matrix row", rpath, parse_rational))


def _function_list(scenario: Scenario, doc: list, path: str) -> list:
    signed = _function("signed")
    return _items(doc, "functions", path, lambda name, fpath: signed(
        scenario, _require_json(name, str, "function reference", fpath), fpath))


_REQUIRED = object()


class _Key(Frozen):
    """One key of a kind: its JSON type(s) (`object`: any), its resolver, called
    as ``resolve(scenario or None for a backend, JSON value, path)``, and its
    default (required without one; an absent optional key takes it as it is)."""

    __slots__ = ("json", "resolve", "default")
    _defaults = {"default": _REQUIRED}


class _Kind(Frozen):
    """A kind of space, sequence or set sequence: `build`, called on its keys.
    Its refusal points at the object, or `at` below it, with `message` if given."""

    __slots__ = ("build", "keys", "at", "message")
    _defaults = {"at": "", "message": None}


def _kind(table: dict, name, doc: dict, what: Optional[str], path: str, tag: str = "kind",
          extra: tuple = ()):
    """The entry of `table` for the kind `name` that `doc` names under `tag`, if
    `doc` holds no key but these, its kind's and `extra`; `what` (or the check) names it."""
    entry = table.get(name) if isinstance(name, str) else None
    if entry is None:
        raise SchemaError(" ".join(filter(None, ("unknown", what, tag, repr(name)))),
                          _pointer(path, tag))
    _known(doc, (tag, *entry.keys, *extra), what or name, path)
    return entry


def _read_keys(keys: dict, scenario, doc: dict, name: str, path: str) -> dict:
    """The `keys` of the kind `name` in table order, each of its JSON type and
    resolved at its pointer, or its default when `doc` does not hold it."""
    args = {}
    for key, k in keys.items():
        kpath = _pointer(path, key)
        if key not in doc and k.default is _REQUIRED:
            raise SchemaError(f"{name} needs '{key}'", kpath)
        args[key] = (k.resolve(scenario, _require_json(doc[key], k.json, key, kpath), kpath)
                     if key in doc else k.default)
    return args


def _build(table: dict, name, scenario, doc: dict, what: str, path: str, extra: tuple = ()):
    """The object `doc` of the kind `name`, built by its entry of `table`."""
    kind = _kind(table, name, doc, what, path, extra=extra)
    args = _read_keys(kind.keys, scenario, doc, name, path)
    return _at(path + kind.at, kind.build, *args.values(), message=kind.message)


_SIZE = _Key(object, _size)
_SPACES = {
    "reals": _Kind(reals, {}),
    "coord": _Kind(coord, {"dim": _SIZE}),
    "entrywise_mat": _Kind(entrywise_mat, {"rows": _SIZE, "cols": _SIZE}),
    "loewner_sym": _Kind(loewner_sym, {"dim": _SIZE}, at="/dim"),
}
_TERM = _Key(object, _resolve_term)  # a function name or an inline {"values": [...]}
_TERMS = _Key(list, lambda s, v, p: _items(v, "terms", p, partial(_resolve_term, s)), ())
_SEQUENCES = {
    "explicit": _Kind(partial(listed, kind="explicit"), {"terms": _TERMS},
                      message="explicit sequence needs terms"),
    "alternating": _Kind(partial(listed, kind="alternating"), {"terms": _TERMS},
                         message="alternating sequence needs terms"),
    "geometric": _Kind(geometric, {"base": _TERM, "bump": _TERM, "ratio": _Key(
        object, lambda s, v, p: parse_rational(v, p))}),
    "truncation_ladder": _Kind(truncation_ladder, {"of": _TERM}),
    "scaled_index": _Kind(scaled_index, {"shape": _TERM}),
}
_SET_SEQUENCES = {
    kind: _Kind(partial(listed, kind=kind), {"terms": _Key(list, _set_list, ())},
                message="set sequence needs terms") for kind in ("explicit", "alternating")}


class _Check(Frozen):
    """A check as data: `run_check` imports the submodule `module` (this module,
    for a check the harness answers itself, when None) when a directive of the
    check first runs, so a call compiles only the check modules it names, and
    calls ``operation(section, *resolved keys in table order, **options)``,
    each option a `RunConfig` field, on the measure, the outer measure (`needs`
    "outer_measure") or the scenario (`needs` None).  Once the keys are
    resolved, ``admits(scenario, keys, directive path)`` may refuse the
    directive, by a SchemaError or a library refusal that `_at` points there."""

    __slots__ = ("module", "operation", "keys", "options", "needs", "admits")
    _defaults = {"options": (), "needs": "measure",
                 "admits": lambda scenario, args, path: None}


_EXT = _Key(str, _function("ext"))
_SIGNED = _Key(str, _function("signed"))
_SETS = _Key((list, dict), _set_sequence)
_EXT_SEQUENCE = _Key(str, _function_sequence("ext"))


def _push_forward_shape(scenario: Scenario, args: dict, path: str):
    """One matrix row per target coordinate, one entry per backend
    coordinate, and every entry >= 0."""
    rows, width = args["target"].ncoords, scenario.backend.ncoords
    if len(args["matrix"]) != rows:
        raise SchemaError(f"matrix needs {rows} rows, got {len(args['matrix'])}",
                          path + "/matrix")
    for i, row in enumerate(args["matrix"]):
        if len(row) != width:
            raise SchemaError(f"matrix row needs {width} entries, got {len(row)}",
                              f"{path}/matrix/{i}")
        for j, v in enumerate(row):
            if v < 0:
                raise SchemaError("push-forward matrix must be entrywise >= 0",
                                  f"{path}/matrix/{i}/{j}")


def _disjoint_sets(scenario: Scenario, args: dict, path: str):
    """No set meets an earlier one."""
    seen = 0
    for j, s in enumerate(args["sets"]):
        if s & seen:
            raise SchemaError("sets are not pairwise disjoint", f"{path}/sets/{j}")
        seen |= s


def summary(scenario: Scenario) -> dict:
    """What validating a document finds: its atoms, the number of its
    measurable sets (`members`) and, with a measure, its classification."""
    atoms = scenario.space.atoms
    out = {"atoms": [mask_to_points(a) for a in atoms], "members": 1 << len(atoms)}
    if scenario.measure is not None:
        out["classification"] = scenario.measure.classification()
    return out


def _check_validate(scenario: Scenario) -> CheckResult:
    return CheckResult("validate", HOLDS, summary(scenario))


def _check_integrate(mu: Measure, function, expected) -> CheckResult:
    from . import integral
    report = integral.integrate_extended(function, mu)
    details = {"value": ext_to_json(report.value), "ladder": report.trail}
    status = FAILS if expected is not None and expected != report.value else HOLDS
    return CheckResult("integrate", status, details)


def _check_caratheodory(nu, expected_family) -> CheckResult:
    from . import outer
    details, identities = outer.caratheodory_report(nu)
    status = HOLDS if identities.ok else FAILS
    if (expected_family is not None and [mask_to_points(m) for m in sorted(expected_family)]
            != details["measurable_family"]):
        status = FAILS
    return CheckResult("caratheodory", status, details)


# Directive name -> the module and name of its operation, its keys, its
# options, its section and its admission test.  `run_check` looks each
# operation up on its module at call time, so a wrapper installed on a
# module attribute (as perfbench/tracing.py installs) sees every call.
_CHECKS = {
    "validate": _Check(None, "_check_validate", {}, needs=None),
    "identities": _Check(
        "measures", "check_measure_identities", {},
        admits=lambda s, args, path: measures_mod.require_exhaustive(s.space)),
    "continuity_below": _Check("measure_checks", "continuity_from_below", {"sets": _SETS},
                               ("horizon",)),
    "continuity_above": _Check("measure_checks", "continuity_from_above", {"sets": _SETS},
                               ("horizon",)),
    "borel_cantelli": _Check(
        "measure_checks", "borel_cantelli",
        {"sets": _SETS,
         "lower_bound": _Key(list, lambda s, v, p: parse_element(v, s.backend, p), None)},
        ("horizon",)),
    "bridge": _Check("measure_checks", "operator_measure_bridge",
                     {"sets": _Key(list, _set_list, [])}, admits=_disjoint_sets),
    "integrate": _Check(
        None, "_check_integrate",
        {"function": _EXT,
         "expected": _Key((dict, str), lambda s, v, p: parse_ext_element(v, s.backend, p),
                          None)}),
    "integral_laws": _Check(
        "integral_checks", "check_integral_laws",
        {"f": _EXT, "g": _EXT,
         "r1": _Key(str, lambda s, v, p: parse_rational(v, p), Fraction(1)),
         "r2": _Key(str, lambda s, v, p: parse_rational(v, p), Fraction(1))}),
    "ae": _Check("integral_checks", "ae_analysis", {"function": _EXT}),
    "mct": _Check("integral", "mct", {"sequence": _EXT_SEQUENCE, "limit": _EXT},
                  ("horizon", "epsilons")),
    "mct_decreasing": _Check("integral", "mct_decreasing",
                             {"sequence": _EXT_SEQUENCE, "limit": _EXT},
                             ("horizon", "epsilons")),
    "fatou": _Check("integral", "fatou", {"sequence": _EXT_SEQUENCE}, ("horizon",)),
    "dct": _Check(
        "integral", "dct",
        {"sequence": _Key(str, _function_sequence("signed")),
         "limit": _SIGNED, "dominator": _EXT}, ("horizon", "epsilons")),
    "triangle": _Check("integral_checks", "triangle_inequality", {"function": _SIGNED}),
    "push_forward": _Check(
        "integral_checks", "push_forward",
        {"target": _Key(dict, lambda s, v, p: parse_space(v, p)),
         "matrix": _Key(list, _matrix),
         "function": _Key(str, _function("either"), None)},
        admits=_push_forward_shape),
    "l1_quotient": _Check("integral_checks", "l1_quotient",
                          {"functions": _Key(list, _function_list, [])}),
    "caratheodory": _Check(
        None, "_check_caratheodory",
        {"expected_family": _Key(list, lambda s, v, p: _items(  # of any subsets
            v, "sets", p, partial(_parse_points, s.space.ground_size)), None)},
        needs="outer_measure"),
}


def _parse_directive(scenario: Scenario, doc, path: str) -> Directive:
    """Resolve one directive through the check table."""
    name = doc.get("check") if isinstance(doc, dict) else None
    if not isinstance(name, str):
        raise SchemaError("a directive must be an object with a string 'check'", path)
    spec = _kind(_CHECKS, name, doc, None, path, tag="check", extra=("expect",))
    expect = doc.get("expect", HOLDS)
    if expect not in STATUSES:
        raise SchemaError(f"expect must be one of {', '.join(STATUSES)}, "
                          f"got {json.dumps(expect)}", path + "/expect")
    if spec.needs is not None and spec.needs not in scenario.source:
        raise SchemaError(f"{name} needs the scenario's '{spec.needs}'", path)
    args = _read_keys(spec.keys, scenario, doc, name, path)
    _at(path, spec.admits, scenario, args, path)
    return Directive(name, expect, args)


def _selector(doc: dict, path: str, flag: str, keys: tuple) -> str:
    """The key that selects how the section `doc` is read: `flag`, a JSON
    boolean, when it is true, which admits none of `keys`; otherwise the
    one of `keys` that the section holds."""
    given = [key for key in keys if key in doc]
    if _require_json(doc.get(flag, False), bool, flag, _pointer(path, flag)):
        if given:
            raise SchemaError(f"{flag}: true admits no {' or '.join(keys)}", path)
        return flag
    if len(given) != 1:
        raise SchemaError(f"{path[1:]} needs exactly one of {', '.join((flag, *keys))}",
                          path)
    return given[0]


def _parse_algebra(doc, ground: int) -> MeasurableSpace:
    """The `sigma_algebra` section: the power set, the algebra that
    `generators` generate, or the family of `sets`, validated as given."""
    path = "/sigma_algebra"
    doc = _known(_require_json(doc, dict, "sigma_algebra", path),
                 ("power_set", "generators", "sets"), "sigma_algebra", path)
    key = _selector(doc, path, "power_set", ("generators", "sets"))
    if key == "power_set":
        return measures_mod.power_set_space(ground)
    build = (measures_mod.generate_sigma_algebra if key == "generators"
             else measures_mod.validate_sigma_algebra)
    kpath = _pointer(path, key)
    return _at(kpath, build, _items(doc[key], key, kpath, partial(_parse_points, ground)),
               ground)


def _parse_measure(doc, space: MeasurableSpace, backend: SpaceDescriptor) -> Measure:
    """The `measure` section: one value for each atom, keyed by the atom's
    smallest point."""
    path = "/measure/atom_values"
    if not isinstance(doc, dict) or "atom_values" not in doc:
        raise SchemaError("measure needs 'atom_values'", "/measure")
    _known(doc, ("atom_values",), "measure", "/measure")
    keys = {atom: str(points[0]) for atom, points in space.atom_points.items()}
    atoms = {key: atom for atom, key in keys.items()}
    values = {}
    for key, vdoc in _require_json(doc["atom_values"], dict, "atom_values", path).items():
        if key not in atoms:
            raise SchemaError(f"{key!r} is not the smallest point of an atom "
                              f"(atoms: {[mask_to_points(a) for a in space.atoms]})",
                              _pointer(path, key))
        values[atoms[key]] = parse_ext_element(vdoc, backend, _pointer(path, key))
    missing = [mask_to_points(a) for a in space.atoms if a not in values]
    if missing:
        raise SchemaError(f"missing atom values for {missing}", path)
    return _at(path, Measure, space, backend, values, keys=keys)


def _parse_outer(doc, mu: Optional[Measure], backend: SpaceDescriptor, ground: int):
    """The `outer_measure` section: the outer measure induced by the measure,
    or the one of its `outer_values`, one for each set of points.  `outer`
    loads only for a document with this section."""
    from . import outer
    path = "/outer_measure"
    doc = _known(_require_json(doc, dict, "outer_measure", path),
                 ("induced_from_measure", "outer_values"), "outer_measure", path)
    if _selector(doc, path, "induced_from_measure", ("outer_values",)) != "outer_values":
        if mu is None:
            raise SchemaError("induced outer measure needs a measure", path)
        return _at(path, outer.induce_outer, mu)
    path += "/outer_values"
    values, keys = {}, {}
    for key, vdoc in _require_json(doc["outer_values"], dict, "outer_values", path).items():
        kpath = _pointer(path, key)
        # Keys are strictly increasing ASCII decimal points like "0,2"; "" is
        # the empty set.
        parts = key.split(",") if key else []
        try:
            pts = [int(p) for p in parts if p.isascii() and p.isdigit()]
        except ValueError:  # more digits than int() converts
            pts = []
        if len(pts) != len(parts):
            raise SchemaError(f"bad set key {key!r}", kpath)
        if any(p >= q for p, q in zip(pts, pts[1:])):
            raise SchemaError(f"points of set key {key!r} are not strictly increasing",
                              kpath)
        if pts and pts[-1] >= ground:
            raise SchemaError(f"point outside ground set in {key!r}", kpath)
        mask = points_to_mask(pts)
        if mask in values:
            raise SchemaError(f"set key {key!r} names the set {pts} again", kpath)
        values[mask], keys[mask] = parse_ext_element(vdoc, backend, kpath), key
    return _at(path, outer.validate_outer_measure, values, backend, ground, keys=keys)


def parse_scenario(doc: dict) -> Scenario:
    """Read each section of a document in turn: space and ground size, the
    algebra, the measure, the outer measure, functions, sequences, and the
    directives."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", "")
    _known(doc, ("space", "ground_size", "sigma_algebra", "measure", "outer_measure",
                 "functions", "sequences", "checks"), "scenario", "")
    backend = parse_space(doc.get("space"), "/space")
    ground = _at("/ground_size", check_cap, "ground size",
                 _size(None, doc.get("ground_size"), "/ground_size"), MAX_GROUND_SIZE)
    space = _parse_algebra(doc.get("sigma_algebra", {"power_set": True}), ground)
    mu = _parse_measure(doc["measure"], space, backend) if "measure" in doc else None
    outer = (_parse_outer(doc["outer_measure"], mu, backend, ground)
             if "outer_measure" in doc else None)
    functions = {
        name: _parse_function_values(fdoc, ground, _pointer("/functions", name))
        for name, fdoc in _require_json(doc.get("functions", {}), dict, "functions",
                                        "/functions").items()
    }
    scenario = Scenario(source=doc, backend=backend, space=space, measure=mu, outer=outer,
                        functions=functions)
    for name, sdoc in _require_json(doc.get("sequences", {}), dict, "sequences",
                                    "/sequences").items():
        scenario.sequences[name] = _parse_sequence(scenario, sdoc,
                                                   _pointer("/sequences", name))
    scenario.checks.extend(_items(doc.get("checks", []), "checks", "/checks",
                                  lambda d, dpath: _parse_directive(scenario, d, dpath)))
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
        stack.extend((v, _pointer(path, k)) for k, v in items)


class RunConfig:
    __slots__ = ("horizon", "epsilons")

    def __init__(self, horizon: int = DEFAULT_HORIZON, epsilons: Optional[tuple] = None):
        self.horizon = check_cap("horizon", check_horizon(horizon), MAX_HORIZON)
        self.epsilons = epsilon_schedule(epsilons)


def run_check(scenario: Scenario, directive: Directive, config: RunConfig) -> CheckResult:
    """Dispatch one resolved directive to the operation that its `_Check`
    names, on the section it needs, with its keys and options.

    The harness adds no mathematics of its own: every directive maps to
    exactly one library operation, and hypothesis or certification failures
    raised there are converted into the corresponding statuses.
    """
    spec = _CHECKS[directive.check]
    module = importlib.import_module(f".{spec.module}" if spec.module else __name__,
                                     __package__)
    section = {"measure": scenario.measure, "outer_measure": scenario.outer,
               None: scenario}[spec.needs]
    try:
        return getattr(module, spec.operation)(
            section, *[directive.args[key] for key in spec.keys],
            **{option: getattr(config, option) for option in spec.options})
    except (HypothesisError, NotIntegrableError) as exc:
        return CheckResult(directive.check, HYPOTHESIS_NOT_MET, {"reason": str(exc)})
    except CertificationError as exc:
        return CheckResult(directive.check, NOT_CERTIFIABLE, {"reason": str(exc)})


def run_scenario(scenario: Scenario, config: Optional[RunConfig] = None) -> dict:
    """Execute all directives in order and assemble a deterministic report."""
    config = config or RunConfig()
    results = []
    for i, directive in enumerate(scenario.checks):
        try:
            result = run_check(scenario, directive, config)
        except DimensionLimitError as exc:
            # A cap broken while a check runs (a result of more digits than
            # Python prints, too many extracted atoms) is reported at the directive
            raise SchemaError(str(exc), f"/checks/{i}") from None
        results.append(dict(result.to_json(), expect=directive.expect,
                            matched_expectation=result.status == directive.expect))
    return {
        "horizon": config.horizon,
        "epsilon_schedule": [format_rational(e) for e in config.epsilons],
        "checks": results,
        "all_ok": all(entry["matched_expectation"] for entry in results),
    }
