"""The value classes against `dataclasses` twins.

The library's value classes derive from `errors.Frozen`, which generates
from their fields what a frozen dataclass generates.  Each is compared here
with a frozen dataclass twin that has the same fields in the same order and
the class's `_defaults`, which is how the classes were defined before:
equality, hashing (the hash of the field tuple, or a TypeError when a field
is unhashable), the generated repr, and refusal of assignment and deletion
with the value unchanged.  The classes that do not write a constructor are
also built as their twins are, by position, by name and with defaults, and
must refuse the same calls with a TypeError.  Every `errors.Frozen` class
is held to its twin; the fields are the class's slots.  `Element` and
`ExtElement` write their own repr, which the dataclass did not generate, so
only the rest is compared for them.
"""

import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import integral, outer, reports, scenarios
from ordmeasure.errors import Frozen
from ordmeasure.rationals import INFINITY

from outer_builders import row_table

FIELDS = {
    om.SpaceDescriptor: ("kind", "dim", "rows", "cols"),
    om.Element: ("space", "nums", "den"),
    om.ExtElement: ("space", "finite"),
    om.MeasurableSpace: ("ground_size", "atoms"),
    om.ExtFunction: ("space", "nums", "den", "inf"),
    om.SignedFunction: ("space", "nums", "den", "inf"),
    om.ElementaryFunction: ("space", "terms", "den"),
    om.IntegralReport: ("value", "trail"),
    om.Periodic: ("index", "period"),
    om.DeclaredLimit: ("value",),
    om.NoSupremum: ("reason",),
    outer.OuterMeasure: ("ground_size", "backend", "values", "split_failures"),
    reports.CheckResult: ("name", "status", "details"),
    scenarios.Directive: ("check", "expect", "args"),
    scenarios._Key: ("json", "resolve", "default"),
    scenarios._Kind: ("build", "keys", "at", "message"),
    scenarios._Check: ("module", "operation", "keys", "options", "needs", "admits"),
}
OWN_REPR = (om.Element, om.ExtElement)
# A mutable default would be shared by every value: make_dataclass refuses it.
TWINS = {cls: dataclasses.make_dataclass(
    cls.__name__, [(name, object, dataclasses.field(default=cls._defaults[name]))
                   if name in cls._defaults else name for name in fields],
    frozen=True, repr=cls not in OWN_REPR)
    for cls, fields in FIELDS.items()}
# The classes built by `Frozen.__init__`; the others check their arguments.
GENERATED = [cls for cls in FIELDS if cls.__init__ is Frozen.__init__]

SPACES = [om.reals, lambda: om.coord(2), lambda: om.entrywise_mat(1, 2),
          lambda: om.loewner_sym(2)]
SMALL = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])


def twin(value):
    cls = type(value)
    return TWINS[cls](*(getattr(value, name) for name in FIELDS[cls]))


# Each strategy draws a plain description, and `build` makes a value from
# it, so that two equal descriptions give equal values that are not the
# same object.  Some values go through the library's trusted constructors.

def space_specs():
    return st.integers(0, len(SPACES) - 1)


def element_specs():
    def coords(i):
        if i == 3:  # symmetric 2 x 2
            return st.tuples(SMALL, SMALL, SMALL).map(lambda t: (t[0], t[1], t[1], t[2]))
        return st.tuples(*[SMALL] * SPACES[i]().ncoords)
    return space_specs().flatmap(lambda i: st.tuples(st.just(i), coords(i), st.booleans()))


def build_element(spec):
    i, coords, trusted = spec
    space = SPACES[i]()
    el = om.Element(space, coords)
    return om.add(el, om.zero(space)) if trusted else el


def ext_element_specs():
    return st.one_of(space_specs().map(lambda i: ("infinity", i)),
                     element_specs().map(lambda e: ("finite", e)))


def build_ext_element(spec):
    kind, inner = spec
    return om.infinity(SPACES[inner]()) if kind == "infinity" else om.finite(
        build_element(inner))


def algebra_specs():
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=2)))


def build_algebra(spec):
    n, generators = spec
    return om.generate_sigma_algebra(generators, n)


def outer_specs():
    return st.tuples(space_specs(), st.integers(1, 2), st.sampled_from([0, 1, 2]))


def build_outer(spec):
    """The outer measure c on every nonempty set, validated."""
    i, n, c = spec
    space = SPACES[i]()
    top = om.finite(om.scale(c, om.order_unit(space)))
    values = {0: om.finite(om.zero(space))} | {mask: top for mask in range(1, 1 << n)}
    return om.validate_outer_measure(row_table(values), space, n)


def function_specs(values):
    """An algebra and one value per atom, so that the function is measurable."""
    return algebra_specs().flatmap(lambda a: st.tuples(
        st.just(a), st.lists(values, min_size=len(build_algebra(a).atoms),
                             max_size=len(build_algebra(a).atoms)),
        st.booleans()))


def dense(space, atom_values):
    out = [None] * space.ground_size
    for atom, value in zip(space.atoms, atom_values):
        for point in space.atom_points[atom]:
            out[point] = value
    return out


def build_ext_function(spec):
    a, atom_values, trusted = spec
    space = build_algebra(a)
    values = dense(space, atom_values)
    if trusted and INFINITY not in values:  # |f| is built by the trusted constructor
        return om.signed_function(space, values).abs()
    return om.ext_function(space, values)


def build_signed_function(spec):
    a, atom_values, trusted = spec
    space = build_algebra(a)
    f = om.signed_function(space, dense(space, atom_values))
    return f.sup_with(f) if trusted else f


def build_elementary(spec):
    a, atom_values, trusted = spec
    space = build_algebra(a)
    f = om.ext_function(space, dense(space, atom_values))
    if trusted:
        return om.truncate(f, 1)
    cap = Fraction(1)
    return om.ElementaryFunction(space, tuple((min(v, cap), atom) for atom, v in
                                              zip(space.atoms, atom_values) if v))


def report_specs():
    trail = st.sampled_from([{"mode": "stabilized", "at_level": 1},
                             {"mode": "infinite-rung", "at_level": 1}])
    return st.tuples(ext_element_specs(), trail)


def build_report(spec):
    value, trail = spec
    return om.IntegralReport(build_ext_element(value), dict(trail))


# Callables are compared by identity, so each comes from a fixed pool.
def _square(n):
    return [n * n]


def _zero(n):
    return [0]


CALLABLES = st.sampled_from([_square, _zero])
DEFAULTS = [scenarios._REQUIRED, None, 1, "holds"]


def directive_specs():
    return st.tuples(st.sampled_from(["validate", "mct"]), st.sampled_from(["holds", "fails"]),
                     st.dictionaries(st.sampled_from(["sequence", "f"]), st.integers(0, 1),
                                     max_size=2))


def result_specs():
    return st.tuples(st.sampled_from(["validate", "mct"]), st.sampled_from(reports.STATUSES),
                     st.dictionaries(st.sampled_from(["reason", "value"]), st.integers(0, 1),
                                     max_size=2))


def key_specs():
    return st.tuples(st.sampled_from([str, (list, dict)]), CALLABLES,
                     st.integers(0, len(DEFAULTS) - 1))


def build_key(spec):
    json, resolve, default = spec
    return scenarios._Key(json, resolve, DEFAULTS[default])


def kind_specs():
    return st.tuples(CALLABLES, st.dictionaries(st.sampled_from(["dim", "terms"]), key_specs(),
                                                max_size=2),
                     st.sampled_from(["", "/dim"]), st.sampled_from([None, "needs terms"]))


def build_kind(spec):
    build, keys, at, message = spec
    return scenarios._Kind(build, {k: build_key(v) for k, v in keys.items()}, at, message)


def check_specs():
    return st.tuples(st.sampled_from([None, "integral", "measure_checks"]),
                     st.sampled_from(["mct", "fatou", "_check_validate"]),
                     st.dictionaries(st.sampled_from(["f", "g"]), key_specs(), max_size=2),
                     st.sampled_from([(), ("horizon",), ("horizon", "epsilons")]),
                     st.sampled_from(["measure", "outer", None]), st.booleans())


def build_check(spec):
    module, operation, keys, options, needs, own_admits = spec
    extra = {"admits": _zero} if own_admits else {}
    return scenarios._Check(module, operation, {k: build_key(v) for k, v in keys.items()},
                            options, needs, **extra)


CASES = {
    om.SpaceDescriptor: (space_specs(), lambda i: SPACES[i]()),
    om.Element: (element_specs(), build_element),
    om.ExtElement: (ext_element_specs(), build_ext_element),
    om.MeasurableSpace: (algebra_specs(), build_algebra),
    om.ExtFunction: (function_specs(st.sampled_from([Fraction(0), Fraction(1, 2),
                                                     Fraction(2), INFINITY])),
                     build_ext_function),
    om.SignedFunction: (function_specs(st.sampled_from([Fraction(-1), Fraction(0),
                                                        Fraction(1, 2)])),
                        build_signed_function),
    om.ElementaryFunction: (function_specs(st.sampled_from([Fraction(0), Fraction(1, 2),
                                                            Fraction(3)])),
                            build_elementary),
    om.IntegralReport: (report_specs(), build_report),
    om.Periodic: (st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  lambda spec: om.Periodic(*spec)),
    # A list value is unhashable, as the scenario parser's limits are.
    om.DeclaredLimit: (st.one_of(SMALL, st.lists(SMALL, max_size=2)), om.DeclaredLimit),
    om.NoSupremum: (st.sampled_from(["incomparable", "no infimum"]), om.NoSupremum),
    # The values and the split record are unhashable.
    outer.OuterMeasure: (outer_specs(), build_outer),
    # The details are unhashable.
    reports.CheckResult: (result_specs(),
                          lambda spec: reports.CheckResult(spec[0], spec[1], dict(spec[2]))),
    scenarios.Directive: (directive_specs(),
                          lambda spec: scenarios.Directive(spec[0], spec[1], dict(spec[2]))),
    scenarios._Key: (key_specs(), build_key),
    scenarios._Kind: (kind_specs(), build_kind),
    scenarios._Check: (check_specs(), build_check),
}


def hashed(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_value_class_matches_its_dataclass_twin(cls, data):
    specs, build = CASES[cls]
    first = data.draw(specs)
    second = data.draw(st.one_of(st.just(first), specs))
    a, b = build(first), build(second)
    assert type(a) is type(b) is cls
    ta, tb = twin(a), twin(b)
    assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
    assert (a == 1) is (ta == 1) is False
    assert hashed(a) == hashed(ta) and hashed(b) == hashed(tb)
    if cls not in OWN_REPR:
        assert repr(a) == repr(ta)
    before = [getattr(a, name) for name in FIELDS[cls]]
    for name in FIELDS[cls] + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, name) for name in FIELDS[cls]] == before


def outcome(make, args, named):
    try:
        return make(*args, **named)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", GENERATED, ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_generated_constructor_takes_what_its_twin_takes(cls, data):
    """Some fields by position and the rest by name or left out, with an
    extra argument, an unknown name or a repeated field now and then."""
    specs, build = CASES[cls]
    values = twin(build(data.draw(specs))).__dict__
    fields = FIELDS[cls]
    k = data.draw(st.integers(0, len(fields)))
    args = [values[name] for name in fields[:k]]
    named = {name: values[name] for name in fields[k:] if data.draw(st.booleans())}
    if data.draw(st.booleans()):
        mistake = data.draw(st.sampled_from(["extra", "unknown"] + ["repeat"] * bool(k)))
        if mistake == "extra":
            args.append(None)
        else:
            named[fields[0] if mistake == "repeat" else "unknown"] = None
    built, expected = outcome(cls, args, named), outcome(TWINS[cls], args, named)
    if expected is TypeError:
        assert built is TypeError
    else:
        assert type(built) is cls and twin(built) == expected


def test_generated_constructor_examples():
    assert om.NoSupremum() == om.NoSupremum("incomparable pair in a non-lattice backend")
    assert scenarios._Key(str, _zero).default is scenarios._REQUIRED
    kind = scenarios._Kind(_zero, {})
    assert (kind.at, kind.message) == ("", None)
    assert scenarios._Kind(_zero, {}, message="m") == scenarios._Kind(_zero, {}, "", "m")
    check = scenarios._Check(None, "_check_validate", {})
    assert check.needs == "measure" and check.admits(None, {}, "") is None
    assert check.options == ()
    assert check == scenarios._Check(keys={}, operation="_check_validate", module=None)
    assert scenarios._Check(None, "mct", {}, needs="space").needs == "space"
    assert scenarios._Check(None, "mct", {}, ("horizon",)).options == ("horizon",)
    assert scenarios._CHECKS["validate"].keys is not scenarios._CHECKS["identities"].keys
    for call in (lambda: scenarios._Check(None, "mct"), lambda: om.Periodic(1),
                 lambda: scenarios._Check(None, "mct", {}, module=None),
                 lambda: scenarios._Check(None, "mct", {}, colour=1),
                 lambda: om.Periodic(1, 2, 3)):
        with pytest.raises(TypeError):
            call()


def test_slotted_classes_store_their_fields_only():
    # A MeasurableSpace keeps a __dict__ slot for its cached atom points
    # (tests/test_measures.py checks what it stores).
    for cls, fields in FIELDS.items():
        assert cls._fields == fields
        slots = [name for k in cls.__mro__ for name in vars(k).get("__slots__", ())]
        cache = ["__dict__"] if cls is om.MeasurableSpace else []
        assert sorted(slots) == sorted([*fields, *cache])
        assert hasattr(cls.__new__(cls), "__dict__") is bool(cache)


def subclasses(cls):
    return {cls, *(c for sub in cls.__subclasses__() for c in subclasses(sub))}


def test_every_frozen_class_has_a_twin():
    for path in Path(om.__file__).parent.glob("[!_]*.py"):
        importlib.import_module(f"ordmeasure.{path.stem}")
    # _PointFunction is only the shared base of the two function classes.
    assert subclasses(Frozen) - {Frozen, integral._PointFunction} == set(FIELDS)


@pytest.mark.parametrize("value", [
    om.NoSupremum(),
    scenarios.Directive("validate", "holds", {}),
    scenarios._CHECKS["validate"],
    scenarios._CHECKS["integrate"].keys["function"],
    scenarios._SPACES["coord"],
], ids=lambda v: type(v).__name__)
def test_other_frozen_classes_refuse_assignment(value):
    with pytest.raises(AttributeError):
        value.anything = 1
    with pytest.raises(AttributeError):
        del value.anything
