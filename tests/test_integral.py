import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import extended, integral, spaces
from ordmeasure.errors import (
    MAX_EPSILON_EXPONENT,
    CertificationError,
    HypothesisError,
    NotIntegrableError,
    OrdMeasureError,
    ValidationError,
)
from ordmeasure.integral import ElementaryFunction, _check_level_sets, integrate_elementary
from ordmeasure.measures import _atom_unions, full_mask, mask_to_points, points_to_mask
from ordmeasure.rationals import INFINITY, is_infinite, over_one_den
from ordmeasure.sequences import (
    DEFAULT_EPSILONS,
    DeclaredLimit,
    Periodic,
    SequenceSpec,
    declared_cycle,
    epsilon_schedule,
    from_terms,
)

import integral_oracles as oracle
from conftest import nonneg_rational, random_algebra, random_measure
from limit_oracles import ext_inf_finite_list

C2 = om.coord(2)


def claiming(terms: list, limit) -> SequenceSpec:
    """A raw spec of `terms`, the final one repeating, that claims the limit
    `limit`: a list declares only the tail that it generates."""
    return SequenceSpec(from_terms(terms).generator, metadata=DeclaredLimit(limit))


def fin(x, y):
    return om.finite(om.element(C2, [x, y]))


def basic_measure():
    space = om.power_set_space(2)
    return om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1)})


def null_atom_measure():
    space = om.power_set_space(3)
    return om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1), 4: fin(0, 0)})


class TestMeasurability:
    def test_non_measurable_function_rejected(self):
        space = om.generate_sigma_algebra([0b011], 2)  # atoms: {0,1}
        with pytest.raises(ValidationError, match="not measurable"):
            om.ext_function(space, [0, 1])

    def test_measurable_mixed_infinity(self):
        space = om.generate_sigma_algebra([0b011], 3)
        om.ext_function(space, [1, 1, INFINITY])
        with pytest.raises(ValidationError):
            om.ext_function(space, [1, INFINITY, 0])

    @pytest.mark.parametrize("space, values, message", [
        (om.generate_sigma_algebra([0b011], 2), [-1, 1], "not measurable"),
        (om.power_set_space(3), [-2, INFINITY, INFINITY],
         "^a signed function cannot take the value infinity$"),
    ], ids=["not-measurable", "infinite"])
    def test_signed_function_refused(self, space, values, message):
        with pytest.raises(ValidationError, match=message):
            om.signed_function(space, values)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_atom_constancy_matches_level_set_sweep(self, data):
        n = data.draw(st.integers(1, 6))
        gens = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=3))
        space = om.generate_sigma_algebra(gens, n)
        scalars = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2),
                                   INFINITY])
        if data.draw(st.booleans()):  # mostly constant on atoms, with a few changes
            base = {a: data.draw(scalars) for a in space.atoms}
            values = [next(base[a] for a in space.atoms if a >> x & 1) for x in range(n)]
            for x, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), scalars),
                                           max_size=2)):
                values[x] = v
        else:
            values = data.draw(st.lists(scalars, min_size=n, max_size=n))
        assert _message_or_none(check_level_sets, space, values) == \
            _message_or_none(level_set_sweep, space, values)


def check_level_sets(space, values):
    """`_check_level_sets` on a function with these values, built unchecked."""
    _check_level_sets(integral._trusted(om.ExtFunction, space, *over_one_den(values)))


def level_set_sweep(space, values):
    """Every sublevel set {f < r} and {f <= r} of the range tested against
    the member sets (oracle for `integral._check_level_sets`)."""
    members = frozenset(_atom_unions(space.atoms))
    distinct = []
    for v in values:
        if v not in distinct:
            distinct.append(v)
    levels = [(strict, v) for v in distinct if not is_infinite(v) for strict in (True, False)]
    for strict, r in levels + [(True, INFINITY)]:
        mask = points_to_mask(x for x, v in enumerate(values)
                              if oracle.ext_scalar_leq(v, r) and not (strict and v == r))
        if mask not in members:
            raise ValidationError(
                f"function is not measurable: level set for {oracle.format_ext_scalar(r)} "
                "is not in the algebra",
                witness={"level": oracle.format_ext_scalar(r), "set": mask_to_points(mask)})


def _message_or_none(fn, *args):
    try:
        fn(*args)
    except ValidationError as exc:
        return str(exc), exc.witness
    return None


class TestElementary:
    def test_two_representations_one_value(self):
        mu = basic_measure()
        rep1 = ElementaryFunction(mu.space, ((Fraction(2), 0b11),))
        rep2 = ElementaryFunction(mu.space,
                                  ((Fraction(2), 0b01), (Fraction(2), 0b10)))
        assert integrate_elementary(rep1, mu) == fin(2, 2)
        assert integrate_elementary(rep2, mu) == fin(2, 2)

    def test_zero_function(self):
        mu = basic_measure()
        assert integrate_elementary(ElementaryFunction(mu.space, ()), mu) == fin(0, 0)

    def test_infinite_support(self):
        space = om.power_set_space(3)
        mu = om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1), 4: om.infinity(C2)})
        phi = ElementaryFunction(space, ((Fraction(1), 0b100),))
        assert integrate_elementary(phi, mu) == om.infinity(C2)

    def test_overlapping_representation(self):
        mu = basic_measure()
        # 1*X + 2*{0} has dense values (3, 1)
        phi = ElementaryFunction(mu.space, ((Fraction(1), 0b11), (Fraction(2), 0b01)))
        assert integrate_elementary(phi, mu) == fin(3, 1)

    def test_random_rerepresentations(self, rng):
        for _ in range(40):
            ground = rng.randint(1, 5)
            space = random_algebra(rng, ground)
            mu = random_measure(rng, space, C2)
            members = space.members()
            terms = tuple(
                (nonneg_rational(rng), rng.choice(members))
                for _ in range(rng.randint(0, 4))
            )
            phi = ElementaryFunction(space, terms)
            base = integrate_elementary(phi, mu)
            # re-representation: split every set into its atoms, shuffled,
            # plus a zero-coefficient set
            split = []
            for coeff, mask in terms:
                for atom in space.atoms_inside(mask):
                    split.append((coeff, atom))
            rng.shuffle(split)
            split.append((Fraction(0), members[-1]))
            assert integrate_elementary(ElementaryFunction(space, tuple(split)),
                                        mu) == base

    def test_key_inequality_random(self, rng):
        # an elementary function below the pointwise supremum of an
        # increasing elementary ladder integrates below the ladder's sup
        for _ in range(30):
            ground = rng.randint(1, 4)
            space = om.power_set_space(ground)
            mu = random_measure(rng, space, C2)
            target = [nonneg_rational(rng, hi=3) for _ in range(ground)]
            dominating = [v + nonneg_rational(rng, hi=2) for v in target]
            phi = oracle.elementary_from_dense(space, target)
            ladder = [
                oracle.elementary_from_dense(
                    space, [v * Fraction(n, 3) for v in dominating])
                for n in (1, 2, 3)
            ]
            values = [integrate_elementary(p, mu) for p in ladder]
            sup = values[-1]
            assert all(om.ext_leq(v, sup) for v in values)
            assert om.ext_leq(integrate_elementary(phi, mu), sup)


class TestIntegrateExtended:
    def test_infinity_on_null_atom(self):
        mu = null_atom_measure()
        f = om.ext_function(mu.space, [0, 0, INFINITY])
        report = om.integrate_extended(f, mu)
        assert report.value == fin(0, 0)

    def test_constant_one(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 1])
        assert om.integrate_extended(f, mu).value == fin(1, 1)

    def test_growing_function_series_measure(self):
        c4 = om.coord(4)
        space = om.power_set_space(4)
        atoms = {
            1 << i: om.finite(om.element(
                c4, [Fraction(1, i + 1) if j == i else 0 for j in range(4)]))
            for i in range(4)
        }
        mu = om.Measure(space, c4, atoms)
        f = om.ext_function(space, [1, 2, 3, 4])
        assert om.integrate_extended(f, mu).value == om.finite(
            om.element(c4, [1, 1, 1, 1]))

    def test_infinite_value_on_real_atom(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [INFINITY, 0])
        report = om.integrate_extended(f, mu)
        assert report.value == om.infinity(C2)
        assert report.trail["mode"] == "divergent"

    def test_positive_value_on_infinite_atom(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: om.infinity(C2), 2: fin(0, 1)})
        f = om.ext_function(space, [Fraction(1, 3), 0])
        assert om.integrate_extended(f, mu).value == om.infinity(C2)

    def test_zero_value_on_infinite_atom(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: om.infinity(C2), 2: fin(0, 1)})
        f = om.ext_function(space, [0, 2])
        assert om.integrate_extended(f, mu).value == fin(0, 2)

    def test_oracle_agreement_random(self, rng):
        values_pool = [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3),
                       INFINITY]
        for _ in range(60):
            ground = rng.randint(1, 5)
            space = om.power_set_space(ground)
            mu = random_measure(rng, space, C2, inf_prob=0.25)
            f = om.ext_function(space,
                                [rng.choice(values_pool) for _ in range(ground)])
            oracle.assert_routes_agree(om.integrate_extended(f, mu), f, mu)


def full_ladder_supremum(f, mu):
    """Oracle for `_ladder_supremum`: one rung at every level 1..nstar+1."""
    finite_vals = [v for v in f.values if not is_infinite(v)]
    top = max(finite_vals, default=Fraction(0))
    nstar = max(1, math.ceil(top))
    rungs = []
    for n in range(1, nstar + 2):
        rung = integrate_elementary(om.truncate(f, n), mu)
        if rungs and not om.ext_leq(rungs[-1], rung):
            raise OrdMeasureError("ladder integrals failed to increase")
        rungs.append(rung)
        if rung.is_infinite:
            return om.infinity(mu.backend), {
                "mode": "infinite-rung", "at_level": n}
    if rungs[-1] == rungs[-2]:
        return rungs[-1], {"mode": "stabilized", "at_level": nstar}
    return om.infinity(mu.backend), {
        "mode": "divergent", "increment_from_level": nstar}


def _positive_element(draw, backend):
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    if backend.kind is om.SpaceKind.LOEWNER_SYM:
        d = backend.dim
        b = [[draw(small) for _ in range(d)] for _ in range(d)]
        return om.sym_matrix([[sum(b[i][k] * b[j][k] for k in range(d))
                               for j in range(d)] for i in range(d)])
    coords = st.fractions(min_value=0, max_value=3, max_denominator=4)
    return om.Element(backend, tuple(draw(coords) for _ in range(backend.ncoords)))


@st.composite
def measures_and_functions(draw):
    """A measure with some infinite atoms and an extended function on it.

    Function values are zero, integers, non-integers and infinity, up to a
    top value small enough for the full ladder.
    """
    backend = draw(st.sampled_from(
        [om.reals(), om.coord(2), om.entrywise_mat(2, 2), om.loewner_sym(2),
         om.loewner_sym(3)]))
    ground = draw(st.integers(1, 4))
    full = (1 << ground) - 1
    if draw(st.booleans()):
        space = om.power_set_space(ground)
    else:
        gens = draw(st.lists(st.integers(0, full), max_size=3))
        space = om.generate_sigma_algebra(gens, ground)
    atom_values = {
        atom: om.infinity(backend) if draw(st.integers(0, 4)) == 0
        else om.finite(_positive_element(draw, backend))
        for atom in space.atoms
    }
    mu = om.Measure(space, backend, atom_values)
    value = st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 12).map(Fraction),
        st.fractions(min_value=0, max_value=12, max_denominator=7),
        st.just(INFINITY),
    )
    dense = [Fraction(0)] * ground
    for atom in space.atoms:
        v = draw(value)
        for x in mask_to_points(atom):
            dense[x] = v
    return mu, om.ext_function(space, dense)


class TestLadderBreakLevels:
    """`_ladder_supremum` against the full ladder it replaced."""

    @given(measures_and_functions())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_full_ladder(self, case):
        mu, f = case
        assert oracle.core_routes(f, mu)[1] == full_ladder_supremum(f, mu)

    @given(measures_and_functions())
    @settings(max_examples=300, deadline=None)
    def test_scan_levels_are_the_levels_of_every_point(self, case):
        # The scan reads each atom's first point; the levels it returns are
        # those of every point's value: 1, nstar, and floor and ceil >= 1.
        mu, f = case
        finite = [v for v in f.values if not is_infinite(v)]
        nstar = max(1, math.ceil(max(finite, default=0)))
        expected = {1, nstar}.union(k for v in finite for k in (math.floor(v), math.ceil(v))
                                    if k >= 1)
        assert integral._ladder_scan(f.nums, f.den, f.inf, mu.atom_table[1])[1] == expected

    @pytest.mark.parametrize("values, atom2, expected", [
        ([Fraction(1, 3), 2], fin(0, 1), {"mode": "stabilized", "at_level": 2}),
        ([0, 0], fin(0, 1), {"mode": "stabilized", "at_level": 1}),
        ([INFINITY, Fraction(5, 2)], fin(0, 1),
         {"mode": "divergent", "increment_from_level": 3}),
        ([0, Fraction(7, 2)], om.infinity(C2),
         {"mode": "infinite-rung", "at_level": 1}),
        ([Fraction(1, 3), Fraction(7, 2)], fin(0, 0),
         {"mode": "stabilized", "at_level": 4}),
        ([Fraction(5, 2), 0], om.infinity(C2),
         {"mode": "stabilized", "at_level": 3}),
    ], ids=["stabilized", "top_zero", "divergent", "infinite_rung", "top_on_null_atom",
            "zero_on_infinite_atom"])
    def test_trail_modes(self, values, atom2, expected):
        mu = om.Measure(om.power_set_space(2), C2, {1: fin(1, 0), 2: atom2})
        f = om.ext_function(mu.space, values)
        value, trail = oracle.core_routes(f, mu)[1]
        assert trail == expected
        assert (value, trail) == full_ladder_supremum(f, mu)

    def test_rungs_only_at_break_levels(self, monkeypatch):
        levels = []
        rung_row = integral._rung_row

        def recording(terms, level, den, width):
            levels.append(level)
            return rung_row(terms, level, den, width)

        monkeypatch.setattr(integral, "_rung_row", recording)
        space = om.power_set_space(4)
        mu = om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1), 4: fin(1, 1),
                                    8: fin(0, 0)})
        f = om.ext_function(space, [0, Fraction(5, 2), 10**8, INFINITY])
        oracle.core_routes(f, mu)[1]
        assert levels == [1, 2, 3, 10**8, 10**8 + 1]


def truncated_values(f, level):
    """min(f, level) at every point, infinity included."""
    cap = Fraction(level)
    return tuple(cap if is_infinite(v) else min(v, cap) for v in f.values)


@st.composite
def atom_elementary(draw, space):
    """An elementary function with one term on each of some atoms of
    `space`, in the order of the atoms, zero coefficients included."""
    coefficient = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2),
                                   Fraction(7, 2)])
    atoms = [a for a in space.atoms if draw(st.booleans())]
    return ElementaryFunction(space, tuple((draw(coefficient), a) for a in atoms))


class TestRung:
    """The trusted `truncate`, the rung integral as one combination (the
    oracle `combination_rung_integral`) and the ladder's integer rung rows,
    against the validating constructor (the oracle `elementary_from_dense`)
    and the pairwise fold of `integrate_elementary`."""

    @given(measures_and_functions(), st.integers(1, 14))
    @settings(max_examples=300, deadline=None)
    def test_truncate_matches_from_dense(self, case, level):
        mu, f = case
        phi = om.truncate(f, level)
        assert phi == oracle.elementary_from_dense(f.space, truncated_values(f, level))
        assert phi.dense_values() == truncated_values(f, level)
        assert all(coeff > 0 and mask in f.space.atoms for coeff, mask in phi.terms)

    @given(measures_and_functions(), st.integers(1, 14))
    @settings(max_examples=300, deadline=None)
    def test_rung_integral_matches_integrate_elementary(self, case, level):
        mu, f = case
        phi = om.truncate(f, level)
        assert oracle.combination_rung_integral(phi, mu) == integrate_elementary(phi, mu)

    @given(measures_and_functions(), st.integers(1, 14))
    @settings(max_examples=300, deadline=None)
    def test_rung_row_matches_rung_integral(self, case, level):
        mu, f = case
        table_den, table = mu.atom_table
        terms, _ = integral._ladder_scan(f.nums, f.den, f.inf, table)
        row = integral._rung_row(terms, level, f.den, mu.backend.ncoords)
        rung = (om.infinity(mu.backend) if row is None else
                om.finite(spaces._element(mu.backend, tuple(row), f.den * table_den)))
        assert rung == oracle.combination_rung_integral(om.truncate(f, level), mu)

    @given(measures_and_functions(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_zero_and_positive_coefficients_on_infinite_atoms(self, case, data):
        mu, _ = case
        phi = data.draw(atom_elementary(mu.space))
        assert oracle.combination_rung_integral(phi, mu) == integrate_elementary(phi, mu)

    @pytest.mark.parametrize("coefficient, expected", [
        (Fraction(0), fin(2, 0)), (Fraction(1, 2), om.infinity(C2))])
    def test_infinite_atom(self, coefficient, expected):
        mu = om.Measure(om.power_set_space(2), C2, {1: fin(1, 0), 2: om.infinity(C2)})
        phi = ElementaryFunction(mu.space, ((Fraction(2), 1), (coefficient, 2)))
        assert oracle.combination_rung_integral(phi, mu) == expected
        assert integrate_elementary(phi, mu) == expected

    def test_space_mismatch(self):
        mu = basic_measure()
        coarse = om.generate_sigma_algebra([], 2)
        phi = om.truncate(om.ext_function(coarse, [1, 1]), 1)
        with pytest.raises(ValidationError, match="different spaces"):
            oracle.combination_rung_integral(phi, mu)
        with pytest.raises(ValidationError, match="different spaces"):
            om.integrate_extended(om.ext_function(coarse, [1, 1]), mu)


class TestLadderOperationCounts:
    """The integral core's ladder sums one integer row per break level on the
    measure's atom table, neither route builds an element on the way, and
    the core builds one `Element` for a finite integral; no route makes
    pairwise element arithmetic."""

    @pytest.mark.parametrize("values, atom_values, levels, elements", [
        ([Fraction(1, 3), 2], [fin(1, 0), fin(0, 1)], [1, 2, 3], 1),
        ([INFINITY, Fraction(5, 2)], [fin(1, 0), fin(0, 1)], [1, 2, 3, 4], 0),
        ([0, Fraction(7, 2)], [fin(1, 0), om.infinity(C2)], [1], 0),
        ([0, Fraction(5, 2), 10**8, INFINITY], [fin(1, 0), fin(0, 1), fin(1, 1), fin(0, 0)],
         [1, 2, 3, 10**8, 10**8 + 1], 1),
    ], ids=["stabilized", "divergent", "infinite_rung", "wide_levels"])
    def test_counts(self, monkeypatch, values, atom_values, levels, elements):
        space = om.power_set_space(len(values))
        mu = om.Measure(space, C2, dict(zip(space.atoms, atom_values)))
        f = om.ext_function(space, values)
        calls = {"elements": 0, "levels": []}
        trusted, rung_row = spaces._element, integral._rung_row

        def counting_element(space, nums, den):
            calls["elements"] += 1
            return trusted(space, nums, den)

        def recording_rung_row(terms, level, den, width):
            calls["levels"].append(level)
            return rung_row(terms, level, den, width)

        def forbidden(*args, **kwargs):
            raise AssertionError("element or pairwise arithmetic in a route")

        monkeypatch.setattr(spaces, "_element", counting_element)
        monkeypatch.setattr(integral, "_rung_row", recording_rung_row)
        for owner, name in [(spaces, "add"), (spaces, "scale"),
                            (spaces.Element, "__init__"),
                            (extended, "ext_add"), (extended, "ext_scale"),
                            (integral, "ext_add"), (integral, "ext_scale")]:
            monkeypatch.setattr(owner, name, forbidden)
        integral._integral(mu, f.nums, f.den, f.inf)
        assert calls == {"elements": elements, "levels": levels}


class TestTrustedFunctions:
    """Functions derived from validated ones equal what the validating
    constructors build from the same values."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_match_validating_constructors(self, data):
        n = data.draw(st.integers(1, 6))
        gens = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=3))
        space = om.generate_sigma_algebra(gens, n)
        value = st.fractions(min_value=-4, max_value=4, max_denominator=5)

        def measurable():
            per_atom = {a: data.draw(value) for a in space.atoms}
            return om.signed_function(space, [next(v for a, v in per_atom.items()
                                                   if a >> x & 1) for x in range(n)])

        f, g = measurable(), measurable()
        zero = Fraction(0)
        expected = [
            (f.abs(), om.ExtFunction(space, tuple(abs(v) for v in f.values))),
            (f.sup_with(g), om.SignedFunction(space, tuple(map(max, f.values, g.values)))),
            (f.inf_with(g), om.SignedFunction(space, tuple(map(min, f.values, g.values)))),
        ]
        support = points_to_mask(x for x, v in enumerate(f.values) if v != 0)
        c = math.floor(max(abs(v) for v in f.values)) + 1
        for trusted, validated in expected:
            assert type(trusted) is type(validated)
            assert trusted == validated and hash(trusted) == hash(validated)
        # The integer part transforms that `integrate_signed` and `dct` hand
        # the integral core, against the canonical form of the validated parts.
        shifted, shift_only = integral._shifted_parts(space, f.nums, f.den)
        parts = [
            (integral._part(abs, f.nums, f.den), expected[0][1]),
            (integral._part(integral._pos, f.nums, f.den),
             om.ExtFunction(space, tuple(max(v, zero) for v in f.values))),
            (integral._part(integral._neg, f.nums, f.den),
             om.ExtFunction(space, tuple(max(-v, zero) for v in f.values))),
            (integral._pointwise_part(integral._distance, f, g),
             om.ExtFunction(space, tuple(abs(a - b) for a, b in zip(f.values, g.values)))),
            (shifted, om.ExtFunction(space, tuple(v + c if v else v for v in f.values))),
            (shift_only, oracle.indicator(space, support, c)),
        ]
        for part, validated in parts:
            assert part == (validated.nums, validated.den)
            assert type(part[0]) is tuple

    def test_pointwise_operations_need_one_space(self):
        f = om.signed_function(om.power_set_space(2), [1, -1])
        g = om.signed_function(om.generate_sigma_algebra([], 2), [1, 1])
        for op in (lambda: f.sup_with(g), lambda: f.inf_with(g)):
            with pytest.raises(ValidationError, match="different spaces"):
                op()


class TestShift:
    """The shift of the signed decomposition (`_shifted_parts`) is an integer
    c above every |f(x)|, the least one, so f + c * s is positive exactly on
    the support of f, and c * s is one integer form for every function with
    the same support and the same floor(max |f|): the form that the integral
    memo keeps once."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_shift_above_every_value(self, data):
        n = data.draw(st.integers(1, 6))
        gens = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=3))
        space = om.generate_sigma_algebra(gens, n)
        atoms = data.draw(st.lists(st.sampled_from(space.atoms), min_size=1, unique=True))
        support, floor_max = sum(atoms), data.draw(st.integers(0, 4))
        below = st.fractions(min_value=-floor_max - 1, max_value=floor_max + 1,
                             max_denominator=7).filter(lambda v: v and abs(v) < floor_max + 1)
        top = st.fractions(min_value=floor_max, max_value=floor_max + 1,
                           max_denominator=7).filter(lambda v: 0 < v < floor_max + 1)

        def signed():
            """A function on `support` whose largest |f(x)| has floor `floor_max`."""
            per_atom = {a: data.draw(below) for a in atoms}
            per_atom[data.draw(st.sampled_from(atoms))] = data.draw(top) * data.draw(
                st.sampled_from([1, -1]))
            return om.signed_function(space, [next((v for a, v in per_atom.items()
                                                    if a >> x & 1), 0) for x in range(n)])

        f, g = signed(), signed()
        (shifted, _), shift_only = integral._shifted_parts(space, f.nums, f.den)
        assert shift_only[1] == 1
        c = max(shift_only[0])
        assert shift_only[0] == tuple(c if support >> x & 1 else 0 for x in range(n))
        assert all(abs(v) < c for v in f.values) and c - 1 <= max(map(abs, f.values))
        assert min(shifted) >= 0
        assert points_to_mask(x for x, s in enumerate(shifted) if s) == support
        assert integral._shifted_parts(space, g.nums, g.den)[1] == shift_only


def _report_or_error(f, mu):
    try:
        return om.integrate_extended(f, mu)
    except OrdMeasureError as exc:
        return type(exc), str(exc)


class TestIntegralMemo:
    """`integrate_extended` keeps one report per distinct function on a measure."""

    @given(measures_and_functions(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reused_measure_matches_fresh_measures(self, case, data):
        # f, f with its atom values rotated, and one more function
        mu, f = case
        atoms = list(mu.space.atoms)
        values = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3), INFINITY])
        rotated, other = [None] * mu.space.ground_size, [None] * mu.space.ground_size
        for atom, source in zip(atoms, atoms[1:] + atoms[:1]):
            v = data.draw(values)
            for x in mask_to_points(atom):
                rotated[x], other[x] = f.values[mu.space.atom_points[source][0]], v
        pool = [f, om.ext_function(mu.space, rotated), om.ext_function(mu.space, other)]
        for g in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)):
            fresh = om.Measure(mu.space, mu.backend, mu.atom_values)
            assert _report_or_error(g, mu) == _report_or_error(g, fresh)

    def test_ladder_runs_once_per_distinct_function(self, monkeypatch):
        # Both routes of the integral core run once per distinct canonical form.
        calls = {"_closed_form": [], "_ladder_supremum": []}
        for name in calls:
            def counting(nums, den, inf, mu, route=getattr(integral, name), name=name):
                calls[name].append((nums, den, inf))
                return route(nums, den, inf, mu)

            monkeypatch.setattr(integral, name, counting)
        mu = basic_measure()
        f, g = (om.ext_function(mu.space, v) for v in ([1, 2], [INFINITY, 0]))
        again = om.ext_function(mu.space, [1, 2])
        reports = [om.integrate_extended(h, mu) for h in (f, g, again, f, g)]
        forms = [(h.nums, h.den, h.inf) for h in (f, g)]
        assert calls == {"_closed_form": forms, "_ladder_supremum": forms}
        assert reports[2] is reports[0] and reports[4] is reports[1]
        assert om.integral_value(again, mu) == fin(1, 2)
        with pytest.raises(AttributeError):
            reports[0].value = fin(0, 0)
        assert reports[0].value == fin(1, 2)

    def test_function_on_another_space_still_raises(self):
        mu = basic_measure()
        om.integrate_extended(om.ext_function(mu.space, [1, 1]), mu)
        coarse = om.generate_sigma_algebra([], 2)
        with pytest.raises(ValidationError, match="different spaces"):
            om.integrate_extended(om.ext_function(coarse, [1, 1]), mu)


class TestIntegrateSigned:
    def test_two_sided(self):
        mu = basic_measure()
        f = om.signed_function(mu.space, [1, -1])
        assert om.integrate_signed(f, mu) == om.element(C2, [1, -1])

    def test_zero(self):
        mu = basic_measure()
        assert om.integrate_signed(om.signed_function(mu.space, [0, 0]), mu) == \
            om.zero(C2)

    def test_not_integrable_with_infinite_atom(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: om.infinity(C2), 2: fin(0, 1)})
        with pytest.raises(NotIntegrableError):
            om.integrate_signed(om.signed_function(space, [1, 1]), mu)

    def test_integrable_when_zero_on_infinite_atom(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: om.infinity(C2), 2: fin(2, 1)})
        f = om.signed_function(space, [0, -3])
        assert om.integrate_signed(f, mu) == om.element(C2, [-6, -3])

    def test_random_linearity(self, rng):
        for _ in range(30):
            ground = rng.randint(1, 4)
            space = random_algebra(rng, ground)
            mu = random_measure(rng, space, C2, inf_prob=0)
            atoms = space.atoms
            dense1 = [Fraction(0)] * ground
            dense2 = [Fraction(0)] * ground
            for atom in atoms:
                v1, v2 = rng.randint(-3, 3), rng.randint(-3, 3)
                for x in mask_to_points(atom):
                    dense1[x], dense2[x] = Fraction(v1), Fraction(v2)
            f = om.signed_function(space, dense1)
            g = om.signed_function(space, dense2)
            f_plus_g = om.signed_function(space, [a + b for a, b in zip(dense1, dense2)])
            assert om.integrate_signed(f_plus_g, mu) == om.add(
                om.integrate_signed(f, mu), om.integrate_signed(g, mu))


class TestLawsAndAe:
    def test_laws_zero_coefficients(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 2])
        g = om.ext_function(mu.space, [3, 1])
        assert om.check_integral_laws(mu, f, g, 0, 0).ok

    def test_laws_with_infinity(self):
        space = om.power_set_space(3)
        mu = om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1), 4: om.infinity(C2)})
        f = om.ext_function(space, [1, 0, 2])
        g = om.ext_function(space, [0, 1, 0])
        assert om.check_integral_laws(mu, f, g, Fraction(2), Fraction(1, 3)).ok

    def test_laws_random(self, rng):
        for _ in range(30):
            ground = rng.randint(1, 4)
            space = om.power_set_space(ground)
            mu = random_measure(rng, space, C2, inf_prob=0.2)
            pool = [Fraction(0), Fraction(1), Fraction(5, 2), INFINITY]
            f = om.ext_function(space, [rng.choice(pool) for _ in range(ground)])
            g = om.ext_function(space, [rng.choice(pool) for _ in range(ground)])
            r1 = nonneg_rational(rng, hi=3)
            r2 = nonneg_rational(rng, hi=3)
            assert om.check_integral_laws(mu, f, g, r1, r2).ok

    def test_ae_finite_integral_forces_null_infinity_set(self):
        mu = null_atom_measure()
        f = om.ext_function(mu.space, [1, 2, INFINITY])
        report = om.ae_analysis(mu, f)
        assert report.ok
        assert report.details["ae_finite"] == "holds"

    def test_ae_zero_iff_null_support(self):
        mu = null_atom_measure()
        f = om.ext_function(mu.space, [0, 0, 5])
        report = om.ae_analysis(mu, f)
        assert report.ok
        assert report.details["integral"] == {"finite": ["0", "0"]}

    def test_ae_equal_functions_same_integral(self):
        mu = null_atom_measure()
        f1 = om.ext_function(mu.space, [1, 2, 0])
        f2 = om.ext_function(mu.space, [1, 2, 9])
        assert om.integrate_extended(f1, mu).value == \
            om.integrate_extended(f2, mu).value

    def test_ae_bump_keeps_infinite_points_on_the_null_atom(self, monkeypatch):
        # f is infinite on the null atom {1, 2}, so adding 7 there leaves it
        # as it is: infinite, with numerator 0.
        space = om.generate_sigma_algebra([0b001], 3)
        mu = om.Measure(space, C2, {0b001: fin(1, 0), 0b110: fin(0, 0)})
        f = om.ext_function(space, [Fraction(1, 2), INFINITY, INFINITY])
        seen = []
        original = integral.integral_value
        monkeypatch.setattr(integral, "integral_value",
                            lambda g, m: seen.append(g) or original(g, m))
        report = om.ae_analysis(mu, f)
        assert report.ok and report.details["ae_equal_same_integral"] == "holds"
        assert seen == [f] and (seen[0].nums, seen[0].den, seen[0].inf) == ((1, 0, 0), 2, 0b110)


def geometric_ext_sequence(space, limit_values):
    def gen(n):
        return om.ext_function(
            space, [v * (1 - Fraction(1, 2**n)) for v in limit_values])
    return SequenceSpec(gen, metadata=DeclaredLimit(om.ext_function(space, limit_values)))


def ladder_scalar_divergence(samples, point):
    """Oracle for the infinite-target branch of the pointwise certificate
    of `mct`: every bound k = 1 .. max(len, 2) - 1, the ladder of
    `extended.certify_divergence`, tested against all samples."""
    if INFINITY in samples and samples[-1] is INFINITY:
        return
    for k in range(1, max(len(samples), 2)):
        if not any(not oracle.ext_scalar_leq(s, Fraction(k)) for s in samples):
            raise CertificationError(
                f"divergence at point {point} not certified against bound {k}"
            )


def _certification_message(fn, *args):
    try:
        fn(*args)
    except CertificationError as exc:
        return str(exc)
    return None


@st.composite
def scalar_samples(draw):
    """Increasing, bounded or arbitrary nonnegative samples, some infinite."""
    count = draw(st.integers(1, 16))
    shape = draw(st.sampled_from(["increasing", "bounded", "arbitrary"]))
    if shape == "increasing":
        steps = draw(st.lists(st.fractions(0, 2, max_denominator=3),
                              min_size=count, max_size=count))
        samples = list(accumulate(steps))
    else:
        top = 2 if shape == "bounded" else 30
        samples = draw(st.lists(st.fractions(0, top, max_denominator=4),
                                min_size=count, max_size=count))
    if draw(st.integers(0, 3)) == 0:
        samples[draw(st.integers(0, count - 1))] = INFINITY
    return samples


def in_order(samples):
    """The samples in increasing order, INFINITY last."""
    return sorted(samples, key=lambda v: (is_infinite(v), 0 if is_infinite(v) else v))


def at_point(value, point):
    """The function on four points that is `value` at `point` and 0 elsewhere."""
    return om.ext_function(om.power_set_space(4),
                           [value if x == point else 0 for x in range(4)])


def unit_atoms_measure():
    """Measure 1 on each of the four points of `at_point`'s space, on Reals."""
    reals = om.reals()
    return om.Measure(om.power_set_space(4), reals,
                      {1 << x: om.finite(om.element(reals, [1])) for x in range(4)})


class TestScalarDivergence:
    # The sequence must increase for `mct` to reach its pointwise certificate,
    # so the samples are put in order; the ladder sees the same samples.
    @given(scalar_samples(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_bound_ladder(self, samples, point):
        samples = in_order(samples)
        terms, f = [at_point(s, point) for s in samples], at_point(INFINITY, point)
        seq = claiming(terms, f)
        message = _certification_message(om.mct, unit_atoms_measure(), seq, f, len(terms))
        assert message is None or not message.startswith("sequence")
        fast = message if message and message.startswith("divergence at point") else None
        assert fast == _certification_message(ladder_scalar_divergence, samples, point)

    def test_one_sample_is_tested_against_bound_one(self):
        # The integrals' ladder tests bound 1 on one sample, and so do the
        # points: point 1 never passes it, although the integral does.
        reals = om.reals()
        space = om.power_set_space(2)
        mu = om.Measure(space, reals, {1 << x: om.finite(om.element(reals, [1]))
                                       for x in range(2)})
        limit = om.ext_function(space, [INFINITY, INFINITY])
        seq = claiming([om.ext_function(space, [5, Fraction(1, 2)]),
                        om.ext_function(space, [6, Fraction(1, 2)])], limit)
        with pytest.raises(CertificationError,
                           match="divergence at point 1 not certified against bound 1"):
            om.mct(mu, seq, limit, horizon=1)
        with pytest.raises(CertificationError,
                           match="divergence at point 1 not certified against bound 1"):
            om.mct(mu, seq, limit, horizon=2)


@st.composite
def monotone_columns(draw, increasing):
    """Terms and a limit on `null_atom_measure`'s three points, for `mct`
    (`increasing`) or `mct_decreasing`: per point, values with denominators
    up to 4 and some infinite, put in the direction's order at some points
    and not at others, with a limit on either side of them."""
    count = draw(st.integers(1, 6))
    values = st.one_of(st.fractions(0, 3, max_denominator=4), st.just(INFINITY))
    columns, limit = [], []
    for x in range(3):
        column = draw(st.lists(values, min_size=count + 1, max_size=count + 1))
        ordered = draw(st.integers(0, 3)) > 0
        if ordered:
            column = in_order(column)
            if not increasing:
                column.reverse()
        if not increasing and x != 2:  # a finite first term off the null point
            head = len(column) if ordered else 1
            column[:head] = [Fraction(5) if is_infinite(v) else v for v in column[:head]]
        *samples, target = column
        columns.append(samples)
        limit.append(draw(st.one_of(st.sampled_from([target, samples[-1]]), values)))
    space = null_atom_measure().space
    terms = [om.ext_function(space, row) for row in zip(*columns)]
    return terms, om.ext_function(space, limit)


def order_message(terms, f, null, increasing):
    """The order tests of the monotone convergence theorem on the retired
    crosswise comparison, as the message of the first that fails."""
    bad = oracle.out_of_order_points(zip(terms, terms[1:]), increasing) & ~null
    if bad:
        direction = "increasing" if increasing else "decreasing"
        return f"sequence not {direction} at non-null points {mask_to_points(bad)}"
    bad = oracle.out_of_order_points(((t, f) for t in terms), increasing) & ~null
    if bad:
        crossing = "exceeds" if increasing else "dips below"
        return (f"sequence {crossing} the declared limit at non-null "
                f"points {mask_to_points(bad)}")
    return None


class TestColumnOrder:
    @given(st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_flags_the_crosswise_points(self, increasing, data):
        terms, f = data.draw(monotone_columns(increasing))
        mu = null_atom_measure()
        check = om.mct if increasing else om.mct_decreasing
        seq = claiming(terms, f)
        message = _certification_message(check, mu, seq, f, len(terms))
        fast = message if message and message.startswith("sequence") else None
        assert fast == order_message(terms, f, mu.null_mask, increasing)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_integral_laws_monotonicity_precondition(self, data):
        terms, g = data.draw(monotone_columns(True))
        f = terms[0]
        mu = null_atom_measure()
        applies = not oracle.out_of_order_points([(f, g)], True) & ~mu.null_mask
        details = om.check_integral_laws(mu, f, g).details
        assert (details["monotonicity"] != "not-applicable: f is not below g") == applies

    def test_integral_laws_monotonicity_ignores_null_points(self):
        # f exceeds g only at point 2, whose atom is null
        mu = null_atom_measure()
        f = om.ext_function(mu.space, [1, 1, 5])
        g = om.ext_function(mu.space, [2, 2, 0])
        assert om.check_integral_laws(mu, f, g).details["monotonicity"] == "holds"


class TestFinitePointwiseProbe:
    # On monotone samples with a finite limit on their side, `mct` and
    # `mct_decreasing` certify each point as the retired side probe did.
    @given(st.booleans(), scalar_samples(), st.integers(0, 3),
           st.sampled_from([0, Fraction(1, 16), Fraction(1, 5), Fraction(3, 4)]))
    @settings(max_examples=200, deadline=None)
    def test_same_message_as_side_probe(self, increasing, samples, point, offset):
        samples = [s for s in in_order(samples) if not is_infinite(s)] or [Fraction(0)]
        if increasing:
            target = samples[-1] + offset
        else:
            samples.reverse()
            target = max(samples[-1] - offset, Fraction(0))
        terms = [at_point(s, point) for s in samples]
        f = at_point(target, point)
        epsilons = [Fraction(1, 2), Fraction(1, 8), Fraction(1, 64)]
        seq = claiming(terms, f)
        check = om.mct if increasing else om.mct_decreasing
        message = _certification_message(check, unit_atoms_measure(), seq, f, len(terms),
                                         epsilons)
        assert message is None or not message.startswith("sequence")
        fast = message if message and message.startswith("pointwise") else None
        assert fast == _certification_message(
            oracle.certify_scalar_convergence, terms, f, point, epsilons, increasing)


class TestMct:
    def test_constant_sequence(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [2, 3])
        seq = from_terms([f])
        assert om.mct(mu, seq, f).ok

    def test_geometric(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 1])
        seq = geometric_ext_sequence(mu.space, [Fraction(1), Fraction(1)])
        report = om.mct(mu, seq, f)
        assert report.ok
        assert report.details["certification"]["mode"] == "gap-certified"

    def test_divergent(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [INFINITY, 0])
        seq = SequenceSpec(lambda n: om.ext_function(mu.space, [n, 0]),
                           metadata=DeclaredLimit(f))
        report = om.mct(mu, seq, f)
        assert report.ok
        assert report.details["certification"]["mode"] == "divergence-certified"

    def test_null_exceptions_allowed(self):
        mu = null_atom_measure()
        f = om.ext_function(mu.space, [1, 1, 0])
        # violates monotonicity only on the null atom {2}
        def gen(n):
            wiggle = Fraction(1) if n % 2 else Fraction(2)
            scalev = 1 - Fraction(1, 2**n)
            return om.ext_function(mu.space, [scalev, scalev, wiggle])
        seq = SequenceSpec(gen, metadata=DeclaredLimit(f))
        assert om.mct(mu, seq, f).ok

    def test_monotonicity_violation_detected(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 1])
        def gen(n):
            v = Fraction(1) if n % 2 else Fraction(1, 2)
            return om.ext_function(mu.space, [v, v])
        seq = SequenceSpec(gen, metadata=DeclaredLimit(f))
        with pytest.raises(CertificationError):
            om.mct(mu, seq, f)

    @pytest.mark.parametrize("horizon, top", [(1, 1), (2, 1), (3, 2)])
    def test_divergence_reports_the_rung_it_tested(self, horizon, top):
        # one sample is tested against rung 1, as two are
        reals = om.reals()
        space = om.power_set_space(1)
        mu = om.Measure(space, reals, {1: om.finite(om.element(reals, [1]))})
        f = om.ext_function(space, [INFINITY])
        seq = claiming([om.ext_function(space, [5]), om.ext_function(space, [6])], f)
        report = om.mct(mu, seq, f, horizon=horizon)
        assert report.details["certification"] == {"mode": "divergence-certified",
                                                   "ladder_top": top}


class TestMctDecreasing:
    def test_geometric_to_zero(self):
        mu = basic_measure()
        zero_f = om.ext_function(mu.space, [0, 0])
        def gen(n):
            return om.ext_function(mu.space, [Fraction(1, 2**n)] * 2)
        seq = SequenceSpec(gen, metadata=DeclaredLimit(zero_f))
        report = om.mct_decreasing(mu, seq, zero_f)
        assert report.ok

    def test_infinite_first_integral_rejected(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: om.infinity(C2), 2: fin(0, 1)})
        f = om.ext_function(space, [0, 0])
        seq = SequenceSpec(lambda n: om.ext_function(space, [Fraction(1, n)] * 2),
                           metadata=DeclaredLimit(f))
        with pytest.raises(HypothesisError):
            om.mct_decreasing(mu, seq, f)

    def test_dipping_below_limit_rejected(self):
        mu = basic_measure()
        limit = om.ext_function(mu.space, [1, 1])
        seq = SequenceSpec(
            lambda n: om.ext_function(mu.space, [1 + Fraction(1, n), Fraction(0)]),
            metadata=DeclaredLimit(limit))
        with pytest.raises(CertificationError, match="dips below"):
            om.mct_decreasing(mu, seq, limit)


class TestHorizonBelowOne:
    """An explicit horizon of 0 is refused as `RunConfig` refuses it, before
    any term is sampled."""

    REFUSED = "^horizon must be a positive integer, got 0$"

    def test_mct(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 1])
        seq = geometric_ext_sequence(mu.space, [Fraction(1), Fraction(1)])
        with pytest.raises(ValidationError, match=self.REFUSED):
            om.mct(mu, seq, f, horizon=0)

    def test_mct_decreasing(self):
        mu = basic_measure()
        zero = om.ext_function(mu.space, [0, 0])
        seq = SequenceSpec(lambda n: om.ext_function(mu.space, [Fraction(1, 2**n)] * 2),
                           metadata=DeclaredLimit(zero))
        with pytest.raises(ValidationError, match=self.REFUSED):
            om.mct_decreasing(mu, seq, zero, horizon=0)

    @pytest.mark.parametrize("call", ["dct", "fatou", "continuity_from_below",
                                      "continuity_from_above", "borel_cantelli",
                                      "run_config"])
    def test_refused(self, call):
        with pytest.raises(ValidationError, match=self.REFUSED):
            _calls_with_horizon()[call](0)


def _calls_with_horizon():
    """Each library call that samples a sequence, as a function of its horizon,
    and `RunConfig`, which holds the horizon of a scenario run."""
    mu = basic_measure()
    f = om.ext_function(mu.space, [1, 1])
    zero = om.ext_function(mu.space, [0, 0])
    signed = om.signed_function(mu.space, [1, 1])
    dominator = om.ext_function(mu.space, [2, 2])
    halving = SequenceSpec(lambda n: om.ext_function(mu.space, [Fraction(1, 2**n)] * 2),
                           metadata=DeclaredLimit(zero))
    return {
        "mct": lambda h: om.mct(mu, geometric_ext_sequence(mu.space, [1, 1]), f,
                                horizon=h),
        "mct_decreasing": lambda h: om.mct_decreasing(mu, halving, zero, horizon=h),
        "dct": lambda h: om.dct(mu, from_terms([signed]), signed, dominator, horizon=h),
        "fatou": lambda h: om.fatou(mu, SequenceSpec(lambda n: f, metadata=Periodic(1, 1)),
                                    horizon=h),
        "continuity_from_below": lambda h: om.continuity_from_below(
            mu, from_terms([0b01, 0b11]), horizon=h),
        "continuity_from_above": lambda h: om.continuity_from_above(
            mu, from_terms([0b11, 0b01]), horizon=h),
        "borel_cantelli": lambda h: om.borel_cantelli(mu, from_terms([0b01]), horizon=h),
        "run_config": lambda h: om.RunConfig(horizon=h),
    }


class TestHorizonNotAnInteger:
    """A horizon that is a bool or not an integer is refused as `RunConfig`
    refuses it, not read as 1 or left to fail in `range`."""

    @pytest.mark.parametrize("horizon, shown", [(True, "True"), (2.5, "2.5")])
    @pytest.mark.parametrize("call", ["mct", "mct_decreasing", "dct", "fatou",
                                      "continuity_from_below", "continuity_from_above",
                                      "borel_cantelli", "run_config"])
    def test_refused(self, call, horizon, shown):
        with pytest.raises(ValidationError,
                           match=f"^horizon must be a positive integer, got {shown}$"):
            _calls_with_horizon()[call](horizon)


class TestEpsilonSchedule:
    """A schedule that is empty, holds a value that is not an int or a
    Fraction, or an epsilon below 2^-MAX_EPSILON_EXPONENT is refused by
    every call that takes one, as `RunConfig` refuses it; an empty one
    would certify every limit."""

    @pytest.mark.parametrize("epsilons, message", [
        ((), "empty epsilon schedule"),
        ([], "empty epsilon schedule"),
        ([Fraction(1, 16), True], "epsilon must be an int or a Fraction, got True"),
        ([0.5], "epsilon must be an int or a Fraction, got 0.5"),
        ([Fraction(1, 2**MAX_EPSILON_EXPONENT + 1)], "epsilon below 2\\^-"),
        ([0], "epsilon below 2\\^-"),
        ([Fraction(-1, 2)], "epsilon below 2\\^-"),
    ], ids=["empty_tuple", "empty_list", "bool", "float", "below_floor", "zero",
            "negative"])
    @pytest.mark.parametrize("call", ["mct", "mct_decreasing", "dct", "run_config"])
    def test_refused(self, call, epsilons, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            _calls_with_epsilons()[call](epsilons)

    def test_default_and_floor(self):
        floor = Fraction(1, 2**MAX_EPSILON_EXPONENT)
        assert epsilon_schedule(None) == DEFAULT_EPSILONS
        assert epsilon_schedule([floor, 1]) == ((1, floor.denominator), (1, 1))


def _calls_with_epsilons():
    """Each library call that takes a gap schedule, as a function of it, and
    `RunConfig`, which holds the schedule of a scenario run; the declared
    limits are reached by gaps, not by stabilization."""
    mu = basic_measure()
    f = om.ext_function(mu.space, [1, 1])
    zero, zero_signed = (om.ext_function(mu.space, [0, 0]),
                         om.signed_function(mu.space, [0, 0]))
    halving = SequenceSpec(lambda n: om.ext_function(mu.space, [Fraction(1, 2**n)] * 2),
                           metadata=DeclaredLimit(zero))
    signed = SequenceSpec(lambda n: om.signed_function(mu.space, [Fraction(1, 2**n)] * 2),
                          metadata=DeclaredLimit(zero_signed))
    return {
        "mct": lambda e: om.mct(mu, geometric_ext_sequence(mu.space, [1, 1]), f,
                                epsilons=e),
        "mct_decreasing": lambda e: om.mct_decreasing(mu, halving, zero, epsilons=e),
        "dct": lambda e: om.dct(mu, signed, zero_signed, f, epsilons=e),
        "run_config": lambda e: om.RunConfig(epsilons=e),
    }


def _stabilizing(mu, rows, metadata):
    """The ext functions with these value rows, the last one repeating."""
    return SequenceSpec(
        lambda n: om.ext_function(mu.space, rows[min(n, len(rows)) - 1]),
        metadata=metadata)


def _infinite_first_atom():
    return om.Measure(om.power_set_space(2), C2, {1: om.infinity(C2), 2: fin(0, 1)})


UNDECLARED = ("limit not certifiable: it needs a declared stabilization or limit of its "
              "terms' type")


class TestMonotoneConvergenceRejections:
    """The exact rejection of each direction of the monotone convergence check."""

    @pytest.mark.parametrize("increasing, measure, rows, limit, metadata, error, message", [
        pytest.param(True, basic_measure, [[1, 1], [0, 0]], [1, 1], Periodic(2, 1),
                     CertificationError,
                     "sequence not increasing at non-null points [0, 1]",
                     id="mct-not-monotone"),
        pytest.param(False, basic_measure, [[1, 0], [1, 1]], [1, 0], Periodic(2, 1),
                     CertificationError,
                     "sequence not decreasing at non-null points [1]",
                     id="mct_decreasing-not-monotone"),
        # The last sample is tested against f once the declared limit is f: a
        # stabilizing sequence's limit is its term, which is refused first.
        pytest.param(True, null_atom_measure, [[2, 0, 5]], [1, 0, 0],
                     DeclaredLimit(om.ext_function(om.power_set_space(3), [1, 0, 0])),
                     CertificationError,
                     "sequence exceeds the declared limit at non-null points [0]",
                     id="mct-exceeds"),
        pytest.param(False, null_atom_measure, [[1, 1, 0]], [1, 2, 5],
                     DeclaredLimit(om.ext_function(om.power_set_space(3), [1, 2, 5])),
                     CertificationError,
                     "sequence dips below the declared limit at non-null points [1]",
                     id="mct_decreasing-dips-below"),
        pytest.param(True, null_atom_measure, [[2, 0, 5]], [1, 0, 0], Periodic(1, 1),
                     CertificationError, "declared limit differs from f at non-null points [0]",
                     id="mct-stabilizes-above"),
        pytest.param(False, null_atom_measure, [[1, 1, 0]], [1, 2, 5], Periodic(1, 1),
                     CertificationError, "declared limit differs from f at non-null points [1]",
                     id="mct_decreasing-stabilizes-below"),
        pytest.param(True, basic_measure, [[1, 1]], [1, 1], None, CertificationError,
                     UNDECLARED, id="mct-undeclared"),
        pytest.param(False, basic_measure, [[1, 1]], [1, 1], None, CertificationError,
                     UNDECLARED, id="mct_decreasing-undeclared"),
        pytest.param(True, basic_measure, [[1, 1]], [1, 1], Periodic(1, 2),
                     CertificationError, UNDECLARED, id="mct-period-2"),
        # A declared limit infinite where f is finite is refused like any other
        # that differs from f off the null points.
        pytest.param(False, basic_measure, [[1, 1]], [1, 1],
                     DeclaredLimit(om.ext_function(om.power_set_space(2),
                                                   [INFINITY, INFINITY])),
                     CertificationError,
                     "declared limit differs from f at non-null points [0, 1]",
                     id="mct_decreasing-infinite-declared-limit"),
        # Only the decreasing form needs a finite first integral, and it says
        # so before it tests the terms.
        pytest.param(False, _infinite_first_atom, [[1, 0], [2, 0]], [0, 0], Periodic(2, 1),
                     HypothesisError,
                     "decreasing convergence requires a finite first integral",
                     id="mct_decreasing-infinite-first-integral"),
        pytest.param(True, _infinite_first_atom, [[2, 0], [1, 0]], [2, 0], Periodic(2, 1),
                     CertificationError,
                     "sequence not increasing at non-null points [0]",
                     id="mct-infinite-first-integral"),
    ])
    def test_check_rejects(self, increasing, measure, rows, limit, metadata, error,
                           message):
        mu = measure()
        check = om.mct if increasing else om.mct_decreasing
        seq = _stabilizing(mu, rows, metadata)
        with pytest.raises(error) as caught:
            check(mu, seq, om.ext_function(mu.space, limit), horizon=4)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("increasing, values, target, message", [
        (True, [fin(1, 0), fin(2, 0)], fin(1, 0),
         "integral sequence exceeds the target at 2"),
        (False, [fin(2, 0), fin(1, 0)], fin(Fraction(3, 2), 0),
         "integral sequence dips below the target at 2"),
        (True, [fin(2, 0), fin(1, 0)], fin(2, 0),
         "integral sequence not increasing at 1"),
        (False, [fin(1, 0), fin(2, 0)], fin(0, 0),
         "integral sequence not decreasing at 1"),
    ])
    def test_integral_sequence_rejects(self, increasing, values, target, message):
        # Terms that pass the pointwise tests have monotone integrals on the
        # right side of the target, so these are reached by calling the
        # certifier that both directions share, on the rows of the values.
        *rows, target_row = extended.ext_rows([*values, target])
        with pytest.raises(CertificationError) as caught:
            extended.certify_monotone_limit(C2, rows, target_row, DEFAULT_EPSILONS, increasing)
        assert str(caught.value) == message


@st.composite
def eventually_periodic_functions(draw):
    """(mu, seq, horizon): a few functions on three points, then a cycle of
    functions repeating forever, which the sequence declares, sampled past
    its first full cycle.  Values may be infinite; the measure's first atom
    is null and its others may be infinite."""
    space = om.power_set_space(3)
    atom = st.one_of(st.just(om.infinity(C2)),
                     st.builds(fin, st.integers(0, 3), st.integers(0, 3)))
    mu = om.Measure(space, C2, {1: fin(0, 0), 2: draw(atom), 4: draw(atom)})
    value = st.one_of(st.just(INFINITY),
                      st.fractions(min_value=0, max_value=4, max_denominator=4))
    function = st.builds(lambda vs: om.ext_function(space, vs),
                         st.lists(value, min_size=3, max_size=3))
    head = draw(st.lists(function, max_size=2))
    cycle = draw(st.lists(function, min_size=1, max_size=3))
    horizon = len(head) + len(cycle) + draw(st.integers(0, 3))
    terms = head + cycle * (horizon // len(cycle) + 1)
    return mu, SequenceSpec(lambda n: terms[n - 1],
                            metadata=Periodic(len(head) + 1, len(cycle))), horizon


class TestFatouDct:
    @given(eventually_periodic_functions())
    @settings(max_examples=200, deadline=None)
    def test_fatou_rhs_is_the_retired_infimum(self, drawn):
        # the infimum of the cycle's integrals, as the retired list infimum
        # gives it: infinite integrals count only when all of them are
        mu, seq, horizon = drawn
        report = om.fatou(mu, seq, horizon=horizon)
        cycle = report.details["cycle"]
        start = cycle["preperiod"] + 1
        ints = [integral.integral_value(seq.term(n), mu)
                for n in range(start, start + cycle["period"])]
        assert report.details["rhs"] == extended.ext_to_json(ext_inf_finite_list(ints))

    def test_fatou_strict_alternating(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: fin(1, 1), 2: fin(1, 1)})
        f1 = om.ext_function(space, [1, 0])
        f2 = om.ext_function(space, [0, 1])
        seq = SequenceSpec(lambda n: f1 if n % 2 else f2, metadata=Periodic(1, 2))
        report = om.fatou(mu, seq, horizon=16)
        assert report.ok
        assert report.details["strict"]
        assert report.details["lhs"] == {"finite": ["0", "0"]}
        assert report.details["rhs"] == {"finite": ["1", "1"]}

    def test_fatou_liminf_with_infinite_points_in_the_cycle(self, monkeypatch):
        # Point 0 is infinite in every term of the cycle, point 1 in one.
        space = om.power_set_space(3)
        mu = om.Measure(space, C2, {1: fin(0, 0), 2: fin(1, 0), 4: fin(0, 1)})
        f1 = om.ext_function(space, [INFINITY, INFINITY, Fraction(1, 2)])
        f2 = om.ext_function(space, [INFINITY, Fraction(2, 3), Fraction(0)])
        seen = []
        original = integral.integral_value
        monkeypatch.setattr(integral, "integral_value",
                            lambda g, m: seen.append(g) or original(g, m))
        report = om.fatou(mu, SequenceSpec(lambda n: f1 if n % 2 else f2,
                                           metadata=Periodic(1, 2)), horizon=8)
        liminf = om.ext_function(space, [INFINITY, Fraction(2, 3), Fraction(0)])
        assert seen[0] == liminf and (liminf.nums, liminf.den, liminf.inf) == ((0, 2, 0), 3, 1)
        assert report.ok and not report.details["strict"]
        assert report.details["lhs"] == report.details["rhs"] == {"finite": ["2/3", "0"]}

    def test_fatou_equality_constant(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [2, 3])
        seq = SequenceSpec(lambda n: f, metadata=Periodic(1, 1))
        report = om.fatou(mu, seq, horizon=8)
        assert report.ok and not report.details["strict"]

    def test_fatou_rejects_loewner(self):
        l2 = om.loewner_sym(2)
        space = om.power_set_space(1)
        mu = om.Measure(space, l2, {1: om.finite(om.sym_matrix([[1, 0], [0, 1]]))})
        f = om.ext_function(space, [1])
        seq = SequenceSpec(lambda n: f)
        with pytest.raises(HypothesisError, match="sigma-Dedekind"):
            om.fatou(mu, seq, horizon=8)

    def test_dct_stabilizing(self):
        mu = basic_measure()
        f = om.signed_function(mu.space, [1, -1])
        g = om.ext_function(mu.space, [2, 2])
        seq = from_terms([om.signed_function(mu.space, [0, 0]), f])
        report = om.dct(mu, seq, f, g)
        assert report.ok
        assert report.details["part3_mode"]["mode"] == "stabilized"

    def test_dct_geometric_parts(self):
        mu = basic_measure()
        f = om.signed_function(mu.space, [1, 1])
        g = om.ext_function(mu.space, [2, 2])
        def gen(n):
            v = 1 + Fraction(-1, 2) ** n
            return om.signed_function(mu.space, [v, v])
        seq = SequenceSpec(gen, metadata=DeclaredLimit(f))
        report = om.dct(mu, seq, f, g)
        assert report.ok
        gaps = report.details["part3_mode"]["gaps"]
        assert gaps[-1]["epsilon"] == "1/65536"

    def test_dct_domination_violation(self):
        mu = basic_measure()
        f = om.signed_function(mu.space, [0, 0])
        g = om.ext_function(mu.space, [1, 1])
        seq = from_terms([om.signed_function(mu.space, [2, 0]), f])
        with pytest.raises(HypothesisError, match="domination"):
            om.dct(mu, seq, f, g)

    def test_dct_unbounded_dominator(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: om.infinity(C2), 2: fin(0, 1)})
        f = om.signed_function(space, [0, 0])
        g = om.ext_function(space, [1, 1])
        seq = from_terms([f])
        with pytest.raises(HypothesisError, match="finite integral"):
            om.dct(mu, seq, f, g)

    def test_dct_rejects_loewner(self):
        l2 = om.loewner_sym(2)
        space = om.power_set_space(1)
        mu = om.Measure(space, l2, {1: om.finite(om.sym_matrix([[1, 0], [0, 1]]))})
        f = om.signed_function(space, [1])
        g = om.ext_function(space, [2])
        seq = from_terms([f])
        with pytest.raises(HypothesisError, match="sigma-Dedekind"):
            om.dct(mu, seq, f, g)

    def test_dct_sandwich_matches_liminf_limsup(self):
        # on a stabilizing sequence the part-4 sandwich value agrees with the
        # exact liminf/limsup of the integral sequence: the infimum and the
        # supremum of its declared cycle
        mu = basic_measure()
        f = om.signed_function(mu.space, [1, -1])
        g = om.ext_function(mu.space, [2, 2])
        terms = [om.signed_function(mu.space, [0, 0]), f]
        seq = from_terms(terms)
        report = om.dct(mu, seq, f, g)
        assert report.ok
        ints = from_terms([om.integrate_signed(t, mu) for t in terms])
        samples, pre, period = declared_cycle(ints, 16)
        cycle = samples[pre:pre + period]
        lo, hi = reduce(spaces.inf_pair, cycle), reduce(spaces.sup_pair, cycle)
        assert lo == hi == om.integrate_signed(f, mu)


def dct_pointwise_message(terms, f, epsilons):
    """Oracle for the pointwise certificate of `dct`: the full tail scan it
    replaced, as the message of the first point and epsilon that fail."""
    for x in range(len(f.values)):
        distances = [abs(t.values[x] - f.values[x]) for t in terms]
        for eps in epsilons:
            if not any(all(d <= eps for d in distances[i:])
                       for i in range(len(distances))):
                return f"pointwise convergence gap {eps} at point {x} not certified"
    return None


class TestDctPointwise:
    @given(st.lists(st.tuples(st.fractions(-2, 2, max_denominator=4),
                              st.fractions(-2, 2, max_denominator=4)),
                    min_size=1, max_size=10),
           st.tuples(st.sampled_from([0, Fraction(1, 16), Fraction(1, 4), 1]),
                     st.sampled_from([0, Fraction(-1, 16), Fraction(1, 2)])))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_tail_scan(self, rows, offsets):
        # the limit sits near the last term, so some tails are certified
        mu = basic_measure()
        f = om.signed_function(mu.space, [v + o for v, o in zip(rows[-1], offsets)])
        terms = [om.signed_function(mu.space, r) for r in rows]
        seq = claiming(terms, f)
        epsilons = [Fraction(1, 2), Fraction(1, 8)]
        expected = dct_pointwise_message(terms, f, epsilons)
        raised = _certification_message(om.dct, mu, seq, f,
                                        om.ext_function(mu.space, [3, 3]), len(terms),
                                        epsilons)
        if expected is not None:
            assert raised == expected
        else:
            assert raised is None or not raised.startswith("pointwise")


class TestTriangle:
    def test_nonnegative_equality(self):
        mu = basic_measure()
        f = om.signed_function(mu.space, [2, 3])
        report = om.triangle_inequality(mu, f)
        assert report.ok
        assert report.details["abs_of_integral"] == ["2", "3"]

    def test_cancellation(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: fin(1, 1), 2: fin(1, 1)})
        f = om.signed_function(space, [1, -1])
        report = om.triangle_inequality(mu, f)
        assert report.ok
        assert report.details["abs_of_integral"] == ["0", "0"]
        assert report.details["integral_of_abs"] == {"finite": ["2", "2"]}

    def test_sign_symmetry(self):
        mu = basic_measure()
        f = om.signed_function(mu.space, [1, -2])
        g = om.signed_function(mu.space, [-1, 2])
        assert om.integrate_extended(f.abs(), mu).value == \
            om.integrate_extended(g.abs(), mu).value

    def test_rejects_loewner(self):
        l2 = om.loewner_sym(2)
        space = om.power_set_space(1)
        mu = om.Measure(space, l2, {1: om.finite(om.sym_matrix([[1, 0], [0, 1]]))})
        with pytest.raises(HypothesisError, match="sigma-Dedekind"):
            om.triangle_inequality(mu, om.signed_function(space, [1]))


class TestPushForward:
    def test_identity_map(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 2])
        report = om.push_forward(mu, C2, [["1", "0"], ["0", "1"]], f)
        assert report.ok

    def test_sum_map(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 1])
        report = om.push_forward(mu, om.reals(), [[1, 1]], f)
        assert report.ok
        assert report.details["image_integral"] == ["2"]

    def test_zero_map(self):
        mu = basic_measure()
        f = om.ext_function(mu.space, [1, 1])
        report = om.push_forward(mu, om.reals(), [[0, 0]], f)
        assert report.ok
        assert report.details["image_integral"] == ["0"]

    def test_signed_function(self):
        mu = basic_measure()
        f = om.signed_function(mu.space, [1, -1])
        assert om.push_forward(mu, om.reals(), [[1, 1]], f).ok

    def test_requires_finite_measure(self):
        space = om.power_set_space(1)
        mu = om.Measure(space, C2, {1: om.infinity(C2)})
        with pytest.raises(HypothesisError, match="finite"):
            om.push_forward(mu, om.reals(), [[1, 1]])

    def test_rejects_negative_entries(self):
        mu = basic_measure()
        with pytest.raises(ValidationError):
            om.push_forward(mu, om.reals(), [[1, -1]])

    def test_additivity_over_maps(self, rng):
        # pushing through T1 + T2 equals the atomwise sum of the two images
        for _ in range(20):
            ground = rng.randint(1, 4)
            space = random_algebra(rng, ground)
            mu = random_measure(rng, space, C2, inf_prob=0)
            t1 = [[nonneg_rational(rng, hi=2) for _ in range(2)]]
            t2 = [[nonneg_rational(rng, hi=2) for _ in range(2)]]
            tsum = [[a + b for a, b in zip(t1[0], t2[0])]]
            dense = [Fraction(0)] * ground
            for atom in space.atoms:
                v = nonneg_rational(rng, 3)
                for x in mask_to_points(atom):
                    dense[x] = v
            f = om.ext_function(space, dense)
            rs = om.push_forward(mu, om.reals(), tsum, f)
            r1 = om.push_forward(mu, om.reals(), t1, f)
            r2 = om.push_forward(mu, om.reals(), t2, f)
            assert rs.ok and r1.ok and r2.ok
            total = Fraction(rs.details["image_integral"][0])
            assert total == Fraction(r1.details["image_integral"][0]) + \
                Fraction(r2.details["image_integral"][0])


class TestL1Quotient:
    def test_null_bump_same_class(self):
        mu = null_atom_measure()
        f = om.signed_function(mu.space, [1, -1, 0])
        g = om.signed_function(mu.space, [1, -1, 4])
        report = om.l1_quotient(mu, [f, g])
        assert report.ok
        assert report.details["classes"] == [[0, 1]]

    def test_strict_positivity(self):
        mu = null_atom_measure()
        h = om.signed_function(mu.space, [0, 0, 2])
        report = om.l1_quotient(mu, [h])
        assert report.ok

    def test_zero_class_integral(self):
        mu = null_atom_measure()
        z = om.signed_function(mu.space, [0, 0, 0])
        assert om.integrate_signed(z, mu) == om.zero(C2)

    def test_rejects_non_integrable(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: om.infinity(C2), 2: fin(0, 1)})
        with pytest.raises(NotIntegrableError):
            om.l1_quotient(mu, [om.signed_function(space, [1, 0])])

    def test_lattice_ops_descend(self, rng):
        mu = null_atom_measure()
        for _ in range(20):
            core = [rng.randint(-3, 3), rng.randint(-3, 3)]
            f1 = om.signed_function(mu.space, core + [rng.randint(-3, 3)])
            f2 = om.signed_function(mu.space, core + [rng.randint(-3, 3)])
            g = om.signed_function(mu.space, [rng.randint(-3, 3) for _ in range(3)])
            assert om.l1_quotient(mu, [f1, f2, g]).ok
