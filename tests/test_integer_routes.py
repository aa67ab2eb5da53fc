"""Functions as integer numerators over one denominator, against Fractions.

The closed form, the truncation ladder and `truncate`, the derived
functions and the generated sequence terms compute on the numerators of a
function, and the ladder sums its rungs on a measure's atom table of
numerators over one denominator.  Each is compared here with the Fraction computation it replaced
(`tests/integral_oracles.py`), on all four backends, with infinite points,
null atoms, infinite atoms and large coprime denominators.  Then a guard:
running a shipped scenario builds no more Fractions at horizon 256 than at
horizon 64, so no Fraction is made per sequence term.
"""

import cProfile
import fractions
import math
import pstats
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import integral, integral_checks, scenarios
from ordmeasure.rationals import INFINITY, over_one_den

import integral_oracles as oracle

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
BACKENDS = [om.reals(), om.coord(2), om.entrywise_mat(1, 2), om.loewner_sym(2)]
# Pairwise coprime, and coprime to the small denominators.
LARGE_DENOMINATORS = [2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1]


def scalars(signed=False):
    """Zero, small fractions, and fractions over large coprime denominators."""
    low = -6 if signed else 0
    return st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=low, max_value=6, max_denominator=7),
        st.builds(Fraction, st.integers(low * 10**12, 6 * 10**12),
                  st.sampled_from(LARGE_DENOMINATORS)),
    )


@st.composite
def positive_elements(draw, backend):
    entry = scalars(signed=backend.kind is om.SpaceKind.LOEWNER_SYM)
    if backend.kind is om.SpaceKind.LOEWNER_SYM:  # B B^T
        b = [[draw(entry) for _ in range(2)] for _ in range(2)]
        return om.sym_matrix([[sum(b[i][k] * b[j][k] for k in range(2)) for j in range(2)]
                              for i in range(2)])
    return om.Element(backend, tuple(draw(entry) for _ in range(backend.ncoords)))


@st.composite
def cases(draw, signed=False):
    """A measure with infinite and null atoms, and per-point values of a
    function constant on its atoms; infinity among them unless signed."""
    backend = draw(st.sampled_from(BACKENDS))
    ground = draw(st.integers(1, 4))
    gens = draw(st.lists(st.integers(0, (1 << ground) - 1), max_size=3))
    space = (om.power_set_space(ground) if draw(st.booleans())
             else om.generate_sigma_algebra(gens, ground))
    kinds = st.sampled_from(["infinite", "null", "positive", "positive"])
    atom_values = {}
    for atom in space.atoms:
        kind = draw(kinds)
        atom_values[atom] = (om.infinity(backend) if kind == "infinite"
                             else om.finite(om.zero(backend)) if kind == "null"
                             else om.finite(draw(positive_elements(backend))))
    value = scalars(signed) if signed else st.one_of(scalars(), st.just(INFINITY))
    dense = [None] * ground
    for atom in space.atoms:
        v = draw(value)
        for x in om.mask_to_points(atom):
            dense[x] = v
    return om.Measure(space, backend, atom_values), dense


class TestIntegralRoutes:
    @given(cases(), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_routes_and_rungs_match_the_fraction_oracles(self, case, level):
        mu, dense = case
        f = om.ext_function(mu.space, dense)
        oracle.assert_routes_agree(om.integrate_extended(f, mu), f, mu)
        phi = om.truncate(f, level)
        terms = oracle.truncate_terms(f, level)
        assert phi == om.ElementaryFunction(mu.space, terms)
        assert phi == oracle.elementary_from_dense(mu.space, phi.dense_values())
        assert oracle.combination_rung_integral(phi, mu) == oracle.rung_integral(terms, mu)

    @given(cases())
    @settings(max_examples=100, deadline=None)
    def test_values_are_the_fraction_tuple(self, case):
        mu, dense = case
        f = om.ext_function(mu.space, dense)
        assert f.values == tuple(dense)
        assert all(v is INFINITY or type(v) is Fraction for v in f.values)
        assert (f.nums, f.den, f.inf) == over_one_den(dense)
        assert f == om.ExtFunction(mu.space, f.values)
        assert f == om.ExtFunction.from_nums(
            mu.space, tuple(3 * n for n in f.nums), 3 * f.den, f.inf)


class TestAtomTable:
    """`Measure.atom_table`: each atom's first point and its value as integer
    numerators over the lcm of the finite atom denominators, or None."""

    @given(cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_over_the_table_denominator_are_the_atom_values(self, case):
        mu, _ = case
        den, rows = mu.atom_table
        assert den == math.lcm(*(v.finite.den for v in mu.atom_values.values()
                                 if v.is_finite))
        assert len(rows) == len(mu.space.atoms)
        for atom, (x, row) in zip(mu.space.atoms, rows):
            assert x == om.mask_to_points(atom)[0]
            value = mu.atom_values[atom]
            if value.is_infinite:
                assert row is None
            else:
                assert om.Element(mu.backend, tuple(Fraction(n, den) for n in row)) \
                    == value.finite
        assert mu.atom_table is mu.atom_table

    def test_unrelated_large_denominators(self):
        # Sixteen atoms of LoewnerSym(2), each over its own 19-digit
        # denominator, so the table's denominator has about 1,000 bits.
        space = om.power_set_space(16)
        values = {}
        for i, atom in enumerate(space.atoms):
            q = 10**18 + i
            values[atom] = om.finite(om.sym_matrix(
                [[Fraction(2 + i, q), Fraction(1, q)], [Fraction(1, q), Fraction(1 + i, q)]]))
        finite = [Fraction(7 * i + 1, i + 2) for i in range(16)]
        functions = [finite, finite[:15] + [INFINITY], [0] * 8 + finite[8:]]
        start = time.perf_counter()
        reports = [om.integrate_extended(om.ext_function(space, v),
                                         om.Measure(space, om.loewner_sym(2), values))
                   for v in functions]
        elapsed = time.perf_counter() - start
        assert math.lcm(*(10**18 + i for i in range(16))).bit_length() > 900
        mu = om.Measure(space, om.loewner_sym(2), values)
        for v, report in zip(functions, reports):
            oracle.assert_routes_agree(report, om.ext_function(space, v), mu)
        assert [r.trail["mode"] for r in reports] == ["stabilized", "divergent",
                                                      "stabilized"]
        assert elapsed < 2.0


class TestDerivedFunctions:
    @given(cases(signed=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_signed_derivations_match_fraction_values(self, case, data):
        mu, dense = case
        other = data.draw(cases(signed=True).filter(
            lambda c: c[0].space.ground_size == mu.space.ground_size))[1]
        space = om.power_set_space(mu.space.ground_size)
        f, g = om.signed_function(space, dense), om.signed_function(space, other)
        a, b = f.values, g.values
        assert f.abs().values == tuple(map(abs, a))
        assert f.sup_with(g).values == tuple(map(max, a, b))
        assert f.inf_with(g).values == tuple(map(min, a, b))
        c = max(map(abs, a)) + 1
        shifted, shift_only = integral._shifted_parts(space, f.nums, f.den)
        assert tuple(Fraction(n, shifted[1]) for n in shifted[0]) == tuple(
            v + c if v else v for v in a)
        assert tuple(Fraction(n, shift_only[1]) for n in shift_only[0]) == tuple(
            c if v else 0 for v in a)

    @given(cases(), cases(), scalars(), scalars())
    @settings(max_examples=200, deadline=None)
    def test_combine_matches_the_extended_scalar_fold(self, first, second, r1, r2):
        ground = min(len(first[1]), len(second[1]))
        space = om.power_set_space(ground)
        f = om.ext_function(space, first[1][:ground])
        g = om.ext_function(space, second[1][:ground])
        combined = integral_checks.combine(r1, f, r2, g)
        assert combined.values == oracle.combine_values(r1, f, r2, g)


@st.composite
def quotient_cases(draw):
    """A measure with null and infinite atoms, and integrable signed
    functions (zero on the infinite atoms) that often agree off the null
    points: each copies one of two representatives and redraws its value on
    some null atoms, so a denominator may come from a null point alone."""
    mu, _ = draw(cases(signed=True))
    null = mu.null_mask

    def values(base=None):
        dense = [None] * mu.space.ground_size
        for atom, points in mu.space.atom_points.items():
            if mu.atom_values[atom].is_infinite:
                v = Fraction(0)
            elif base is None or (atom & null and draw(st.booleans())):
                v = draw(scalars(signed=True))
            else:
                v = base[points[0]]
            for x in points:
                dense[x] = v
        return dense

    reps = [values(), values()]
    rows = [values(draw(st.sampled_from(reps))) for _ in range(draw(st.integers(1, 5)))]
    return mu, [om.signed_function(mu.space, row) for row in rows]


class TestQuotientClasses:
    """`l1_quotient` keys its classes by integer numerators, against the
    Fraction values it keyed them by before."""

    @given(quotient_cases())
    @settings(max_examples=200, deadline=None)
    def test_partition_matches_the_fraction_keys(self, case):
        mu, functions = case
        null = mu.null_mask
        report = integral_checks.l1_quotient(mu, functions)
        classes = {}
        for i, f in enumerate(functions):
            classes.setdefault(oracle.fraction_class_key(f, null), []).append(i)
        assert report.ok and report.details["classes"] == sorted(classes.values())

    def test_a_denominator_on_a_null_point_alone(self):
        # (nums, den) are ((2, 1), 2) and ((1, 0), 1), yet f = g off the null point
        mu = om.Measure(om.power_set_space(2), om.coord(2),
                        {1: om.finite(om.element(om.coord(2), [1, 0])),
                         2: om.finite(om.zero(om.coord(2)))})
        f = om.signed_function(mu.space, [1, Fraction(1, 2)])
        g = om.signed_function(mu.space, [1, 0])
        assert integral_checks.l1_quotient(mu, [f, g]).details["classes"] == [[0, 1]]


class TestGeneratedTerms:
    """The terms the scenario parser generates, as functions, against the
    Fraction lists of the generators it replaced."""

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        *[st.lists(scalars(signed=True), min_size=n, max_size=n)] * 2,
        st.lists(st.one_of(scalars(), st.just(INFINITY)), min_size=n, max_size=n))),
        st.fractions(min_value=-1, max_value=1, max_denominator=2**40).filter(
            lambda r: abs(r) < 1),
        st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_terms_match(self, lists, ratio, n):
        base, bump, top = lists
        ground = len(base)
        space = om.power_set_space(ground)
        functions = {name: over_one_den(v) for name, v in
                     (("base", base), ("bump", bump), ("top", top))}
        scenario = scenarios.Scenario({}, om.reals(), space, None, None, functions)
        docs = {
            "geometric": ({"kind": "geometric", "base": "base", "bump": "bump",
                           "ratio": om.format_rational(ratio)},
                          oracle.geometric_term(base, bump, ratio, n), "either"),
            "truncation_ladder": ({"kind": "truncation_ladder", "of": "top"},
                                  oracle.ladder_term(top, n), "ext"),
            "scaled_index": ({"kind": "scaled_index", "shape": "bump"},
                             oracle.scaled_term(bump, n), "either"),
        }
        for name, (doc, expected, kind) in docs.items():
            seq, _ = scenarios._parse_sequence(scenario, doc, "/" + name)
            term = scenarios._as_function(integral, space, seq.generator(n), kind, name)
            assert term.values == tuple(expected)


def fraction_constructions(path: Path, horizon: int) -> int:
    """Calls of `Fraction.__new__` while one document is loaded and run."""
    profiler = cProfile.Profile()
    profiler.enable()
    scenario = scenarios.load_scenario(str(path))
    scenarios.run_scenario(scenario, scenarios.RunConfig(horizon=horizon))
    profiler.disable()
    new = fractions.Fraction.__new__.__code__
    return sum(calls for (file, line, _), (_, calls, *_) in
               pstats.Stats(profiler).stats.items()
               if (file, line) == (new.co_filename, new.co_firstlineno))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_no_fraction_per_sequence_term(path):
    """Every number is read, computed and printed as integers: loading and
    running a document makes no Fraction, at any horizon."""
    assert fraction_constructions(path, 256) == fraction_constructions(path, 64) == 0
