"""The sequence checks' integer-row route against the element route it replaced.

`mct`, `mct_decreasing`, `dct` and `fatou` read each sampled term's
integral as an integer row, (nums, den) or None for infinity, from the
integral core (`integral._row`, `integral._signed_row`), certify monotone
limits on rows (`extended.certify_monotone_limit`), and take the tail
windows of `dct` with `spaces.row_lattice`.  Here, on generated measures
on `reals`, `coord` and `entrywise_mat` and on monotone or signed sequences
of functions:

- each row is the value of `integrate_extended`, of the Fraction fold
  `integral_oracles.closed_form_integral`, or of `integrate_signed` and of
  f+ - f- through `integrate_extended`;
- the row certifier gives the trail, or refuses with the message, of the
  element certifier it replaced (`integral_oracles.ext_certify_monotone_limit`);
- the window infima and suprema are the folds of the Fraction oracles
  `frac_inf_pair` and `frac_sup_pair` on the integrals' coordinates, and
  the gaps `dct` certifies are the first indices that a scan of the
  integrals' coordinates with the Fraction oracles finds.

The element operations of `spaces` run on the same row kernels, so the
signed integrals, windows and gaps are compared with the Fraction oracles
of `integral_oracles` instead.
"""

from datetime import timedelta
from fractions import Fraction
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import extended, integral, spaces
from ordmeasure.errors import CertificationError, NotIntegrableError, OrdMeasureError
from ordmeasure.rationals import INFINITY, format_rational
from ordmeasure.sequences import DeclaredLimit, SequenceSpec

import integral_oracles as oracle

BUDGET = settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
BACKENDS = [om.reals(), om.coord(2), om.coord(3), om.entrywise_mat(2, 2)]
EPSILONS = [((1, 2), (1, 8)), ((1, 16),), ((1, 3), (1, 7))]  # as the certifiers take them
small = st.fractions(min_value=0, max_value=4, max_denominator=6)
positive = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)
signed = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def measures(draw, infinite_atoms=True):
    """A measure on a power set or generated algebra of 1 to 4 points, with
    null, positive and (when allowed) infinite atoms."""
    backend = draw(st.sampled_from(BACKENDS))
    ground = draw(st.integers(1, 4))
    gens = draw(st.lists(st.integers(0, (1 << ground) - 1), max_size=2))
    space = (om.power_set_space(ground) if draw(st.booleans())
             else om.generate_sigma_algebra(gens, ground))
    kinds = ["positive"] * 4 + ["null"] + ["infinite"] * infinite_atoms
    values = {}
    for atom in space.atoms:
        kind = draw(st.sampled_from(kinds))
        values[atom] = (om.infinity(backend) if kind == "infinite"
                        else om.finite(om.zero(backend)) if kind == "null"
                        else om.finite(om.Element(backend, tuple(
                            draw(positive) for _ in range(backend.ncoords)))))
    return om.Measure(space, backend, values)


def dense(space, per_atom: dict) -> list:
    """Values at each point from values at each atom."""
    out = [None] * space.ground_size
    for atom, points in space.atom_points.items():
        for x in points:
            out[x] = per_atom[atom]
    return out


RATES = {"geometric": lambda n, k: Fraction(1, 2**n), "harmonic": lambda n, k: Fraction(1, n),
         "stops": lambda n, k: Fraction(max(0, k - n))}


@st.composite
def monotone_cases(draw):
    """(mu, terms, target, increasing, epsilons): h extended functions that
    move monotonically towards a limit at each atom, at a geometric or
    harmonic rate or stopping at some index, or that grow without bound
    (possibly reaching infinity) when increasing; rarely with two terms
    swapped.  The target is the integral of the limits, sometimes moved by
    a tiny, a small or a large amount, or to the wrong side."""
    mu = draw(measures())
    increasing = draw(st.booleans())
    h = draw(st.integers(2, 12))
    rate, stop = RATES[draw(st.sampled_from(sorted(RATES)))], draw(st.integers(1, 12))
    sign = 1 if increasing else -1
    columns, limits = {}, {}
    for atom in mu.space.atoms:
        step = draw(positive)
        if increasing and draw(st.integers(0, 5)) == 0:
            # infinite from term `reach` on, or finite and unbounded
            reach = draw(st.one_of(st.just(h + 1), st.integers(1, h)))
            columns[atom] = [INFINITY if n >= reach else n * step for n in range(1, h + 1)]
            limits[atom] = INFINITY
        else:
            limits[atom] = limit = draw(small)
            columns[atom] = [max(Fraction(0), limit - sign * rate(n, stop) * step)
                             for n in range(1, h + 1)]
    terms = [om.ext_function(mu.space, dense(mu.space, {a: c[n] for a, c in columns.items()}))
             for n in range(h)]
    if h > 1 and draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, h - 2))
        terms[i], terms[i + 1] = terms[i + 1], terms[i]
    move = sign * draw(st.sampled_from([Fraction(0), Fraction(1, 2**20),
                                        Fraction(1, 3), Fraction(2), Fraction(-1, 3)]))
    moved = {a: v if v is INFINITY else max(Fraction(0), v + move) for a, v in limits.items()}
    target = om.ext_function(mu.space, dense(mu.space, moved))
    return mu, terms, target, increasing, draw(st.sampled_from(EPSILONS))


def _certificate(certify, *args):
    try:
        return certify(*args)
    except CertificationError as exc:
        return str(exc)


@BUDGET
@given(monotone_cases())
def test_monotone_rows_and_certificate_match_the_element_route(case):
    mu, terms, target, increasing, epsilons = case
    rows = [integral._row(t, mu) for t in terms]
    values = [om.integral_value(t, mu) for t in terms]
    for t, row, value in zip(terms, rows, values):
        assert oracle.ext_value(mu, row) == value == oracle.closed_form_integral(t, mu)
    target_row, target_value = integral._row(target, mu), om.integral_value(target, mu)
    assert oracle.ext_value(mu, target_row) == target_value
    assert (_certificate(extended.certify_monotone_limit, mu.backend, rows, target_row,
                         epsilons, increasing)
            == _certificate(oracle.ext_certify_monotone_limit, values, target_value,
                            epsilons, increasing))


@st.composite
def signed_cases(draw):
    """(mu, terms, f): signed functions on a measure, one of whose atoms may
    be infinite, so that some terms are not integrable."""
    mu = draw(measures(infinite_atoms=draw(st.integers(0, 3)) == 0))
    h = draw(st.integers(1, 8))

    def function():
        return om.signed_function(mu.space, dense(mu.space, {a: draw(signed)
                                                             for a in mu.space.atoms}))
    return mu, [function() for _ in range(h)], function()


def _signed(f, mu):
    """The coordinates of `_signed_row`, asked only of a function that
    `is_integrable` admits, as its callers do, or NotIntegrableError."""
    if not integral.is_integrable(f, mu):
        return NotIntegrableError
    return oracle.ext_value(mu, integral._signed_row(f, mu)).payload().coords


def _element_signed(f, mu):
    """The coordinates of f+ - f- through `integrate_extended`, subtracted
    by the Fraction oracle, or NotIntegrableError; f+ and f- are built from
    f's Fraction values."""
    pos, neg = (om.integral_value(om.ext_function(f.space, [max(s * v, 0) for v in f.values]),
                                  mu) for s in (1, -1))
    if pos.is_infinite or neg.is_infinite:
        return NotIntegrableError
    return oracle.frac_sub(pos.finite.coords, neg.finite.coords)


def _distance(t, f):
    """|t - f|, built from the Fraction values of two signed functions."""
    return om.ext_function(f.space, [abs(a - b) for a, b in zip(t.values, f.values)])


@BUDGET
@given(signed_cases())
def test_signed_rows_and_windows_match_the_element_route(case):
    mu, terms, f = case
    for t in terms + [f]:
        expected = _element_signed(t, mu)
        assert _signed(t, mu) == expected
        assert integral.is_integrable(t, mu) == (expected is not NotIntegrableError)
        if expected is NotIntegrableError:
            with pytest.raises(NotIntegrableError,
                               match=r"^the function has an infinite \|f\| integral$"):
                om.integrate_signed(t, mu)
        else:
            assert om.integrate_signed(t, mu).coords == expected
    if _element_signed(f, mu) is NotIntegrableError or any(
            _element_signed(t, mu) is NotIntegrableError for t in terms):
        return
    for t in terms:  # the deviations |t - f| of `dct`
        row = integral._core(mu, *integral._pointwise_part(integral._distance, t, f))[0]
        assert oracle.ext_value(mu, row) == om.integral_value(_distance(t, f), mu)
    backward = [integral._signed_row(t, mu) for t in reversed(terms)]
    coords = [_element_signed(t, mu) for t in reversed(terms)]
    for op, pair in ((min, oracle.frac_inf_pair), (max, oracle.frac_sup_pair)):
        windows = accumulate(backward, partial(spaces.row_lattice, op))
        assert ([oracle.frac_row(w) for w in windows]
                == list(accumulate(coords, partial(pair, mu.backend))))


def test_the_signed_row_compares_the_shifted_decomposition(monkeypatch):
    # f + c * s one unit too large at every point: f+ - f- no longer equals
    # (f + c * s) - c * s, and the signed integral must refuse.
    space, c2 = om.power_set_space(2), om.coord(2)
    mu = om.Measure(space, c2, {1: om.finite(om.element(c2, [1, 0])),
                                2: om.finite(om.element(c2, [0, 1]))})
    shifted = integral._shifted_parts

    def off_by_one(space, nums, den):
        (lhs, lhs_den), rhs = shifted(space, nums, den)
        return (tuple(n + lhs_den for n in lhs), lhs_den), rhs

    monkeypatch.setattr(integral, "_shifted_parts", off_by_one)
    with pytest.raises(OrdMeasureError, match="^signed integral depends on the decomposition$"):
        om.integrate_signed(om.signed_function(space, [1, -2]), mu)


@st.composite
def dominated_cases(draw):
    """(mu, seq, f): t_n = f + r^n * b for r = 1/2 or -1/2 and a signed bump
    b, declaring its limit f, on a measure with finite atoms; 14 terms reach
    every gap of `DCT_EPSILONS`.  From below, the window infima decide the
    sandwich; from above or alternating, the suprema do."""
    mu = draw(measures(infinite_atoms=False))
    f, bump = ({a: draw(signed) for a in mu.space.atoms} for _ in range(2))
    ratio = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 2)]))

    def term(n):
        return om.signed_function(mu.space, dense(mu.space, {
            a: f[a] + ratio**n * bump[a] for a in mu.space.atoms}))
    limit = om.signed_function(mu.space, dense(mu.space, f))
    return mu, SequenceSpec(term, metadata=DeclaredLimit(limit)), limit


DCT_EPSILONS = (Fraction(1, 2), Fraction(1, 8))


def element_gaps(count, reaches) -> list:
    """For each epsilon, the first index 1 .. count whose test passes."""
    return [{"epsilon": format_rational(eps),
             "index": next(i for i in range(1, count + 1) if reaches(eps, i))}
            for eps in DCT_EPSILONS]


@BUDGET
@given(dominated_cases())
def test_dct_gaps_match_a_scan_of_the_element_integrals(case):
    mu, seq, f = case
    terms = seq.sample(14)
    g = om.ext_function(mu.space, [abs(a) + abs(b - a) for a, b in zip(f.values,
                                                                       terms[0].values)])
    report = om.dct(mu, seq, f, g, horizon=14, epsilons=DCT_EPSILONS)
    assert report.ok
    space, unit = mu.backend, spaces.order_unit(mu.backend).coords
    f_int = om.integrate_signed(f, mu)
    deviations = [om.integral_value(_distance(t, f), mu).finite for t in terms]
    if all(d.is_zero() for d in deviations):
        assert report.details["part3_mode"] == {"mode": "stabilized", "at": 1}
        return
    ints = [om.integrate_signed(t, mu).coords for t in terms]

    def within(eps, i):  # every integral from term i on is within eps * unit of f's
        bump = oracle.frac_scale(eps, unit)
        lower, upper = oracle.frac_sub(f_int.coords, bump), oracle.frac_add(f_int.coords, bump)
        return all(oracle.frac_leq(space, lower, v) and oracle.frac_leq(space, v, upper)
                   for v in ints[i - 1:])
    assert report.details["part3_mode"]["gaps"] == element_gaps(
        14, lambda eps, i: oracle.frac_leq(space, deviations[i - 1].coords,
                                           oracle.frac_scale(eps, unit)))
    assert report.details["part4_mode"]["gaps"] == element_gaps(14, within)
    assert report.details["limit_integral"] == extended.ext_to_json(om.finite(f_int))
