"""The integral core `integral._core`: its integer closed form against
the Fraction fold it replaced, and the work a pass over the shipped
documents asks of it.

`_closed_form` folds f(atom) * mu(atom) on integers; the oracle
`integral_oracles.closed_form_integral` folds `frac_scale` and `frac_ext_add`
on the Fraction values and coordinates.  They are compared on every backend kind, with
infinite and null atoms, infinite values and large coprime denominators,
and at each corner of the convention 0 * inf = 0.

The pinned counts are the number of two-route evaluations (misses of the
integral memo, so ladder runs), of ladder rungs (`_rung_row` calls) and
of calls of the core (`_core`, memo hits included) in one run of each
shipped document at horizons 64 and 256.  A derived part that reached
the core in another integer form than the function it stands for would
miss the memo and raise the first two; a check that asked the core again
for an integral it has already asked for (whether a function is
integrable, say) would raise the third.

The sequence checks compute on the core's integer rows and build an
element only for a value their report prints, so the elements that one
run of a sequence document builds (`spaces._element` calls) do not grow
with the horizon: an element per sampled term would.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import integral, scenarios, spaces
from ordmeasure.rationals import INFINITY

import integral_oracles as oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BACKENDS = [om.reals(), om.coord(3), om.entrywise_mat(2, 2), om.loewner_sym(2),
            om.loewner_sym(3)]
# Two-route evaluations, rungs and calls of the core (memo hits included)
# per run, at horizon 64 and at horizon 256.
PINNED = {
    "ae_basic": ((3, 7, 9), (3, 7, 9)),
    "borel_cantelli_parts": ((0, 0, 0), (0, 0, 0)),
    "bridge_diagonal": ((0, 0, 0), (0, 0, 0)),
    "bridge_projection": ((0, 0, 0), (0, 0, 0)),
    "caratheodory_induced": ((0, 0, 0), (0, 0, 0)),
    "caratheodory_two_point": ((0, 0, 0), (0, 0, 0)),
    "continuity_above_basic": ((0, 0, 0), (0, 0, 0)),
    "continuity_above_infinite": ((0, 0, 0), (0, 0, 0)),
    "continuity_below_basic": ((0, 0, 0), (0, 0, 0)),
    "dct_geometric": ((195, 520, 390), (771, 2056, 1542)),
    "dct_stabilizing": ((7, 16, 138), (7, 16, 522)),
    "fatou_alternating": ((3, 6, 3), (3, 6, 3)),
    "fatou_constant": ((3, 9, 70), (3, 9, 262)),
    "identities_basic": ((0, 0, 0), (0, 0, 0)),
    "l1_quotient_basic": ((13, 37, 20), (13, 37, 20)),
    "mct_basic": ((65, 130, 66), (257, 514, 258)),
    "mct_decreasing_basic": ((65, 130, 67), (257, 514, 259)),
    "mct_decreasing_infinite": ((1, 1, 1), (1, 1, 1)),
    "mct_divergent": ((65, 193, 66), (257, 769, 258)),
    "nonlattice_rejections": ((0, 0, 0), (0, 0, 0)),
    "push_forward_sum": ((3, 6, 4), (3, 6, 4)),
    "series_truncation": ((4, 14, 67), (4, 14, 259)),
    "triangle_basic": ((5, 12, 11), (5, 12, 11)),
}


def test_every_shipped_document_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_evaluations_and_rungs_per_shipped_document(monkeypatch, name):
    counts = {"_ladder_supremum": 0, "_rung_row": 0, "_core": 0}
    for attr in counts:
        def counting(*args, fn=getattr(integral, attr), attr=attr):
            counts[attr] += 1
            return fn(*args)

        monkeypatch.setattr(integral, attr, counting)
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    seen = []
    for horizon in (64, 256):
        counts.update(dict.fromkeys(counts, 0))
        scenarios.run_scenario(scenarios.parse_scenario(doc),
                               scenarios.RunConfig(horizon=horizon))
        seen.append((counts["_ladder_supremum"], counts["_rung_row"], counts["_core"]))
    assert tuple(seen) == PINNED[name]


@pytest.mark.parametrize("name", ["dct_geometric", "mct_basic", "mct_decreasing_basic",
                                  "mct_divergent"])
def test_elements_per_run_do_not_grow_with_the_horizon(monkeypatch, name):
    built, trusted = [], spaces._element
    monkeypatch.setattr(spaces, "_element", lambda *args: built.append(1) or trusted(*args))
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    seen = []
    for horizon in (64, 256):
        scenario = scenarios.parse_scenario(doc)
        built.clear()
        scenarios.run_scenario(scenario, scenarios.RunConfig(horizon=horizon))
        seen.append(len(built))
    assert seen[0] == seen[1], seen


def positive_element(draw, backend):
    entry = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                      st.builds(Fraction, st.integers(-10**12, 10**12),
                                st.sampled_from([2**31 - 1, 10**9 + 7])))
    if backend.kind is om.SpaceKind.LOEWNER_SYM:  # B B^T
        d = backend.dim
        b = [[draw(entry) for _ in range(d)] for _ in range(d)]
        return om.sym_matrix([[sum(b[i][k] * b[j][k] for k in range(d)) for j in range(d)]
                              for i in range(d)])
    return om.Element(backend, tuple(abs(draw(entry)) for _ in range(backend.ncoords)))


@st.composite
def cases(draw):
    """A measure on any backend kind with infinite, null and positive atoms,
    and an extended function constant on its atoms, with zero, infinite and
    large-denominator values."""
    backend = draw(st.sampled_from(BACKENDS))
    ground = draw(st.integers(1, 5))
    gens = draw(st.lists(st.integers(0, (1 << ground) - 1), max_size=3))
    space = (om.power_set_space(ground) if draw(st.booleans())
             else om.generate_sigma_algebra(gens, ground))
    kind = st.sampled_from(["infinite", "null", "positive", "positive"])
    atom_values = {}
    for atom in space.atoms:
        k = draw(kind)
        atom_values[atom] = (om.infinity(backend) if k == "infinite"
                             else om.finite(om.zero(backend)) if k == "null"
                             else om.finite(positive_element(draw, backend)))
    value = st.one_of(st.just(Fraction(0)), st.just(INFINITY),
                      st.fractions(min_value=0, max_value=9, max_denominator=7),
                      st.builds(Fraction, st.integers(0, 10**12), st.just(998244353)))
    dense = [None] * ground
    for atom, points in space.atom_points.items():
        v = draw(value)
        for x in points:
            dense[x] = v
    return om.Measure(space, backend, atom_values), om.ext_function(space, dense)


def closed_form(f, mu):
    return integral._closed_form(f.nums, f.den, f.inf, mu)


class TestClosedForm:
    @given(cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fraction_fold(self, case):
        mu, f = case
        value = closed_form(f, mu)
        assert oracle.ext_value(mu, value) == oracle.closed_form_integral(f, mu)
        if value is not None:  # canonical: the form an Element stores
            nums, den = value
            assert type(nums) is tuple and den > 0 and math.gcd(den, *nums) == 1

    @pytest.mark.parametrize("backend", BACKENDS, ids=str)
    @pytest.mark.parametrize("value, atom, infinite", [
        (INFINITY, "null", False),  # inf * 0 = 0
        (Fraction(0), "infinite", False),  # 0 * inf = 0
        (INFINITY, "infinite", True),
        (Fraction(1, 3), "infinite", True),
        (INFINITY, "positive", True),
    ])
    def test_zero_times_infinity_corners(self, backend, value, atom, infinite):
        # Point 0 is the corner; point 1 carries 2 on a positive atom.
        unit = om.finite(om.order_unit(backend))
        corner = {"null": om.finite(om.zero(backend)), "infinite": om.infinity(backend),
                  "positive": unit}[atom]
        mu = om.Measure(om.power_set_space(2), backend, {1: corner, 2: unit})
        f = om.ext_function(mu.space, [value, 2])
        expected = oracle.closed_form_integral(f, mu)
        assert expected.is_infinite == infinite
        assert oracle.ext_value(mu, closed_form(f, mu)) == expected
        oracle.assert_routes_agree(om.integrate_extended(f, mu), f, mu)

    def test_no_atoms_in_the_sum_is_zero(self):
        mu = om.Measure(om.power_set_space(2), om.coord(2),
                        {1: om.infinity(om.coord(2)), 2: om.finite(om.zero(om.coord(2)))})
        f = om.ext_function(mu.space, [0, INFINITY])
        assert closed_form(f, mu) == ((0, 0), 1)
