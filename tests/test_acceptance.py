"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is exact (zero tolerance); epsilon schedules only choose
which exact inequalities get certified.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ordmeasure as om
from ordmeasure.errors import HypothesisError
from ordmeasure.integral import ElementaryFunction, integrate_elementary
from ordmeasure.measures import mask_to_points
from ordmeasure.rationals import INFINITY
from ordmeasure.scenarios import load_scenario, run_scenario
from ordmeasure.sequences import SequenceSpec, from_terms

from conftest import (
    nonneg_rational,
    random_ext_element,
    random_measure,
)
from integral_oracles import assert_routes_agree, ext_scalar_leq, ext_scalar_mul

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def announce(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def run_shipped(name: str) -> dict:
    return run_scenario(load_scenario(str(SCENARIO_DIR / f"{name}.json")))


def test_criterion_1_extended_cone_laws():
    backends = [om.reals(), om.coord(3), om.entrywise_mat(2, 2), om.loewner_sym(2)]
    scalars = [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3), INFINITY]
    cases_per_backend = 1000
    start = time.monotonic()
    for backend in backends:
        rng = random.Random(f"laws-{backend.describe()}")
        zero = om.finite(om.zero(backend))
        for _ in range(cases_per_backend):
            a = random_ext_element(rng, backend)
            b = random_ext_element(rng, backend)
            c = random_ext_element(rng, backend)
            # abelian monoid laws
            assert om.ext_add(om.ext_add(a, b), c) == om.ext_add(a, om.ext_add(b, c))
            assert om.ext_add(a, b) == om.ext_add(b, a)
            assert om.ext_add(a, zero) == a
            # order compatibility with translation: a <= a + p for positive p
            p = random_ext_element(rng, backend, positive=True)
            assert om.ext_leq(a, om.ext_add(a, p))
            if om.ext_leq(a, b):
                assert om.ext_leq(om.ext_add(a, c), om.ext_add(b, c))
            # scalar action compatibility on the positive cone
            x = random_ext_element(rng, backend, positive=True)
            y = om.ext_add(x, p)
            r, s = rng.choice(scalars), rng.choice(scalars)
            assert om.ext_scale(r, om.ext_scale(s, x)) == \
                om.ext_scale(ext_scalar_mul(r, s), x)
            if ext_scalar_leq(r, s):
                assert om.ext_leq(om.ext_scale(r, x), om.ext_scale(s, y))
    elapsed = time.monotonic() - start
    announce(1, elapsed < 10.0,
             f"{cases_per_backend} cases x {len(backends)} backends, "
             f"exact, {elapsed:.2f}s (< 10s)")


def test_criterion_2_measure_identity_suite():
    rng = random.Random("identities")
    backend = om.coord(2)
    start = time.monotonic()
    measures = 0
    pairs = 0
    infinite_measures = 0
    while measures < 200:
        ground = rng.randint(1, 8)
        if ground <= 5:
            space = om.power_set_space(ground) if rng.random() < 0.5 else \
                om.generate_sigma_algebra(
                    [rng.randint(0, (1 << ground) - 1) for _ in range(2)], ground)
        else:
            space = om.generate_sigma_algebra(
                [rng.randint(0, (1 << ground) - 1) for _ in range(2)], ground)
        mu = random_measure(rng, space, backend, inf_prob=0.25)
        if not mu.is_finite:
            infinite_measures += 1
        report = om.check_measure_identities(mu)
        assert report.ok, report.details
        pairs += report.details["pairs_checked"]
        measures += 1
    elapsed = time.monotonic() - start
    announce(2, elapsed < 30.0 and infinite_measures > 20,
             f"{measures} measures, {pairs} set pairs exhaustively checked, "
             f"{infinite_measures} with infinite atoms, {elapsed:.2f}s (< 30s)")


def test_criterion_3_continuity_and_borel_cantelli():
    below = run_shipped("continuity_below_basic")
    above = run_shipped("continuity_above_basic")
    expected_failure = run_shipped("continuity_above_infinite")
    bc = run_shipped("borel_cantelli_parts")
    ok = all(r["all_ok"] for r in (below, above, expected_failure, bc))
    assert expected_failure["checks"][0]["status"] == "hypothesis-not-met"
    parts = bc["checks"]
    assert parts[0]["details"]["part1"] == "holds"
    assert parts[1]["details"]["part2"] == "holds"
    announce(3, ok, "continuity below/above, infinite-hypothesis failure, "
                    "and both Borel-Cantelli parts reproduce exactly")


def _random_outer_measures(rng, backend):
    """A labelled mix of valid outer-measure constructions."""
    from outer_builders import constant_outer, hitting_outer, pointwise_sup_outer
    builders = [hitting_outer, pointwise_sup_outer, constant_outer]
    outers = []
    for i in range(50):
        ground = rng.randint(2, 5) if i % 10 else 6
        outers.append(builders[i % len(builders)](rng, ground, backend))
    return outers


def test_criterion_4_caratheodory():
    from outer_builders import null_sets

    rng = random.Random("caratheodory")
    backend = om.coord(2)
    start = time.monotonic()
    outers = _random_outer_measures(rng, backend)
    for _ in range(10):
        ground = rng.randint(1, 5)
        space = om.power_set_space(ground) if rng.random() < 0.5 else \
            om.generate_sigma_algebra(
                [rng.randint(0, (1 << ground) - 1) for _ in range(2)], ground)
        outers.append(om.induce_outer(random_measure(rng, space, backend)))
    checked = 0
    for nu in outers:
        space, restricted = om.extract_measurable_algebra(nu)  # validates closure
        assert om.check_measure_identities(restricted).ok
        for mask in null_sets(nu):
            assert om.caratheodory_measurable(nu, mask)
        checked += 1

    two_point = run_shipped("caratheodory_two_point")
    family = two_point["checks"][0]["details"]["measurable_family"]
    elapsed = time.monotonic() - start
    announce(4, elapsed < 60.0 and family == [[], [0, 1]],
             f"{checked} outer measures extracted exhaustively, null sets "
             f"measurable, two-point family {family}, {elapsed:.2f}s (< 60s)")


def test_criterion_5_integral_oracle_equivalence():
    rng = random.Random("oracle")
    backend = om.coord(2)
    pool = [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3), Fraction(4),
            INFINITY]
    pairs = 0
    infinite_inputs = 0
    for _ in range(500):
        ground = rng.randint(1, 5)
        space = om.power_set_space(ground)
        mu = random_measure(rng, space, backend, inf_prob=0.25)
        f = om.ext_function(space, [rng.choice(pool) for _ in range(ground)])
        report = om.integrate_extended(f, mu)
        assert_routes_agree(report, f, mu)
        if report.value.is_infinite:
            infinite_inputs += 1
        pairs += 1
    # representation independence under randomized re-representations
    reps = 0
    for _ in range(200):
        ground = rng.randint(1, 5)
        space = om.power_set_space(ground)
        mu = random_measure(rng, space, backend, inf_prob=0.2)
        terms = tuple(
            (nonneg_rational(rng), rng.randint(0, (1 << ground) - 1))
            for _ in range(rng.randint(0, 4))
        )
        phi = ElementaryFunction(space, terms)
        base = integrate_elementary(phi, mu)
        split = []
        for coeff, mask in terms:
            points = mask_to_points(mask)
            cut = rng.randint(0, len(points))
            left = om.points_to_mask(points[:cut])
            right = om.points_to_mask(points[cut:])
            if left:
                split.append((coeff, left))
            if right:
                split.append((coeff, right))
        rng.shuffle(split)
        assert integrate_elementary(ElementaryFunction(space, tuple(split)), mu) == base
        reps += 1
    announce(5, True, f"{pairs} closed-form/ladder agreements "
                      f"({infinite_inputs} infinite), {reps} re-representations")


def test_criterion_6_convergence_theorems():
    reports = {}
    for name in ("mct_basic", "mct_divergent", "mct_decreasing_basic",
                 "mct_decreasing_infinite", "fatou_alternating", "fatou_constant",
                 "dct_stabilizing", "dct_geometric", "series_truncation"):
        reports[name] = run_shipped(name)
        assert reports[name]["all_ok"], (name, reports[name])

    fatou = reports["fatou_alternating"]["checks"][0]["details"]
    assert fatou["lhs"] == {"finite": ["0", "0"]}
    assert fatou["rhs"] == {"finite": ["1", "1"]}
    assert fatou["strict"] is True

    deepest = Fraction(1, 2**16)
    mct_gaps = reports["mct_basic"]["checks"][0]["details"]["certification"]["gaps"]
    assert mct_gaps[-1]["epsilon"] == "1/65536"
    dct_details = reports["dct_geometric"]["checks"][0]["details"]
    assert dct_details["part3_mode"]["gaps"][-1]["epsilon"] == "1/65536"
    assert dct_details["part4_mode"]["gaps"][-1]["epsilon"] == "1/65536"
    assert dct_details["part1_terms_integrable"] == "holds"
    assert dct_details["part2_limit_integrable"] == "holds"
    assert dct_details["part3_deviation_infimum"] == "holds"
    assert dct_details["part4_sandwich"] == "holds"
    announce(6, True, f"MCT/decreasing/Fatou(strict)/DCT(1-4) hold on all shipped "
                      f"scenarios; gaps certified down to {deepest}")


def test_criterion_7_comparison_experiments():
    start = time.monotonic()
    sup = om.comparison_experiment("sup_measure", 8)
    series = om.comparison_experiment("series_measure", 8)
    elapsed = time.monotonic() - start
    ok = (
        sup["sigma_additivity"] == "holds"
        and sup["tail_sup_norms"] == ["1"] * 8
        and not sup["norm_cauchy"]
        and series["integral"] == ["1"] * 8
        and series["consecutive_partial_distances"] == ["1"] * 7
        and not series["norm_cauchy"]
        and elapsed < 1.0
    )
    announce(7, ok, f"sup_measure and series_measure at N=8 reproduce the "
                    f"norm-failure evidence exactly, {elapsed:.3f}s (< 1s)")


def test_criterion_8_bridge_lemmas():
    rng = random.Random("bridge")
    count = 0
    for dim in (2, 3):
        backend = om.loewner_sym(dim)
        for _ in range(25):
            ground = rng.randint(2, 5)
            space = om.power_set_space(ground)
            mu = random_measure(rng, space, backend, inf_prob=0)
            assert mu.is_finite
            points = list(range(ground))
            rng.shuffle(points)
            sets = []
            while points:
                k = rng.randint(1, len(points))
                sets.append(om.points_to_mask(points[:k]))
                points = points[k:]
            report = om.operator_measure_bridge(mu, sets)
            assert report.ok, report.details
            count += 1
    announce(8, count >= 50,
             f"{count} random PSD measures: order sums match basis-vector sums")


def test_criterion_9_non_lattice_honesty():
    p = om.sym_matrix([[1, 0], [0, 0]])
    q = om.sym_matrix([[0, 0], [0, 1]])
    assert isinstance(om.sup_pair(p, q), om.NoSupremum)

    l2 = om.loewner_sym(2)
    space = om.power_set_space(1)
    mu = om.Measure(space, l2, {1: om.finite(om.sym_matrix([[1, 0], [0, 1]]))})
    f_ext = om.ext_function(space, [1])
    f_signed = om.signed_function(space, [1])
    g = om.ext_function(space, [2])
    seq_ext = SequenceSpec(lambda n: f_ext)
    seq_signed = from_terms([f_signed])
    messages = []
    for op in (
        lambda: om.fatou(mu, seq_ext, horizon=8),
        lambda: om.dct(mu, seq_signed, f_signed, g),
        lambda: om.triangle_inequality(mu, f_signed),
    ):
        with pytest.raises(HypothesisError) as exc:
            op()
        messages.append(str(exc.value))
    ok = all("sigma-Dedekind" in m for m in messages)
    announce(9, ok, "sup_pair declines the diagonal pair; Fatou/DCT/triangle "
                    "reject the Loewner backend naming sigma-Dedekind completeness")
