import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure.errors import (MAX_EXHAUSTIVE_ATOMS, CertificationError,
                               DimensionLimitError, HypothesisError, ValidationError)
from ordmeasure.measures import (_atom_partition, _atom_unions, _raise_union_witness,
                                 full_mask, mask_to_points)
from ordmeasure.sequences import SequenceSpec, from_terms

from conftest import random_algebra, random_measure

C2 = om.coord(2)


def fin(x, y):
    return om.finite(om.element(C2, [x, y]))


INF = om.infinity(C2)


def standard_measure():
    """Atoms {0} -> (1,0), {1} -> (0,1), {2} -> infinity."""
    space = om.power_set_space(3)
    return om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1), 4: INF})


class TestSigmaAlgebra:
    def test_generator_closure_by_hand(self):
        # closure of {{0,1},{2}} on three points is the four-set algebra
        space = om.generate_sigma_algebra([0b011, 0b100], 3)
        assert sorted(space.sets) == [0b000, 0b011, 0b100, 0b111]
        assert space.atoms == (0b011, 0b100)

    def test_power_set_atoms_are_singletons(self):
        space = om.power_set_space(2)
        assert space.atoms == (1, 2)
        assert len(space.sets) == 4

    def test_missing_complement_reports_witness(self):
        with pytest.raises(ValidationError, match="complement"):
            om.validate_sigma_algebra([0b00, 0b01, 0b11], 2)

    def test_missing_union_reports_witness(self):
        try:
            om.validate_sigma_algebra([0b000, 0b001, 0b010, 0b110, 0b101, 0b111], 3)
        except ValidationError as exc:
            assert exc.witness is not None
        else:
            pytest.fail("family is not closed under union")

    def test_every_member_is_union_of_atoms(self, rng):
        for _ in range(30):
            space = random_algebra(rng, rng.randint(1, 6))
            for member in space.sets:
                rebuilt = 0
                for atom in space.atoms_inside(member):
                    rebuilt |= atom
                assert rebuilt == member

    def test_validate_power_set(self):
        space = om.validate_sigma_algebra(range(16), 4)
        assert len(space.atoms) == 4

    def test_space_stores_atoms_only(self):
        assert [f.name for f in dataclasses.fields(om.MeasurableSpace)] == [
            "ground_size", "atoms"]
        space = om.power_set_space(64)  # 64 atoms, never 2^64 member sets
        assert len(space.atoms) == 64 and full_mask(64) in space

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cover_matches_member_sets(self, data):
        """`cover(mask) == mask` against membership in the frozenset of all
        unions of atoms, which spaces stored before, on every mask."""
        n = data.draw(st.integers(1, 10))
        if data.draw(st.booleans()):
            space = om.power_set_space(n)
        else:
            gens = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=4))
            space = om.generate_sigma_algebra(gens, n)
        members = frozenset(_atom_unions(space.atoms))
        assert space.members() == sorted(members) and space.sets == members
        for mask in [-1, full_mask(n) + 1, *range(full_mask(n) + 1)]:
            assert (space.cover(mask) == mask) is (mask in members) is (mask in space)
            if 0 <= mask <= full_mask(n):  # the smallest measurable superset
                assert space.cover(mask) == min(m for m in members if m & mask == mask)


def closure_oracle(sets, ground_size):
    """`validate_sigma_algebra` as it decided closure before spaces kept
    atoms only: by building the generated family and comparing."""
    family = frozenset(sets)
    full = full_mask(ground_size)
    for s in family:
        if s < 0 or s > full:
            raise ValidationError(f"set {s} is outside the ground set", witness={"set": s})
    if 0 not in family:
        raise ValidationError("family does not contain the empty set",
                              witness={"missing": []})
    if full not in family:
        raise ValidationError("family does not contain the ground set",
                              witness={"missing": mask_to_points(full)})
    for s in family:
        if (s ^ full) not in family:
            raise ValidationError(
                f"family not closed under complement of {mask_to_points(s)}",
                witness={"complement_of": mask_to_points(s)})
    atoms = _atom_partition(ground_size, family)
    if family != frozenset(_atom_unions(atoms)):
        _raise_union_witness(family)
    return atoms


@st.composite
def families(draw):
    """A generated algebra edited by adding or dropping masks, mostly with
    their complements (so that only union closure can fail), and now and
    then given a set outside the ground set."""
    n = draw(st.integers(2, 5))
    full = full_mask(n)
    masks = st.integers(0, full)
    family = set(om.generate_sigma_algebra(draw(st.lists(masks, max_size=1)), n).members())
    edits = st.sampled_from(["add pair", "add pair", "drop pair", "add", "drop"])
    for mask, edit in draw(st.lists(st.tuples(masks, edits), max_size=3)):
        change = {mask} if edit in ("add", "drop") else {mask, full ^ mask}
        family = family | change if edit.startswith("add") else family - change
    family |= {draw(st.sampled_from([None] * 18 + [-1, full + 1]))} - {None}
    return n, sorted(family)


class TestClosureByCount:
    @given(families())
    @settings(max_examples=300, deadline=None)
    def test_count_matches_generated_family(self, case):
        n, family = case
        try:
            expected = closure_oracle(family, n)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                om.validate_sigma_algebra(family, n)
            assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
        else:
            space = om.validate_sigma_algebra(family, n)
            assert space.atoms == expected and space.members() == family


class TestEvaluate:
    def test_additivity_examples(self):
        mu = standard_measure()
        assert mu.evaluate(0b011) == fin(1, 1)
        assert mu.evaluate(0b101) == INF
        assert mu.evaluate(0) == fin(0, 0)

    def test_non_measurable_rejected(self):
        space = om.generate_sigma_algebra([0b011], 3)
        mu = om.Measure(space, C2, {0b011: fin(1, 0), 0b100: fin(0, 1)})
        with pytest.raises(ValidationError):
            mu.evaluate(0b001)

    def test_atom_order_does_not_matter(self):
        space = om.power_set_space(3)
        values = {1: fin(1, 0), 2: fin(0, 1), 4: fin(2, 2)}
        mu1 = om.Measure(space, C2, values)
        mu2 = om.Measure(space, C2, dict(reversed(list(values.items()))))
        for mask in space.members():
            assert mu1.evaluate(mask) == mu2.evaluate(mask)

    def test_negative_atom_rejected(self):
        space = om.power_set_space(1)
        with pytest.raises(ValidationError):
            om.Measure(space, C2, {1: fin(-1, 0)})

    def test_classification(self):
        assert standard_measure().classification() == {
            "kind": "infinite", "sigma_finite": False}
        space = om.power_set_space(1)
        mu = om.Measure(space, C2, {1: fin(1, 1)})
        assert mu.classification() == {"kind": "finite", "sigma_finite": True}


class TestIdentities:
    def test_standard_measure_all_hold(self):
        report = om.check_measure_identities(standard_measure())
        assert report.ok
        assert report.details["pairs_checked"] == 64

    def test_modularity_instance_with_infinity(self):
        # mu({0,1}) + mu({1,2}) = (1,1) + inf = inf
        #   = mu({1}) + mu(X) = (0,1) + inf
        mu = standard_measure()
        lhs = om.ext_add(mu.evaluate(0b011), mu.evaluate(0b110))
        rhs = om.ext_add(mu.evaluate(0b010), mu.evaluate(0b111))
        assert lhs == rhs == INF

    def test_atom_cap(self):
        over = om.power_set_space(MAX_EXHAUSTIVE_ATOMS + 1)
        mu = om.Measure(over, C2, {a: fin(1, 0) for a in over.atoms})
        with pytest.raises(DimensionLimitError, match=f"<= {MAX_EXHAUSTIVE_ATOMS}, got"):
            om.check_measure_identities(mu)

    def test_random_measures_all_identities(self, rng):
        for _ in range(25):
            ground = rng.randint(1, 5)
            space = random_algebra(rng, ground)
            mu = random_measure(rng, space, C2)
            assert om.check_measure_identities(mu).ok

    def test_null_subset_of_null_set(self, rng):
        for _ in range(25):
            space = random_algebra(rng, rng.randint(1, 6))
            mu = random_measure(rng, space, C2, inf_prob=0.1)
            zero = om.finite(om.zero(C2))
            for d in space.members():
                if mu.evaluate(d) == zero:
                    for d2 in space.members():
                        if d2 & d == d2:
                            assert mu.evaluate(d2) == zero


class TestContinuity:
    def test_below_examples(self):
        mu = standard_measure()
        assert om.continuity_from_below(mu, from_terms([0, 0])).ok
        assert om.continuity_from_below(mu, from_terms([0b001, 0b011])).ok
        assert om.continuity_from_below(mu, from_terms([0b001, 0b011, 0b111])).ok

    def test_below_sup_value(self):
        mu = standard_measure()
        report = om.continuity_from_below(mu, from_terms([0b001, 0b011]))
        assert report.details["value"] == {"finite": ["1", "1"]}

    def test_below_rejects_decreasing(self):
        mu = standard_measure()
        with pytest.raises(CertificationError):
            om.continuity_from_below(mu, from_terms([0b011, 0b001]))

    def test_above_examples(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1)})
        assert om.continuity_from_above(mu, from_terms([0b11, 0b11])).ok
        report = om.continuity_from_above(mu, from_terms([0b11, 0b01]))
        assert report.ok
        assert report.details["value"] == {"finite": ["1", "0"]}

    def test_above_requires_finite_first(self):
        mu = standard_measure()
        with pytest.raises(HypothesisError):
            om.continuity_from_above(mu, from_terms([0b111, 0b001]))

    def test_random_increasing_sequences(self, rng):
        for _ in range(25):
            space = random_algebra(rng, rng.randint(2, 6))
            mu = random_measure(rng, space, C2)
            members = mu.space.members()
            chain = [rng.choice(members)]
            for _ in range(3):
                chain.append(chain[-1] | rng.choice(members))
            assert om.continuity_from_below(mu, from_terms(chain)).ok


class TestBorelCantelli:
    def test_eventually_empty(self):
        mu = standard_measure()
        report = om.borel_cantelli(mu, from_terms([0b001, 0b010, 0]))
        assert report.ok
        assert report.details["limsup_set"] == []
        assert report.details["part1"] == "holds"

    def test_part_one_null_cycle(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: fin(0, 0), 2: fin(3, 3)})
        report = om.borel_cantelli(mu, from_terms([0b01]))
        assert report.ok
        assert report.details["part1"] == "holds"

    def test_part_one_not_applicable_when_sums_diverge(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, C2, {1: fin(1, 0), 2: fin(0, 1)})
        report = om.borel_cantelli(mu, from_terms([0b01]),
                                   x=om.element(C2, [1, 0]))
        assert report.ok
        assert "not-applicable" in report.details["part1"]
        assert report.details["part2"] == "holds"
        assert report.details["limsup_set"] == [0]

    def test_part_two_requires_finite_complement(self):
        mu = standard_measure()
        seq = from_terms([0b101, 0b001])
        with pytest.raises(HypothesisError):
            om.borel_cantelli(mu, seq, x=om.element(C2, [1, 0]))


class TestBridge:
    def test_single_set(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, om.loewner_sym(2), {
            1: om.finite(om.sym_matrix([[1, 0], [0, 0]])),
            2: om.finite(om.sym_matrix([[0, 0], [0, 1]])),
        })
        assert om.operator_measure_bridge(mu, [0b01]).ok

    def test_geometric_projection(self):
        # atoms carry 2^-n P for the rank-one projection P; partial sums are
        # (1 - 2^-N) P and the union evaluates to the same closed form
        proj = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
        space = om.power_set_space(4)
        values = {}
        for i in range(4):
            w = Fraction(1, 2 ** (i + 1))
            values[1 << i] = om.finite(om.sym_matrix(
                [[w * proj[a][b] for b in range(2)] for a in range(2)]))
        mu = om.Measure(space, om.loewner_sym(2), values)
        report = om.operator_measure_bridge(mu, [1 << i for i in range(4)])
        assert report.ok
        expected = om.sym_matrix(
            [[Fraction(15, 32), Fraction(15, 32)], [Fraction(15, 32), Fraction(15, 32)]])
        assert mu.evaluate(0b1111) == om.finite(expected)

    def test_diagonal_atoms(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, om.loewner_sym(2), {
            1: om.finite(om.sym_matrix([[1, 0], [0, 0]])),
            2: om.finite(om.sym_matrix([[0, 0], [0, 1]])),
        })
        report = om.operator_measure_bridge(mu, [1, 2])
        assert report.ok
        assert mu.evaluate(0b11) == om.finite(om.sym_matrix([[1, 0], [0, 1]]))

    def test_requires_matrix_backend(self):
        mu = standard_measure()
        with pytest.raises(HypothesisError):
            om.operator_measure_bridge(mu, [1, 2])

    def test_requires_finite_measure(self):
        space = om.power_set_space(1)
        mu = om.Measure(space, om.loewner_sym(2), {1: om.infinity(om.loewner_sym(2))})
        with pytest.raises(HypothesisError):
            om.operator_measure_bridge(mu, [1])

    def test_rejects_overlapping_sets(self):
        space = om.power_set_space(2)
        mu = om.Measure(space, om.entrywise_mat(2, 2), {
            1: om.finite(om.element(om.entrywise_mat(2, 2), [1, 0, 0, 1])),
            2: om.finite(om.element(om.entrywise_mat(2, 2), [0, 1, 1, 0])),
        })
        with pytest.raises(ValidationError):
            om.operator_measure_bridge(mu, [0b01, 0b11])

    def test_entrywise_backend(self):
        e22 = om.entrywise_mat(2, 2)
        space = om.power_set_space(2)
        mu = om.Measure(space, e22, {
            1: om.finite(om.element(e22, [1, 2, 3, 4])),
            2: om.finite(om.element(e22, [4, 3, 2, 1])),
        })
        assert om.operator_measure_bridge(mu, [1, 2]).ok
