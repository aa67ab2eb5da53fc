import math
import random
from functools import partial
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import extended, outer, spaces
from ordmeasure.errors import DimensionLimitError, ValidationError
from ordmeasure.measures import full_mask, mask_to_points, points_to_mask

from conftest import random_algebra, random_measure
from integral_oracles import frac_ext, frac_ext_add, frac_ext_leq, frac_row, frac_sub
from outer_builders import (constant_outer, ext_measure_identities, ext_rows,
                            ext_split_table, ext_sum_evaluate, ext_validate_outer_measure,
                            full_test_set_measurable, hitting_outer, null_sets,
                            pointwise_sup_outer, row_table, split_test_measurable,
                            submask_bitset, value_map)

C2 = om.coord(2)


def fin(x, y):
    return om.finite(om.element(C2, [x, y]))


def all_pairs_validate(values, backend, ground_size):
    """The outer-measure axioms with sub-additivity tested on every pair
    a <= b, disjoint or not (oracle for `validate_outer_measure`), with
    the split record of `ext_split_table`."""
    if not 1 <= ground_size <= outer.MAX_OUTER_GROUND_SIZE:
        raise DimensionLimitError("ground size out of range")
    full = full_mask(ground_size)
    if set(values) != set(range(full + 1)):
        raise ValidationError("outer measure must be total on the power set")
    zero_v = values[0]
    if not (zero_v.is_finite and zero_v.finite.is_zero()):
        raise ValidationError("outer measure of the empty set must be zero")
    if any(v.space != backend for v in values.values()):
        raise ValidationError("outer value in the wrong backend")
    for mask, v in values.items():
        if not extended.is_ext_positive(v):
            raise ValidationError(
                f"outer value of {mask_to_points(mask)} is outside the positive cone")
    for mask in range(full + 1):
        for p in range(ground_size):
            bigger = mask | (1 << p)
            if bigger != mask and not om.ext_leq(values[mask], values[bigger]):
                raise ValidationError("monotonicity violation")
    for a in range(full + 1):
        for b in range(a, full + 1):
            if not om.ext_leq(values[a | b], om.ext_add(values[a], values[b])):
                raise ValidationError("sub-additivity violation")
    return outer.OuterMeasure(ground_size, backend, values,
                              ext_split_table(values, ground_size))


weights = st.one_of(
    st.tuples(st.fractions(min_value=0, max_value=3, max_denominator=3),
              st.fractions(min_value=0, max_value=3, max_denominator=3)).map(
        lambda t: fin(*t)),
    st.just(om.infinity(C2)),
)


def cover_sum(ground, covers):
    """nu(A) = sum of the weights of the cover sets that A meets."""
    values = {}
    for mask in range(full_mask(ground) + 1):
        total = fin(0, 0)
        for cover, weight in covers:
            if mask & cover:
                total = om.ext_add(total, weight)
        values[mask] = total
    return values


@st.composite
def covers(draw, ground):
    return draw(st.lists(st.tuples(st.integers(1, full_mask(ground)), weights),
                         min_size=1, max_size=4))


@st.composite
def valid_outer_values(draw):
    """(values, n) of an outer measure on n = 1..6 points, over coord(2)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["hitting", "pointwise_sup", "constant",
                                 "cover_sum", "induced"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "cover_sum":
        return cover_sum(n, draw(covers(n))), n
    if kind == "induced":
        return value_map(om.induce_outer(random_measure(rng, random_algebra(rng, n), C2))), n
    builder = {"hitting": hitting_outer, "pointwise_sup": pointwise_sup_outer,
               "constant": constant_outer}[kind]
    return value_map(builder(rng, n, C2)), n


@st.composite
def induced_with_infinite_atom(draw):
    """An outer measure on n = 1..7 points induced from a measure on a
    random algebra with at least one infinite atom."""
    n = draw(st.integers(1, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mu = random_measure(rng, random_algebra(rng, n), C2)
    atoms = mu.space.atoms
    values = dict(mu.atom_values)
    values[atoms[draw(st.integers(0, len(atoms) - 1))]] = om.infinity(C2)
    return om.induce_outer(om.Measure(mu.space, C2, values))


@st.composite
def outer_candidates(draw):
    """(values, n): valid outer measures, monotone maps that are not
    sub-additive, and arbitrary maps, with infinite values throughout."""
    kind = draw(st.sampled_from(["valid", "bumped", "cumulative", "arbitrary"]))
    values, n = draw(valid_outer_values())
    values = dict(values)
    full = full_mask(n)
    if kind == "bumped":
        # raising nu on every superset of s keeps nu monotone
        s, delta = draw(st.integers(1, full)), draw(weights)
        for mask in range(full + 1):
            if mask & s == s:
                values[mask] = om.ext_add(values[mask], delta)
    elif kind == "cumulative":
        # nu(A) = sum of w(t) over the nonempty t inside A: monotone, and
        # in general not sub-additive when w is positive on a set of two or
        # more points
        w = {t: draw(weights) if draw(st.booleans()) else fin(0, 0)
             for t in range(1, full + 1)}
        for mask in range(full + 1):
            total, t = fin(0, 0), mask
            while t:
                total, t = om.ext_add(total, w[t]), (t - 1) & mask
            values[mask] = total
    elif kind == "arbitrary":
        for mask in range(1, full + 1):
            if draw(st.booleans()):
                values[mask] = draw(weights)
    return values, n


def count_calls(monkeypatch, owner, name):
    """Count the calls made through `owner.name` into the returned list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_kernel_calls(monkeypatch):
    """Count the `add`, `leq` and `eq` calls of every kernel set that
    `outer` takes from `spaces.table_kernels`, into the returned lists.
    Each `leq` entry is the question asked, the Fraction coordinates of its
    two values (None for infinity), read from the table and from the sums
    `add` made."""
    calls = {"add": [], "leq": [], "eq": []}
    real = outer.table_kernels

    def counted(space, rows, visits):
        values, add, leq, eq = real(space, rows, visits)
        coords = dict(zip(values, map(frac_row, rows)))

        def counted_add(x, y):
            calls["add"].append(None)
            total = add(x, y)
            coords[total] = frac_ext_add(coords[x], coords[y])
            return total

        def counted_leq(x, y):
            calls["leq"].append((coords[x], coords[y]))
            return leq(x, y)

        def counted_eq(x, y):
            calls["eq"].append(None)
            return eq(x, y)

        return values, counted_add, counted_leq, counted_eq

    monkeypatch.setattr(outer, "table_kernels", counted)
    return calls


def split_questions(values, n):
    """``(finite, unequal)`` for a monotone table of extended elements on n
    points, on Fraction coordinates: the disjoint pairs a < b with two
    finite sides, which the pair pass sums and asks `eq`, and those of them
    whose union's value differs from their sum, which it asks `leq`."""
    coords = {mask: frac_ext(v) for mask, v in values.items()}
    finite = unequal = 0
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            if a & b == 0 and coords[a] is not None and coords[b] is not None:
                finite += 1
                unequal += coords[a | b] != frac_ext_add(coords[a], coords[b])
    return finite, unequal


# C2 tables are packed into one int per value; Loewner tables keep their rows
ROUTES = [C2, om.loewner_sym(2)]


def two_point_outer():
    """Zero on the empty set, (1,1) on every nonempty subset of two points."""
    values = {0: fin(0, 0)}
    for mask in (1, 2, 3):
        values[mask] = fin(1, 1)
    return om.validate_outer_measure(row_table(values), C2, 2)


class TestValidation:
    def test_two_point_valid(self):
        assert two_point_outer() is not None

    def test_induced_is_valid(self, rng):
        for _ in range(10):
            space = random_algebra(rng, rng.randint(1, 5))
            mu = random_measure(rng, space, C2)
            nu = om.induce_outer(mu)
            om.validate_outer_measure(dict(enumerate(nu.values)), C2, space.ground_size)

    def test_monotonicity_violation_witness(self):
        values = {0: fin(0, 0), 1: fin(2, 0), 2: fin(0, 0), 3: fin(1, 0)}
        with pytest.raises(ValidationError, match="monotonicity") as exc:
            om.validate_outer_measure(row_table(values), C2, 2)
        assert exc.value.witness is not None

    def test_nonzero_empty_set_rejected(self):
        values = {0: fin(1, 0), 1: fin(1, 0), 2: fin(1, 0), 3: fin(1, 0)}
        with pytest.raises(ValidationError, match="empty"):
            om.validate_outer_measure(row_table(values), C2, 2)

    def test_rows_of_another_coordinate_count_rejected(self):
        # a row carries no backend: its coordinate count is what is checked
        table = {0: ((0, 0), 1), 1: ((1, 0, 0), 1)}
        with pytest.raises(ValidationError, match="wrong backend"):
            om.validate_outer_measure(table, C2, 1)

    def test_subadditivity_violation(self):
        values = {0: fin(0, 0), 1: fin(1, 0), 2: fin(1, 0), 3: fin(3, 0)}
        with pytest.raises(ValidationError, match="sub-additivity"):
            om.validate_outer_measure(row_table(values), C2, 2)

    @given(outer_candidates())
    @settings(max_examples=300, deadline=None)
    def test_disjoint_pairs_agree_with_all_pairs(self, case):
        values, n = case

        def verdict(validate):
            try:
                validate(values, C2, n)
            except ValidationError as exc:
                return exc

        fast = verdict(lambda values, *args: om.validate_outer_measure(row_table(values), *args))
        oracle = verdict(all_pairs_validate)
        assert str(fast) == str(oracle)
        if str(fast) == "sub-additivity violation":
            a, b = (points_to_mask(p) for p in fast.witness["pair"])
            assert a & b == 0
            assert not om.ext_leq(values[a | b], om.ext_add(values[a], values[b]))

    @pytest.mark.parametrize("backend", ROUTES, ids=["packed", "rows"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_test_count(self, monkeypatch, n, backend):
        # 2^n positivity tests 0 <= nu(A), in the order of the values, then
        # n 2^(n-1) monotonicity steps, each one order test of the table's
        # kernel, and one more for each disjoint pair a < b (of the
        # (3^n - 1)/2 that `visits` counts) whose union's value differs
        # from its sum: an equal pair is settled by `eq`.  The packed route
        # makes no PSD test.  A Loewner table whose D distinct values make
        # fewer than `visits` pairs, D(D + 1)/2, is interned and makes one
        # per distinct difference y - x among the ordered pairs x != y that
        # it is asked (the table is over one denominator, so equal
        # differences have equal numerators); any other keeps its rows and
        # makes one per order test (the table is finite).
        values = value_map(hitting_outer(random.Random(n), n, backend))
        kernel_tests = count_kernel_calls(monkeypatch)["leq"]
        positivity_tests = count_calls(monkeypatch, spaces, "is_positive_row")
        om.validate_outer_measure(row_table(values), backend, n)
        visits = 2**n + n * 2**(n - 1) + (3**n - 1) // 2
        assert len(kernel_tests) == 2**n + n * 2**(n - 1) + split_questions(values, n)[1]
        assert len(kernel_tests) <= visits
        zero = frac_ext(values[0])
        assert kernel_tests[:2**n] == [(zero, frac_ext(v)) for v in values.values()]
        distinct = len(set(values.values()))
        if backend is C2:
            per_kernel = 0
        elif distinct * (distinct + 1) // 2 < visits:
            assert len({row[1] for row in row_table(values).values() if row}) == 1
            per_kernel = len({frac_sub(y, x) for x, y in kernel_tests
                              if None not in (x, y) and x != y})
            assert per_kernel < visits
        else:
            per_kernel = len(kernel_tests)
        assert len(positivity_tests) == per_kernel

    @pytest.mark.parametrize("backend", ROUTES, ids=["packed", "rows"])
    def test_pair_pass_settles_infinite_and_equal_pairs(self, monkeypatch, backend):
        # an 8-point cover sum whose point 0 is infinite: a pair with an
        # infinite side makes no kernel call, a pair of two finite sides
        # one sum and one `eq`, and only an unequal pair a `leq`, after the
        # 2^n positivity and n 2^(n-1) monotonicity tests
        n, inf = 8, om.infinity(backend)
        weight = {C2: lambda i: fin(i, 3 - i),
                  ROUTES[1]: lambda i: om.finite(om.sym_matrix([[i, 1], [1, 4 - i]])),
                  }[backend]
        covers = [(0b1, inf)] + [(0b11 << i, weight(i % 3 + 1)) for i in range(1, n - 1)]
        values = {}
        for mask in range(1 << n):
            total = om.finite(om.zero(backend))
            for cover, w in covers:
                if mask & cover:
                    total = om.ext_add(total, w)
            values[mask] = total
        finite, unequal = split_questions(values, n)
        assert 0 < unequal < finite < (3**n - 1) // 2
        calls = count_kernel_calls(monkeypatch)
        om.validate_outer_measure(row_table(values), backend, n)
        assert len(calls["add"]) == len(calls["eq"]) == finite
        assert len(calls["leq"]) == 2**n + n * 2**(n - 1) + unequal


class TestInduce:
    def test_power_set_measure_recovers_itself(self, rng):
        space = om.power_set_space(3)
        mu = random_measure(rng, space, C2)
        nu = om.induce_outer(mu)
        for mask in range(8):
            assert nu.value(mask) == mu.evaluate(mask)

    def test_smallest_cover(self):
        space = om.generate_sigma_algebra([0b011, 0b100], 3)
        mu = om.Measure(space, C2, {0b011: fin(1, 0), 0b100: fin(0, 2)})
        nu = om.induce_outer(mu)
        # the smallest measurable cover of {0} is the atom {0,1}
        assert nu.value(0b001) == fin(1, 0)
        assert nu.value(0) == fin(0, 0)

    def test_restriction_equals_original(self, rng):
        for _ in range(10):
            space = random_algebra(rng, rng.randint(1, 5))
            mu = random_measure(rng, space, C2)
            nu = om.induce_outer(mu)
            for mask in space.members():
                assert nu.value(mask) == mu.evaluate(mask)


class TestCaratheodory:
    @given(valid_outer_values())
    @settings(max_examples=200, deadline=None)
    def test_splitting_sets_agree_with_all_test_sets(self, case):
        values, n = case
        nu = om.validate_outer_measure(row_table(values), C2, n)
        for mask in range(full_mask(n) + 1):
            verdict = om.caratheodory_measurable(nu, mask)
            assert verdict == full_test_set_measurable(nu, mask)
            assert verdict == split_test_measurable(nu, mask)

    @given(induced_with_infinite_atom())
    @settings(max_examples=100, deadline=None)
    def test_induced_split_record_agrees_with_oracles(self, nu):
        # the record of the validating pass that `induce_outer` ends in
        for mask in range(full_mask(nu.ground_size) + 1):
            verdict = om.caratheodory_measurable(nu, mask)
            assert verdict == full_test_set_measurable(nu, mask)
            assert verdict == split_test_measurable(nu, mask)

    @pytest.mark.parametrize("builder", [hitting_outer, pointwise_sup_outer, constant_outer])
    def test_extracted_family_agrees_with_oracle(self, builder):
        rng = random.Random(7)
        for n in range(1, 8):
            for _ in range(3):
                nu = builder(rng, n, C2)
                space, _ = om.extract_measurable_algebra(nu)
                family = [mask for mask in range(full_mask(n) + 1)
                          if split_test_measurable(nu, mask)]
                assert space.members() == family

    @pytest.mark.parametrize("backend", ROUTES, ids=["packed", "rows"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_sum_per_disjoint_pair(self, monkeypatch, n, backend):
        # validation sums each of the (3^n - 1)/2 disjoint pairs a < b once
        # and extraction reads the record, summing none
        values = value_map(hitting_outer(random.Random(n), n, backend))
        calls = count_kernel_calls(monkeypatch)["add"]
        nu = om.validate_outer_measure(row_table(values), backend, n)
        assert len(calls) == (3**n - 1) // 2
        om.extract_measurable_algebra(nu)
        assert len(calls) == (3**n - 1) // 2

    @pytest.mark.parametrize("backend", ROUTES, ids=["packed", "rows"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_induced_record_is_built_once(self, monkeypatch, n, backend):
        # `induce_outer` sums each disjoint pair once, in its validating
        # pass, and extraction, however often, sums none
        rng = random.Random(n)
        mu = random_measure(rng, random_algebra(rng, n), backend)
        calls = count_kernel_calls(monkeypatch)["add"]
        nu = om.induce_outer(mu)
        finite = split_questions(value_map(nu), n)[0]
        assert len(calls) == finite <= (3**n - 1) // 2
        om.extract_measurable_algebra(nu)
        om.extract_measurable_algebra(nu)
        assert len(calls) == finite

    @given(st.integers(0, outer.MAX_OUTER_GROUND_SIZE), st.data())
    @settings(max_examples=200, deadline=None)
    def test_submask_bitsets_agree_with_per_set_bitset(self, n, data):
        table = outer.submask_bitsets(n)
        assert len(table) == 2**n
        mask = data.draw(st.integers(0, 2**n - 1))
        assert table[mask] == submask_bitset(mask)
        assert table[mask] == sum(1 << b for b in range(1, mask + 1) if b & mask == b)

    def test_partner_bitsets_are_built_once_per_ground_size(self):
        # the first extraction on 8 points builds the table of submask
        # bitsets, and a second extraction of that ground size reads it:
        # each of the 2 * 2^8 measurability tests looks the table up
        outer.submask_bitsets.cache_clear()
        om.extract_measurable_algebra(hitting_outer(random.Random(8), 8, C2))
        assert outer.submask_bitsets.cache_info().misses == 1
        om.extract_measurable_algebra(hitting_outer(random.Random(9), 8, C2))
        info = outer.submask_bitsets.cache_info()
        assert (info.misses, info.hits + info.misses) == (1, 2 * 2**8)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_extraction_tests_every_mask_once(self, monkeypatch, n):
        nu = hitting_outer(random.Random(n), n, C2)
        tested = []
        real = outer.caratheodory_measurable

        def counted(nu, mask):
            tested.append(mask)
            return real(nu, mask)

        monkeypatch.setattr(outer, "caratheodory_measurable", counted)
        om.extract_measurable_algebra(nu)
        assert sorted(tested) == list(range(2**n))

    def test_trivial_sets_always_measurable(self):
        nu = two_point_outer()
        assert om.caratheodory_measurable(nu, 0)
        assert om.caratheodory_measurable(nu, 3)

    def test_two_point_singletons_fail(self):
        # splitting X into {0} and {1} gives (1,1) + (1,1) != (1,1)
        nu = two_point_outer()
        assert not om.caratheodory_measurable(nu, 1)
        assert not om.caratheodory_measurable(nu, 2)

    def test_split_fails_only_against_a_two_point_set(self):
        # {0} splits {0,1} and {0,2} additively, but not the whole set:
        # nu({0,1,2}) = 2 while nu({0}) + nu({1,2}) = 5/2
        values = {0: fin(0, 0), 0b001: fin(1, 0), 0b010: fin(1, 0), 0b100: fin(1, 0),
                  0b011: fin(2, 0), 0b101: fin(2, 0), 0b110: fin(Fraction(3, 2), 0),
                  0b111: fin(2, 0)}
        nu = om.validate_outer_measure(row_table(values), C2, 3)
        assert not full_test_set_measurable(nu, 0b001)
        assert not om.caratheodory_measurable(nu, 0b001)

    def test_two_point_extraction(self):
        nu = two_point_outer()
        space, restricted = om.extract_measurable_algebra(nu)
        assert space.members() == [0, 3]
        assert restricted.evaluate(3) == fin(1, 1)

    def test_induced_extraction_contains_original_algebra(self, rng):
        for _ in range(10):
            base = random_algebra(rng, rng.randint(1, 5))
            mu = random_measure(rng, base, C2)
            nu = om.induce_outer(mu)
            space, restricted = om.extract_measurable_algebra(nu)
            for mask in base.members():
                assert mask in space.sets
                assert restricted.evaluate(mask) == mu.evaluate(mask)

    def test_extraction_passes_identity_suite(self, rng):
        for _ in range(6):
            nu = hitting_outer(rng, rng.randint(2, 5), C2)
            space, restricted = om.extract_measurable_algebra(nu)
            assert om.check_measure_identities(restricted).ok

    def test_null_sets_measurable(self, rng):
        for builder in (hitting_outer, pointwise_sup_outer):
            for _ in range(5):
                nu = builder(rng, rng.randint(2, 5), C2)
                for mask in null_sets(nu):
                    assert om.caratheodory_measurable(nu, mask)

    def test_completeness_of_restriction(self, rng):
        # subsets of null sets are measurable with value zero
        for _ in range(10):
            nu = hitting_outer(rng, rng.randint(2, 5), C2)
            zero = om.finite(om.zero(C2))
            for mask in null_sets(nu):
                sub = mask
                while True:
                    if nu.value(sub) == zero:
                        assert om.caratheodory_measurable(nu, sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask


BACKENDS = [om.reals(), om.coord(2), om.entrywise_mat(2, 2), om.loewner_sym(2),
            om.loewner_sym(3)]


@st.composite
def ext_values(draw, backend, positive, max_den=4):
    """A finite value of `backend` or, one time in five, infinity: in the
    positive cone (B B^T on Loewner) when `positive`, arbitrary otherwise."""
    if draw(st.integers(0, 4)) == 0:
        return om.infinity(backend)
    if backend.kind is not om.SpaceKind.LOEWNER_SYM:
        entries = st.fractions(min_value=0 if positive else -2, max_value=3,
                               max_denominator=max_den)
        return om.finite(om.element(backend, [draw(entries)
                                              for _ in range(backend.ncoords)]))
    d = backend.dim
    entries = st.fractions(min_value=-2, max_value=3, max_denominator=max_den)
    b = [[draw(entries) for _ in range(d)] for _ in range(d)]
    if positive:
        rows = [[sum(b[i][k] * b[j][k] for k in range(d)) for j in range(d)]
                for i in range(d)]
    else:
        rows = [[b[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
    return om.finite(om.sym_matrix(rows))


@st.composite
def backend_tables(draw):
    """(values, n, backend) on n = 1..4 points of any backend: cover sums,
    which are outer measures, and cover sums with a positive value added
    on every superset of a set (monotone, often not sub-additive), with
    single values replaced at random (often not monotone or not positive)."""
    backend, n = draw(st.sampled_from(BACKENDS)), draw(st.integers(1, 4))
    full = full_mask(n)
    covers = draw(st.lists(st.tuples(st.integers(1, full), ext_values(backend, True)),
                           min_size=1, max_size=3))
    zero = om.finite(om.zero(backend))
    values = {}
    for mask in range(full + 1):
        total = zero
        for cover, weight in covers:
            if mask & cover:
                total = om.ext_add(total, weight)
        values[mask] = total
    if draw(st.booleans()):
        # on a set of two or more points the bump can break sub-additivity
        s = draw(st.integers(1, full).filter(lambda m: n == 1 or m & (m - 1)))
        delta = draw(ext_values(backend, True))
        for mask in range(full + 1):
            if mask & s == s:
                values[mask] = om.ext_add(values[mask], delta)
    for mask in draw(st.lists(st.integers(1, full), max_size=2)):
        values[mask] = draw(ext_values(backend, draw(st.booleans())))
    return values, n, backend


@st.composite
def monotone_tables(draw):
    """(values, n, backend) on n = 1..5 points of coord(2) or
    LoewnerSym(2): a cover sum, infinite on the up-set of one to three
    drawn sets, with a positive value added on every superset of a set.
    Each is monotone; a finite pair whose union lies in the up-set, or the
    bump, often breaks sub-additivity."""
    backend, n = draw(st.sampled_from([C2, om.loewner_sym(2)])), draw(st.integers(1, 5))
    full = full_mask(n)
    covers = draw(st.lists(st.tuples(st.integers(1, full), ext_values(backend, True, 3)),
                           min_size=1, max_size=3))
    infinite = draw(st.lists(st.integers(1, full), min_size=1, max_size=3))
    s, delta = draw(st.integers(1, full)), draw(ext_values(backend, True, 3))
    values = {}
    for mask in range(full + 1):
        total = om.finite(om.zero(backend))
        for cover, weight in covers:
            if mask & cover:
                total = om.ext_add(total, weight)
        if mask & s == s:
            total = om.ext_add(total, delta)
        if any(mask & t == t for t in infinite):
            total = om.infinity(backend)
        values[mask] = total
    return values, n, backend


def outcome(fn, *args):
    """What `fn` returns, or the message and witness of its ValidationError."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc), exc.witness


@st.composite
def backend_measures(draw, max_den=None):
    """A measure on a random algebra of 1 to 4 points of any backend, with
    infinite atoms and small or large denominators (or at most `max_den`)."""
    backend = draw(st.sampled_from(BACKENDS))
    max_den = max_den or draw(st.sampled_from([4, 10**20]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    space = random_algebra(rng, draw(st.integers(1, 4)))
    return om.Measure(space, backend, {atom: draw(ext_values(backend, True, max_den))
                                       for atom in space.atoms})


@st.composite
def skewed_measures(draw):
    """A measure of `backend_measures` with the values of some members
    overwritten in the table that the identity suite reads, so that
    identities can fail.  The atom table is brought over a denominator that
    the drawn values share, and `Measure.row` answers those members with
    the drawn values; `Measure.evaluate`, which the oracle reads, takes
    them from `row` too."""
    max_den = draw(st.sampled_from([4, 10**20]))
    mu = draw(backend_measures(max_den))
    skew = {mask: draw(ext_values(mu.backend, draw(st.booleans()), max_den))
            for mask in draw(st.lists(st.sampled_from(mu.space.members()), max_size=2))}
    den, atoms = mu.atom_table
    common = math.lcm(den, *(v.finite.den for v in skew.values() if v.is_finite))
    scaled = tuple((x, None if r is None else tuple(n * (common // den) for n in r))
                   for x, r in atoms)
    mu.atom_table = common, scaled
    row = mu.row

    def skewed_row(mask):
        if mask not in skew:
            return row(mask)
        v = skew[mask].finite
        return None if v is None else tuple(n * (common // v.den) for n in v.nums)

    mu.row = skewed_row
    return mu


def identity_table(mu):
    """The values of the identity suite's table, as `table_kernels` gives
    them for its 4^k visits: ints when the table is packed."""
    members, den = mu.space.members(), mu.atom_table[0]
    rows = [None if row is None else (row, den) for row in map(mu.row, members)]
    return spaces.table_kernels(mu.backend, rows, len(members) ** 2)[0]


class TestIntegerTable:
    """The integer passes against the `ExtElement` passes they replaced, and
    the row kernels against the Fraction oracles."""

    @given(backend_tables())
    @settings(max_examples=300, deadline=None)
    def test_validation_agrees_with_ext_oracle(self, case):
        values, n, backend = case
        fast = outcome(
            lambda: om.validate_outer_measure(row_table(values), backend, n).split_failures)
        assert fast == outcome(ext_validate_outer_measure, values, backend, n)

    @given(monotone_tables())
    @settings(max_examples=200, deadline=None)
    def test_split_record_agrees_with_ext_oracle_on_every_route(self, case):
        # the pair pass on the packed, interned and row kernels, and the
        # validating pass, against the Fraction oracle: the same record, or
        # the same first violation and witness
        values, n, backend = case
        oracle = outcome(ext_split_table, values, n)
        rows = ext_rows([values[mask] for mask in range(1 << n)])
        routes = [(rows, spaces.row_add, partial(spaces.row_leq, backend), spaces.row_eq)]
        fast = spaces.table_kernels(backend, rows, 10**9)
        assert all(v is None or type(v) is int for v in fast[0])  # packed or interned
        routes.append(fast)
        for kernels in routes:
            assert outcome(outer._split_table, *kernels) == oracle
        assert outcome(lambda: om.validate_outer_measure(row_table(values), backend,
                                                         n).split_failures) == oracle

    @given(skewed_measures().filter(
        lambda mu: None in dict(mu.atom_table[1]).values() and all(
            type(v) is int for v in identity_table(mu) if v is not None)))
    @settings(max_examples=100, deadline=None)
    def test_identities_with_an_infinite_atom_on_a_packed_table_agree(self, mu):
        assert om.check_measure_identities(mu).to_json() == ext_measure_identities(mu).to_json()

    @given(backend_measures())
    @settings(max_examples=200, deadline=None)
    def test_induced_record_agrees_with_ext_oracle(self, mu):
        nu = om.induce_outer(mu)
        assert nu.split_failures == ext_validate_outer_measure(
            value_map(nu), mu.backend, mu.space.ground_size)

    @given(st.sampled_from(BACKENDS), st.sampled_from([4, 10**20]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_operations_agree_with_ext_arithmetic(self, backend, max_den, data):
        # small denominators share one row denominator; large unrelated ones
        # usually keep their own, and the row operations cross-multiply
        values = data.draw(st.lists(ext_values(backend, data.draw(st.booleans()),
                                               max_den), min_size=1, max_size=5))
        rows = ext_rows(values)
        dens = [v.finite.den for v in values if v.is_finite]
        shared = math.lcm(*dens).bit_length() <= 2 * max(dens, default=1).bit_length() + 64
        assert shared == (len({row[1] for row in rows if row}) <= 1)

        def coords(v):
            return None if v.is_infinite else v.finite.coords

        assert [frac_row(row) for row in rows] == [coords(v) for v in values]
        for v, rv in zip(values, rows):
            a = coords(v)
            for w, rw in zip(values, rows):
                b = coords(w)
                assert spaces.row_eq(rv, rw) == (v == w)
                assert spaces.row_leq(backend, rv, rw) == frac_ext_leq(backend, a, b)
                assert frac_row(spaces.row_add(rv, rw)) == frac_ext_add(a, b)
                if a is not None and b is not None:
                    assert frac_row(spaces.row_sub(rv, rw)) == frac_sub(a, b)

    def test_table_of_unrelated_denominators_agrees_with_ext_oracle(self):
        # nu(A) = (1 + 1/(10^18 + i)) I for nonempty A, the larger sets taking
        # the smaller denominators: an outer measure whose values share no
        # denominator, so every row keeps its own
        for backend in BACKENDS:
            n, eye = 4, om.order_unit(backend)
            masks = sorted(range(1, 1 << n), key=lambda m: -bin(m).count("1"))
            values = {0: om.finite(om.zero(backend))}
            for i, mask in enumerate(masks):
                values[mask] = om.finite(om.scale(1 + Fraction(1, 10**18 + i), eye))
            rows = ext_rows([values[m] for m in range(1 << n)])
            assert len({den for _, den in rows}) == 1 << n
            nu = om.validate_outer_measure(row_table(values), backend, n)
            assert nu.split_failures == ext_validate_outer_measure(values, backend, n)

    def test_loewner_table_passes_entrywise_but_not_psd(self):
        # nu({0}) = nu({1}) = I and nu({0,1}) = [[2,-1],[-1,2]]: monotone, but
        # I + I - nu({0,1}) = [[0,1],[1,0]] has nonnegative entries and
        # determinant -1, so sub-additivity fails only in the Loewner order
        backend, eye = om.loewner_sym(2), om.finite(om.sym_matrix([[1, 0], [0, 1]]))
        top = om.finite(om.sym_matrix([[2, -1], [-1, 2]]))
        values = {0: om.finite(om.zero(backend)), 1: eye, 2: eye, 3: top}
        gap = om.sub(om.add(eye.finite, eye.finite), top.finite)
        assert all(x >= 0 for x in gap.nums) and not om.is_psd(gap)
        fast = outcome(om.validate_outer_measure, row_table(values), backend, 2)
        assert fast == ("sub-additivity violation", {"pair": [[0], [1]]})
        assert fast == outcome(ext_validate_outer_measure, values, backend, 2)

    @given(skewed_measures())
    @settings(max_examples=200, deadline=None)
    def test_identities_agree_with_ext_oracle(self, mu):
        fast = om.check_measure_identities(mu).to_json()
        assert fast == ext_measure_identities(mu).to_json()

    @given(backend_measures())
    @settings(max_examples=100, deadline=None)
    def test_evaluate_agrees_with_ext_sum(self, mu):
        for mask in mu.space.members():
            assert mu.evaluate(mask) == ext_sum_evaluate(mu, mask)
        # the largest null set, and finiteness, by their ExtElement definitions
        full = full_mask(mu.space.ground_size)
        assert mu.null_mask == max(m for m in mu.space.members()
                                   if ext_sum_evaluate(mu, m) == extended.ext_zero(mu.backend))
        assert mu.is_finite == ext_sum_evaluate(mu, full).is_finite
