import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import spaces
from ordmeasure.errors import SpaceMismatchError

from conftest import random_element, random_positive_element
import integral_oracles as oracle
from integral_oracles import (frac_abs_element, frac_add, frac_ext_add, frac_ext_leq,
                              frac_inf_pair, frac_leq, frac_neg, frac_row, frac_scale,
                              frac_sub, frac_sup_pair, minors_psd)

C2 = om.coord(2)
L2 = om.loewner_sym(2)


def c2(x, y):
    return om.element(C2, [x, y])


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coords2 = st.tuples(fracs, fracs).map(lambda t: om.Element(C2, t))


class TestArithmetic:
    def test_add_coordinatewise(self):
        assert om.add(c2(1, 2), c2(3, 4)) == c2(4, 6)

    def test_add_identity(self):
        x = c2(Fraction(5, 3), -2)
        assert om.add(x, om.zero(C2)) == x

    def test_add_matrices(self):
        lhs = om.add(om.sym_matrix([[1, 0], [0, 1]]), om.sym_matrix([[0, 1], [1, 0]]))
        assert lhs == om.sym_matrix([[1, 1], [1, 1]])

    def test_scale(self):
        assert om.scale(Fraction(0), c2(3, 4)) == om.zero(C2)
        assert om.scale(Fraction(2), c2(1, 3)) == c2(2, 6)
        assert om.scale(Fraction(1, 2), om.sym_matrix([[2, 0], [0, 4]])) == \
            om.sym_matrix([[1, 0], [0, 2]])

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            om.add(c2(1, 2), om.element(om.coord(3), [1, 2, 3]))


class TestOrder:
    def test_coordinatewise(self):
        assert om.leq(c2(1, 0), c2(1, 1))
        assert not om.leq(c2(1, 0), c2(0, 1))

    def test_loewner_psd_examples(self):
        # minors of [[1,1],[1,1]] are 1, 1, and det 0: positive semidefinite
        assert om.leq(om.zero(L2), om.sym_matrix([[1, 1], [1, 1]]))
        # det of [[1,2],[2,1]] is -3: not positive semidefinite
        assert not om.leq(om.zero(L2), om.sym_matrix([[1, 2], [2, 1]]))

    def test_loewner_uses_all_principal_minors(self):
        # leading minors of [[0,0],[0,-1]] are 0 and 0, but the (1,1)
        # principal minor is -1
        assert not om.leq(om.zero(L2), om.sym_matrix([[0, 0], [0, -1]]))

    @given(coords2, coords2, coords2)
    @settings(max_examples=200, deadline=None)
    def test_partial_order_axioms(self, a, b, c):
        assert om.leq(a, a)
        if om.leq(a, b) and om.leq(b, a):
            assert a == b
        if om.leq(a, b) and om.leq(b, c):
            assert om.leq(a, c)

    @given(coords2, coords2, coords2)
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, a, b, c):
        assert om.leq(a, b) == om.leq(om.add(a, c), om.add(b, c))

    @given(coords2, coords2, st.fractions(min_value=0, max_value=4, max_denominator=4))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, a, b, r):
        if om.leq(a, b) and r > 0:
            assert om.leq(om.scale(r, a), om.scale(r, b))

    def test_cone_properness(self, rng):
        for space in (C2, L2, om.reals(), om.entrywise_mat(2, 2)):
            for _ in range(50):
                x = random_element(rng, space)
                if om.leq(om.zero(space), x) and om.leq(x, om.zero(space)):
                    assert x == om.zero(space)

    def test_loewner_order_axioms_random(self, rng):
        for _ in range(100):
            a = random_element(rng, L2)
            b = random_element(rng, L2)
            c = random_element(rng, L2)
            assert om.leq(a, a)
            if om.leq(a, b) and om.leq(b, a):
                assert a == b
            assert om.leq(a, b) == om.leq(om.add(a, c), om.add(b, c))


def gram(b, d):
    """B B^T for a d-row matrix B; PSD of rank at most the column count."""
    return [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(d)]
            for i in range(d)]


def hilbert(d, shift=0):
    """The d x d Hilbert matrix minus shift * I; positive definite at shift 0."""
    return [[Fraction(1, i + j + 1) - (shift if i == j else 0) for j in range(d)]
            for i in range(d)]


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def psd_candidates(draw):
    """Symmetric rational matrices, d = 1..6, near the PSD boundary."""
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["rank_deficient", "arbitrary", "zero_diagonal",
                                 "late_negative"]))
    if kind == "arbitrary":
        rows = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = draw(small)
        return om.sym_matrix(rows)
    cols = draw(st.integers(0, d - 1)) if kind == "rank_deficient" else d
    b = [[draw(small) for _ in range(cols)] for _ in range(d)]
    if kind == "zero_diagonal":
        # a zero row of B gives a zero diagonal entry; an off-diagonal entry
        # in that row and column then decides the answer
        i = draw(st.integers(0, d - 1))
        b[i] = [Fraction(0)] * cols
    rows = gram(b, d)
    if kind == "zero_diagonal" and d > 1:
        j = draw(st.integers(0, d - 2))
        j += j >= i
        rows[i][j] = rows[j][i] = draw(small)
    if kind == "late_negative":
        # the first d - 1 pivots are those of a Gram matrix; the last one
        # drops below zero once the shift exceeds the last Schur complement
        rows[d - 1][d - 1] -= draw(st.fractions(min_value=0, max_value=4,
                                                max_denominator=8))
    return om.sym_matrix(rows)


class TestPsdElimination:
    @given(psd_candidates())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_principal_minors(self, a):
        assert om.is_psd(a) == minors_psd(a.coords, a.space.dim)

    @pytest.mark.parametrize("rows, expected", [
        ([[0] * 3] * 3, True),
        ([[0, 1], [1, 0]], False),
        ([[0, 0], [0, -1]], False),
        (gram([[1], [-2], [Fraction(1, 2)], [3], [0], [Fraction(-1, 3)]], 6), True),
        (hilbert(6), True),
        # the smallest eigenvalue of hilbert(6) is about 1.08e-7
        (hilbert(6, Fraction(1, 10**8)), True),
        (hilbert(6, Fraction(1, 10**6)), False),
    ], ids=["zero", "swap", "late_minus_one", "rank_one_d6", "hilbert6",
            "hilbert6_minus_1e-8", "hilbert6_minus_1e-6"])
    def test_fixed_cases(self, rows, expected):
        a = om.sym_matrix(rows)
        assert om.is_psd(a) is expected
        assert minors_psd(a.coords, a.space.dim) is expected


ORACLE_SPACES = [om.reals(), om.coord(3), om.entrywise_mat(2, 3), om.loewner_sym(2),
                 om.loewner_sym(3)]

# Small and huge numerators and denominators, so that sums mix denominators
# and products grow past machine words.
wide = st.builds(
    Fraction,
    st.one_of(st.integers(-12, 12), st.integers(-10**40, 10**40)),
    st.one_of(st.integers(1, 12), st.integers(1, 10**40)),
)


def _equal_groups(space):
    """Coordinate indices that must hold one value: (i, j) and (j, i) in the
    Loewner backend, each index alone elsewhere."""
    if space.kind is om.SpaceKind.LOEWNER_SYM:
        d = space.dim
        return [{i * d + j, j * d + i} for i in range(d) for j in range(i, d)]
    return [{k} for k in range(space.ncoords)]


@st.composite
def coords_of(draw, space, base=None):
    """A valid Fraction tuple of `space`; with `base`, each coordinate (or
    symmetric pair) is either base's or a fresh one."""
    out = [None] * space.ncoords
    for group in _equal_groups(space):
        k = min(group)
        value = base[k] if base is not None and draw(st.booleans()) else draw(wide)
        for i in group:
            out[i] = value
    return tuple(out)


@st.composite
def fraction_pairs(draw):
    """A backend and two Fraction tuples: independent, equal, negated,
    sharing some coordinates, or the second one shifted up by t * unit."""
    space = draw(st.sampled_from(ORACLE_SPACES))
    a = draw(coords_of(space))
    kind = draw(st.sampled_from(["independent", "equal", "negated", "mixed", "shifted"]))
    if kind == "independent":
        b = draw(coords_of(space))
    elif kind == "equal":
        b = a
    elif kind == "negated":
        b = frac_neg(a)
    elif kind == "mixed":
        b = draw(coords_of(space, base=a))
    else:
        t = abs(draw(wide))
        b = frac_add(a, frac_scale(t, om.order_unit(space).coords))
    return space, a, b


def assert_element(el, space, coords):
    """`el` is `coords` of `space` in canonical form, equal to the element
    the validating constructor builds from them, and hashes like it."""
    assert el.den > 0 and math.gcd(el.den, *el.nums) == 1
    assert el.space == space and el.coords == coords
    built = om.Element(space, coords)
    assert (el.nums, el.den) == (built.nums, built.den)
    assert el == built and hash(el) == hash(built)


class TestIntegerElementsAgainstFractions:
    @given(fraction_pairs(), wide | st.just(Fraction(0)))
    @settings(max_examples=300, deadline=None)
    def test_arithmetic(self, pair, r):
        space, a, b = pair
        x, y = om.Element(space, a), om.Element(space, b)
        assert_element(x, space, a)
        assert_element(om.add(x, y), space, frac_add(a, b))
        assert_element(om.sub(x, y), space, frac_sub(a, b))
        assert_element(spaces.neg(x), space, frac_neg(a))
        assert_element(om.scale(r, x), space, frac_scale(r, a))
        assert (x == y) == (a == b)
        if a == b:
            assert hash(x) == hash(y)

    @given(fraction_pairs())
    @settings(max_examples=200, deadline=None)
    def test_results_that_reduce_to_zero(self, pair):
        space, a, _ = pair
        x = om.Element(space, a)
        zero = tuple(Fraction(0) for _ in a)
        for result in (om.sub(x, x), om.add(x, spaces.neg(x)), om.scale(0, x)):
            assert_element(result, space, zero)
            assert result.den == 1 and result.is_zero()
            assert result == om.zero(space) and hash(result) == hash(om.zero(space))

    @given(fraction_pairs())
    @settings(max_examples=300, deadline=None)
    def test_order_and_lattice_operations(self, pair):
        space, a, b = pair
        x, y = om.Element(space, a), om.Element(space, b)
        assert om.leq(x, y) == frac_leq(space, a, b)
        assert om.leq(y, x) == frac_leq(space, b, a)
        for new, old in ((om.sup_pair, frac_sup_pair), (om.inf_pair, frac_inf_pair)):
            expected = old(space, a, b)
            if expected is None:
                assert isinstance(new(x, y), om.NoSupremum)
            else:
                assert_element(new(x, y), space, expected)
        if space.is_lattice:
            assert_element(spaces.abs_element(x), space, frac_abs_element(a))
        else:
            with pytest.raises(TypeError):
                spaces.abs_element(x)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_psd_with_mixed_denominators(self, data):
        # B B^T, less a shift of its last diagonal entry, with entries of B
        # over unrelated denominators
        d = data.draw(st.integers(1, 4))
        entry = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**12))
        b = [[data.draw(entry) for _ in range(d)] for _ in range(d)]
        rows = gram(b, d)
        rows[d - 1][d - 1] -= data.draw(st.sampled_from([Fraction(0), Fraction(1, 10**9)])
                                        | entry.map(abs))
        assert om.is_psd(om.sym_matrix(rows)) == minors_psd(
            tuple(v for row in rows for v in row), d)


@st.composite
def row_pairs(draw):
    """A backend, two Fraction tuples or None (infinity), and their rows:
    each over its own denominator, or both over the lcm of the two."""
    space, a, b = draw(fraction_pairs())
    x, y = om.Element(space, a), om.Element(space, b)
    ra, rb = (x.nums, x.den), (y.nums, y.den)
    if draw(st.booleans()):
        den = math.lcm(x.den, y.den)
        ra, rb = ((tuple(n * (den // d) for n in nums), den) for nums, d in (ra, rb))
    if draw(st.integers(0, 4)) == 0:
        a, ra = None, None
    if draw(st.integers(0, 4)) == 0:
        b, rb = None, None
    return space, a, b, ra, rb


class TestRowKernelsAgainstFractions:
    """The row kernels, on which the element, extended and table operations
    all run, against the Fraction oracles."""

    @given(row_pairs())
    @settings(max_examples=300, deadline=None)
    def test_kernels(self, case):
        space, a, b, ra, rb = case
        assert frac_row(spaces.row_add(ra, rb)) == frac_ext_add(a, b)
        assert spaces.row_leq(space, ra, rb) == frac_ext_leq(space, a, b)
        assert spaces.row_leq(space, rb, ra) == frac_ext_leq(space, b, a)
        assert spaces.row_eq(ra, rb) == (a == b)
        if b is not None:
            assert frac_row(spaces.row_sub(ra, rb)) == (None if a is None else frac_sub(a, b))
        if space.is_lattice and a is not None and b is not None:
            for op, pair in ((max, frac_sup_pair), (min, frac_inf_pair)):
                assert frac_row(spaces.row_lattice(op, ra, rb)) == pair(space, a, b)

    @given(st.sampled_from(ORACLE_SPACES), wide | st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_scaled_unit(self, space, r):
        assert frac_row(spaces.scaled_unit(space, r)) == frac_scale(
            r, om.order_unit(space).coords)


PACKED_SPACES = [om.reals(), om.coord(1), om.coord(3), om.coord(1024),
                 om.entrywise_mat(2, 3)]


@st.composite
def packable_tables(draw):
    """A coordinatewise backend and a table of rows over one denominator,
    with None (infinity), all-zero rows, sums of two earlier rows, and the
    largest numerator at a width boundary, top = 2^k - 1.  A row is a short
    pattern repeated over the coordinates with a few coordinates set, so
    that 1,024-coordinate rows stay cheap to draw."""
    space, den = draw(st.sampled_from(PACKED_SPACES)), draw(st.integers(1, 12))
    top = 2 ** draw(st.integers(0, 70)) - 1
    n = space.ncoords
    numerator = st.sampled_from([0, top, top // 2]) | st.integers(0, top)
    rows = []  # numerator lists, None for infinity
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row", "row", "zero", "infinity", "sum"]))
        if kind == "infinity":
            rows.append(None)
        elif kind == "zero":
            rows.append([0] * n)
        elif kind == "sum" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(None if x is None or y is None else list(map(sum, zip(x, y))))
        else:
            pattern = draw(st.lists(numerator, min_size=1, max_size=3))
            nums = [pattern[i % len(pattern)] for i in range(n)]
            for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), numerator),
                                      max_size=3)):
                nums[i] = v
            rows.append(nums)
    # the largest numerator M becomes 2^k - 1, k the bit length of M
    top = max((max(nums) for nums in rows if nums is not None), default=0)
    if top:
        nums = next(nums for nums in rows if nums is not None and top in nums)
        nums[nums.index(top)] = 2 ** top.bit_length() - 1
    return space, [None if nums is None else (tuple(nums), den) for nums in rows]


LOEWNER_SPACES = [om.loewner_sym(d) for d in (2, 3, 4)]


@st.composite
def loewner_tables(draw):
    """A Loewner backend and a table of rows over mixed denominators, with
    None (infinity), the first row again plus the order unit (x <= y holds
    and y <= x fails) and the first row again over a multiple of its
    denominator (one value in two forms)."""
    space, rng = draw(st.sampled_from(LOEWNER_SPACES)), draw(st.randoms())
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.sampled_from([random_element, random_positive_element]))(rng, space)
        rows.append((e.nums, e.den))
    (nums, den), d, k = rows[0], space.dim, draw(st.integers(2, 5))
    rows.append((tuple(n + den * (i % (d + 1) == 0) for i, n in enumerate(nums)), den))
    rows.append((tuple(k * n for n in nums), k * den))
    rows.append(None)
    return space, draw(st.permutations(rows))


class TestTableKernels:
    """The packed and interned kernels of `spaces.table_kernels` against the
    row kernels they stand in for, on values and on sums of two values."""

    @given(packable_tables())
    @settings(max_examples=300, deadline=None)
    def test_packed_kernels_agree_with_row_kernels(self, case):
        space, rows = case
        self.assert_kernels_agree(space, rows, *spaces.table_kernels(space, rows, 0))

    @given(loewner_tables())
    @settings(max_examples=100, deadline=None)
    def test_interned_kernels_agree_with_row_kernels(self, case):
        # len(rows)^2 visits exceed the D(D + 1)/2 pairs of any D <= len(rows)
        space, rows = case
        self.assert_kernels_agree(space, rows,
                                  *spaces.table_kernels(space, rows, len(rows) ** 2))

    @given(st.sampled_from(LOEWNER_SPACES), st.data())
    @settings(max_examples=50, deadline=None)
    def test_loewner_tables_keep_their_rows(self, space, data):
        # a pass of no more visits than the D(D + 1)/2 unordered pairs of
        # the table's D distinct values keeps the rows; one visit more, and
        # the values are interned
        rows = [None if data.draw(st.booleans()) else
                (random_positive_element(data.draw(st.randoms()), space).nums, 1)
                for _ in range(3)]
        distinct = len(set(rows) - {None})
        self.assert_row_route(space, rows, distinct * (distinct + 1) // 2)
        values = spaces.table_kernels(space, rows, distinct * (distinct + 1) // 2 + 1)[0]
        assert all(isinstance(v, int) for v in values if v is not None)
        assert [v is None for v in values] == [row is None for row in rows]

    @pytest.mark.parametrize("space", PACKED_SPACES[:3], ids=om.SpaceDescriptor.describe)
    def test_mixed_denominators_keep_their_rows(self, space):
        n = space.ncoords
        self.assert_row_route(space, [((1,) * n, 2), None, ((1,) * n, 3)])

    @pytest.mark.parametrize("space", PACKED_SPACES[:3], ids=om.SpaceDescriptor.describe)
    def test_a_negative_numerator_keeps_the_rows(self, space):
        n = space.ncoords
        self.assert_row_route(space, [((0,) * n, 1), ((2,) * (n - 1) + (-1,), 1)])

    @staticmethod
    def assert_kernels_agree(space, rows, values, add, leq, eq):
        assert all(isinstance(v, int) for v in values if v is not None)
        assert [v is None for v in values] == [row is None for row in rows]
        pairs = list(zip(values, rows))
        sums = [(add(x, y), spaces.row_add(rx, ry)) for x, rx in pairs for y, ry in pairs]
        for x, rx in pairs:
            for y, ry in pairs + sums:
                assert leq(x, y) == spaces.row_leq(space, rx, ry)
                assert leq(y, x) == spaces.row_leq(space, ry, rx)
                assert eq(x, y) == spaces.row_eq(rx, ry)
                assert eq(y, x) == spaces.row_eq(ry, rx)
        for x, rx in sums:
            for y, ry in sums:
                assert eq(x, y) == spaces.row_eq(rx, ry)

    @staticmethod
    def assert_row_route(space, rows, visits=0):
        values, add, leq, eq = spaces.table_kernels(space, rows, visits)
        assert values is rows and add is spaces.row_add and eq is spaces.row_eq
        for x in rows:
            for y in rows:
                assert leq(x, y) == spaces.row_leq(space, x, y)


def fold_combination(space, pairs):
    """Oracle for `integral_oracles.combination`: a left fold of `scale` and
    `add`."""
    total = om.zero(space)
    for r, e in pairs:
        total = om.add(total, om.scale(r, e))
    return total


@st.composite
def combinations(draw):
    """A backend and (coefficient, element) pairs: none, zero coefficients,
    mixed and huge denominators, and pairs chosen to cancel."""
    space = draw(st.sampled_from(ORACLE_SPACES))
    coefficient = wide | st.just(Fraction(0)) | st.integers(-3, 3).map(Fraction)
    pairs = [(draw(coefficient), om.Element(space, draw(coords_of(space))))
             for _ in range(draw(st.integers(0, 5)))]
    if pairs and draw(st.booleans()):  # cancel the whole sum
        total = fold_combination(space, pairs)
        if total.is_zero():
            return space, pairs
        pairs.append((Fraction(-1), total))
    return space, pairs


class TestCombination:
    """The general combination of the test oracles against the pairwise
    fold it replaces, and `Measure.evaluate`, which sums a set's atoms on
    the measure's integer atom table."""

    @given(combinations())
    @settings(max_examples=400, deadline=None)
    def test_matches_pairwise_fold(self, case):
        space, pairs = case
        expected = fold_combination(space, pairs)
        result = oracle.combination(space, pairs)
        assert_element(result, space, expected.coords)
        assert (result.nums, result.den) == (expected.nums, expected.den)
        assert result == expected and hash(result) == hash(expected)

    def test_empty_and_zero_sums(self):
        # the empty set, a null atom, and a null atom with the empty set
        for space in ORACLE_SPACES:
            x = om.scale(Fraction(5, 3), om.order_unit(space))
            zero = om.zero(space)
            mu = om.Measure(om.power_set_space(3), space,
                            {1: om.finite(zero), 2: om.finite(zero), 4: om.finite(x)})
            for mask in (0, 1, 3):
                result = mu.evaluate(mask).finite
                assert result == zero and hash(result) == hash(zero)
                assert (result.nums, result.den) == (zero.nums, 1)

    def test_sum_over_one_denominator(self):
        third = c2(1, Fraction(1, 3))
        mu = om.Measure(om.power_set_space(3), C2,
                        {1: om.finite(third), 2: om.finite(third), 4: om.finite(c2(0, 1))})
        assert mu.evaluate(0b111).finite == c2(2, Fraction(5, 3))


def brute_force_lub(a, b, candidates):
    """Independent least-upper-bound oracle over a candidate grid."""
    uppers = [c for c in candidates if om.leq(a, c) and om.leq(b, c)]
    for u in uppers:
        if all(om.leq(u, v) for v in uppers):
            return u
    return None


class TestSupPair:
    def test_lattice_coordinatewise(self):
        assert om.sup_pair(c2(1, 0), c2(0, 1)) == c2(1, 1)

    def test_idempotent(self):
        x = om.sym_matrix([[1, 2], [2, 5]])
        assert om.sup_pair(x, x) == x

    def test_lattice_agrees_with_grid_oracle(self, rng):
        values = [Fraction(n) for n in range(-2, 3)]
        grid = [om.Element(C2, (x, y)) for x in values for y in values]
        for _ in range(60):
            a = rng.choice(grid)
            b = rng.choice(grid)
            expected = brute_force_lub(a, b, grid)
            assert om.sup_pair(a, b) == expected

    def test_loewner_incomparable_declines(self):
        p = om.sym_matrix([[1, 0], [0, 0]])
        q = om.sym_matrix([[0, 0], [0, 1]])
        # neither dominates the other (a principal minor of the difference
        # is negative both ways)
        assert not om.leq(p, q) and not om.leq(q, p)
        result = om.sup_pair(p, q)
        assert isinstance(result, om.NoSupremum)

    def test_loewner_comparable_returns_larger(self):
        p = om.sym_matrix([[1, 0], [0, 1]])
        q = om.sym_matrix([[2, 0], [0, 3]])
        assert om.sup_pair(p, q) == q
        assert om.sup_pair(q, p) == q

    def test_loewner_never_returns_non_dominating(self, rng):
        for _ in range(100):
            a = random_element(rng, L2)
            b = random_element(rng, L2)
            result = om.sup_pair(a, b)
            if isinstance(result, om.Element):
                assert om.leq(a, result) and om.leq(b, result)


class TestDescriptors:
    def test_capabilities(self):
        for space in (om.reals(), C2, om.entrywise_mat(2, 3)):
            assert space.is_lattice
            assert space.is_sigma_dedekind_complete
        assert not L2.is_lattice
        assert not L2.is_sigma_dedekind_complete
        assert om.loewner_sym(1).is_lattice

    def test_loewner_dim_cap(self):
        with pytest.raises(om.DimensionLimitError):
            om.loewner_sym(7)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            om.Element(L2, (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))

    def test_order_unit(self):
        assert om.order_unit(C2) == c2(1, 1)
        assert om.order_unit(L2) == om.sym_matrix([[1, 0], [0, 1]])
