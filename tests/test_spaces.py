import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure.errors import CertificationError, SpaceMismatchError
from ordmeasure.sequences import DeclaredLimit, SequenceSpec

from conftest import random_element, random_positive_element

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


def _det(rows: list) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(rows)
    m = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def minors_psd(a) -> bool:
    """Oracle: PSD iff every principal minor (not only the leading ones) is >= 0."""
    d = a.space.dim
    return all(
        _det([[a.entry(i, j) for j in subset] for i in subset]) >= 0
        for size in range(1, d + 1)
        for subset in itertools.combinations(range(d), size)
    )


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
        assert om.is_psd(a) == minors_psd(a)

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
        assert minors_psd(a) is expected


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


class TestSupIncreasing:
    def test_constant(self):
        x = c2(2, 3)
        seq = om.constant_sequence(x)
        assert om.sup_increasing(seq, bound=x) == x

    def test_geometric_declared_limit(self):
        limit = c2(1, 1)
        seq = SequenceSpec(
            generator=lambda n: om.scale(1 - Fraction(1, 2**n), limit),
            metadata=DeclaredLimit(limit),
            monotonicity="increasing",
        )
        assert om.sup_increasing(seq) == limit

    def test_bound_violation_reports_index(self):
        seq = SequenceSpec(generator=lambda n: om.scale(Fraction(n), c2(1, 0)))
        with pytest.raises(CertificationError, match="n=11"):
            om.sup_increasing(seq, bound=c2(10, 10))

    def test_monotonicity_violation(self):
        seq = SequenceSpec(generator=lambda n: om.scale(Fraction((-1) ** n), c2(1, 1)))
        with pytest.raises(CertificationError, match="monotonicity"):
            om.sup_increasing(seq)

    def test_declared_limit_gap_not_reached(self):
        limit = c2(1, 1)
        seq = SequenceSpec(
            generator=lambda n: om.scale(1 - Fraction(1, n), limit),
            metadata=DeclaredLimit(limit),
            monotonicity="increasing",
        )
        with pytest.raises(CertificationError) as exc:
            om.sup_increasing(seq, horizon=8)
        assert str(exc.value) == (
            "gap 1/16 to declared limit not reached within horizon 8")

    def test_gap_report_without_metadata(self):
        seq = SequenceSpec(
            generator=lambda n: om.scale(1 - Fraction(1, n + 1), c2(1, 1))
        )
        result = om.sup_increasing(seq, bound=c2(1, 1))
        assert isinstance(result, om.GapReport)
        assert result.residual is not None

    def test_archimedean_gap_schedule_reaches_zero(self, rng):
        # x - x/n increases to x; the residuals x/n certify every epsilon of
        # the schedule exactly once the horizon passes 2^16 * max coordinate
        x = c2(1, Fraction(1, 2))
        seq = SequenceSpec(
            generator=lambda n: om.sub(x, om.scale(Fraction(1, n), x)),
            metadata=DeclaredLimit(x),
            monotonicity="increasing",
        )
        assert om.sup_increasing(seq, bound=x, horizon=2**16 + 1) == x


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
