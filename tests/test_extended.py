from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure.errors import CertificationError, SchemaError
from ordmeasure.extended import (
    certify_divergence,
    certify_monotone_limit,
    ext_rows,
    ext_sub_finite,
    ext_zero,
    is_ext_positive,
)
from ordmeasure.rationals import INFINITY, parse_rational
from ordmeasure.sequences import (
    DEFAULT_EPSILONS,
    DeclaredLimit,
    Periodic,
    SequenceSpec,
    declared_limit,
)

from conftest import random_element, random_ext_element
from integral_oracles import (ext_scalar_add, ext_scalar_leq, ext_scalar_mul,
                              ladder_certify_divergence)
from limit_oracles import stable_tail_sup_increasing

C2 = om.coord(2)


def fin(x, y):
    return om.finite(om.element(C2, [x, y]))


INF = om.infinity(C2)


def on_rows(values, target, epsilons, increasing=True):
    """`certify_monotone_limit` on extended elements of one space, which
    `ext_rows` converts to the rows it takes."""
    *rows, target_row = ext_rows([*values, target])
    return certify_monotone_limit(target.space, rows, target_row, epsilons, increasing)


def divergence_on_rows(terms):
    """`certify_divergence` on extended elements, converted by `ext_rows`."""
    return certify_divergence(terms[0].space, ext_rows(terms))


ext_elements = st.one_of(
    st.just(INF),
    st.tuples(
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    ).map(lambda t: om.finite(om.Element(C2, t))),
)


class TestMonoidProperties:
    @given(ext_elements, ext_elements, ext_elements)
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, a, b, c):
        assert om.ext_add(om.ext_add(a, b), c) == om.ext_add(a, om.ext_add(b, c))

    @given(ext_elements, ext_elements)
    @settings(max_examples=200, deadline=None)
    def test_commutativity(self, a, b):
        assert om.ext_add(a, b) == om.ext_add(b, a)

    @given(ext_elements)
    @settings(max_examples=100, deadline=None)
    def test_identity_and_absorption(self, a):
        assert om.ext_add(a, om.finite(om.zero(C2))) == a
        assert om.ext_add(a, INF) == INF

    @given(ext_elements, ext_elements, ext_elements)
    @settings(max_examples=200, deadline=None)
    def test_order_translation(self, a, b, c):
        if om.ext_leq(a, b):
            assert om.ext_leq(om.ext_add(a, c), om.ext_add(b, c))


class TestExtAdd:
    def test_infinity_absorbs(self):
        assert om.ext_add(fin(1, 2), INF) == INF
        assert om.ext_add(INF, fin(1, 2)) == INF
        assert om.ext_add(INF, INF) == INF

    def test_finite_sum(self):
        assert om.ext_add(fin(1, 0), fin(0, 1)) == fin(1, 1)

    def test_monoid_laws_random(self, rng):
        for space in (om.reals(), om.coord(3), om.entrywise_mat(2, 2),
                      om.loewner_sym(2)):
            zero = ext_zero(space)
            for _ in range(100):
                a = random_ext_element(rng, space)
                b = random_ext_element(rng, space)
                c = random_ext_element(rng, space)
                assert om.ext_add(om.ext_add(a, b), c) == om.ext_add(a, om.ext_add(b, c))
                assert om.ext_add(a, b) == om.ext_add(b, a)
                assert om.ext_add(a, zero) == a


class TestExtScale:
    def test_zero_times_infinity(self):
        assert om.ext_scale(Fraction(0), INF) == fin(0, 0)

    def test_infinity_times_zero(self):
        assert om.ext_scale(INFINITY, fin(0, 0)) == fin(0, 0)

    def test_infinity_times_nonzero(self):
        assert om.ext_scale(INFINITY, fin(1, 0)) == INF
        assert om.ext_scale(INFINITY, INF) == INF

    def test_finite_action(self):
        assert om.ext_scale(Fraction(3), fin(1, 2)) == fin(3, 6)
        assert om.ext_scale(Fraction(2), INF) == INF

    def test_infinite_scalar_requires_positive(self):
        with pytest.raises(ValueError):
            om.ext_scale(INFINITY, fin(-1, 0))

    def test_action_compatibility(self, rng):
        scalars = [Fraction(0), Fraction(1, 2), Fraction(3), INFINITY]
        for _ in range(200):
            r = rng.choice(scalars)
            s = rng.choice(scalars)
            x = random_ext_element(rng, C2, positive=True)
            lhs = om.ext_scale(r, om.ext_scale(s, x))
            rhs = om.ext_scale(ext_scalar_mul(r, s), x)
            assert lhs == rhs

    def test_distributivity_finite_scalars(self, rng):
        for _ in range(200):
            r = Fraction(rng.randint(0, 4), rng.randint(1, 4))
            s = Fraction(rng.randint(0, 4), rng.randint(1, 4))
            x = random_ext_element(rng, C2, positive=True)
            assert om.ext_scale(r + s, x) == om.ext_add(om.ext_scale(r, x),
                                                        om.ext_scale(s, x))


class TestExtOrder:
    def test_everything_below_infinity(self):
        assert om.ext_leq(fin(5, 5), INF)
        assert om.ext_leq(INF, INF)
        assert not om.ext_leq(INF, fin(5, 5))

    def test_finite_delegates(self):
        assert om.ext_leq(fin(1, 0), fin(1, 1))
        assert not om.ext_leq(fin(1, 1), fin(1, 0))

    def test_order_compatibility_random(self, rng):
        for _ in range(200):
            a = random_ext_element(rng, C2)
            b = random_ext_element(rng, C2)
            c = random_ext_element(rng, C2)
            if om.ext_leq(a, b):
                assert om.ext_leq(om.ext_add(a, c), om.ext_add(b, c))

    def test_scalar_order_compatibility(self, rng):
        scalars = [Fraction(0), Fraction(1, 3), Fraction(2), INFINITY]
        for _ in range(200):
            r, s = rng.choice(scalars), rng.choice(scalars)
            a = random_ext_element(rng, C2, positive=True)
            b = om.ext_add(a, random_ext_element(rng, C2, positive=True))
            if ext_scalar_leq(r, s):
                assert om.ext_leq(om.ext_scale(r, a), om.ext_scale(s, b))


def certified_limit(seq: SequenceSpec, horizon=None):
    """The limit that the increasing sequence of elements `seq` declares
    (`declared_limit`), certified on its samples by `certify_monotone_limit`."""
    terms, limit = declared_limit(seq, horizon)
    on_rows([om.finite(t) for t in terms], om.finite(limit), DEFAULT_EPSILONS)
    return limit


def _diag(r: Fraction):
    return fin(r, r)


class TestCertifyMonotoneLimit:
    """The one certifier of a monotone limit: each mode with its evidence."""

    def test_stabilized_at_the_final_run(self):
        values = [fin(1, 0), fin(2, 3), fin(2, 3)]
        assert on_rows(values, fin(2, 3), DEFAULT_EPSILONS) == {
            "mode": "stabilized", "at": 2}

    @pytest.mark.parametrize("increasing", [True, False], ids=["increasing", "decreasing"])
    def test_constant_is_stabilized_from_the_first_term(self, increasing):
        x = fin(2, 3)
        assert on_rows([x] * 16, x, DEFAULT_EPSILONS, increasing) == {
            "mode": "stabilized", "at": 1}

    @pytest.mark.parametrize("increasing, message", [
        (True, "^integral sequence not increasing at 2$"),
        (False, "^integral sequence not decreasing at 1$")],
        ids=["increasing", "decreasing"])
    def test_order_violation_reports_the_index(self, increasing, message):
        # (-1)^n * (1, 1) rises from term 1 to term 2 and falls to term 3.
        values = [_diag((-1) ** n) for n in range(1, 9)]
        with pytest.raises(CertificationError, match=message):
            on_rows(values, fin(1, 1), DEFAULT_EPSILONS, increasing)

    @pytest.mark.parametrize("increasing, values, target, message", [
        (True, [fin(n, 0) for n in range(1, 17)], fin(10, 10),
         "^integral sequence exceeds the target at 11$"),
        (False, [_diag(1 + Fraction(1, 2**n)) for n in range(1, 17)], fin(2, 2),
         "^integral sequence dips below the target at 1$")],
        ids=["increasing", "decreasing"])
    def test_crossing_the_target_reports_the_index(self, increasing, values, target,
                                                   message):
        # n * (1, 0) passes (10, 10) at n = 11; (1 + 2^-n) * (1, 1) starts
        # below (2, 2).
        with pytest.raises(CertificationError, match=message):
            on_rows(values, target, DEFAULT_EPSILONS, increasing)

    @pytest.mark.parametrize("declared", [[1, 1], [3, 1]], ids=["below", "incomparable"])
    def test_constant_declaring_another_limit(self, declared):
        # The declaration is certified, not replaced by the constant value.
        x = om.element(C2, [2, 3])
        seq = SequenceSpec(lambda n: x, metadata=DeclaredLimit(om.element(C2, declared)))
        with pytest.raises(CertificationError,
                           match="^integral sequence exceeds the target at 1$"):
            certified_limit(seq, horizon=16)

    def test_constant_window_of_an_undeclared_sequence_is_no_limit(self):
        # Every sampled term is zero, but the supremum is the unit: with no
        # declared limit the samples alone certify nothing.
        zero, unit = om.zero(C2), om.order_unit(C2)
        with pytest.raises(CertificationError, match="^limit not certifiable: "):
            certified_limit(SequenceSpec(lambda n: zero if n <= 64 else unit), horizon=64)

    @pytest.mark.parametrize("increasing", [True, False], ids=["increasing", "decreasing"])
    def test_geometric_is_gap_certified(self, increasing):
        # (1 -+ 2^-n) * (1, 1) is within 2^-k of (1, 1) from n = k on.
        sign = -1 if increasing else 1
        values = [_diag(1 + sign * Fraction(1, 2**n)) for n in range(1, 65)]
        assert on_rows(values, fin(1, 1), DEFAULT_EPSILONS, increasing) == {
            "mode": "gap-certified",
            "gaps": [{"epsilon": f"1/{2**k}", "index": k} for k in (4, 8, 12, 16)]}

    @pytest.mark.parametrize("values, target", [
        ([_diag(1 - Fraction(1, n)) for n in range(1, 9)], fin(1, 1)),
        ([fin(0, 0)] * 64, fin(1, 1)),
    ], ids=["1-1/n-at-8", "constant-below"])
    def test_gap_not_reached(self, values, target):
        # 1 - 1/n is 1/8 short of 1 at n = 8, and zero is 1 short: neither
        # comes within 1/16.
        with pytest.raises(CertificationError, match="^integral gap 1/16 not certified$"):
            on_rows(values, target, DEFAULT_EPSILONS)

    def test_infinite_target(self):
        # n * (1, 1) escapes every rung k * (1, 1), k = 1 .. 7, of eight
        # samples; a sequence that reaches infinity has stabilized there, and
        # exceeds any finite target there.
        values = [fin(n, n) for n in range(1, 9)]
        assert on_rows(values, INF, DEFAULT_EPSILONS) == {
            "mode": "divergence-certified", "ladder_top": 7}
        reaching = values[:3] + [INF] * 5
        assert on_rows(reaching, INF, DEFAULT_EPSILONS) == {
            "mode": "stabilized", "at": 4}
        with pytest.raises(CertificationError,
                           match="^integral sequence exceeds the target at 4$"):
            on_rows(reaching, fin(9, 9), DEFAULT_EPSILONS)

    def test_declared_stabilization_is_read_only_when_sampled(self):
        # min(n, 100) is constant from term 100 on: its supremum is 100,
        # which four terms do not reach, and a declared index before the
        # terms stop rising is contradicted by the next sampled term, which
        # `declared_cycle` reads before the certifier sees the target.
        reals = om.reals()

        def term(n):
            return om.element(reals, [min(n, 100)])
        seq = SequenceSpec(term, metadata=Periodic(100, 1))
        with pytest.raises(CertificationError, match="^tail not certifiable within horizon 4: "):
            certified_limit(seq, horizon=4)
        assert certified_limit(seq, horizon=100) == term(100)
        with pytest.raises(CertificationError,
                           match="^declared cycle contradicted by term 31$"):
            certified_limit(SequenceSpec(term, metadata=Periodic(30, 1)), horizon=100)

    @pytest.mark.parametrize("horizon", [40, 64])
    def test_stabilization_index_is_the_declared_term(self, horizon):
        # x - x / 2^min(n, 40) is constant from term 40 on.
        seq = SequenceSpec(_approaching_x, metadata=Periodic(40, 1))
        assert certified_limit(seq, horizon=horizon) == _approaching_x(40)

    @pytest.mark.parametrize("horizon", [10, 32, 39])
    def test_declared_term_is_read_only_when_sampled(self, horizon):
        # However close the last sample comes to term 40, it is not read.
        seq = SequenceSpec(_approaching_x, metadata=Periodic(40, 1))
        with pytest.raises(CertificationError,
                           match=f"^tail not certifiable within horizon {horizon}: "):
            certified_limit(seq, horizon=horizon)

    def test_translation_invariance(self, rng):
        # Adding one finite element to every term and to a finite target
        # keeps the mode, its evidence and any refusal.
        unit = om.finite(om.order_unit(C2))
        for _ in range(100):
            steps = [random_ext_element(rng, C2, inf_prob=0, positive=True)
                     for _ in range(6)]
            values = list(accumulate(steps, om.ext_add))
            bump = rng.choice([ext_zero(C2), om.ext_scale(Fraction(1, 2**20), unit),
                               random_ext_element(rng, C2, inf_prob=0, positive=True)])
            increasing = rng.random() < 0.5
            if increasing:
                target = om.ext_add(values[-1], bump)
            else:
                values.reverse()
                target = ext_sub_finite(values[-1], bump)
            if rng.random() < 0.2:
                i = rng.randrange(5)
                values[i], values[i + 1] = values[i + 1], values[i]
            x = om.finite(random_element(rng, C2))
            shifted = [om.ext_add(x, v) for v in values]
            assert (_certification(values, target, increasing)
                    == _certification(shifted, om.ext_add(x, target), increasing))

    def test_archimedean_gap_schedule_reaches_zero(self):
        # x - x/n increases to x; the residuals x/n certify every epsilon of
        # the schedule exactly once the horizon passes 2^16 * max coordinate
        x = om.element(C2, [1, Fraction(1, 2)])
        seq = SequenceSpec(lambda n: om.sub(x, om.scale(Fraction(1, n), x)),
                           metadata=DeclaredLimit(x))
        assert certified_limit(seq, horizon=2**16 + 1) == x


def _approaching_x(n: int):
    """x - x / 2^min(n, 40) for x = (1, 1), constant from term 40 on."""
    x = om.element(C2, [1, 1])
    return om.sub(x, om.scale(Fraction(1, 2 ** min(n, 40)), x))


def _certification(values, target, increasing):
    """What `certify_monotone_limit` returns, or the message it refuses with."""
    try:
        return on_rows(values, target, DEFAULT_EPSILONS, increasing)
    except CertificationError as exc:
        return str(exc)


class TestHelpers:
    def test_ext_sub_finite(self):
        assert ext_sub_finite(fin(3, 3), fin(1, 2)) == fin(2, 1)
        assert ext_sub_finite(INF, fin(1, 2)) == INF
        with pytest.raises(ValueError):
            ext_sub_finite(fin(1, 1), INF)

    def test_positive_cone_membership(self):
        assert is_ext_positive(INF)
        assert is_ext_positive(fin(0, 0))
        assert not is_ext_positive(fin(-1, 0))

    def test_scalar_helpers(self):
        assert ext_scalar_add(INFINITY, Fraction(1)) is INFINITY
        assert ext_scalar_mul(Fraction(0), INFINITY) == 0
        assert ext_scalar_mul(INFINITY, Fraction(0)) == 0
        assert ext_scalar_mul(INFINITY, INFINITY) is INFINITY


class TestParseRational:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-3", Fraction(-3)), ("0", Fraction(0)), ("-0", Fraction(0)),
        ("3/4", Fraction(3, 4)), ("-6/8", Fraction(-3, 4)), ("007/2", Fraction(7, 2)),
        ("1" + "0" * 40, Fraction(10**40)),
    ])
    def test_grammar_accepts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1_000", "\u0663/\u0664", "\u0663", "+3", "1 / 2", "\u00a01", " 1", "1 ", "1\n",
        "", "-", "/2", "1/", "1/-2", "1/+2", "--1", "1.5", "1e3", "0x10", "1/2/3",
        "\uff11", "9" * 5000,
    ], ids=repr)
    def test_grammar_rejects(self, text):
        with pytest.raises(SchemaError, match="malformed rational") as exc:
            parse_rational(text, "/x")
        assert exc.value.path == "/x"

    @pytest.mark.parametrize("text, message", [
        ("1/0", "zero denominator"), ("-0/00", "zero denominator"),
        (3, "expected rational string"), (None, "expected rational string"),
    ])
    def test_other_errors(self, text, message):
        with pytest.raises(SchemaError, match=message):
            parse_rational(text)


def _raised(fn, *args):
    """The message `fn` raises as a CertificationError, or None."""
    try:
        fn(*args)
    except CertificationError as exc:
        return str(exc)
    return None


@st.composite
def divergence_cases(draw):
    """Terms on Reals, C2 or LoewnerSym(2): increasing, bounded or arbitrary
    finite terms, sometimes with infinite ones."""
    space = draw(st.sampled_from([om.reals(), C2, om.loewner_sym(2)]))
    count = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["increasing", "bounded", "arbitrary"]))
    scalar = {"increasing": st.fractions(0, 3, max_denominator=4),
              "bounded": st.fractions(0, 1, max_denominator=3),
              "arbitrary": st.fractions(-6, 14, max_denominator=3)}[shape]

    def element():
        if space.kind is om.SpaceKind.LOEWNER_SYM:
            a, b, c = (draw(scalar) for _ in range(3))
            return om.sym_matrix([[a, b], [b, c]])
        return om.Element(space, tuple(draw(scalar) for _ in range(space.ncoords)))

    terms, total = [], om.zero(space)
    for _ in range(count):
        total = om.add(total, element()) if shape == "increasing" else element()
        terms.append(om.finite(total))
    if draw(st.integers(0, 3)) == 0:
        terms[draw(st.integers(0, count - 1))] = om.infinity(space)
    return terms


class TestCertifyDivergence:
    """`certify_divergence` against the full ladder of bounds it replaced."""

    @given(divergence_cases())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_full_ladder(self, terms):
        assert _raised(divergence_on_rows, terms) == _raised(ladder_certify_divergence, terms)

    @pytest.mark.parametrize("top, horizon, message", [
        (9, 10, "all samples below 9 * unit"),
        (Fraction(5, 2), 10, "all samples below 3 * unit"),
        (0, 1, "all samples below 1 * unit"),
        (10, 10, None),
    ], ids=["top_rung", "middle_rung", "horizon_one", "escapes"])
    def test_first_failing_rung(self, top, horizon, message):
        # h samples climb a ladder of h - 1 rungs; only the last one is large
        terms = [fin(0, 1)] * (horizon - 1) + [fin(top, 0)]
        raised = _raised(divergence_on_rows, terms)
        assert raised == (message and f"divergence not certified: {message}")

    @pytest.mark.parametrize("horizon, top", [(1, 1), (2, 1), (10, 9)])
    def test_returns_the_top_rung(self, horizon, top):
        terms = [fin(0, 1)] * (horizon - 1) + [fin(10, 0)]
        assert divergence_on_rows(terms) == top


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CertificationError:
        return CertificationError


small = st.integers(-3, 3)


@st.composite
def _elements(draw, space, positive=False):
    """Small integer elements; `positive` ones are in the cone (B * B^T on
    the Loewner backend)."""
    if space.kind is om.SpaceKind.LOEWNER_SYM:
        a, b, c, d = (draw(small) for _ in range(4))
        if positive:
            return om.sym_matrix([[a * a + b * b, a * c + b * d],
                                  [a * c + b * d, c * c + d * d]])
        return om.sym_matrix([[a, b], [b, c]])
    return om.element(space, [draw(st.integers(0, 3) if positive else small)
                              for _ in range(space.ncoords)])


@st.composite
def declared_increasing(draw):
    """(seq, horizon): terms top - c_n * step with c_n decreasing, declared
    by `Periodic(k, 1)` or `DeclaredLimit`.  A declared limit other than
    `top` is drawn only when the terms never repeat, so no sampled tail is
    constant below the declared limit."""
    space = draw(st.sampled_from([C2, om.loewner_sym(2)]))
    top, step = draw(_elements(space)), draw(_elements(space, positive=True))
    horizon = draw(st.integers(1, 24))
    rate = draw(st.sampled_from(["geometric", "harmonic", "stops"]))
    stop = draw(st.integers(1, 30))

    def term(n):
        c = {"geometric": Fraction(1, 2**n), "harmonic": Fraction(1, n),
             "stops": Fraction(max(0, stop - n))}[rate]
        return om.sub(top, om.scale(c, step))

    if draw(st.booleans()):
        metadata = Periodic(draw(st.integers(1, horizon)), 1)
    else:
        offsets = [om.zero(space)]
        if rate != "stops" and not step.is_zero():
            offsets += [om.scale(Fraction(1, 2**20), om.order_unit(space)),
                        draw(_elements(space, positive=True)), draw(_elements(space))]
        metadata = DeclaredLimit(om.add(top, draw(st.sampled_from(offsets))))
    return SequenceSpec(term, metadata=metadata), horizon


@settings(max_examples=300, deadline=None)
@given(declared_increasing())
def test_declared_limits_agree_with_the_stable_tail_oracle(drawn):
    """A declared limit certified by `certify_monotone_limit` is what the
    earlier stable-tail procedure returns, or is refused exactly when it is,
    on every sequence where its constant-tail guess is not taken."""
    seq, horizon = drawn
    expected = _outcome(stable_tail_sup_increasing, seq, horizon=horizon)
    assert _outcome(certified_limit, seq, horizon=horizon) == expected
