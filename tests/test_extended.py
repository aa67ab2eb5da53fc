from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure.errors import CertificationError, SchemaError
from ordmeasure.extended import (
    certify_divergence,
    ext_sub_finite,
    ext_zero,
    is_ext_positive,
)
from ordmeasure.rationals import INFINITY, parse_rational
from ordmeasure.sequences import (
    DeclaredLimit,
    DivergesToInfinity,
    Periodic,
    SequenceSpec,
    StabilizesAt,
)

from conftest import random_ext_element
from integral_oracles import ext_scalar_add, ext_scalar_leq, ext_scalar_mul
from limit_oracles import stable_tail_sup_increasing

C2 = om.coord(2)


def fin(x, y):
    return om.finite(om.element(C2, [x, y]))


INF = om.infinity(C2)


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


class TestExtSup:
    def test_list_with_infinity(self):
        assert om.ext_sup([fin(1, 0), INF]) == INF

    def test_finite_lattice_list(self):
        assert om.ext_sup([fin(1, 0), fin(0, 1)]) == fin(1, 1)

    def test_divergent_sequence(self):
        seq = SequenceSpec(
            generator=lambda n: fin(n, n),
            metadata=DivergesToInfinity(),
        )
        assert om.ext_sup(seq) == INF

    def test_stabilizing_sequence(self):
        seq = SequenceSpec(
            generator=lambda n: fin(min(n, 3), 0),
            metadata=StabilizesAt(3),
        )
        assert om.ext_sup(seq) == fin(3, 0)

    def test_constant_sampled_tail_is_not_a_supremum(self):
        seq = SequenceSpec(lambda n: fin(0, 0) if n <= 64 else fin(1, 1))
        result = om.ext_sup(seq)
        assert isinstance(result, om.GapReport)
        assert result.last_value == om.zero(C2)

    def test_declared_limit_above_constant_terms(self):
        seq = SequenceSpec(lambda n: fin(0, 0),
                           metadata=DeclaredLimit(om.finite(om.order_unit(C2))))
        with pytest.raises(CertificationError, match="^gap 1/16 not certified$"):
            om.ext_sup(seq)

    def test_declared_limit_must_be_an_element(self):
        seq = SequenceSpec(lambda n: fin(0, 0), metadata=DeclaredLimit(None))
        with pytest.raises(CertificationError, match="or limit of its terms' type$"):
            om.ext_sup(seq)

    def test_infinite_term_exceeds_a_finite_declared_limit(self):
        # The limit is read from the declaration alone: an infinite term
        # refutes a finite one, and a declared divergence is its supremum.
        def term(n):
            return fin(n, 0) if n < 4 else INF
        with pytest.raises(CertificationError, match="^sequence exceeds the target at 4$"):
            om.ext_sup(SequenceSpec(term, metadata=DeclaredLimit(fin(9, 9))))
        assert om.ext_sup(SequenceSpec(term, metadata=DivergesToInfinity())) == INF

    def test_translation_invariance(self, rng):
        for _ in range(100):
            items = [random_ext_element(rng, C2, inf_prob=0.1) for _ in range(4)]
            x = om.finite(om.element(C2, [rng.randint(-3, 3), rng.randint(-3, 3)]))
            shifted = om.ext_sup([om.ext_add(x, i) for i in items])
            base = om.ext_sup(items)
            assert shifted == om.ext_add(x, base)

    def test_sup_in_subspace_is_sup_in_extension(self, rng):
        # a finite supremum of finite elements is also the supremum among
        # extended elements: nothing finite between it and infinity changes
        for _ in range(50):
            items = [random_ext_element(rng, C2, inf_prob=0) for _ in range(3)]
            sup = om.ext_sup(items)
            assert sup.is_finite
            for i in items:
                assert om.ext_leq(i, sup)


class TestLiminfLimsup:
    def test_constant(self):
        x = om.element(C2, [2, 3])
        seq = SequenceSpec(generator=lambda n: x, metadata=StabilizesAt(1))
        assert om.ext_liminf_limsup(seq, horizon=16) == (x, x)

    def test_alternating(self):
        a = om.element(C2, [1, 0])
        b = om.element(C2, [0, 1])
        seq = SequenceSpec(generator=lambda n: a if n % 2 else b, metadata=Periodic(1, 2))
        lo, hi = om.ext_liminf_limsup(seq, horizon=16)
        assert lo == om.element(C2, [0, 0])
        assert hi == om.element(C2, [1, 1])
        assert om.leq(lo, hi)

    def test_declared_limit_monotone(self):
        limit = om.element(C2, [1, 1])
        seq = SequenceSpec(
            generator=lambda n: om.scale(1 - Fraction(1, 2**n), limit),
            metadata=DeclaredLimit(limit),
        )
        assert om.ext_liminf_limsup(seq) == (limit, limit)

    def test_declared_limit_above_constant_terms(self):
        seq = SequenceSpec(lambda n: om.zero(C2), metadata=DeclaredLimit(om.order_unit(C2)))
        with pytest.raises(CertificationError, match="^gap 1/16 not certified$"):
            om.ext_liminf_limsup(seq)

    def test_declared_limit_of_decreasing_sequence(self):
        limit = om.element(C2, [1, 1])
        seq = SequenceSpec(
            generator=lambda n: om.scale(1 + Fraction(1, 2**n), limit),
            metadata=DeclaredLimit(limit),
        )
        assert om.ext_liminf_limsup(seq) == (limit, limit)
        with pytest.raises(CertificationError, match="^sequence dips below the target at 1$"):
            om.ext_liminf_limsup(SequenceSpec(seq.generator, metadata=DeclaredLimit(
                om.scale(2, limit))))

    def test_constant_sequence_declaring_another_limit(self):
        # the declaration is certified, not replaced by the cycle bounds; a
        # declared limit above the terms is test_declared_limit_above_constant_terms
        x = om.element(C2, [2, 3])
        for declared in ([1, 1], [3, 1]):
            seq = SequenceSpec(lambda n: x, metadata=DeclaredLimit(om.element(C2, declared)))
            with pytest.raises(CertificationError, match="^sequence exceeds the target at 1$"):
                om.ext_liminf_limsup(seq, horizon=16)

    def test_declared_infinite_limit_rejected(self):
        seq = SequenceSpec(lambda n: om.element(C2, [n, n]), metadata=DivergesToInfinity())
        with pytest.raises(CertificationError, match="order-bounded"):
            om.ext_liminf_limsup(seq)

    def test_non_lattice_rejected(self):
        x = om.sym_matrix([[1, 0], [0, 1]])
        seq = SequenceSpec(generator=lambda n: x)
        with pytest.raises(CertificationError, match="sigma-Dedekind"):
            om.ext_liminf_limsup(seq, horizon=8)

    def test_liminf_below_limsup_random_periodic(self, rng):
        for _ in range(50):
            period = rng.randint(1, 4)
            cycle = [om.element(C2, (Fraction(rng.randint(-3, 3)),
                                     Fraction(rng.randint(-3, 3))))
                     for _ in range(period)]
            seq = SequenceSpec(generator=lambda n, c=cycle: c[(n - 1) % len(c)],
                               metadata=Periodic(1, period))
            lo, hi = om.ext_liminf_limsup(seq, horizon=24)
            assert om.leq(lo, hi)


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


def ladder_certify_divergence(terms):
    """Oracle for `certify_divergence`: every rung k = 1 .. h - 1 tested, for
    h terms."""
    unit = om.order_unit(terms[0].space)
    for k in range(1, max(len(terms), 2)):
        bound = om.finite(om.scale(Fraction(k), unit))
        if not any(not om.ext_leq(t, bound) for t in terms):
            raise CertificationError(
                f"divergence not certified: all samples below {k} * unit"
            )


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
        assert _raised(certify_divergence, terms) == _raised(ladder_certify_divergence, terms)

    @pytest.mark.parametrize("top, horizon, message", [
        (9, 10, "all samples below 9 * unit"),
        (Fraction(5, 2), 10, "all samples below 3 * unit"),
        (0, 1, "all samples below 1 * unit"),
        (10, 10, None),
    ], ids=["top_rung", "middle_rung", "horizon_one", "escapes"])
    def test_first_failing_rung(self, top, horizon, message):
        # h samples climb a ladder of h - 1 rungs; only the last one is large
        terms = [fin(0, 1)] * (horizon - 1) + [fin(top, 0)]
        raised = _raised(certify_divergence, terms)
        assert raised == (message and f"divergence not certified: {message}")

    @pytest.mark.parametrize("horizon, top", [(1, 1), (2, 1), (10, 9)])
    def test_returns_the_top_rung(self, horizon, top):
        terms = [fin(0, 1)] * (horizon - 1) + [fin(10, 0)]
        assert certify_divergence(terms) == top


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
    by `StabilizesAt` or `DeclaredLimit`.  A declared limit other than
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
        metadata = StabilizesAt(draw(st.integers(1, horizon)))
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
    """`sup_increasing`, `ext_sup` and `ext_liminf_limsup` return what the
    earlier stable-tail procedure returns, or refuse exactly when it does,
    on every sequence where its constant-tail guess is not taken."""
    seq, horizon = drawn
    expected = _outcome(stable_tail_sup_increasing, seq, horizon=horizon)
    assert _outcome(om.sup_increasing, seq, horizon=horizon) == expected
    # A declared limit has its terms' type, here an extended element.
    wrapped = SequenceSpec(lambda n: om.finite(seq.term(n)), metadata=(
        DeclaredLimit(om.finite(seq.metadata.value))
        if isinstance(seq.metadata, DeclaredLimit) else seq.metadata))
    assert _outcome(om.ext_sup, wrapped, horizon=horizon) == (
        expected if expected is CertificationError else om.finite(expected))
    if seq.term(1).space.is_lattice and isinstance(seq.metadata, DeclaredLimit):
        assert _outcome(om.ext_liminf_limsup, seq, horizon=horizon) == (
            expected if expected is CertificationError else (expected, expected))
