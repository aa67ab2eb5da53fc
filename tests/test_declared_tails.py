"""A sequence's tail is read from its declaration, never from the window.

The parser declares each kind's tail exactly (`scenarios._parse_sequence`,
`_set_sequence`), and `sequences.declared_cycle` is the one reader: the
checks that read a tail (`fatou`, `borel_cantelli`, the continuity checks,
and `mct`, `mct_decreasing` and `dct` on a stabilizing sequence) are
not-certifiable at a horizon that ends before the first declared cycle
does.  The reproducers below are sequences whose window misleads: a
stretch of equal terms inside a cycle, or a horizon that ends before the
final run; their expected values are derived by hand in the comments.  The property tests
compare `fatou` and `borel_cantelli` with a Fraction oracle built from the
document's term list.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure.errors import CertificationError
from ordmeasure.rationals import format_rational
from ordmeasure.scenarios import RunConfig, parse_scenario, run_scenario
from ordmeasure.sequences import (Periodic, SequenceSpec, StabilizesAt, declared_cycle,
                                  from_terms, least_cycle, stable_from)

# coord(2) on two points, each an atom: {0} carries (1, 0) and {1} carries (0, 1),
# so the integral of a function is the pair of its two values.
UNIT_PAIR = {"space": {"kind": "coord", "dim": 2}, "ground_size": 2,
             "sigma_algebra": {"power_set": True},
             "measure": {"atom_values": {"0": {"finite": ["1", "0"]},
                                         "1": {"finite": ["0", "1"]}}}}
# reals on two points, each an atom of measure 1.
UNIT_REALS = {"space": {"kind": "reals"}, "ground_size": 2,
              "sigma_algebra": {"power_set": True},
              "measure": {"atom_values": {"0": {"finite": ["1"]}, "1": {"finite": ["1"]}}}}
FUNCTIONS = {"a": ["1", "0"], "b": ["0", "1"], "c": ["5", "5"], "f": ["1", "1"],
             "g": ["2", "2"]}


def run(doc: dict, horizon: int) -> dict:
    """The one check of `doc`, run at `horizon`."""
    return run_scenario(parse_scenario(doc), RunConfig(horizon=horizon))["checks"][0]


def function_doc(kind: str, terms: list, check: dict) -> dict:
    """`UNIT_PAIR` with the functions a, b, c, f and g and one sequence `s`."""
    return dict(UNIT_PAIR,
                functions={name: {"values": v} for name, v in FUNCTIONS.items()},
                sequences={"s": {"kind": kind, "terms": terms}},
                checks=[dict(check, sequence="s")])


def set_doc(check: str, kind: str, sets: list) -> dict:
    return dict(UNIT_REALS, checks=[{"check": check, "sets": {"kind": kind, "terms": sets}}])


def finite(*coords) -> dict:
    return {"finite": [str(c) for c in coords]}


class TestReproducers:
    def test_fatou_short_cycle_after_a_repeat(self):
        # a, b, b, a, b, b, ...: the liminf at each point is 0, so lhs is
        # (0, 0); the integrals are (1, 0), (0, 1), (0, 1) with infimum (0, 0).
        report = run(function_doc("alternating", ["a", "b", "b"], {"check": "fatou"}), 66)
        assert report["status"] == "holds"
        assert report["details"] == {"cycle": {"preperiod": 0, "period": 3},
                                     "lhs": finite(0, 0), "rhs": finite(0, 0),
                                     "strict": False}

    def test_fatou_long_run_of_equal_terms(self):
        # 299 a's then one b, cycled: b comes back every 300 terms, so the
        # liminf is min(a, b) = (0, 0), as is the infimum of (1, 0) and (0, 1).
        doc = function_doc("alternating", ["a"] * 299 + ["b"], {"check": "fatou"})
        report = run(doc, 1024)
        assert report["status"] == "holds"
        assert report["details"]["cycle"] == {"preperiod": 0, "period": 300}
        assert report["details"]["lhs"] == report["details"]["rhs"] == finite(0, 0)

    def test_fatou_explicit_sampled_below_its_length(self):
        # a, b, a, b, c, c, ...: constant c = (5, 5) from term 5 on, so both
        # sides are (5, 5); horizon 4 never reaches term 5.
        doc = function_doc("explicit", ["a", "b", "a", "b", "c"], {"check": "fatou"})
        assert run(doc, 4)["status"] == "not-certifiable"
        report = run(doc, 8)
        assert report["status"] == "holds"
        assert report["details"]["cycle"] == {"preperiod": 4, "period": 1}
        assert report["details"]["lhs"] == report["details"]["rhs"] == finite(5, 5)

    @pytest.mark.parametrize("check, terms", [
        ({"check": "mct", "limit": "f"}, ["f", "g"]),
        ({"check": "dct", "limit": "g", "dominator": "g"}, ["g", "f"]),
    ], ids=["mct", "dct"])
    def test_convergence_sampled_before_it_stabilizes(self, check, terms):
        # The limit is term 2, g for mct and f for dct, not the declared
        # limit; one term shows only the first.
        report = run(function_doc("explicit", terms, check), 1)
        assert report["status"] == "not-certifiable"
        assert run(function_doc("explicit", terms, check), 2)["status"] == "not-certifiable"

    def test_borel_cantelli_long_run_of_equal_sets(self):
        # {1} comes back every 300 terms, so every tail's union is {0, 1}.
        report = run(set_doc("borel_cantelli", "alternating", [[0]] * 299 + [[1]]), 1024)
        assert report["details"]["limsup_set"] == [0, 1]

    def test_continuity_below_reaches_its_declared_final_set(self):
        # {0}, {0}, {0, 1}, {0, 1}, ...: the union is {0, 1}, of measure 2.
        doc = set_doc("continuity_below", "explicit", [[0], [0], [0, 1]])
        assert run(doc, 2)["status"] == "not-certifiable"
        report = run(doc, 3)
        assert report["status"] == "holds"
        assert report["details"] == {"union": [0, 1], "value": finite(2)}

    def test_continuity_refuses_a_declared_period(self):
        # {0}, {0, 1}, {0}, ... is not increasing; two terms do not show it.
        doc = set_doc("continuity_below", "alternating", [[0], [0, 1]])
        report = run(doc, 2)
        assert report["status"] == "not-certifiable"
        assert report["details"]["reason"] == "set sequence not increasing: it declares period 2"

    @pytest.mark.parametrize("check", [{"check": "mct", "limit": "f"},
                                       {"check": "dct", "limit": "f", "dominator": "g"}],
                             ids=["mct", "dct"])
    def test_declared_final_term_is_compared_exactly(self, check):
        # The one term is 2^-20 below the limit f at point 0: every gap of
        # the schedule would pass, but a stabilizing sequence's limit is its
        # term, which is not f.
        doc = function_doc("explicit", [{"values": ["1048575/1048576", "1"]}], check)
        report = run(doc, 4)
        assert report["status"] == "not-certifiable"
        assert report["details"]["reason"] == ("declared final term 1 is not the limit "
                                               "at non-null points [0]")


class TestDeclarations:
    @pytest.mark.parametrize("terms, index", [
        ([1], 1), ([1, 1], 1), ([1, 2], 2), ([1, 2, 2, 2], 2), ([2, 1, 2], 3)])
    def test_stable_from_is_the_first_index_of_the_final_run(self, terms, index):
        assert stable_from(terms) == StabilizesAt(index)
        assert from_terms(terms).metadata == StabilizesAt(index)

    @pytest.mark.parametrize("terms, period", [
        ([1], 1), ([1, 1, 1], 1), ([1, 2], 2), ([1, 2, 1, 2], 2), ([1, 2, 1], 3),
        ([1, 1, 2], 3), ([1, 2, 1, 2, 1, 2], 2)])
    def test_least_cycle_is_the_least_period_of_the_list(self, terms, period):
        assert least_cycle(terms) == Periodic(1, period)

    @pytest.mark.parametrize("sequence, metadata", [
        ({"kind": "geometric", "base": "f", "bump": "a", "ratio": "0"}, StabilizesAt(1)),
        ({"kind": "geometric", "base": "f", "bump": "zero", "ratio": "1/2"},
         StabilizesAt(1)),
        ({"kind": "geometric", "base": "f", "bump": "a", "ratio": "1/2"}, "limit"),
        ({"kind": "truncation_ladder", "of": "c"}, StabilizesAt(5)),
        ({"kind": "truncation_ladder", "of": "half"}, StabilizesAt(1)),
        ({"kind": "truncation_ladder", "of": "zero"}, StabilizesAt(1)),
        ({"kind": "truncation_ladder", "of": "big"}, StabilizesAt(3)),
        ({"kind": "truncation_ladder", "of": "infinite"}, "limit"),
        ({"kind": "scaled_index", "shape": "zero"}, StabilizesAt(1)),
        ({"kind": "scaled_index", "shape": "a"}, om.DivergesToInfinity()),
        ({"kind": "explicit", "terms": ["a", "a", {"values": ["1", "0"]}]}, StabilizesAt(1)),
        ({"kind": "explicit", "terms": ["a", "b", "b"]}, StabilizesAt(2)),
        ({"kind": "alternating", "terms": ["a", "b", "a", "b"]}, Periodic(1, 2)),
    ])
    def test_parser_declares_each_kind(self, sequence, metadata):
        functions = dict(FUNCTIONS, zero=["0", "0"], half=["1/2", "0"], big=["5/2", "1"],
                         infinite=["1", "infinity"])
        doc = dict(UNIT_PAIR, functions={n: {"values": v} for n, v in functions.items()},
                   sequences={"s": sequence}, checks=[])
        declared = parse_scenario(doc).sequences["s"].metadata
        if metadata == "limit":
            assert isinstance(declared, om.DeclaredLimit)
        else:
            assert declared == metadata

    @pytest.mark.parametrize("metadata, horizon", [
        (None, 8), (om.DeclaredLimit(0), 8), (Periodic(3, 2), 3), (StabilizesAt(4), 3)])
    def test_reader_refuses_with_one_message(self, metadata, horizon):
        with pytest.raises(CertificationError) as caught:
            declared_cycle(SequenceSpec(lambda n: n, metadata=metadata), horizon)
        assert str(caught.value) == (f"tail not certifiable within horizon {horizon}: "
                                     "it needs a declared cycle, sampled in full")

    @pytest.mark.parametrize("metadata, horizon, cycle", [
        (Periodic(3, 2), 4, (2, 2)), (StabilizesAt(4), 4, (3, 1)), (Periodic(1, 1), 9, (0, 1))])
    def test_reader_returns_the_declared_cycle(self, metadata, horizon, cycle):
        samples, *read = declared_cycle(SequenceSpec(lambda n: n, metadata=metadata), horizon)
        assert samples == list(range(1, horizon + 1)) and tuple(read) == cycle


# The Fraction oracle: a document's term lists and measure, read from the
# document itself, never from a sampled window.

POOL = [["0", "1"], ["1/2", "0"], ["1", "1"], ["2", "1/2"]]


def oracle_cycle(kind: str, terms: list) -> tuple:
    """(preperiod, period) of the least declared cycle of `terms`."""
    if kind == "explicit":
        return max((i for i, t in enumerate(terms, start=1) if t != terms[-1]), default=0), 1
    size = len(terms)
    return 0, next(p for p in range(1, size + 1)
                   if size % p == 0 and all(terms[i] == terms[(i + p) % size]
                                            for i in range(size)))


def integral_of(values: list, atoms: list) -> list:
    """The integral of a finite function on singleton atoms, coordinate by coordinate."""
    return [sum(Fraction(v) * Fraction(atom[c]) for v, atom in zip(values, atoms))
            for c in range(2)]


@st.composite
def cycle_docs(draw):
    """(kind, term list, atoms): 2 points with atom values in coord(2), and
    up to 6 terms drawn from a pool of 2 or 3, so that terms repeat."""
    kind = draw(st.sampled_from(["explicit", "alternating"]))
    pool = draw(st.lists(st.sampled_from(range(len(POOL))), min_size=2, max_size=3,
                         unique=True))
    terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    atoms = draw(st.lists(st.tuples(st.sampled_from(["0", "1", "2"]),
                                    st.sampled_from(["0", "1/3", "1"])),
                          min_size=2, max_size=2))
    return kind, terms, atoms


@given(cycle_docs(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_fatou_matches_the_term_list_oracle(drawn, extra):
    kind, terms, atoms = drawn
    doc = {"space": {"kind": "coord", "dim": 2}, "ground_size": 2,
           "sigma_algebra": {"power_set": True},
           "measure": {"atom_values": {str(x): {"finite": list(v)}
                                       for x, v in enumerate(atoms)}},
           "functions": {f"t{i}": {"values": v} for i, v in enumerate(POOL)},
           "sequences": {"s": {"kind": kind, "terms": [f"t{i}" for i in terms]}},
           "checks": [{"check": "fatou", "sequence": "s"}]}
    pre, period = oracle_cycle(kind, terms)
    values = [[Fraction(v) for v in POOL[i]] for i in terms]
    cycle = values[pre:pre + period] if kind == "explicit" else values
    liminf = [min(t[x] for t in cycle) for x in range(2)]
    ints = [integral_of(t, atoms) for t in cycle]
    rhs = [min(i[c] for i in ints) for c in range(2)]
    report = run(doc, pre + period + extra)
    assert report["status"] == "holds"
    assert report["details"]["cycle"] == {"preperiod": pre, "period": period}
    assert report["details"]["lhs"] == {"finite": [format_rational(v) for v in
                                                   integral_of(liminf, atoms)]}
    assert report["details"]["rhs"] == {"finite": [format_rational(v) for v in rhs]}
    if pre + period > 1:
        assert run(doc, pre + period - 1)["status"] == "not-certifiable"


@given(st.sampled_from(["explicit", "alternating"]),
       st.lists(st.sampled_from([[], [0], [1], [0, 1]]), min_size=1, max_size=6),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_borel_cantelli_matches_the_term_list_oracle(kind, sets, extra):
    pre, period = oracle_cycle(kind, sets)
    tail = sets[pre:] if kind == "explicit" else sets
    doc = set_doc("borel_cantelli", kind, sets)
    report = run(doc, pre + period + extra)
    assert report["details"]["limsup_set"] == sorted({p for s in tail for p in s})
    if pre + period > 1:
        assert run(doc, pre + period - 1)["status"] == "not-certifiable"
