"""A sequence's tail and limit are read from its declaration, never from
the window.

Each kind's constructor in `sequences` declares its tail exactly, and
refuses an argument that would make the declaration false;
`sequences.declared_cycle` is the one reader of a tail: the checks that
read one (`fatou`, `borel_cantelli`, the continuity checks, and every check
of a stabilizing sequence's limit) are not-certifiable at a horizon that
ends before the first declared cycle does.  `sequences.declared_limit` is
the one reader of a limit, for `mct`, `mct_decreasing` and `dct`, and a
convergence check holds only when that limit is its f exactly off the null
atoms, infinite points included.  The reproducers below are sequences whose
window misleads: a stretch of equal terms inside a cycle, a horizon that
ends before the final run, or a declared limit that every gap of the
schedule misses, or that the last sample happens to meet; their expected
values are derived by hand in the comments.  The property tests compare
`fatou`, `borel_cantelli` and the convergence checks with Fraction oracles
built from the document itself, the one list generator, `sequences.cycled`,
with the two it replaced, and each constructor with the parser branch it
replaced.
"""

import json
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure.cli import main as cli_main
from ordmeasure.errors import CertificationError, ValidationError
from ordmeasure.measures import points_to_mask
from ordmeasure.rationals import INFINITY, format_rational, over_one_den
from ordmeasure.scenarios import RunConfig, parse_scenario, run_scenario
from ordmeasure.sequences import (Periodic, SequenceSpec, cycled, declared_cycle,
                                  declared_limit, from_terms, geometric, least_cycle, listed,
                                  scaled_index, stable_from, truncation_ladder)

from limit_oracles import (cycling, parsed_geometric, parsed_ladder, parsed_scaled_index,
                           repeat_last)

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
        assert report["details"]["reason"] == ("declared limit differs from f at non-null "
                                               "points [0]")


# The three limits of `mct_basic.json`'s kind, each a geometric sequence of
# ratio 1/2 from base `one`: 1 - 2^-n rising (bump -1), 1 + 2^-n falling
# (bump 1), and 1 - 2^-n again for `dct`, dominated by 2.  Each directive's
# limit is 2^-20 off the declared limit 1: within every gap of the default
# schedule from n = 20 on, so only the exact comparison refuses it.
CONVERGENCE = [
    ({"check": "mct"}, "minus_one", "1048577/1048576"),
    ({"check": "mct_decreasing"}, "one", "1048575/1048576"),
    ({"check": "dct", "dominator": "two"}, "minus_one", "1048577/1048576"),
]
CONVERGENCE_IDS = ["mct", "mct_decreasing", "dct"]
FORM_1, FORM_INF = over_one_den([Fraction(1), Fraction(1)]), over_one_den([1, INFINITY])
UNDECLARED = ("limit not certifiable: it needs a declared stabilization or limit of its "
              "terms' type")
# UNIT_PAIR with a third point, {2}, an atom of measure 0.
NULL_THIRD = dict(UNIT_PAIR, ground_size=3, measure={"atom_values": {
    **UNIT_PAIR["measure"]["atom_values"], "2": {"finite": ["0", "0"]}}})


def geometric_doc(ground: dict, check: dict, bump: str, limit: list) -> dict:
    """`ground` with the sequence `s`, base `one` plus 2^-n times `bump`, and
    one check of it whose limit has the values `limit`."""
    size = ground["ground_size"]
    functions = {name: {"values": [v] * size}
                 for name, v in (("one", "1"), ("minus_one", "-1"), ("two", "2"))}
    return dict(ground, functions=dict(functions, limit={"values": limit}),
                sequences={"s": {"kind": "geometric", "base": "one", "bump": bump,
                                 "ratio": "1/2"}},
                checks=[dict(check, sequence="s", limit="limit")])


class TestDeclaredLimits:
    @pytest.mark.parametrize("horizon", [64, 256])
    @pytest.mark.parametrize("check, bump, limit", CONVERGENCE, ids=CONVERGENCE_IDS)
    def test_limit_off_the_declared_one_is_refused(self, check, bump, limit, horizon):
        # The sequence converges to 1 at both points, not to the directive's limit.
        report = run(geometric_doc(UNIT_PAIR, check, bump, [limit, limit]), horizon)
        assert report["status"] == "not-certifiable"
        assert report["details"]["reason"] == ("declared limit differs from f at non-null "
                                               "points [0, 1]")

    def test_the_cli_exits_1_on_a_refused_limit(self, tmp_path):
        path = tmp_path / "mct_off_limit.json"
        path.write_text(json.dumps(geometric_doc(UNIT_PAIR, *CONVERGENCE[0][:2],
                                                 [CONVERGENCE[0][2]] * 2)))
        assert cli_main(["run", str(path)]) == 1

    @pytest.mark.parametrize("horizon", [64, 256])
    @pytest.mark.parametrize("check, bump, limit", CONVERGENCE, ids=CONVERGENCE_IDS)
    def test_limit_off_the_declared_one_on_a_null_atom_holds(self, check, bump, limit,
                                                             horizon):
        # f is 1 off the null atom {2}, as the sequence's limit is, so the
        # limit integral is that of 1: (1, 0) + (0, 1) from the atoms {0}, {1}.
        report = run(geometric_doc(NULL_THIRD, check, bump, ["1", "1", limit]), horizon)
        assert report["status"] == "holds"
        assert report["details"]["limit_integral"] == finite(1, 1)

    @pytest.mark.parametrize("horizon", [1, 8])
    def test_alternating_equal_terms_stabilize(self, horizon):
        # f, f, f, ...: the least cycle of [f, f] has period 1, so the limit is
        # f, reached at term 1, and its integral is (1, 1).
        check = {"check": "mct", "limit": "f"}
        alternating = run(function_doc("alternating", ["f", "f"], check), horizon)
        assert alternating == run(function_doc("explicit", ["f", "f"], check), horizon)
        assert alternating["status"] == "holds"
        assert alternating["details"] == {"limit_integral": finite(1, 1),
                                          "certification": {"mode": "stabilized", "at": 1}}


def scaled_index_doc(shape: list, check: dict) -> dict:
    """`scenarios/mct_divergent.json` on `UNIT_PAIR`: the sequence n * shape
    and one check of it, of limit f = (infinity, 8) unless it names another."""
    functions = {"shape": shape, "f": ["infinity", "8"], "g": ["2", "2"]}
    return dict(UNIT_PAIR, functions={n: {"values": v} for n, v in functions.items()},
                sequences={"s": {"kind": "scaled_index", "shape": "shape"}},
                checks=[{"limit": "f", **check, "sequence": "s"}])


class TestScaledIndexLimit:
    """A scaled index declares its exact pointwise limit: infinity on the
    support of its shape and 0 off it."""

    @pytest.mark.parametrize("horizon", [8, 9, 64], ids=["h8", "h9", "h64"])
    def test_finite_limit_at_a_diverging_point_is_refused(self, tmp_path, capsys, horizon):
        # n * (1, 1) tends to infinity at both points, not to f = (infinity, 8).
        # Term 8 is f at point 1, so horizon 8 once held, certified by the
        # gaps there; from horizon 9 on the last sample also exceeds 8, but
        # the declared limit is compared with f before the last sample is.
        path = tmp_path / "mct_divergent_both.json"
        path.write_text(json.dumps(scaled_index_doc(["1", "1"], {"check": "mct"})))
        code = cli_main(["run", str(path), "--horizon", str(horizon), "--output", "json"])
        report = json.loads(capsys.readouterr().out)["checks"][0]
        assert code == 1
        assert report["status"] == "not-certifiable"
        assert report["details"] == {
            "reason": "declared limit differs from f at non-null points [1]"}

    @pytest.mark.parametrize("shape, limit", [
        (["1", "0"], ["infinity", "0"]), (["0", "1"], ["0", "infinity"]),
        (["1", "1"], ["infinity", "infinity"]), (["2", "3"], ["infinity", "infinity"])],
        ids=["first", "second", "both", "unequal"])
    def test_exact_limit_holds(self, shape, limit):
        # Eight terms of n * shape escape every rung k * unit, k = 1 .. 7, at
        # each point of the shape's support, and are 0 off it.
        doc = scaled_index_doc(shape, {"check": "mct"})
        doc["functions"]["f"] = {"values": limit}
        report = run(doc, 8)
        assert report["status"] == "holds"
        assert report["details"] == {
            "limit_integral": "infinity",
            "certification": {"mode": "divergence-certified", "ladder_top": 7}}

    @pytest.mark.parametrize("horizon", [1, 8])
    def test_nonzero_limit_off_the_support_is_refused(self, horizon):
        # n * (1, 0) is 0 at point 1, where f = (infinity, 1) is 1.
        doc = scaled_index_doc(["1", "0"], {"check": "mct"})
        doc["functions"]["f"] = {"values": ["infinity", "1"]}
        assert run(doc, horizon)["details"] == {
            "reason": "declared limit differs from f at non-null points [1]"}

    @pytest.mark.parametrize("sequence", [
        {"kind": "scaled_index", "shape": "shape"},
        {"kind": "truncation_ladder", "of": "f"}], ids=["scaled_index", "ladder"])
    def test_dct_refuses_an_infinite_declared_limit(self, tmp_path, capsys, sequence):
        # The limit of n * (1, 0) is infinite at point 0, as the ladder of f
        # is: neither is a signed function, so validation refuses the dct
        # directive, whose own limit g is one.
        doc = scaled_index_doc(["1", "0"], {"check": "dct", "limit": "g", "dominator": "g"})
        path = tmp_path / "dct_infinite_limit.json"
        path.write_text(json.dumps(dict(doc, sequences={"s": sequence})))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == ("error: /checks/0/sequence: a signed function "
                                           "cannot take the value infinity\n")


class TestDeclarations:
    @pytest.mark.parametrize("terms, index", [
        ([1], 1), ([1, 1], 1), ([1, 2], 2), ([1, 2, 2, 2], 2), ([2, 1, 2], 3)])
    def test_stable_from_is_the_first_index_of_the_final_run(self, terms, index):
        assert stable_from(terms) == Periodic(index, 1)
        assert from_terms(terms).metadata == Periodic(index, 1)

    @pytest.mark.parametrize("terms, period", [
        ([1], 1), ([1, 1, 1], 1), ([1, 2], 2), ([1, 2, 1, 2], 2), ([1, 2, 1], 3),
        ([1, 1, 2], 3), ([1, 2, 1, 2, 1, 2], 2)])
    def test_least_cycle_is_the_least_period_of_the_list(self, terms, period):
        assert least_cycle(terms) == Periodic(1, period)

    @pytest.mark.parametrize("sequence, metadata", [
        ({"kind": "geometric", "base": "f", "bump": "a", "ratio": "0"}, Periodic(1, 1)),
        ({"kind": "geometric", "base": "f", "bump": "zero", "ratio": "1/2"},
         Periodic(1, 1)),
        ({"kind": "geometric", "base": "f", "bump": "a", "ratio": "1/2"}, "limit"),
        ({"kind": "truncation_ladder", "of": "c"}, Periodic(5, 1)),
        ({"kind": "truncation_ladder", "of": "half"}, Periodic(1, 1)),
        ({"kind": "truncation_ladder", "of": "zero"}, Periodic(1, 1)),
        ({"kind": "truncation_ladder", "of": "big"}, Periodic(3, 1)),
        ({"kind": "truncation_ladder", "of": "infinite"}, "limit"),
        ({"kind": "scaled_index", "shape": "zero"}, Periodic(1, 1)),
        # n * a tends to infinity at point 0, where a is 1, and is 0 at point 1.
        ({"kind": "scaled_index", "shape": "a"}, om.DeclaredLimit(((0, 0), 1, 0b01))),
        ({"kind": "scaled_index", "shape": "b"}, om.DeclaredLimit(((0, 0), 1, 0b10))),
        ({"kind": "scaled_index", "shape": "f"}, om.DeclaredLimit(((0, 0), 1, 0b11))),
        ({"kind": "scaled_index", "shape": "half"}, om.DeclaredLimit(((0, 0), 1, 0b01))),
        ({"kind": "scaled_index", "shape": "big"}, om.DeclaredLimit(((0, 0), 1, 0b11))),
        ({"kind": "explicit", "terms": ["a", "a", {"values": ["1", "0"]}]}, Periodic(1, 1)),
        ({"kind": "explicit", "terms": ["a", "b", "b"]}, Periodic(2, 1)),
        ({"kind": "alternating", "terms": ["a", "b", "a", "b"]}, Periodic(1, 2)),
    ])
    def test_parser_declares_each_kind(self, sequence, metadata):
        functions = dict(FUNCTIONS, zero=["0", "0"], half=["1/2", "0"], big=["5/2", "1"],
                         infinite=["1", "infinity"])
        doc = dict(UNIT_PAIR, functions={n: {"values": v} for n, v in functions.items()},
                   sequences={"s": sequence}, checks=[])
        declared = parse_scenario(doc).sequences["s"][0].metadata
        if metadata == "limit":
            assert isinstance(declared, om.DeclaredLimit)
        else:
            assert declared == metadata

    @pytest.mark.parametrize("metadata, horizon", [
        (None, 8), (om.DeclaredLimit(0), 8), (Periodic(3, 2), 3), (Periodic(4, 1), 3)])
    def test_reader_refuses_with_one_message(self, metadata, horizon):
        with pytest.raises(CertificationError) as caught:
            declared_cycle(SequenceSpec(lambda n: n, metadata=metadata), horizon)
        assert str(caught.value) == (f"tail not certifiable within horizon {horizon}: "
                                     "it needs a declared cycle, sampled in full")

    @pytest.mark.parametrize("metadata, horizon, cycle, samples", [
        (Periodic(3, 2), 4, (2, 2), [1, 2, 3, 4]),
        (Periodic(3, 2), 7, (2, 2), [1, 2, 3, 4, 3, 4, 3]),
        (Periodic(4, 1), 5, (3, 1), [1, 2, 3, 4, 4]), (Periodic(1, 1), 9, (0, 1), [1] * 9)])
    def test_reader_returns_the_declared_cycle(self, metadata, horizon, cycle, samples):
        # The terms 1, 2, ... up to the end of the first declared cycle, then that cycle.
        terms = list(range(1, metadata.index + metadata.period))
        seq = SequenceSpec(cycled(terms, metadata), metadata=metadata)
        assert declared_cycle(seq, horizon) == (samples, *cycle)

    @pytest.mark.parametrize("metadata, horizon, term", [
        (Periodic(1, 1), 9, 2), (Periodic(3, 2), 5, 5), (Periodic(2, 1), 5, 3)])
    def test_reader_refuses_a_contradicted_cycle(self, metadata, horizon, term):
        # n is periodic nowhere: the first term one period past a sampled one differs.
        with pytest.raises(CertificationError,
                           match=f"^declared cycle contradicted by term {term}$"):
            declared_cycle(SequenceSpec(lambda n: n, metadata=metadata), horizon)

    def test_fatou_refuses_a_contradicted_library_declaration(self):
        # A raw spec that samples a, b, b, b and claims the cycle (a, b) from
        # term 1; read as declared, Fatou held with lhs = rhs = (0, 1), a's
        # integral, while the liminf is b, whose integral is (5, 5).
        space, c2 = om.power_set_space(2), om.coord(2)
        mu = om.Measure(space, c2, {1: om.finite(om.element(c2, [1, 0])),
                                    2: om.finite(om.element(c2, [0, 1]))})
        a, b = om.ext_function(space, [0, 1]), om.ext_function(space, [5, 5])
        seq = SequenceSpec(lambda n: a if n == 1 else b, metadata=Periodic(1, 2))
        with pytest.raises(CertificationError, match="^declared cycle contradicted by term 3$"):
            om.fatou(mu, seq, horizon=4)

    def test_from_terms_takes_no_declaration(self):
        # A list declares the tail that it generates; there is nothing to claim.
        with pytest.raises(TypeError, match="metadata"):
            from_terms([1, 2], metadata=Periodic(1, 2))

    @pytest.mark.parametrize("build, args", [
        (listed, ([], "explicit")), (listed, ([], "alternating")), (listed, ((), "explicit")),
        (listed, ([1, 2], "geometric")), (from_terms, ([],)),
        (geometric, (FORM_1, FORM_1, Fraction(1))),
        (geometric, (FORM_1, FORM_1, Fraction(-1))),
        (geometric, (FORM_1, FORM_1, Fraction(3, 2))),
        (geometric, (FORM_INF, FORM_1, Fraction(1, 2))),
        (geometric, (FORM_1, FORM_INF, Fraction(1, 2))),
        # zip would cut the terms to one point, under a declared limit on two
        (geometric, (FORM_1, over_one_den([1]), Fraction(1, 2))),
        (scaled_index, (FORM_INF,))],
        ids=["explicit-empty", "alternating-empty", "explicit-empty-tuple", "unknown-kind",
             "from-terms-empty", "ratio-1", "ratio-minus-1", "ratio-3/2", "infinite-base",
             "infinite-bump", "lengths-differ", "infinite-shape"])
    def test_constructors_refuse_a_false_declaration(self, build, args):
        with pytest.raises(ValidationError):
            build(*args)

    @pytest.mark.parametrize("metadata, horizon, limit", [
        (Periodic(3, 1), 3, 3), (Periodic(2, 1), 5, 2), (om.DeclaredLimit(7), 1, 7)],
        ids=["stabilizes", "period-1", "declared"])
    def test_limit_reader_returns_the_declared_limit(self, metadata, horizon, limit):
        samples, read = declared_limit(SequenceSpec(lambda n: min(n, limit), metadata=metadata),
                                       horizon)
        assert samples == [min(n, limit) for n in range(1, horizon + 1)] and read == limit

    @pytest.mark.parametrize("metadata, horizon, message", [
        (None, 8, UNDECLARED), (Periodic(1, 2), 8, UNDECLARED),
        (om.DeclaredLimit(None), 8, UNDECLARED),
        # Infinity is no int, so it is no limit of these terms, nor is 7 as a
        # Fraction: a declared limit has the type of the terms exactly.
        (om.DeclaredLimit(om.INFINITY), 8, UNDECLARED),
        (om.DeclaredLimit(Fraction(7)), 1, UNDECLARED),
        (Periodic(4, 1), 3, "tail not certifiable within horizon 3: it needs a declared "
                             "cycle, sampled in full")],
        ids=["undeclared", "period-2", "untyped", "infinite", "other-type", "short-horizon"])
    def test_limit_reader_refuses_with_one_message(self, metadata, horizon, message):
        with pytest.raises(CertificationError) as caught:
            declared_limit(SequenceSpec(lambda n: n, metadata=metadata), horizon)
        assert str(caught.value) == message


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


@st.composite
def geometric_cases(draw):
    """(document, expected): one check of a `geometric` sequence on coord(d),
    one atom per point, some of them null.  Its base is at least the size
    of its bump, so every term is nonnegative; the bump's sign fixes the
    direction: the terms rise to the base for `mct` and fall to it for
    `mct_decreasing`.  The check's limit is the base moved by delta at one
    point; `expected` is the limit integral, that of the base, when the
    check must hold, and None when the move is on a live atom."""
    dim, size = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    small = st.fractions(0, 2, max_denominator=4)
    atoms = [draw(st.just([Fraction(0)] * dim) | st.lists(small, min_size=dim, max_size=dim))
             for _ in range(size)]
    check = draw(st.sampled_from(["mct", "mct_decreasing", "dct"]))
    sign = {"mct": -1, "mct_decreasing": 1}.get(check) or draw(st.sampled_from([-1, 1]))
    size_of_bump = [draw(st.fractions(0, 3, max_denominator=4)) for _ in range(size)]
    base = [m + draw(small) for m in size_of_bump]
    ratio = draw(st.sampled_from(["1/2", "1/3", "2/3", "3/4"]))
    point = draw(st.integers(0, size - 1))
    delta = draw(st.sampled_from([0, Fraction(1, 2**20), Fraction(1, 3), 1]))
    if base[point] >= delta and draw(st.booleans()):
        delta = -delta
    limit = list(base)
    limit[point] += delta

    def fn(values):
        return {"values": [format_rational(v) for v in values]}
    doc = {"space": {"kind": "coord", "dim": dim}, "ground_size": size,
           "sigma_algebra": {"power_set": True},
           "measure": {"atom_values": {str(x): {"finite": [format_rational(c) for c in v]}
                                       for x, v in enumerate(atoms)}},
           "functions": {"base": fn(base), "bump": fn([sign * m for m in size_of_bump]),
                         "limit": fn(limit), "dom": fn([8] * size)},
           "sequences": {"s": {"kind": "geometric", "base": "base", "bump": "bump",
                               "ratio": ratio}},
           "checks": [{"check": check, "sequence": "s", "limit": "limit",
                       **({"dominator": "dom"} if check == "dct" else {})}]}
    holds = delta == 0 or not any(atoms[point])
    integral = [sum(b * v[c] for b, v in zip(base, atoms)) for c in range(dim)]
    return doc, ({"finite": [format_rational(c) for c in integral]} if holds else None)


@given(geometric_cases())
@settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True)
def test_convergence_checks_hold_exactly_at_the_declared_limit(case):
    # At horizon 64 every term is within 3 * (3/4)^64 < 2^-24 of the base at
    # each point, and its integral within 4 * 2 times that, below 2^-21, so a
    # check that must hold reaches every gap of the default schedule.
    doc, expected = case
    report = run(doc, 64)
    if expected is None:
        assert report["status"] == "not-certifiable"
    else:
        assert report["status"] == "holds"
        assert report["details"]["limit_integral"] == expected


# The one list generator against the two it replaced: an explicit list's
# final term repeating, an alternating list cycling whole.  Terms are drawn
# from a pool of 2 or 3, so that they repeat, and read up to 3 * len.
LISTED = {"explicit": (stable_from, repeat_last), "alternating": (least_cycle, cycling)}
SET_POOL = [[], [0], [1], [0, 1]]


@st.composite
def listed_terms(draw):
    """(kind, pool indices of the terms)."""
    pool = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True))
    return (draw(st.sampled_from(sorted(LISTED))),
            draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))


def assert_cycled(spec: SequenceSpec, kind: str, terms: list):
    """`spec` declares the tail of `terms` that `kind` declares, and its
    terms 1 .. 3 * len are those of the old generator of the kind."""
    declare, oracle = LISTED[kind]
    assert spec.metadata == declare(terms)
    assert ([spec.generator(n) for n in range(1, 3 * len(terms) + 1)]
            == [oracle(terms)(n) for n in range(1, 3 * len(terms) + 1)])


@given(listed_terms())
@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
def test_cycled_continues_a_list_as_its_old_generator(drawn):
    kind, terms = drawn
    declare, _ = LISTED[kind]
    assert_cycled(SequenceSpec(cycled(terms, declare(terms)), metadata=declare(terms)),
                  kind, terms)
    spec, witnesses = listed(terms, kind)
    assert_cycled(spec, kind, terms)
    assert witnesses == tuple(terms)
    if kind == "explicit":
        assert_cycled(from_terms(terms), kind, terms)


@given(listed_terms(), st.booleans())
@settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True)
def test_parsed_lists_continue_as_their_old_generators(drawn, bare):
    # A function sequence's terms are (nums, den, inf) forms, a set
    # sequence's bitmasks; an explicit set sequence may be a bare array.
    kind, terms = drawn
    names = [f"t{i}" for i in terms]
    sets = [SET_POOL[i] for i in terms]
    doc = dict(UNIT_PAIR, functions={f"t{i}": {"values": v} for i, v in enumerate(POOL)},
               sequences={"s": {"kind": kind, "terms": names}},
               checks=[{"check": "borel_cantelli",
                        "sets": sets if bare and kind == "explicit"
                        else {"kind": kind, "terms": sets}}])
    scenario = parse_scenario(doc)
    assert_cycled(scenario.sequences["s"][0], kind,
                  [scenario.functions[name] for name in names])
    assert_cycled(scenario.checks[0].args["sets"], kind, [points_to_mask(s) for s in sets])


# Each generated kind's constructor against the parser branch that it
# replaced (`limit_oracles.parsed_*`), on forms over 1 to 3 points drawn
# from a pool with 0 in it, so that a zero bump or shape is drawn too.  The
# terms are compared up to 3 * (preperiod + period) of a declared cycle, and
# up to 12 of a declared limit.
FORM_VALUES = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(5, 2),
               Fraction(-2)]


@st.composite
def generated_kinds(draw):
    """(constructor, oracle, arguments) of one generated kind."""
    size = draw(st.integers(1, 3))

    def form(*more):
        return over_one_den(draw(st.lists(st.sampled_from(FORM_VALUES + list(more)),
                                          min_size=size, max_size=size)))
    kind = draw(st.sampled_from(["geometric", "truncation_ladder", "scaled_index"]))
    if kind == "geometric":
        ratio = draw(st.sampled_from([Fraction(r) for r in ("0", "1/2", "-1/2", "2/3",
                                                              "-3/4", "1/3")]))
        return geometric, parsed_geometric, (form(), form(), ratio)
    if kind == "truncation_ladder":
        return truncation_ladder, parsed_ladder, (form(INFINITY),)
    return scaled_index, parsed_scaled_index, (form(),)


@given(generated_kinds())
@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
def test_each_constructor_builds_what_the_parser_built(drawn):
    build, oracle, args = drawn
    (spec, witnesses), (generator, declared, parsed_witnesses) = build(*args), oracle(*args)
    assert spec.metadata == declared
    assert witnesses == parsed_witnesses
    count = (3 * (declared.index - 1 + declared.period) if isinstance(declared, Periodic)
             else 12)
    assert ([spec.generator(n) for n in range(1, count + 1)]
            == [generator(n) for n in range(1, count + 1)])
