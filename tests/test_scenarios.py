import copy
import hashlib
import importlib
import inspect
import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure.cli import main as cli_main
from ordmeasure.errors import (MAX_COORDINATES, MAX_EPSILON_EXPONENT, MAX_EXHAUSTIVE_ATOMS,
                               MAX_HORIZON, MAX_LOEWNER_DIM, MAX_OUTER_GROUND_SIZE,
                               MAX_TRUNCATION, DimensionLimitError, SchemaError,
                               ValidationError)
from ordmeasure.measures import mask_to_points
from ordmeasure.rationals import INFINITY, format_rational
from ordmeasure.sequences import DEFAULT_HORIZON
from ordmeasure.scenarios import (
    _CHECKS,
    _REQUIRED,
    _SEQUENCES,
    _SET_SEQUENCES,
    _SPACES,
    RunConfig,
    canonical_dumps,
    load_scenario,
    parse_scenario,
    run_scenario,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


def run_cli(args):
    return cli_main([str(a) for a in args])


class TestRoundTrip:
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_files_are_canonical(self, path):
        raw = path.read_text(encoding="utf-8")
        doc = json.loads(raw)
        assert canonical_dumps(doc) == raw

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_parse_then_serialize_is_identity(self, path):
        raw = path.read_text(encoding="utf-8")
        scenario = load_scenario(str(path))
        assert canonical_dumps(scenario.source) == raw


class TestCheckTable:
    """`run_check` looks each check's operation up by name on its module and
    calls it as ``operation(section, *keys in table order, **options)``."""

    @pytest.mark.parametrize("name", sorted(_CHECKS))
    def test_operation_is_defined_and_takes_the_call(self, name):
        spec = _CHECKS[name]
        module = importlib.import_module(f"ordmeasure.{spec.module or 'scenarios'}")
        assert spec.operation in vars(module)
        assert set(spec.options) <= set(RunConfig.__slots__)
        inspect.signature(vars(module)[spec.operation]).bind(
            "section", *spec.keys, **{option: option for option in spec.options})


class TestRunner:
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_all_shipped_scenarios_meet_expectations(self, path):
        scenario = load_scenario(str(path))
        report = run_scenario(scenario)
        assert report["all_ok"], report

    @pytest.mark.parametrize("horizon, error", [
        (0, ValidationError), (True, ValidationError),
        (MAX_HORIZON + 1, DimensionLimitError)])
    def test_library_horizon_is_checked(self, horizon, error):
        scenario = load_scenario(str(SCENARIO_DIR / "mct_basic.json"))
        with pytest.raises(error):
            run_scenario(scenario, RunConfig(horizon=horizon))

    @pytest.mark.parametrize("epsilons", [(), [False], [Fraction(1, 2**(MAX_EPSILON_EXPONENT + 1))]],
                             ids=["empty", "bool", "below_floor"])
    def test_library_epsilon_schedule_is_checked(self, epsilons):
        # an empty schedule would report every gap-certified limit as holding
        with pytest.raises(ValidationError):
            RunConfig(epsilons=epsilons)

    def test_library_epsilon_schedule_default_and_floor(self):
        floor = Fraction(1, 2**MAX_EPSILON_EXPONENT)
        assert RunConfig().epsilons == om.DEFAULT_EPSILONS
        assert RunConfig(epsilons=[floor]).epsilons == (floor,)

    def test_library_horizon_bounds_are_accepted(self):
        scenario = load_scenario(str(SCENARIO_DIR / "identities_basic.json"))
        for horizon in (1, MAX_HORIZON):
            assert run_scenario(scenario, RunConfig(horizon=horizon))["horizon"] == horizon

    def test_report_determinism(self):
        path = SCENARIO_DIR / "mct_basic.json"
        r1 = run_scenario(load_scenario(str(path)))
        r2 = run_scenario(load_scenario(str(path)))
        assert canonical_dumps(r1) == canonical_dumps(r2)

    def test_expected_failure_scenario(self):
        scenario = load_scenario(str(SCENARIO_DIR / "continuity_above_infinite.json"))
        report = run_scenario(scenario)
        assert report["checks"][0]["status"] == "hypothesis-not-met"
        assert report["all_ok"]

    def test_unexpected_status_fails_run(self):
        doc = json.loads((SCENARIO_DIR / "continuity_above_infinite.json").read_text())
        doc["checks"][0]["expect"] = "holds"
        report = run_scenario(parse_scenario(doc))
        assert not report["all_ok"]

    @pytest.mark.parametrize("path, horizon", [
        pytest.param(path, horizon, id=path.stem + ("" if horizon == 64 else "@256"))
        for horizon in (64, 256) for path in SCENARIOS
    ])
    def test_reports_match_reference_digests(self, path, horizon):
        # The benchmark's reference digests of `run --output json` at both of
        # its horizons; the plain id is the default horizon, 64.
        digests = json.loads((REPO / "perfbench" / "reference.json").read_text())
        report = run_scenario(load_scenario(str(path)), RunConfig(horizon=horizon))
        digest = hashlib.sha256(canonical_dumps(report).encode("utf-8")).hexdigest()
        assert digest == digests["digests"][f"suite/{path.stem}@{horizon}"]

    def test_horizon_override(self):
        scenario = load_scenario(str(SCENARIO_DIR / "mct_basic.json"))
        report = run_scenario(scenario, RunConfig(horizon=32))
        assert report["horizon"] == 32
        assert report["all_ok"]

    @pytest.mark.parametrize("stem", ["mct_basic", "dct_geometric", "mct_divergent",
                                      "borel_cantelli_parts"])
    def test_parsed_scenario_reruns_at_other_horizons(self, stem):
        # A resolved sequence keeps its sampled terms between runs, so a
        # shorter run after a longer one must not see the longer window.
        # mct_divergent's report differs between 64 and 256, the others'
        # between 64 and 8.
        path = str(SCENARIO_DIR / f"{stem}.json")
        scenario = load_scenario(path)
        for horizon in (64, 256, 64, 8):
            config = RunConfig(horizon=horizon)
            assert (canonical_dumps(run_scenario(scenario, config))
                    == canonical_dumps(run_scenario(load_scenario(path), config)))

    def test_named_sequence_is_generated_once_per_index(self):
        # fatou_constant.json names `steady` in directive 0 and `rising` in
        # directives 1 (fatou) and 2 (mct), which share one spec and its terms.
        scenario = load_scenario(str(SCENARIO_DIR / "fatou_constant.json"))
        first, second = (scenario.checks[i].args["sequence"] for i in (1, 2))
        assert first is second
        made = Counter()

        def counting(name, generator):
            return lambda n: made.update([name]) or generator(n)

        for (name, _), spec in scenario.specs.items():
            spec.generator = counting(name, spec.generator)
        assert run_scenario(scenario, RunConfig(horizon=16))["all_ok"]
        assert made == {"steady": 16, "rising": 16}


class TestSequenceSampling:
    def spec(self):
        calls = []

        def gen(n):
            calls.append(n)
            return n * n
        return om.SequenceSpec(gen), calls

    @pytest.mark.parametrize("horizon, length", [
        (3, 3),
        (2, 2),
        (None, DEFAULT_HORIZON),  # the one place a default is applied
    ])
    def test_horizon_is_the_callers(self, horizon, length):
        seq, _ = self.spec()
        assert seq.sample(horizon) == [n * n for n in range(1, length + 1)]

    def test_explicit_list_samples_the_callers_horizon(self):
        # the list does not widen the window: past the default only the
        # caller's horizon reaches the later terms
        seq = om.from_terms(range(1, DEFAULT_HORIZON + 11))
        assert seq.sample() == list(range(1, DEFAULT_HORIZON + 1))
        assert seq.sample(3) == [1, 2, 3]
        assert seq.sample(DEFAULT_HORIZON + 12)[-3:] == [DEFAULT_HORIZON + 10] * 3

    def test_a_positional_horizon_is_refused(self):
        # a spec has no horizon of its own, so a stale one is not metadata
        with pytest.raises(TypeError):
            om.SequenceSpec(lambda n: n, 5)
        with pytest.raises(TypeError):
            om.from_terms([1, 2], 5)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_explicit_horizon_below_one_is_refused(self, horizon):
        seq, calls = self.spec()
        with pytest.raises(ValidationError,
                           match=f"^horizon must be a positive integer, got {horizon}$"):
            seq.sample(horizon)
        assert calls == []

    @pytest.mark.parametrize("horizon", [True, 2.5])
    def test_horizon_that_is_not_an_integer_is_refused(self, horizon):
        seq, calls = self.spec()
        with pytest.raises(ValidationError,
                           match=f"^horizon must be a positive integer, got {horizon}$"):
            seq.sample(horizon)
        assert calls == []

    def test_terms_are_generated_once(self):
        seq, calls = self.spec()
        assert seq.sample(6) == [1, 4, 9, 16, 25, 36]
        assert seq.sample(4) == [1, 4, 9, 16]
        assert seq.sample(6) == [1, 4, 9, 16, 25, 36]
        assert calls == [1, 2, 3, 4, 5, 6]


def _scaled_atoms(stem: str, factor: int) -> dict:
    """A shipped scenario with every finite atom value multiplied by `factor`."""
    doc = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
    for value in doc["measure"]["atom_values"].values():
        if value != "infinity":
            value["finite"] = [format_rational(Fraction(c) * factor)
                               for c in value["finite"]]
    return doc


class TestCertificationMessages:
    """Exact reasons of not-certifiable reports.

    Short horizons leave the pointwise gaps uncertified; atoms scaled by
    1000 let the pointwise gaps certify while the integral gaps do not.
    """

    @pytest.mark.parametrize("stem, factor, horizon, reason", [
        ("mct_basic", 1, 8, "pointwise gap 1/4096 at point 0 not certified"),
        ("dct_geometric", 1, 8,
         "pointwise convergence gap 1/4096 at point 0 not certified"),
        ("mct_basic", 1000, 16, "integral gap 1/256 not certified"),
        ("mct_decreasing_basic", 1000, 16, "integral gap 1/256 not certified"),
        ("dct_geometric", 1000, 16, "deviation gap 1/256 not certified"),
    ], ids=["mct_pointwise", "dct_pointwise", "mct_integral",
            "mct_decreasing_integral", "dct_deviation"])
    def test_reason(self, stem, factor, horizon, reason):
        scenario = parse_scenario(_scaled_atoms(stem, factor))
        report = run_scenario(scenario, RunConfig(horizon=horizon))
        [check] = report["checks"]
        assert check["status"] == "not-certifiable"
        assert check["details"] == {"reason": reason}


class TestSchemaErrors:
    def test_zero_denominator_reports_path(self, tmp_path):
        doc = {
            "space": {"kind": "coord", "dim": 2},
            "ground_size": 1,
            "sigma_algebra": {"power_set": True},
            "measure": {"atom_values": {"0": {"finite": ["1/0", "1"]}}},
        }
        with pytest.raises(SchemaError) as exc:
            parse_scenario(doc)
        assert "denominator" in str(exc.value)
        assert "/measure/atom_values/0" in str(exc.value)

    def test_unresolved_function_reference(self):
        doc = {
            "space": {"kind": "coord", "dim": 2},
            "ground_size": 1,
            "sigma_algebra": {"power_set": True},
            "measure": {"atom_values": {"0": {"finite": ["1", "1"]}}},
            "checks": [{"check": "integrate", "function": "ghost"}],
        }
        with pytest.raises(SchemaError, match="ghost") as exc:
            parse_scenario(doc)
        assert exc.value.path == "/checks/0/function"

    def test_unknown_check(self):
        doc = {
            "space": {"kind": "coord", "dim": 2},
            "ground_size": 1,
            "sigma_algebra": {"power_set": True},
            "checks": [{"check": "conjure"}],
        }
        with pytest.raises(SchemaError, match="conjure") as exc:
            parse_scenario(doc)
        assert exc.value.path == "/checks/0/check"

    def test_wrong_atom_key(self):
        doc = {
            "space": {"kind": "coord", "dim": 2},
            "ground_size": 2,
            "sigma_algebra": {"generators": [[0, 1]]},
            "measure": {"atom_values": {"1": {"finite": ["1", "1"]}}},
        }
        with pytest.raises(SchemaError, match="smallest point"):
            parse_scenario(doc)


def _generated_term(sequence: dict, functions: dict, n: int) -> list:
    """Term n of a generated sequence, from the schema's definitions."""
    if sequence["kind"] == "geometric":
        ratio = Fraction(sequence["ratio"])
        return [b + ratio**n * h for b, h in zip(functions[sequence["base"]],
                                                 functions[sequence["bump"]])]
    if sequence["kind"] == "truncation_ladder":
        return [Fraction(n) if v is INFINITY else min(v, Fraction(n))
                for v in functions[sequence["of"]]]
    return [n * v for v in functions[sequence["shape"]]]


@st.composite
def generated_sequence_docs(draw):
    """A 3-point scenario whose one check names a generated sequence, with
    the atoms {0} and {1, 2} or the power set, and the parsed values of its
    functions."""
    coarse = draw(st.booleans())
    value = st.sampled_from(["-2", "-1", "-1/4", "0", "1/4", "1/3", "1/2", "1", "2",
                             "5/2"])
    kind = draw(st.sampled_from(["geometric", "truncation_ladder", "scaled_index"]))
    if kind == "truncation_ladder":
        value = value | st.just("infinity")
    values = {"a": draw(st.lists(value, min_size=3, max_size=3)),
              "b": draw(st.lists(value, min_size=3, max_size=3)),
              "one": ["1"] * 3, "zero": ["0"] * 3}
    # only the keys of its kind: a sequence refuses the keys of another kind
    sequence = {"kind": kind, **(
        {"base": "a", "bump": "b",
         "ratio": draw(st.sampled_from(["-2/3", "-1/2", "0", "1/3", "1/2"]))}
        if kind == "geometric" else {"of": "a"} if kind == "truncation_ladder"
        else {"shape": "a"})}
    check = draw(st.sampled_from([
        {"check": "mct", "limit": "one"}, {"check": "fatou"},
        {"check": "dct", "limit": "zero", "dominator": "one"}]))
    atoms = ["0", "1"] if coarse else ["0", "1", "2"]
    doc = {"space": {"kind": "coord", "dim": 2}, "ground_size": 3,
           "sigma_algebra": {"generators": [[0]]} if coarse else {"power_set": True},
           "measure": {"atom_values": {a: {"finite": ["1", "1"]} for a in atoms}},
           "functions": {name: {"values": v} for name, v in values.items()},
           "sequences": {"s": sequence}, "checks": [dict(check, sequence="s")]}
    parsed = {name: [INFINITY if x == "infinity" else Fraction(x) for x in v]
              for name, v in values.items()}
    return doc, parsed


class TestGeneratedSequenceTerms:
    """The parse-time verdict on a generated sequence against its terms."""

    @given(generated_sequence_docs())
    @settings(max_examples=300, deadline=None)
    def test_parse_verdict_matches_the_terms(self, case):
        # With these values and ratios, a term that is not a function of the
        # check's kind shows by term 40.  The declared limit of a geometric
        # sequence (its base), a ladder (its "of") or a scaled index
        # (infinity on its shape's support, 0 off it) must be one as well.
        doc, functions = case
        coarse = "generators" in doc["sigma_algebra"]
        space = om.generate_sigma_algebra([0b001], 3) if coarse else om.power_set_space(3)
        build = om.SignedFunction if doc["checks"][0]["check"] == "dct" else om.ExtFunction
        sequence = doc["sequences"]["s"]
        if sequence["kind"] == "scaled_index":
            limit = [INFINITY if v else Fraction(0) for v in functions[sequence["shape"]]]
        else:
            limit = functions[sequence["base" if sequence["kind"] == "geometric" else "of"]]
        try:
            for n in range(1, 41):
                build(space, tuple(_generated_term(sequence, functions, n)))
            build(space, tuple(limit))
            expected = None
        except ValidationError as exc:
            expected = str(exc)
        try:
            parse_scenario(doc)
            verdict = None
        except SchemaError as exc:
            assert exc.path == "/checks/0/sequence"
            verdict = str(exc)
        assert (verdict is None) == (expected is None), (verdict, expected)


def validated_terms_match(scenario, horizon: int):
    """Each sampled term of each sequence spec of `scenario`, built by the
    trusted constructor, equals the term that `from_nums` validates."""
    from ordmeasure import integral
    for (name, kind), spec in scenario.specs.items():
        cls = integral.ExtFunction if kind == "ext" else integral.SignedFunction
        for n, term in enumerate(spec.sample(horizon), start=1):
            validated = cls.from_nums(scenario.space, *scenario.sequences[name][0].generator(n))
            assert type(term) is cls and term == validated, (name, kind, n)


class TestTrustedSequenceTerms:
    """The parser's witnesses prove every term of a named sequence valid, so
    the terms are built unvalidated; the validating constructor is the oracle."""

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_documents(self, path):
        validated_terms_match(load_scenario(str(path)), 256)

    @given(generated_sequence_docs())
    @settings(max_examples=200, deadline=None)
    def test_generated_documents(self, case):
        try:
            scenario = parse_scenario(case[0])
        except SchemaError:
            return
        validated_terms_match(scenario, 40)


DROP = object()  # an update that removes the key


def _induced_outer_on(ground: int) -> dict:
    """Scenario keys for an outer measure on `ground` points, with one atom."""
    return {"ground_size": ground, "sigma_algebra": {"generators": []},
            "measure": {"atom_values": {"0": "infinity"}},
            "outer_measure": {"induced_from_measure": True}}


def _outer_values(*keys) -> dict:
    """Scenario keys giving an outer measure by the values of `keys`, in
    order, each infinite."""
    return {"outer_measure": {"outer_values": {key: "infinity" for key in keys}}}


def _outer_values_on(ground: int) -> dict:
    """Scenario keys for an outer measure on `ground` points given by its
    values, zero on every set, with one atom."""
    keys = [",".join(map(str, mask_to_points(mask))) for mask in range(1 << ground)]
    return dict(_induced_outer_on(ground),
                outer_measure={"outer_values": {key: {"finite": ["0", "0"]} for key in keys}})


def _generated_sequence(sequence: dict, check: dict, coarse=False, **functions) -> dict:
    """Scenario keys naming the sequence `s` in one check; with `coarse`, the
    algebra has the atoms {0} and {1, 2}."""
    keys = {"functions": {name: {"values": values} for name, values in functions.items()},
            "sequences": {"s": sequence}, "checks": [dict(check, sequence="s")]}
    if coarse:
        keys.update(sigma_algebra={"generators": [[0]]},
                    measure={"atom_values": {"0": {"finite": ["1", "0"]},
                                             "1": {"finite": ["0", "1"]}}})
    return keys


ONE, ZERO = ["1", "1", "1"], ["0", "0", "0"]


# The Loewner backend on identities_basic's three atoms, and an entry that
# breaks a matrix's symmetry.
LOEWNER = {"space": {"kind": "loewner_sym", "dim": 2},
           "measure": {"atom_values": {p: {"finite": ["1", "0", "0", "1"]}
                                       for p in ("0", "1", "2")}}}
ASYMMETRIC = ["1", "7/3", "0", "0"]
# The atom values of identities_basic.json
ATOMS = {"0": {"finite": ["1", "0"]}, "1": {"finite": ["0", "1"]}, "2": "infinity"}


def _l1_list_with(values: list) -> dict:
    """An `l1_quotient` list on the atoms {0} and {1, 2} whose second function
    has these values."""
    return {"sigma_algebra": {"generators": [[0]]},
            "measure": {"atom_values": {"0": {"finite": ["1", "0"]},
                                        "1": {"finite": ["0", "1"]}}},
            "functions": {"zero": {"values": ZERO}, "bad": {"values": values}},
            "checks": [{"check": "l1_quotient", "functions": ["zero", "bad"]}]}


def _power_set_copy(stem: str, ground: int, path: Path) -> Path:
    """A shipped scenario moved to the power set of `ground` points, each
    point an atom of measure (1, 0); returns where it was written."""
    doc = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
    doc.update(ground_size=ground, sigma_algebra={"power_set": True},
               measure={"atom_values": {str(p): {"finite": ["1", "0"]}
                                        for p in range(ground)}})
    for check in doc["checks"]:
        check.pop("expected_family", None)
    path.write_text(canonical_dumps(doc))
    return path


def _refused_copy(stem: str, check: dict, sigma_algebra=None, drop_atom=None) -> dict:
    """A shipped scenario with its first directive updated by `check`, on
    another algebra, without the atom value keyed `drop_atom`."""
    doc = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
    doc["checks"][0].update(check)
    if sigma_algebra is not None:
        doc["sigma_algebra"] = sigma_algebra
        del doc["measure"]["atom_values"][drop_atom]
    return doc


# Documents that `run` refused with no pointer while `validate` accepted them.
_PARSE_TIME_REFUSALS = {
    "continuity_below_set": (
        _refused_copy("continuity_below_basic", {"sets": [[0], [0, 1]]},
                      {"generators": [[0, 1]]}, "1"),
        "/checks/0/sets/0: set [0] is not measurable"),
    "continuity_above_term": (
        _refused_copy("continuity_below_basic",
                      {"check": "continuity_above", "sets": {"terms": [[0, 1], [0]]}},
                      {"generators": [[0, 1]]}, "1"),
        "/checks/0/sets/terms/1: set [0] is not measurable"),
    "borel_cantelli_set": (
        _refused_copy("continuity_below_basic",
                      {"check": "borel_cantelli", "sets": [[0], [0]]},
                      {"generators": [[0, 1]]}, "1"),
        "/checks/0/sets/0: set [0] is not measurable"),
    "bridge_set": (
        _refused_copy("bridge_diagonal", {"sets": [[0]]}, {"sets": [[], [0, 1]]}, "1"),
        "/checks/0/sets/0: set [0] is not measurable"),
    "bridge_overlap": (
        _refused_copy("bridge_diagonal", {"sets": [[0, 1], [1]]}),
        "/checks/0/sets/1: sets are not pairwise disjoint"),
    "push_forward_sign": (
        _refused_copy("push_forward_sum", {"matrix": [["-1", "1"]]}),
        "/checks/0/matrix/0/0: push-forward matrix must be entrywise >= 0"),
}


class TestCli:
    def test_validate_ok(self, capsys):
        assert run_cli(["validate", SCENARIO_DIR / "identities_basic.json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["classification"]["kind"] == "infinite"

    def test_run_json_output(self, capsys):
        code = run_cli(["run", SCENARIO_DIR / "mct_basic.json", "--output", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"]

    def test_run_failure_exit_code(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "continuity_above_infinite.json").read_text())
        doc["checks"][0]["expect"] = "holds"
        bad = tmp_path / "bad.json"
        bad.write_text(canonical_dumps(doc))
        assert run_cli(["run", bad]) == 1

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps({
            "space": {"kind": "coord", "dim": 2},
            "ground_size": 1,
            "sigma_algebra": {"power_set": True},
            "measure": {"atom_values": {"0": {"finite": ["1/0", "1"]}}},
        }))
        assert run_cli(["run", bad]) == 2
        err = capsys.readouterr().err
        assert "/measure/atom_values/0" in err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"),
        ("directory", "cannot read"),
        (b'{"ground_size": "\xe9"}', "not UTF-8"),
        (b"[" * 100000, "invalid JSON: arrays and objects nested too deeply"),
        (b'{"ground_size": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit"),
        (b'{"ground_size": 1', "invalid JSON: Expecting"),
    ], ids=["missing", "directory", "not_utf8", "nested_too_deeply", "long_integer",
            "truncated"])
    @pytest.mark.parametrize("command", ["validate", "run", "caratheodory"])
    def test_unreadable_file_is_a_schema_error(self, tmp_path, capsys, content, message,
                                               command):
        path = tmp_path / "scenario.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert run_cli([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /: ") and message in err

    @pytest.mark.parametrize("command", ["validate", "run", "caratheodory"])
    def test_key_written_twice_is_a_schema_error(self, tmp_path, capsys, command):
        text = (SCENARIO_DIR / "caratheodory_two_point.json").read_text()
        again = '"0": {"finite": ["2", "2"]},\n      "0,1": {'
        path = tmp_path / "repeated.json"
        path.write_text(text.replace('"0,1": {', again, 1))
        assert run_cli([command, path]) == 2
        assert capsys.readouterr().err == (
            "error: /outer_measure/outer_values: key '0' is written twice\n")

    def test_repeated_key_inside_a_dropped_value(self, tmp_path, capsys):
        # The first "space", which repeats "kind", is dropped for the second;
        # the error names the object that the document keeps.
        path = tmp_path / "repeated.json"
        path.write_text('{"space": {"kind": "reals", "kind": "coord"}, "space": 1}')
        assert run_cli(["validate", path]) == 2
        assert capsys.readouterr().err == "error: /: key 'space' is written twice\n"

    @pytest.mark.parametrize("space, pointer", [
        ({"kind": "coord", "dim": "x"}, "/space/dim"),
        ({"kind": "coord", "dim": 2.5}, "/space/dim"),
        ({"kind": "coord", "dim": True}, "/space/dim"),
        ({"kind": "coord", "dim": None}, "/space/dim"),
        ({"kind": "coord"}, "/space/dim"),
        ({"kind": "loewner_sym", "dim": 0}, "/space/dim"),
        ({"kind": "loewner_sym", "dim": 7}, "/space/dim"),
        ({"kind": "entrywise_mat", "rows": "2", "cols": 2}, "/space/rows"),
        ({"kind": "entrywise_mat", "rows": 2, "cols": 1.5}, "/space/cols"),
    ], ids=["string", "float", "bool", "null", "missing", "zero", "loewner_cap",
            "rows", "cols"])
    def test_space_size_schema_errors(self, tmp_path, capsys, space, pointer):
        bad = tmp_path / "bad_space.json"
        bad.write_text(json.dumps({"space": space, "ground_size": 1}))
        assert run_cli(["validate", bad]) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")

    @pytest.mark.parametrize("updates, pointer", [
        ({"ground_size": True}, "/ground_size"),
        ({"ground_size": 17}, "/ground_size"),
        ({"sigma_algebra": []}, "/sigma_algebra"),
        ({"checks": {"check": "validate"}}, "/checks"),
        ({"checks": ["validate"]}, "/checks/0"),
        ({"checks": [{"check": "validate"}, {"check": 1}]}, "/checks/1"),
        ({"outer_measure": []}, "/outer_measure"),
        ({"functions": []}, "/functions"),
        ({"sequences": "abc"}, "/sequences"),
        ({"measure": {"atom_values": []}}, "/measure/atom_values"),
        ({"sigma_algebra": {"generators": 5}}, "/sigma_algebra/generators"),
        ({"functions": {"f": {"values": 3}}}, "/functions/f/values"),
        ({"outer_measure": {"outer_values": []}}, "/outer_measure/outer_values"),
        (_induced_outer_on(13), "/outer_measure"),
        (_induced_outer_on(16), "/outer_measure"),
        ({"checks": [{"check": "ae", "function": {"values": [1]}}]}, "/checks/0/function"),
        ({"checks": [{"check": "integrate", "function": ["a"]}]}, "/checks/0/function"),
        ({"checks": [{"check": "mct", "sequence": ["s"]}]}, "/checks/0/sequence"),
        ({"sequences": {"s": [1]}, "checks": [{"check": "mct", "sequence": "s"}]},
         "/sequences/s"),
        ({"sequences": {"s": {"kind": "explicit", "terms": 5}},
          "checks": [{"check": "mct", "sequence": "s"}]}, "/sequences/s/terms"),
        ({"checks": [{"check": "continuity_below", "sets": 5}]}, "/checks/0/sets"),
        ({"checks": [{"check": "continuity_below"}]}, "/checks/0/sets"),
        ({"checks": [{"check": "continuity_below", "sets": {"terms": 5}}]},
         "/checks/0/sets/terms"),
        ({"checks": [{"check": "l1_quotient", "functions": 5}]}, "/checks/0/functions"),
        ({"checks": [{"check": "push_forward", "target": {"kind": "reals"},
                      "matrix": 5}]}, "/checks/0/matrix"),
        ({"checks": [{"check": "push_forward", "target": {"kind": "reals"},
                      "matrix": [5]}]}, "/checks/0/matrix/0"),
        ({"checks": [{"check": "push_forward", "target": {"kind": "reals"},
                      "matrix": []}]}, "/checks/0/matrix"),
        ({"checks": [{"check": "push_forward", "target": {"kind": "coord", "dim": 2},
                      "matrix": [["1", "0"]]}]}, "/checks/0/matrix"),
        ({"checks": [{"check": "push_forward", "target": {"kind": "reals"},
                      "matrix": [["1"]]}]}, "/checks/0/matrix/0"),
        ({"checks": [{"check": "push_forward", "target": {"kind": "reals"}}]},
         "/checks/0/matrix"),
        ({"checks": [{"check": "bridge", "sets": 5}]}, "/checks/0/sets"),
        ({"outer_measure": {"induced_from_measure": True},
          "checks": [{"check": "caratheodory", "expected_family": 5}]},
         "/checks/0/expected_family"),
        ({"checks": [{"check": "validate", "expect": "hold"}]}, "/checks/0/expect"),
        ({"checks": [{"check": "bridge", "sets": [[True]]}]}, "/checks/0/sets/0/0"),
        ({"sigma_algebra": {"generators": [[True]]}}, "/sigma_algebra/generators/0/0"),
        ({"measure": DROP, "checks": [{"check": "validate"}, {"check": "identities"}]},
         "/checks/1"),
        ({"checks": [{"check": "caratheodory"}]}, "/checks/0"),
        ({"checks": [{"check": "nosuchcheck"}]}, "/checks/0/check"),
        ({"functions": {"f": {"values": ["-1", "0", "0"]}},
          "checks": [{"check": "ae", "function": "f"}]}, "/checks/0/function"),
        ({"functions": {"f": {"values": ["infinity", "0", "0"]}},
          "sequences": {"s": {"kind": "explicit", "terms": ["f"]}},
          "checks": [{"check": "dct", "sequence": "s", "limit": "f", "dominator": "f"}]},
         "/checks/0/sequence"),
        ({"sequences": {"s": {"kind": "explicit", "terms": [{"values": ["1"]}]}}},
         "/sequences/s/terms/0/values"),
        ({"functions": {"f": {"values": ["-1", "0", "0"]}},
          "sequences": {"s": {"kind": "alternating", "terms": ["f"]}},
          "checks": [{"check": "fatou", "sequence": "s"}]}, "/checks/0/sequence"),
        (_generated_sequence({"kind": "geometric", "base": "zero", "bump": "one",
                              "ratio": "-1/2"}, {"check": "mct", "limit": "zero"},
                             zero=ZERO, one=ONE), "/checks/0/sequence"),
        (_generated_sequence({"kind": "geometric", "base": "one", "bump": "wobble",
                              "ratio": "1/2"}, {"check": "mct", "limit": "one"},
                             coarse=True, one=ONE, wobble=["0", "0", "1"]),
         "/checks/0/sequence"),
        # term 2 and the least values are measurable, term 1 is not; then
        # term 1 and the least values, and not term 2
        (_generated_sequence({"kind": "geometric", "base": "a", "bump": "b",
                              "ratio": "-1/2"}, {"check": "fatou"}, coarse=True,
                             a=["0", "0", "1/4"], b=["0", "0", "-1"]), "/checks/0/sequence"),
        (_generated_sequence({"kind": "geometric", "base": "a", "bump": "b",
                              "ratio": "-1/2"}, {"check": "fatou"}, coarse=True,
                             a=["0", "0", "1"], b=["0", "0", "2"]), "/checks/0/sequence"),
        (_generated_sequence({"kind": "geometric", "base": "low", "bump": "one",
                              "ratio": "1/2"}, {"check": "mct", "limit": "one"},
                             low=["-1/100"] * 3, one=ONE), "/checks/0/sequence"),
        (_generated_sequence({"kind": "truncation_ladder", "of": "f"}, {"check": "fatou"},
                             f=["-1", "0", "infinity"]), "/checks/0/sequence"),
        (_generated_sequence({"kind": "scaled_index", "shape": "wobble"},
                             {"check": "dct", "limit": "zero", "dominator": "one"},
                             coarse=True, zero=ZERO, one=ONE, wobble=["0", "0", "1"]),
         "/checks/0/sequence"),
        (_outer_values("0,1", "1,0"), "/outer_measure/outer_values/1,0"),
        (_outer_values("1", "01"), "/outer_measure/outer_values/01"),
        (_outer_values("0,0"), "/outer_measure/outer_values/0,0"),
        (_outer_values("2,1"), "/outer_measure/outer_values/2,1"),
        (_outer_values(" 1"), "/outer_measure/outer_values/ 1"),
        (_outer_values("\u0661"), "/outer_measure/outer_values/\u0661"),
        (_outer_values("0,+1"), "/outer_measure/outer_values/0,+1"),
        (_l1_list_with(["0", "0", "1"]), "/checks/0/functions/1"),
        (_l1_list_with(["0", "infinity", "infinity"]), "/checks/0/functions/1"),
        (dict(LOEWNER, measure={"atom_values": {"0": {"finite": ASYMMETRIC}}}),
         "/measure/atom_values/0/finite"),
        (dict(LOEWNER, functions={"f": {"values": ONE}},
              checks=[{"check": "integrate", "function": "f",
                       "expected": {"finite": ASYMMETRIC}}]), "/checks/0/expected/finite"),
        (dict(LOEWNER, checks=[{"check": "borel_cantelli", "sets": [[0]],
                                "lower_bound": ASYMMETRIC}]), "/checks/0/lower_bound"),
        ({"sigma_algebra": {"sets": 5}}, "/sigma_algebra/sets"),
        ({"sigma_algebra": {"sets": [[True]]}}, "/sigma_algebra/sets/0/0"),
        ({"checks": [{"check": "l1_quotient", "functions": [5]}]}, "/checks/0/functions/0"),
        ({"checks": [{"check": "push_forward", "target": {"kind": "reals"},
                      "matrix": [[1, "0"]]}]}, "/checks/0/matrix/0/0"),
        # The library's positive-cone rule, pointed at the document's key
        ({"measure": {"atom_values": {"0": {"finite": ["1", "0"]},
                                      "1": {"finite": ["0", "-1"]}, "2": "infinity"}}},
         "/measure/atom_values/1"),
        ({"outer_measure": {"outer_values": {
            key: {"finite": ["0", "0"]} if key == "" else
            {"finite": ["0", "-1"]} if key == "01" else "infinity"
            for key in ("", "0", "01", "2", "0,1", "0,2", "1,2", "0,1,2")}}},
         "/outer_measure/outer_values/01"),
        # A kind is tested before the terms are read, so none of them is the error.
        ({"checks": [{"check": "continuity_below", "sets": {"kind": "foo", "terms": []}}]},
         ("/checks/0/sets/kind", "unknown set sequence kind 'foo'")),
        ({"checks": [{"check": "continuity_below", "sets": {"kind": "foo"}}]},
         ("/checks/0/sets/kind", "unknown set sequence kind 'foo'")),
        ({"checks": [{"check": "continuity_below",
                      "sets": {"kind": "foo", "terms": [[99]]}}]},
         ("/checks/0/sets/kind", "unknown set sequence kind 'foo'")),
        ({"checks": [{"check": "continuity_below", "sets": {"kind": "alternating"}}]},
         ("/checks/0/sets", "set sequence needs terms")),
        ({"sequences": {"s": {"kind": "foo", "terms": [[99]]}}},
         ("/sequences/s/kind", "unknown sequence kind 'foo'")),
        ({"sequences": {"s": {"kind": "explicit", "terms": []}}},
         ("/sequences/s", "explicit sequence needs terms")),
        ({"functions": {"f": {"values": ["1", "0", "0"]}},
          "sequences": {"s": {"kind": "geometric", "base": "f", "bump": "f", "ratio": "-1"}}},
         ("/sequences/s/ratio", "geometric ratio must satisfy |ratio| < 1")),
        ({"functions": {"f": {"values": ["1", "0", "infinity"]}},
          "sequences": {"s": {"kind": "scaled_index", "shape": "f"}}},
         ("/sequences/s", "scaled_index shape must be finite")),
        # Each selector flag is a boolean, and true admits no other selector.
        ({"sigma_algebra": {"power_set": "no", "generators": [[0, 1]]}},
         ("/sigma_algebra/power_set", "power_set must be true or false")),
        ({"sigma_algebra": {"power_set": 1}}, "/sigma_algebra/power_set"),
        ({"sigma_algebra": {"power_set": True, "generators": [[0, 1]]}},
         ("/sigma_algebra", "power_set: true admits no generators or sets")),
        ({"sigma_algebra": {"power_set": True, "sets": [[], [0, 1, 2]]}}, "/sigma_algebra"),
        ({"outer_measure": {"induced_from_measure": "no"}},
         ("/outer_measure/induced_from_measure",
          "induced_from_measure must be true or false")),
        ({"outer_measure": {"induced_from_measure": True,
                            "outer_values": {"": {"finite": ["0", "0"]}}}},
         ("/outer_measure", "induced_from_measure: true admits no outer_values")),
        # Over the coordinate cap, where the zero element ran out of memory
        ({"space": {"kind": "coord", "dim": 10**10}},
         ("/space", f"backend coordinates limited to <= {MAX_COORDINATES}, "
                    f"got {10**10}")),
        ({"space": {"kind": "entrywise_mat", "rows": 10**5, "cols": 10**5}}, "/space"),
        ({"checks": [{"check": "push_forward", "function": "f", "matrix": [["1", "1"]],
                      "target": {"kind": "coord", "dim": MAX_COORDINATES + 1}}]},
         "/checks/0/target"),
        # A library refusal names the section, or the document key of its witness.
        ({"sigma_algebra": {"sets": [[], [0], [0, 1, 2]]}},
         ("/sigma_algebra/sets", "family not closed under complement of [0]")),
        # `generators` alone is the power set; `sets` is no algebra
        ({"sigma_algebra": {"generators": [[0], [1]], "sets": [[0], [1, 2]]}},
         ("/sigma_algebra", "sigma_algebra needs exactly one of power_set, generators, "
                            "sets")),
        ({"sigma_algebra": {"power_set": False}},
         ("/sigma_algebra", "sigma_algebra needs exactly one of power_set, generators, "
                            "sets")),
        ({"outer_measure": {}},
         ("/outer_measure", "outer_measure needs exactly one of induced_from_measure, "
                            "outer_values")),
        (_outer_values("", "0", "1"),
         ("/outer_measure/outer_values", "outer measure must be total on the power set")),
        (_outer_values("", "0", "1", "2", "0,1", "0,2", "1,2", "0,1,2"),
         ("/outer_measure/outer_values", "outer measure of the empty set must be zero")),
        (_outer_values_on(13), "/outer_measure/outer_values"),
        # A directive key outside the check's table, the first in document order
        ({"checks": [{"check": "validate", "expectt": "fails"}]},
         ("/checks/0/expectt", "validate has no key 'expectt'")),
        ({"checks": [{"check": "validate", "zz": 1, "aa": 2}]}, "/checks/0/zz"),
        ({"functions": {"f": {"values": ONE}},
          "checks": [{"check": "ae", "function": "f", "limit": "f"}]}, "/checks/0/limit"),
        # A key that nothing reads, in any object of the document
        ({"outer_measures": {"induced_from_measure": True}},
         ("/outer_measures", "scenario has no key 'outer_measures'")),
        ({"space": {"kind": "coord", "dim": 2, "dimm": 3}},
         ("/space/dimm", "space has no key 'dimm'")),
        ({"measure": {"atom_values": ATOMS, "atom_value": {"0": "infinity"}}},
         ("/measure/atom_value", "measure has no key 'atom_value'")),
        ({"sigma_algebra": {"generators": [[0], [1]], "generator": [[2]]}},
         ("/sigma_algebra/generator", "sigma_algebra has no key 'generator'")),
        ({"outer_measure": {"induced_from_measure": True, "outer_value": {}}},
         ("/outer_measure/outer_value", "outer_measure has no key 'outer_value'")),
        ({"functions": {"f": {"values": ONE, "value": ZERO}}},
         ("/functions/f/value", "function has no key 'value'")),
        ({"functions": {"f": {"values": ONE}},
          "sequences": {"s": {"kind": "explicit", "terms": ["f"], "limit": "f"}}},
         ("/sequences/s/limit", "sequence has no key 'limit'")),
        ({"checks": [{"check": "continuity_below",
                      "sets": {"kind": "explicit", "terms": [[0]], "term": [[1]]}}]},
         ("/checks/0/sets/term", "set sequence has no key 'term'")),
        ({"measure": {"atom_values": dict(ATOMS, **{"1": {"finite": ["0", "1"], "x": 1}})}},
         ("/measure/atom_values/1/x", "element has no key 'x'")),
        ({"checks": [{"check": "push_forward", "matrix": [["1", "1"]],
                      "target": {"kind": "reals", "kinds": "coord"}}]},
         ("/checks/0/target/kinds", "space has no key 'kinds'")),
        # A key that only another kind of the object's family reads
        ({"space": {"kind": "coord", "dim": 2, "rows": 7}},
         ("/space/rows", "space has no key 'rows'")),
        (_generated_sequence({"kind": "geometric", "base": "one", "bump": "minus_one",
                              "monotonicity": "increasing", "ratio": "1/2",
                              "terms": ["nonexistent"]}, {"check": "mct", "limit": "one"},
                             one=ONE, minus_one=["-1"] * 3),
         ("/sequences/s/terms", "sequence has no key 'terms'")),
        ({"space": {"kind": "reals", "dim": 1},
          "measure": {"atom_values": {"0": {"finite": ["1"]}, "1": {"finite": ["0"]},
                                      "2": "infinity"}}},
         ("/space/dim", "space has no key 'dim'")),
        ({"functions": {"f": {"values": ONE}},
          "sequences": {"s": {"kind": "scaled_index", "shape": "f", "terms": ["f"]}}},
         ("/sequences/s/terms", "sequence has no key 'terms'")),
        ({"checks": [{"check": "continuity_below",
                      "sets": {"kind": "explicit", "terms": [[0]], "ratio": "1/2"}}]},
         ("/checks/0/sets/ratio", "set sequence has no key 'ratio'")),
    ], ids=["ground_bool", "ground_cap", "sigma_algebra_list", "checks_object",
            "directive_string", "check_name_int", "outer_measure_list",
            "functions_list", "sequences_string", "atom_values_list",
            "generators_int", "values_int", "outer_values_list", "outer_ground_13",
            "outer_ground_16", "function_ref_object", "function_ref_array",
            "sequence_ref_array", "sequence_list", "sequence_terms_int", "sets_int",
            "sets_missing", "set_terms_int", "l1_functions_int", "matrix_int",
            "matrix_row_int", "matrix_emptied", "matrix_row_dropped",
            "matrix_row_short", "matrix_missing", "bridge_sets_int", "expected_family_int",
            "expect_unknown", "bridge_point_bool", "generator_point_bool",
            "measure_missing", "outer_measure_missing", "check_unknown",
            "function_negative", "signed_sequence_infinite", "inline_term_length",
            "sequence_term_negative", "geometric_term_negative",
            "geometric_bump_not_measurable", "geometric_first_term_not_measurable",
            "geometric_second_term_not_measurable",
            "geometric_terms_fall_below_zero",
            "truncation_ladder_negative", "scaled_index_not_measurable",
            "outer_key_reordered", "outer_key_leading_zero", "outer_key_repeated_point",
            "outer_key_decreasing", "outer_key_space", "outer_key_arabic_digit",
            "outer_key_plus", "l1_function_not_measurable", "l1_function_infinite",
            "loewner_atom_asymmetric", "loewner_expected_asymmetric",
            "loewner_lower_bound_asymmetric", "algebra_sets_int", "algebra_set_point_bool",
            "l1_function_ref_int", "matrix_entry_int", "atom_value_negative",
            "outer_value_negative", "set_kind_unknown_empty", "set_kind_unknown_no_terms",
            "set_kind_unknown_bad_point", "set_terms_missing", "sequence_kind_unknown",
            "explicit_terms_empty", "geometric_ratio_minus_one", "scaled_index_infinite",
            "power_set_string", "power_set_int", "power_set_with_generators",
            "power_set_with_sets", "induced_string", "induced_with_outer_values",
            "coord_over_cap", "entrywise_mat_over_cap", "push_forward_target_over_cap",
            "algebra_sets_not_closed", "generators_with_sets", "no_algebra_selector",
            "no_outer_selector", "outer_values_set_missing", "outer_value_empty_nonzero",
            "outer_values_ground_13", "directive_key_misspelled",
            "directive_keys_in_document_order", "directive_key_of_another_check",
            "top_level_key_unknown", "space_key_unknown", "measure_key_unknown",
            "algebra_key_unknown", "outer_key_unknown", "function_key_unknown",
            "sequence_key_unknown", "set_sequence_key_unknown", "element_key_unknown",
            "target_key_unknown", "coord_with_rows", "geometric_with_terms",
            "reals_with_dim", "scaled_index_with_terms", "set_sequence_with_ratio"])
    def test_scenario_schema_errors(self, tmp_path, capsys, updates, pointer):
        # `pointer` is a JSON pointer, or (pointer, the whole message)
        pointer, message = pointer if isinstance(pointer, tuple) else (pointer, None)
        doc = json.loads((SCENARIO_DIR / "identities_basic.json").read_text())
        doc.update(updates)
        bad = tmp_path / "bad_scenario.json"
        bad.write_text(json.dumps({k: v for k, v in doc.items() if v is not DROP}))
        assert run_cli(["validate", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pointer}: ")
        assert message is None or err == f"error: {pointer}: {message}\n"
        assert run_cli(["run", bad]) == 2
        assert capsys.readouterr().err == err
        if pointer.startswith("/outer_measure") and "ground_size" in updates:
            assert f"<= {MAX_OUTER_GROUND_SIZE}," in err

    @pytest.mark.parametrize("horizon", ["0", "-3", "x", str(MAX_HORIZON + 1),
                                         "\u0663", "\u00b2"])  # Arabic-Indic 3, superscript 2
    def test_horizon_must_be_positive(self, capsys, horizon):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", SCENARIO_DIR / "mct_basic.json", "--horizon", horizon])
        assert exc.value.code == 2
        assert "--horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["\u0661\u0666", "1_6"])  # Arabic-Indic 16, and 16
    @pytest.mark.parametrize("kind", ["sup_measure", "series_measure"])
    def test_compare_n_takes_ascii_digits_only(self, capsys, kind, n):
        with pytest.raises(SystemExit) as exc:
            run_cli(["compare", kind, "--n", n])
        assert exc.value.code == 2
        assert "argument --n: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", ["2^--5", "2^-x", "0", "-1/2", "1/0", ",",
                                          f"2^-{MAX_EPSILON_EXPONENT + 1}",
                                          "2^-1000000000"])
    def test_epsilon_schedule_must_be_valid(self, capsys, schedule):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", SCENARIO_DIR / "mct_basic.json",
                     f"--epsilon-schedule={schedule}"])
        assert exc.value.code == 2
        assert "--epsilon-schedule" in capsys.readouterr().err

    def test_caratheodory_subcommand(self, capsys):
        code = run_cli(["caratheodory", SCENARIO_DIR / "caratheodory_two_point.json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["measurable_family"] == [[], [0, 1]]
        assert out["restriction_identities"] == "holds"

    @pytest.mark.parametrize("stem", ["caratheodory_two_point", "caratheodory_induced"])
    def test_caratheodory_subcommand_matches_directive(self, capsys, stem):
        path = SCENARIO_DIR / f"{stem}.json"
        run_cli(["caratheodory", path])
        report = run_scenario(load_scenario(str(path)))
        [details] = [c["details"] for c in report["checks"]
                     if c["check"] == "caratheodory"]
        assert capsys.readouterr().out == canonical_dumps(details)

    def test_compare_subcommands(self, capsys):
        assert run_cli(["compare", "sup_measure", "--n", "4"]) == 0
        sup = json.loads(capsys.readouterr().out)
        assert sup["tail_sup_norms"] == ["1"] * 4
        assert run_cli(["compare", "series_measure", "--n", "4"]) == 0
        series = json.loads(capsys.readouterr().out)
        assert series["integral"] == ["1"] * 4

    @pytest.mark.parametrize("kind", ["sup_measure", "series_measure"])
    def test_compare_size_limit_exit_code(self, capsys, kind):
        assert run_cli(["compare", kind, "--n", str(MAX_TRUNCATION + 1)]) == 2
        assert capsys.readouterr().err == (
            f"error: truncation limited to <= {MAX_TRUNCATION}, got {MAX_TRUNCATION + 1}\n")

    @pytest.mark.parametrize("kind", ["sup_measure", "series_measure"])
    def test_compare_at_the_cap_runs_in_time(self, capsys, kind):
        # A space stores its n atoms only, so the truncation cap is the
        # experiment's own O(n^2) report, not 2^n member sets.
        start = time.perf_counter()
        assert run_cli(["compare", kind, "--n", str(MAX_TRUNCATION)]) == 0
        assert time.perf_counter() - start < 30
        assert json.loads(capsys.readouterr().out)["n"] == MAX_TRUNCATION

    def test_epsilon_schedule_flag(self, capsys):
        code = run_cli(["run", SCENARIO_DIR / "mct_basic.json",
                        "--epsilon-schedule", "2^-4,2^-8", "--output", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epsilon_schedule"] == ["1/16", "1/256"]

    def test_huge_value_does_not_hang(self, tmp_path):
        # The ladder evaluates only its break levels, so a value of 10^8
        # costs a handful of rungs instead of 10^8 of them.
        doc = json.loads((SCENARIO_DIR / "ae_basic.json").read_text())
        doc["functions"]["plain"]["values"] = ["100000000", "1/3", "infinity"]
        doc["checks"] = [
            {"check": "integrate", "function": "plain",
             "expected": {"finite": ["100000000", "1/3"]}},
            {"check": "ae", "function": "plain"},
        ]
        path = tmp_path / "huge_value.json"
        path.write_text(canonical_dumps(doc))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ordmeasure.cli", "run", str(path),
             "--output", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["all_ok"]
        integrate, ae = report["checks"]
        assert integrate["details"]["ladder"] == {"mode": "stabilized",
                                                  "at_level": 100000000}
        assert ae["details"]["integral"] == {"finite": ["100000000", "1/3"]}

    def test_outer_measure_at_the_cap_runs_in_time(self, tmp_path):
        # A cover-sum outer measure on the largest ground set outer measures
        # accept: nu(A) is infinite when A holds point 0, and otherwise the
        # sum of the weights of the windows {i, i+1} that A meets.  The
        # windows chain the points 1..n-1, so the measurable sets are the
        # unions of {0} and {1, ..., n-1}.
        n = MAX_OUTER_GROUND_SIZE
        windows = [(0b11 << i, Fraction(i, 3)) for i in range(1, n - 1)]
        values = {}
        for mask in range(1 << n):
            key = ",".join(map(str, mask_to_points(mask)))
            weight = sum(w for window, w in windows if mask & window)
            values[key] = "infinity" if mask & 1 else {
                "finite": [format_rational(Fraction(weight)), "0"]}
        rest = list(range(1, n))
        family = [[], [0], rest, [0] + rest]
        doc = {"space": {"kind": "coord", "dim": 2}, "ground_size": n,
               "sigma_algebra": {"power_set": True},
               "outer_measure": {"outer_values": values},
               "checks": [{"check": "caratheodory", "expected_family": family}]}
        path = tmp_path / "outer_at_cap.json"
        path.write_text(canonical_dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "ordmeasure.cli", "run", str(path),
             "--output", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        [check] = json.loads(proc.stdout)["checks"]
        assert check["details"]["measurable_family"] == family

    @pytest.mark.parametrize("space", [{"kind": "coord", "dim": 10**10},
                                       {"kind": "entrywise_mat", "rows": 10**5, "cols": 10**5}],
                             ids=["coord", "entrywise_mat"])
    def test_tiny_document_over_the_coordinate_cap_exits_2(self, tmp_path, capsys, space):
        # About 120 bytes: with no cap, the zero element of the backend, which
        # the infinite atom's measure needs, was a tuple of 10^10 integers.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"space": space, "ground_size": 1,
                                    "measure": {"atom_values": {"0": "infinity"}}}))
        message = (f"error: /space: backend coordinates limited to <= {MAX_COORDINATES}, "
                   f"got {10**10}\n")
        for command in ("validate", "run"):
            assert run_cli([command, path]) == 2
            assert capsys.readouterr().err == message

    def test_identities_at_the_coordinate_cap_runs_in_time(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "identities_basic.json").read_text())
        doc["space"] = {"kind": "coord", "dim": MAX_COORDINATES}
        doc["measure"]["atom_values"] = {
            "0": {"finite": [f"{i % 7}/3" for i in range(MAX_COORDINATES)]},
            "1": {"finite": [str(i % 5) for i in range(MAX_COORDINATES)]}, "2": "infinity"}
        path = tmp_path / "coord_at_cap.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run_cli(["run", path]) == 0
        assert time.perf_counter() - start < 10
        assert "all_ok: True" in capsys.readouterr().out

    def test_identities_at_the_atom_and_coordinate_caps_runs_in_time(self, tmp_path,
                                                                     capsys):
        # Both caps at once: 4^8 pairs of sets whose values have 1,024
        # coordinates n/d, n <= 9 and d <= 4.  Through the CLI the packed
        # table decides it in about 0.6 s on a 2-core x86_64 host, the row
        # kernels in about 11 s.
        n, dim = MAX_EXHAUSTIVE_ATOMS, MAX_COORDINATES
        path = _power_set_copy("identities_basic", n, tmp_path / "identities_wide.json")
        doc = json.loads(path.read_text())
        doc["space"] = {"kind": "coord", "dim": dim}
        doc["measure"]["atom_values"] = {
            str(p): {"finite": [f"{(3 * p + i) % 10}/{(p + i) % 4 + 1}" for i in range(dim)]}
            for p in range(n)}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run_cli(["run", path, "--output", "json"]) == 0
        assert time.perf_counter() - start < 4
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[1]["status"] == "holds"
        assert checks[1]["details"]["pairs_checked"] == 4 ** n

    def test_identities_over_the_atom_cap_is_a_schema_error(self, tmp_path, capsys):
        # The identity suite enumerates 4^k pairs; over the cap it was a hang.
        path = _power_set_copy("identities_basic", 16, tmp_path / "identities_16.json")
        message = (f"error: /checks/1: atoms of an exhaustive check limited to "
                   f"<= {MAX_EXHAUSTIVE_ATOMS}, got 16\n")
        assert run_cli(["validate", path]) == 2
        assert capsys.readouterr().err == message
        assert run_cli(["run", path]) == 2
        assert capsys.readouterr().err == message

    def test_identities_at_the_atom_cap_runs_in_time(self, tmp_path, capsys):
        n = MAX_EXHAUSTIVE_ATOMS
        path = _power_set_copy("identities_basic", n, tmp_path / "identities_at_cap.json")
        start = time.perf_counter()
        assert run_cli(["run", path, "--output", "json"]) == 0
        assert time.perf_counter() - start < 60
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[1]["details"]["pairs_checked"] == 4 ** n

    def test_caratheodory_over_the_atom_cap_exits_2_when_run(self, tmp_path, capsys):
        # The extracted family is known only after extraction, so `validate`
        # accepts the document and `run` stops at the identity suite.
        path = _power_set_copy("caratheodory_induced", MAX_EXHAUSTIVE_ATOMS + 1,
                               tmp_path / "caratheodory_over_cap.json")
        assert run_cli(["validate", path]) == 0
        capsys.readouterr()
        assert run_cli(["run", path]) == 2
        assert capsys.readouterr().err == (
            f"error: /checks/1: atoms of an exhaustive check limited to "
            f"<= {MAX_EXHAUSTIVE_ATOMS}, got {MAX_EXHAUSTIVE_ATOMS + 1}\n")

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_result_past_the_digit_limit_exits_2(self, tmp_path, capsys, output):
        # 10^200 * 10^4250 has 4,451 digits, more than Python prints.
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({
            "space": {"kind": "reals"}, "ground_size": 1,
            "measure": {"atom_values": {"0": {"finite": ["1" + "0" * 200]}}},
            "functions": {"f": {"values": ["1" + "0" * 4250]}},
            "checks": [{"check": "integrate", "function": "f"}]}))
        assert run_cli(["validate", path]) == 0
        capsys.readouterr()
        assert run_cli(["run", path, "--output", output]) == 2
        assert capsys.readouterr() == ("", "error: /checks/0: rational output limited "
                                       f"to <= {sys.get_int_max_str_digits()} digits\n")

    @pytest.mark.parametrize("case", sorted(_PARSE_TIME_REFUSALS))
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys, case):
        doc, message = _PARSE_TIME_REFUSALS[case]
        path = tmp_path / "refused.json"
        path.write_text(canonical_dumps(doc))
        for command in ("validate", "run"):
            assert run_cli([command, path]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["run", "caratheodory"])
    def test_caratheodory_at_the_outer_cap_runs_in_time(self, tmp_path, command):
        # Every set of a power-set-induced outer measure is measurable, so
        # extraction decides every split of every set: from the record of
        # split verdicts, one sum per disjoint pair.  Then the identity
        # suite stops at the exhaustive-atom cap.
        n = MAX_OUTER_GROUND_SIZE
        path = _power_set_copy("caratheodory_induced", n,
                               tmp_path / "caratheodory_at_outer_cap.json")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ordmeasure.cli", command, str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 30
        assert proc.returncode == 2
        where = "/checks/1: " if command == "run" else ""  # run names the directive
        assert proc.stderr == (f"error: {where}atoms of an exhaustive check limited to "
                               f"<= {MAX_EXHAUSTIVE_ATOMS}, got {n}\n")

    def test_loewner_at_the_cap_runs_in_time(self, tmp_path):
        # Atoms B B^T for lower-triangular integer B with nonzero diagonal
        # are positive definite; the functions reach the top value 100.
        d = MAX_LOEWNER_DIM
        atoms = {}
        for k in range(3):
            b = [[k + 1 + i if j == i else (i * j + k) % 5 - 2 if j < i else 0
                  for j in range(d)] for i in range(d)]
            atoms[str(k)] = {"finite": [
                str(sum(b[i][m] * b[j][m] for m in range(d)))
                for i in range(d) for j in range(d)]}
        doc = {"space": {"kind": "loewner_sym", "dim": d}, "ground_size": 3,
               "sigma_algebra": {"power_set": True},
               "measure": {"atom_values": atoms},
               "functions": {"f": {"values": ["100", "1/3", "7"]},
                             "g": {"values": ["2", "100", "99/2"]}},
               "checks": [{"check": "integrate", "function": "f"},
                          {"check": "integrate", "function": "g"},
                          {"check": "integral_laws", "f": "f", "g": "g",
                           "r1": "1/2", "r2": "3"}]}
        path = tmp_path / "loewner_at_cap.json"
        path.write_text(canonical_dumps(doc))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ordmeasure.cli", "run", str(path),
             "--output", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 30
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["all_ok"]

    def test_horizon_at_the_cap_runs_in_time(self):
        # dct_geometric is the slowest shipped scenario at a long horizon.
        start = time.perf_counter()
        assert run_cli(["run", SCENARIO_DIR / "dct_geometric.json",
                        "--horizon", str(MAX_HORIZON)]) == 0
        assert time.perf_counter() - start < 60

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ordmeasure.cli", "compare",
             "series_measure", "--n", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["integral"] == ["1", "1"]


# Wrong types, a dropped key, and a well-formed rational that can still be
# a wrong value (an entry of a Loewner matrix that breaks its symmetry).
MUTATIONS = [5, [], {}, "x", True, None, DROP, "7/3"]


def _json_paths(node, prefix=()):
    """The path of every object member and array item inside a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestExitContract:
    def test_mutated_scenarios_keep_the_exit_contract(self, tmp_path, capsys):
        """Every value of every shipped scenario is mutated once, the k-th
        value by the (k mod 8)-th of `MUTATIONS`, and the result is run and
        validated in process.  Exit codes stay in 0..2, nothing else
        escapes, every refusal of `validate` names a JSON pointer, and a
        schema error of `run` is the one `validate` reports."""
        bad = tmp_path / "mutated.json"
        problems, exercised = [], set()
        cases = ((path, doc, key_path) for path in SCENARIOS
                 for doc in [json.loads(path.read_text())]
                 for key_path in _json_paths(doc))
        for k, (path, doc, key_path) in enumerate(cases):
            value = MUTATIONS[k % len(MUTATIONS)]
            if key_path[0] == "checks" and len(key_path) > 1:
                exercised.add(doc["checks"][key_path[1]]["check"])
            bad.write_text(json.dumps(_mutated(doc, key_path, value)))
            case = (f"{path.stem} /{'/'.join(map(str, key_path))} "
                    f"{'dropped' if value is DROP else f'<- {value!r}'}")
            try:
                run_code = run_cli(["run", bad, "--horizon", "8"])
                run_err = capsys.readouterr().err
                validate_code = run_cli(["validate", bad])
                validate_err = capsys.readouterr().err
            except Exception as exc:
                problems.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            if {run_code, validate_code} - {0, 1, 2}:
                problems.append(f"{case}: exit codes {run_code}, {validate_code}")
            if run_err.startswith("error: /") and (validate_code, validate_err) != (
                    2, run_err):
                problems.append(f"{case}: run {run_err!r}, validate "
                                f"{validate_code} {validate_err!r}")
            if validate_code == 2 and not validate_err.startswith("error: /"):
                problems.append(f"{case}: validate names no pointer: {validate_err!r}")
        assert problems == []
        assert exercised == set(_CHECKS)

    @pytest.mark.parametrize("stem, edit, error", [
        ("identities_basic", lambda doc: doc["checks"][0].update({"a/b": 1}),
         "/checks/0/a~1b: validate has no key 'a/b'"),
        ("ae_basic", lambda doc: doc["functions"].update({"f~g": {"values": ["1"]}}),
         "/functions/f~0g/values: function needs 3 values, got 1"),
        ("caratheodory_two_point",
         lambda doc: doc["outer_measure"]["outer_values"].update({"~/0": "infinity"}),
         "/outer_measure/outer_values/~0~10: bad set key '~/0'"),
    ], ids=["directive_key", "function_name", "outer_key"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_pointer_escapes_document_keys(self, tmp_path, capsys, stem, edit, error,
                                           command):
        # RFC 6901: "~" is written "~0" and "/" is written "~1" in a pointer
        doc = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
        edit(doc)
        path = tmp_path / "escaped.json"
        path.write_text(json.dumps(doc))
        assert run_cli([command, path]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


# A valid value of each key that some kind requires, in `KIND_BASE`: the
# shipped identities_basic with the function "one" and the sequence "s".
REQUIRED_SAMPLES = {
    "dim": 2, "rows": 1, "cols": 2, "base": "one", "bump": "one", "ratio": "1/2",
    "of": "one", "shape": "one", "sets": [[0]], "function": "one", "f": "one", "g": "one",
    "sequence": "s", "limit": "one", "dominator": "one", "target": {"kind": "reals"},
    "matrix": [["1", "1"]],
}
KIND_BASE = {"functions": {"one": {"values": ONE}},
             "sequences": {"s": {"kind": "explicit", "terms": ["one"]}}}
# Each family of kinded objects: its table, its tag, the pointer of the one
# object of the family in a test document, and the document keys that hold it.
KIND_FAMILIES = {
    "space": (_SPACES, "kind", "/space", lambda obj: {"space": obj}),
    "sequence": (_SEQUENCES, "kind", "/sequences/s", lambda obj: {"sequences": {"s": obj}}),
    "set_sequence": (_SET_SEQUENCES, "kind", "/checks/0/sets", lambda obj: {
        "checks": [{"check": "continuity_below", "sets": obj}]}),
    "check": (_CHECKS, "check", "/checks/0", lambda obj: {"checks": [obj]}),
}


def kind_key_cases(family: str, name: str):
    """(document keys, pointer, end of the message) of each refusal that the
    kind `name` of `family` owes: a key that only other kinds of its family
    read, and each of its required keys left out, the others given."""
    table, tag, pointer, place = KIND_FAMILIES[family]
    keys = table[name].keys
    foreign = {key for other in table.values() for key in other.keys} - set(keys)
    for key in sorted(foreign):
        yield place({tag: name, key: 0}), f"{pointer}/{key}", f" has no key '{key}'"
    required = [key for key, k in keys.items() if k.default is _REQUIRED]
    for key in required:
        obj = {tag: name, **{other: REQUIRED_SAMPLES[other] for other in required
                             if other != key}}
        yield place(obj), f"{pointer}/{key}", f": {name} needs '{key}'"


class TestKindTables:
    """Every kinded object admits only its tag, its own kind's keys and its
    family's extra key, and needs each required key of its kind, as the
    tables say; a kind added to a table is tested here as it is."""

    @pytest.mark.parametrize("family, name", [
        (family, name) for family, (table, *_) in KIND_FAMILIES.items() for name in table])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_keys_follow_the_table(self, tmp_path, capsys, family, name, command):
        path, problems = tmp_path / "kinded.json", []
        base = json.loads((SCENARIO_DIR / "identities_basic.json").read_text())
        for updates, pointer, message in kind_key_cases(family, name):
            path.write_text(json.dumps({**base, **KIND_BASE, **updates}))
            code, err = run_cli([command, path]), capsys.readouterr().err
            if code != 2 or not (err.startswith(f"error: {pointer}: ")
                                 and err.endswith(f"{message}\n")):
                problems.append((pointer, message, code, err))
        assert problems == []


class TestFailsReports:
    """The `fails` reports that a document reaches: an `integrate` whose
    `expected` is not the integral, and a `caratheodory` whose
    `expected_family` is not the measurable family."""

    @pytest.mark.parametrize("stem, directive, details", [
        ("ae_basic", {"check": "integrate", "function": "inf_on_null",
                      "expected": {"finite": ["1", "0"]}},
         {"value": {"finite": ["0", "0"]}, "ladder": {"mode": "stabilized", "at_level": 1}}),
        ("caratheodory_two_point", {"check": "caratheodory", "expected_family": [[], [0]]},
         {"measurable_family": [[], [0, 1]], "atoms": [[0, 1]],
          "restriction_identities": "holds",
          "restricted_measure": {"0": {"finite": ["1", "1"]}}}),
    ], ids=["integrate_expected", "caratheodory_expected_family"])
    @pytest.mark.parametrize("expect, code", [("holds", 1), ("fails", 0)])
    def test_fails_report(self, tmp_path, stem, directive, details, expect, code):
        doc = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
        doc["checks"] = [dict(directive, expect=expect)]
        report = run_scenario(parse_scenario(doc))
        assert report["checks"] == [{"check": directive["check"], "status": "fails",
                                     "details": details, "expect": expect,
                                     "matched_expectation": expect == "fails"}]
        assert report["all_ok"] is (expect == "fails")
        path = tmp_path / "fails.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["run", path]) == code
