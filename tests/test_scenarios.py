import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ordmeasure as om
from ordmeasure.cli import main as cli_main
from ordmeasure.errors import SchemaError
from ordmeasure.rationals import format_rational
from ordmeasure.scenarios import (
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


class TestRunner:
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_all_shipped_scenarios_meet_expectations(self, path):
        scenario = load_scenario(str(path))
        report = run_scenario(scenario)
        assert report["all_ok"], report

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

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_reports_match_reference_digests(self, path):
        # The benchmark's reference digests of `run --output json` at horizon 64.
        digests = json.loads((REPO / "perfbench" / "reference.json").read_text())
        report = run_scenario(load_scenario(str(path)), RunConfig(horizon=64))
        digest = hashlib.sha256(canonical_dumps(report).encode("utf-8")).hexdigest()
        assert digest == digests["digests"][f"suite/{path.stem}@64"]

    def test_horizon_override(self):
        scenario = load_scenario(str(SCENARIO_DIR / "mct_basic.json"))
        report = run_scenario(scenario, RunConfig(horizon=32))
        assert report["horizon"] == 32
        assert report["all_ok"]


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
        scenario = parse_scenario(doc)
        with pytest.raises(SchemaError, match="ghost"):
            run_scenario(scenario)

    def test_unknown_check(self):
        doc = {
            "space": {"kind": "coord", "dim": 2},
            "ground_size": 1,
            "sigma_algebra": {"power_set": True},
            "checks": [{"check": "conjure"}],
        }
        with pytest.raises(SchemaError, match="conjure"):
            run_scenario(parse_scenario(doc))

    def test_wrong_atom_key(self):
        doc = {
            "space": {"kind": "coord", "dim": 2},
            "ground_size": 2,
            "sigma_algebra": {"generators": [[0, 1]]},
            "measure": {"atom_values": {"1": {"finite": ["1", "1"]}}},
        }
        with pytest.raises(SchemaError, match="smallest point"):
            parse_scenario(doc)


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

    @pytest.mark.parametrize("key, value, pointer", [
        ("ground_size", True, "/ground_size"),
        ("ground_size", 17, "/ground_size"),
        ("sigma_algebra", [], "/sigma_algebra"),
        ("checks", {"check": "validate"}, "/checks"),
        ("checks", ["validate"], "/checks/0"),
        ("checks", [{"check": "validate"}, {"check": 1}], "/checks/1"),
    ], ids=["ground_bool", "ground_cap", "sigma_algebra_list", "checks_object",
            "directive_string", "check_name_int"])
    def test_scenario_schema_errors(self, tmp_path, capsys, key, value, pointer):
        doc = json.loads((SCENARIO_DIR / "identities_basic.json").read_text())
        doc[key] = value
        bad = tmp_path / "bad_scenario.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", bad]) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")

    @pytest.mark.parametrize("horizon", ["0", "-3", "x"])
    def test_horizon_must_be_positive(self, capsys, horizon):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", SCENARIO_DIR / "mct_basic.json", "--horizon", horizon])
        assert exc.value.code == 2
        assert "--horizon" in capsys.readouterr().err

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

    def test_epsilon_schedule_flag(self, capsys):
        code = run_cli(["run", SCENARIO_DIR / "mct_basic.json",
                        "--epsilon-schedule", "2^-4,2^-8", "--output", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epsilon_schedule"] == ["1/16", "1/256"]

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ordmeasure.cli", "compare",
             "series_measure", "--n", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["integral"] == ["1", "1"]
