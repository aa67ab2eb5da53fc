"""Command line interface.

    ordmeasure validate <file>
    ordmeasure run <file> [--output json|text] [--horizon N]
                          [--epsilon-schedule LIST]
    ordmeasure caratheodory <file>
    ordmeasure compare {sup_measure|series_measure} --n N [--output json|text]

Exit codes: 0 when everything holds (or fails exactly as the scenario
expects), 1 when a check misses its expectation, 2 on schema or validation
errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import compare as compare_mod
from . import outer as outer_mod
from .errors import OrdMeasureError, SchemaError, ValidationError
from .measures import check_measure_identities, mask_to_points
from .rationals import parse_rational
from .scenarios import (
    RunConfig,
    canonical_dumps,
    ext_element_to_json,
    load_scenario,
    run_scenario,
)
from .sequences import DEFAULT_EPSILONS, DEFAULT_HORIZON


def _parse_epsilons(text: str):
    """Parse a schedule like "2^-4,2^-8" or "1/16,1/256"."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("2^-"):
            out.append(Fraction(1, 2 ** int(item[3:])))
        else:
            out.append(parse_rational(item))
    if not out:
        raise SchemaError("empty epsilon schedule")
    return tuple(out)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _emit(doc: dict, output: str):
    if output == "json":
        sys.stdout.write(canonical_dumps(doc))
        return
    for entry in doc.get("checks", []):
        marker = "ok " if entry.get("matched_expectation", True) else "FAIL"
        print(f"[{marker}] {entry['check']}: {entry['status']}"
              + (f" (expected {entry['expect']})" if entry.get("expect") else ""))
    for key, value in doc.items():
        if key != "checks" and not isinstance(value, (dict, list)):
            print(f"{key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordmeasure",
        description="Cone-valued measures and order integrals, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    p_validate.add_argument("file")

    p_run = sub.add_parser("run", help="run a scenario's checks")
    p_run.add_argument("file")
    p_run.add_argument("--output", choices=["json", "text"], default="text")
    p_run.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    p_run.add_argument("--epsilon-schedule", default=None)

    p_car = sub.add_parser(
        "caratheodory",
        help="extract the measurable family and restricted measure",
    )
    p_car.add_argument("file")

    p_cmp = sub.add_parser("compare", help="run a comparison experiment")
    p_cmp.add_argument("kind", choices=["sup_measure", "series_measure"])
    p_cmp.add_argument("--n", type=int, required=True)
    p_cmp.add_argument("--output", choices=["json", "text"], default="json")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            scenario = load_scenario(args.file)
            doc = {
                "valid": True,
                "ground_size": scenario.space.ground_size,
                "atoms": [mask_to_points(a) for a in scenario.space.atoms],
                "measurable_sets": len(scenario.space.sets),
            }
            if scenario.measure is not None:
                doc["classification"] = scenario.measure.classification()
            sys.stdout.write(canonical_dumps(doc))
            return 0

        if args.command == "run":
            scenario = load_scenario(args.file)
            epsilons = (
                _parse_epsilons(args.epsilon_schedule)
                if args.epsilon_schedule else DEFAULT_EPSILONS
            )
            config = RunConfig(horizon=args.horizon, epsilons=epsilons)
            report = run_scenario(scenario, config)
            _emit(report, args.output)
            return 0 if report["all_ok"] else 1

        if args.command == "caratheodory":
            scenario = load_scenario(args.file)
            if scenario.outer is None:
                raise SchemaError("scenario has no 'outer_measure'")
            space, restricted = outer_mod.extract_measurable_algebra(scenario.outer)
            identities = check_measure_identities(restricted)
            doc = {
                "measurable_family": [mask_to_points(m) for m in space.members()],
                "atoms": [mask_to_points(a) for a in space.atoms],
                "restricted_measure": {
                    str(min(mask_to_points(a))): ext_element_to_json(v)
                    for a, v in restricted.atom_values.items()
                },
                "restriction_identities": identities.status,
            }
            sys.stdout.write(canonical_dumps(doc))
            return 0 if identities.ok else 1

        if args.command == "compare":
            report = compare_mod.comparison_experiment(args.kind, args.n)
            if args.output == "json":
                sys.stdout.write(canonical_dumps(report))
            else:
                for key, value in report.items():
                    print(f"{key}: {value}")
            return 0
    except (SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrdMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
