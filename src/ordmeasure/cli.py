"""Command line interface.

    ordmeasure validate <file>
    ordmeasure run <file> [--output json|text] [--horizon N]
                          [--epsilon-schedule LIST]
    ordmeasure caratheodory <file>
    ordmeasure compare {sup_measure|series_measure} --n N [--output json|text]

Exit codes: 0 when everything holds (or fails exactly as the scenario
expects), 1 when a check misses its expectation, 2 on schema, validation or
size-limit errors.

`outer` and `compare` are imported only by the subcommands that run them.
A check module loads on first use: `run` imports the module of each check
that its document names when the first directive of that check runs
(`scenarios._CHECKS`), and `integral` only for a document with functions.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import (MAX_EPSILON_EXPONENT, MAX_HORIZON, DimensionLimitError,
                     OrdMeasureError, SchemaError, ValidationError, check_cap)
from .rationals import parse_rational
from .scenarios import (
    RunConfig,
    canonical_dumps,
    load_scenario,
    run_scenario,
    summary,
)
from .sequences import DEFAULT_EPSILONS, DEFAULT_HORIZON, epsilon_schedule


def _epsilon_schedule(text: str):
    """Parse a schedule like "2^-4,2^-8" or "1/16,1/256", held to the one
    rule for a schedule (`sequences.epsilon_schedule`), whose refusal is a
    usage error.  An exponent is checked before its power is built.
    """
    out = []
    for item in filter(None, (s.strip() for s in text.split(","))):
        if item.startswith("2^-"):
            exponent = item[3:]
            if not (exponent.isascii() and exponent.isdigit()):
                raise argparse.ArgumentTypeError(f"malformed exponent in {item!r}")
            out.append(Fraction(1, 2 ** _cap_argument("epsilon exponent", int(exponent),
                                                      MAX_EPSILON_EXPONENT)))
        else:
            try:
                out.append(parse_rational(item))
            except SchemaError:
                raise argparse.ArgumentTypeError(
                    f"{item!r} is neither a rational nor 2^-k") from None
    try:
        return epsilon_schedule(out)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cap_argument(what: str, value: int, cap: int) -> int:
    """`check_cap` as an argparse usage error."""
    try:
        return check_cap(what, value, cap)
    except DimensionLimitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    """A positive integer written in ASCII digits, as `--n` and `--horizon` take."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _horizon(text: str) -> int:
    return _cap_argument("horizon", _positive_int(text), MAX_HORIZON)


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
    p_run.add_argument("--horizon", type=_horizon, default=DEFAULT_HORIZON)
    p_run.add_argument("--epsilon-schedule", type=_epsilon_schedule,
                       default=DEFAULT_EPSILONS)

    p_car = sub.add_parser(
        "caratheodory",
        help="extract the measurable family and restricted measure",
    )
    p_car.add_argument("file")

    p_cmp = sub.add_parser("compare", help="run a comparison experiment")
    p_cmp.add_argument("kind", choices=["sup_measure", "series_measure"])
    p_cmp.add_argument("--n", type=_positive_int, required=True)
    p_cmp.add_argument("--output", choices=["json", "text"], default="json")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            scenario = load_scenario(args.file)
            doc = summary(scenario)
            doc.update(valid=True, ground_size=scenario.space.ground_size,
                       measurable_sets=doc.pop("members"))
            sys.stdout.write(canonical_dumps(doc))
            return 0

        if args.command == "run":
            scenario = load_scenario(args.file)
            config = RunConfig(horizon=args.horizon, epsilons=args.epsilon_schedule)
            report = run_scenario(scenario, config)
            _emit(report, args.output)
            return 0 if report["all_ok"] else 1

        if args.command == "caratheodory":
            scenario = load_scenario(args.file)
            if scenario.outer is None:
                raise SchemaError("scenario has no 'outer_measure'")
            from .outer import caratheodory_report
            result = caratheodory_report(scenario.outer)
            sys.stdout.write(canonical_dumps(result.details))
            return 0 if result.ok else 1

        if args.command == "compare":
            from .compare import comparison_experiment
            report = comparison_experiment(args.kind, args.n)
            if args.output == "json":
                sys.stdout.write(canonical_dumps(report))
            else:
                for key, value in report.items():
                    print(f"{key}: {value}")
            return 0
    except (SchemaError, ValidationError, DimensionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrdMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
