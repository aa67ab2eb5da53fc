"""The benchmark's trace mode still finds every library function it wraps.

`perfbench/tracing.py` reads each traced function as ``vars(owner)[attr]``,
so a function moved out of the module it names breaks
``perfbench/run.py --trace 1``.  These tests read that file as it is.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from ordmeasure import scenarios
from ordmeasure.rationals import INFINITY

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_shipped(name: str) -> dict:
    scenario = scenarios.load_scenario(str(REPO / "scenarios" / name))
    return scenarios.run_scenario(scenario, scenarios.RunConfig(horizon=8))


def test_every_target_is_defined_where_it_is_traced(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_install_and_uninstall_after_a_shipped_scenario(tracing):
    report = run_shipped("dct_geometric.json")
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_shipped("dct_geometric.json")
    finally:
        tracer.uninstall()
    assert traced == report
    assert tracer.calls["scenarios.check"] == len(report["checks"])
    assert tracer.calls["integral.certify"] > 0
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_traced_integrals_read_the_fraction_values(tracing):
    # The tracer keys distinct integrals by `f.values`, and the selftest's
    # integrate hook takes the largest finite one: both read the Fraction
    # and INFINITY tuple that functions derive from their numerators.
    read = []
    tracer = tracing.Tracer()
    tracer.on_exit["integral.integrate"] = lambda args, result, before: read.append(
        args[0].values)
    tracer.install()
    try:
        run_shipped("mct_divergent.json")
        run_shipped("dct_geometric.json")
    finally:
        tracer.uninstall()
    assert read and tracer._distinct
    for values in read + [values for _, values in tracer._distinct]:
        assert type(values) is tuple
        assert all(v is INFINITY or type(v) is Fraction for v in values)
    assert any(INFINITY in values for values in read)
