"""The named mutants of `tools/mutants.py` still apply to the library.

Each entry's text must match exactly one node of its function through
`mutate`, the mutated module must differ and compile, and each test file
it names must be a tier-1 file.  The check is static, with no pytest
subprocess, so a reshaped function fails here in seconds rather than at
the end of a full mutant run.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_matches_one_node(mutant):
    name, module, function, old, new, tests = mutant
    source = (ROOT / mutants.PACKAGE / module).read_text()
    mutated = mutants.mutate(source, function, old, new)
    assert mutated != ast.unparse(ast.parse(source))
    compile(mutated, module, "exec")
    assert tests and all(t.startswith("tests/test_") and (ROOT / t).is_file() for t in tests)


def test_mutant_names_are_unique():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_mutate_rewrites_one_node_and_refuses_none_or_two():
    source = "def f(x):\n    return x + 1 if x else x + 1\n"
    assert mutants.mutate(source, "f", "x + 1 if x else x + 1", "x") == "def f(x):\n    return x"
    with pytest.raises(LookupError, match="matches 0 nodes"):
        mutants.mutate(source, "f", "x - 1", "x")
    with pytest.raises(LookupError, match="matches 2 nodes"):
        mutants.mutate(source, "f", "x + 1", "x")
