"""What the library imports, and when.

Every name a library module imports is used in that module.  No linter
ships with the project, so this walks each module's syntax tree with the
standard `ast` module.  No module imports `dataclasses`, no value class
but `Element` and `ExtElement` writes the equality, hashing or repr that
`errors.Frozen` derives, only the value classes that check their arguments
write a constructor, no module but `reports` builds a check result or
spells a status word outside a docstring, importing the CLI loads no
module that its subcommands may not run, `run` loads only the check
modules that its document's directives name in the check table, importing
`spaces` loads no sequence layer, importing `sequences` loads no measure,
extended or integral layer, `scenarios` names no declaration of a sequence
(each kind's constructor in `sequences` builds it), and every name the
package exports lazily resolves.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordmeasure
from ordmeasure.scenarios import _CHECKS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ordmeasure"
MODULES = sorted(PACKAGE.glob("*.py"))
SCENARIOS = sorted((PACKAGE.parent.parent / "scenarios").glob("*.json"))
# The modules that the check table names.
CHECK_MODULES = {f"ordmeasure.{check.module}" for check in _CHECKS.values() if check.module}


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import List, Optional\n"
              "def f(x: Optional[int]) -> int:\n"
              "    return os.sep and x\n")
    assert unused_imports(source) == [(2, "system"), (3, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_a_dataclasses_import():
    assert imports_dataclasses("from dataclasses import dataclass, field\n")
    assert imports_dataclasses("def f():\n    import dataclasses as dc\n")
    assert not imports_dataclasses("import functools\n")


def imports_dataclasses(source: str) -> bool:
    return any(
        (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names))
        for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    """`dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, which
    every cold `ordmeasure` command would pay to compile and import."""
    assert not imports_dataclasses(path.read_text())


VALUE_METHODS = {"__eq__", "__hash__", "__repr__"}


def frozen_value_methods(source: str, methods=VALUE_METHODS) -> list:
    """The classes derived from `Frozen` in `source` that define any of
    `methods` (by default `__eq__`, `__hash__` and `__repr__`), each with the
    names it defines."""
    frozen, found = {"Frozen"}, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in frozen for base in node.bases):
            frozen.add(node.name)
            defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            defined |= {target.id for item in node.body if isinstance(item, ast.Assign)
                        for target in item.targets if isinstance(target, ast.Name)}
            if defined & methods:
                found.append((node.name, sorted(defined & methods)))
    return found


def test_finds_value_methods_on_a_frozen_class():
    source = ("class A(Frozen):\n    def __eq__(self, other):\n        pass\n"
              "class B(A):\n    __hash__ = None\n"
              "class C:\n    def __repr__(self):\n        pass\n"
              "class D(B):\n    def __init__(self):\n        pass\n")
    assert frozen_value_methods(source) == [("A", ["__eq__"]), ("B", ["__hash__"])]
    assert frozen_value_methods(source, {"__init__"}) == [("D", ["__init__"])]


def test_frozen_value_methods_are_written_in_one_place():
    """`errors.Frozen` derives equality, hashing and repr from the fields;
    only the two arithmetic values, measured faster with their own, write
    theirs.  It also builds a value from its fields: only the classes whose
    constructors check their arguments write one."""
    found = {(path.name, name) for path in MODULES
             for name, _ in frozen_value_methods(path.read_text())}
    assert found <= {("spaces.py", "Element"), ("extended.py", "ExtElement")}
    constructors = {(path.name, name) for path in MODULES
                    for name, _ in frozen_value_methods(path.read_text(), {"__init__"})}
    assert constructors <= {("spaces.py", "SpaceDescriptor"), ("spaces.py", "Element"),
                            ("extended.py", "ExtElement"), ("integral.py", "_PointFunction"),
                            ("integral.py", "ElementaryFunction")}


STATUS_WORDS = {"holds", "fails", "hypothesis-not-met", "not-certifiable"}


def status_spellings(source: str) -> list:
    """What builds a check result or spells a status in `source`: a string
    constant that is a status word (docstrings excepted), a call of
    `CheckResult` and an import of `holds` or `fails`, each with its line."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in STATUS_WORDS and id(node) not in docstrings):
            found.append((node.lineno, node.value))
        elif isinstance(node, ast.Call) and "CheckResult" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, "CheckResult"))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in {"holds", "fails"})
    return sorted(found)


def test_finds_a_status_spelling():
    source = ('"""Says when it "holds"."""\n'
              "from .reports import CheckResult, holds, verdict\n"
              "def f(ok):\n"
              '    """holds"""\n'
              '    details = {"part": "holds" if ok else "fails", "note": "holds, once"}\n'
              '    return reports.CheckResult("f", "not-certifiable", details)\n')
    assert status_spellings(source) == [(2, "holds"), (5, "fails"), (5, "holds"),
                                        (6, "CheckResult"), (6, "not-certifiable")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "reports.py"],
                         ids=lambda p: p.name)
def test_only_reports_builds_a_result_or_spells_a_status(path):
    """`reports.verdict`, `word` and `refused` build every check result and
    write every status, so the vocabulary and the refusal policy stay in
    one module."""
    assert status_spellings(path.read_text()) == []


def modules_loaded_by(code: str) -> set:
    """The modules that `code` adds to a fresh interpreter's `sys.modules`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys\n_before = set(sys.modules)\n" + code + "\n"
             "sys.stderr.write('\\n' + ' '.join(sorted(set(sys.modules) - _before)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, cwd=PACKAGE.parent.parent, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.rsplit("\n", 1)[-1].split())


def test_cli_import_is_lean():
    loaded = modules_loaded_by("import ordmeasure.cli")
    assert "ordmeasure.scenarios" in loaded
    assert not loaded & {"dataclasses", "inspect", "ordmeasure.compare",
                         "ordmeasure.outer", "ordmeasure.integral",
                         "ordmeasure.integral_checks", "ordmeasure.measure_checks"}


def test_the_check_table_names_the_check_modules():
    assert {"ordmeasure.integral_checks", "ordmeasure.measure_checks"} <= CHECK_MODULES


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_run_loads_the_check_modules_its_directives_name(path):
    """A check module loads when a directive names it.  One that no
    directive names loads only for what the document itself holds:
    `measures` for every document (its space), `integral` for functions
    and `outer` for an outer measure."""
    doc = json.loads(path.read_text())
    named = {f"ordmeasure.{_CHECKS[d['check']].module}" for d in doc.get("checks", [])
             if _CHECKS[d["check"]].module}
    loaded = modules_loaded_by(
        "from ordmeasure.cli import main\n"
        f"main(['run', {str(path)!r}, '--output', 'json'])")
    held = {"ordmeasure.measures"}
    if doc.get("functions"):
        held.add("ordmeasure.integral")
    if "outer_measure" in doc:
        held.add("ordmeasure.outer")
    assert named <= loaded
    assert loaded & CHECK_MODULES <= named | held
    if not doc.get("functions"):
        assert "ordmeasure.integral" not in loaded


def test_spaces_loads_no_sequence_layer():
    """Elements stand below sequences and their limits, which `extended`
    certifies."""
    loaded = modules_loaded_by("import ordmeasure.spaces")
    assert "ordmeasure.spaces" in loaded
    assert not loaded & {"ordmeasure.sequences", "ordmeasure.extended"}


def test_sequences_loads_no_measure_layer():
    """`measures` and `extended` import `sequences`, so an import back from
    it would be a cycle."""
    loaded = modules_loaded_by("import ordmeasure.sequences")
    assert "ordmeasure.sequences" in loaded
    assert not loaded & {"ordmeasure.measures", "ordmeasure.extended", "ordmeasure.integral"}


DECLARATION_NAMES = {"Periodic", "DeclaredLimit", "cycled", "least_cycle", "stable_from"}


def declaration_reads(source: str) -> list:
    """The declaration classes and tail helpers that `source` names, and its
    reads of a `.metadata` attribute, each with its line."""
    return sorted((node.lineno, name) for node in ast.walk(ast.parse(source))
                  for name in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None))  # a Name, an attribute, an import
                  if name in DECLARATION_NAMES | {"metadata"})


def test_finds_a_declaration_read():
    source = ("from .sequences import Periodic, listed\n"
              "def f(seq, p=sequences.stable_from):\n"
              "    return seq.metadata, SequenceSpec(p, metadata=None)\n")
    assert declaration_reads(source) == [(1, "Periodic"), (2, "stable_from"), (3, "metadata")]


def test_scenarios_builds_no_declaration():
    """The parser keeps the schema; a sequence's declaration is built, and
    re-typed, by the constructors of `sequences` alone."""
    assert declaration_reads((PACKAGE / "scenarios.py").read_text()) == []


def test_run_without_an_outer_measure_does_not_load_outer():
    loaded = modules_loaded_by(
        "from ordmeasure.cli import main\n"
        "assert main(['run', 'scenarios/mct_basic.json', '--output', 'json']) == 0")
    assert "ordmeasure.integral" in loaded
    assert not loaded & {"ordmeasure.outer", "ordmeasure.compare"}


def test_caratheodory_loads_outer():
    loaded = modules_loaded_by(
        "from ordmeasure.cli import main\n"
        "assert main(['caratheodory', 'scenarios/caratheodory_two_point.json']) == 0")
    assert "ordmeasure.outer" in loaded
    assert not loaded & {"ordmeasure.integral", "ordmeasure.integral_checks",
                         "ordmeasure.measure_checks"}


def test_every_export_resolves():
    names = ordmeasure._EXPORTS
    assert ordmeasure.__all__ == list(names)
    listed = dir(ordmeasure)
    for name, module in names.items():
        value = getattr(ordmeasure, name)
        assert value is getattr(importlib.import_module(f"ordmeasure.{module}"), name)
        assert name in listed
    star = {}
    exec("from ordmeasure import *", star)
    assert {name for name in star if name != "__builtins__"} == set(names)
    assert all(star[name] is getattr(ordmeasure, name) for name in names)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ordmeasure.no_such_name
    with pytest.raises(ImportError):
        exec("from ordmeasure import no_such_name", {})
    assert not hasattr(ordmeasure, "dataclass")
