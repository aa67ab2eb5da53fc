"""Named mutants of the library, each run against the tests it names.

Usage: ``python3 tools/mutants.py [NAME ...]`` from the repository root,
for every mutant or the named ones.

Each mutant rewrites one node of one top-level function, or of one
method written ``Class.method``, of the module of `src/ordmeasure` that it
names, through its syntax tree: the node whose
`ast.unparse` text is the mutant's ``old`` becomes ``new``.  The mutated
module goes into a temporary copy of `src`, `tests`, `scenarios`,
`perfbench` (whose reference digests `tests/test_scenarios.py` reads) and
`pyproject.toml`, and pytest runs there on the test files the mutant
names, stopping at the first failure; the module is restored before the
next mutant.  A mutant is killed when a test
fails and survives when every test passes.  The unmutated copy runs
first, on every named file, so that a failing test is not mistaken for a
kill.

One line is printed per mutant: killed or survived, the seconds it took,
and its name.  The exit code is 1 when a mutant survives, and 2 when the
unmutated copy fails its tests or a mutant no longer matches exactly one
node.  Standard library only; the file is not a test module, so pytest
does not collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "ordmeasure"
CORE, UNIT = "tests/test_integral_core.py", "tests/test_integral.py"
TAILS = "tests/test_declared_tails.py"
ROWS = "tests/test_row_route.py"
GATE = "tests/test_integrability.py"
SPACES = "tests/test_spaces.py"
SCENARIOS = "tests/test_scenarios.py"
REFERENCE = "tests/test_cli_reference.py"
READER = "tests/test_outer_reader.py"

# the pair pass's branch for a pair of two finite sides, as `ast.unparse` writes it
FINITE_PAIR = (
    "if vb is not None:\n"
    "    joint, split = (values[a | b], add(va, vb))\n"
    "    if not eq(joint, split):\n"
    "        if not leq(joint, split):\n"
    "            raise ValidationError('sub-additivity violation', "
    "witness={'pair': [mask_to_points(a), mask_to_points(b)]})\n"
    "        failures[a] |= 1 << b\n"
    "        failures[b] |= 1 << a")

# (name, module file, function, old, new, test files)
MUTANTS = [
    ("closed form: inf * 0 = inf (infinite value on a null atom)", "integral.py",
     "_closed_form", "value is None or any(value.nums)", "True", [CORE, UNIT]),
    ("closed form: 0 * inf = inf (zero value on an infinite atom)", "integral.py",
     "_closed_form", "if not v:\n    continue", "pass", [CORE, UNIT]),
    ("closed form: no final gcd", "integral.py", "_closed_form",
     "canonical(tuple(acc), acc_den * den)", "(tuple(acc), acc_den * den)", [CORE]),
    ("closed form: the sum is not brought over the common denominator", "integral.py",
     "_closed_form", "list(map(mul, acc, repeat(d // g)))", "acc", [CORE]),
    ("part transform: no gcd", "integral.py", "_part",
     "canonical(tuple(map(op, nums)), den)", "(tuple(map(op, nums)), den)", [CORE, UNIT]),
    ("_rung_row: an infinite atom is skipped", "integral.py", "_rung_row",
     "if row is None:\n    return None", "if row is None:\n    continue", [UNIT]),
    ("ladder: break level nstar + 1 dropped", "integral.py", "_ladder_supremum",
     "levels.add(nstar + 1)", "pass", [UNIT]),
    ("ladder scan: level 0 kept", "integral.py", "_ladder_scan", "k > 0", "k >= 0", [UNIT]),
    ("shift: c = floor(max |f|), not above an integer maximum", "integral.py",
     "_shifted_parts", "max(map(abs, nums), default=0) // den + 1",
     "max(map(abs, nums), default=0) // den", [UNIT]),
    ("alternating: the whole list is the period, not the least one", "sequences.py",
     "least_cycle", "terms[p:] == terms[:size - p]", "p == size", [TAILS]),
    ("explicit: stable from the list's length, not the final run", "sequences.py",
     "stable_from", "max((n for n, t in enumerate(terms, start=1) if t != terms[-1]), "
     "default=0)", "len(terms) - 1", [TAILS]),
    ("declared_cycle: one term short of the first full cycle is read", "sequences.py",
     "declared_cycle", "metadata.index - 1 + metadata.period",
     "metadata.index - 2 + metadata.period", [TAILS]),
    ("mct/dct: the declared limit is not compared with f", "integral.py",
     "_require_declared_limit", "a != b", "False", [TAILS]),
    ("mct/dct: the declared limit is compared with f at the null points too", "integral.py",
     "_require_declared_limit", "_columns([limit, f], mu.null_mask)",
     "_columns([limit, f], 0)", [TAILS]),
    ("cycled: past the list, the cycle is read from term 1, not the declared index",
     "sequences.py", "cycled", "start - 1 + (n - start) % period", "(n - 1) % period",
     [TAILS]),
    ("scaled_index: the declared limit is finite (0) on the shape's support",
     "sequences.py", "scaled_index", "DeclaredLimit(((0,) * len(nums), 1, support))",
     "DeclaredLimit(((0,) * len(nums), 1, 0))", [TAILS]),
    ("geometric: a zero bump declares a limit, not a stabilization", "sequences.py",
     "geometric", "p == 0 or not any(h)", "p == 0", [TAILS]),
    ("truncation ladder: stabilizes at floor(max f), not ceil", "sequences.py",
     "truncation_ladder", "-(-max(nums) // den)", "max(nums) // den", [TAILS]),
    ("continuity: a declared period above 1 is not refused", "measure_checks.py",
     "_continuity", "period > 1", "False", [TAILS]),
    ("outer split table: only half of each failing pair is recorded", "outer.py",
     "_split_table", "failures[b] |= 1 << a", "pass", ["tests/test_outer.py"]),
    ("outer split table: a pair with an infinite b is recorded as non-additive", "outer.py",
     "_split_table", FINITE_PAIR,
     FINITE_PAIR + "\nelse:\n    failures[a] |= 1 << b\n    failures[b] |= 1 << a",
     ["tests/test_outer.py"]),
    ("partner table: the submasks with the top point are shifted by p, not 2^p", "outer.py",
     "submask_bitsets", "s | s << top | 1 << top", "s | s << p | 1 << top",
     ["tests/test_outer.py"]),
    ("identity suite: the mirrored modularity verdict is filed under (D1, D2), not (D2, D1)",
     "measures.py", "check_measure_identities", "(j, i, 1)", "(i, j, 1)",
     ["tests/test_outer.py"]),
    ("outer validation: positivity asks nu(A) <= 0, not 0 <= nu(A)", "outer.py",
     "validate_outer_measure", "leq(values[0], values[mask])", "leq(values[mask], values[0])",
     ["tests/test_outer.py"]),
    ("outer validation: the totality test is dropped", "outer.py", "validate_outer_measure",
     "table.keys() != set(masks)", "False", [READER]),
    ("name table: a set's name puts its top point first, a non-canonical key",
     "outer.py", "set_names", "f'{name},{top}'", "f'{top},{name}'", [READER]),
    ("row reader: the parse memo drops the sign", "outer.py", "row_reader",
     "pairs.get(text)", "pairs.get(text.lstrip('-'))", [READER]),
    ("caratheodory_report: the expected family is ignored", "outer.py",
     "caratheodory_report", "expected_family is None or sorted(expected_family) == family",
     "True", [SCENARIOS]),
    ("Loewner order: a zero pivot with a nonzero row is accepted", "spaces.py",
     "is_positive_row", "if any(row[k + 1:]):\n    return False", "pass",
     ["tests/test_spaces.py"]),
    ("dct: the row window infimum takes max", "integral.py", "dct", "(min, max)",
     "(max, max)", [ROWS]),
    ("signed row: the shifted decomposition is not compared", "integral.py", "_signed_row",
     "lhs is not None and rhs is not None and (not row_eq(row_sub(lhs, rhs), result))",
     "False", [ROWS]),
    ("integrate_signed: the integrability gate is dropped", "integral.py",
     "integrate_signed", "if not is_integrable(f, mu):\n"
     "    raise NotIntegrableError('the function has an infinite |f| integral')", "pass",
     [GATE, ROWS]),
    ("l1_quotient: the infimum key is built with max", "integral_checks.py", "l1_quotient",
     "part(min, f1, g1)", "part(max, f1, g1)", [GATE]),
    ("l1_quotient: strict positivity flags the zero class (any(nums) dropped)",
     "integral_checks.py", "l1_quotient", "any(nums)", "True", [GATE]),
    ("row certifier: the decreasing direction is swapped", "extended.py",
     "certify_monotone_limit", "spaces.row_leq(space, b, a)", "spaces.row_leq(space, a, b)",
     ["tests/test_extended.py"]),
    ("row_leq: the denominators are swapped in the cross-multiplication", "spaces.py",
     "row_leq", "q * dx - p * dy", "q * dy - p * dx", [ROWS, SPACES]),
    ("row_lattice: the two factors are swapped", "spaces.py", "row_lattice",
     "op(p * (dy // g), q * (dx // g))", "op(p * (dx // g), q * (dy // g))", [SPACES]),
    ("_element: no gcd", "spaces.py", "canonical", "math.gcd(den, *nums)", "1", [SPACES]),
    ("packed table: the guard bit is one position low", "spaces.py", "table_kernels",
     "1 << 8 * size - 1", "1 << 8 * size - 2", [SPACES]),
    ("packed table: the field width is one bit short", "spaces.py", "table_kernels",
     "(2 * top).bit_length() + 1", "(2 * top).bit_length()", [SPACES]),
    ("packed table: eq is leq", "spaces.py", "table_kernels", "operator.eq", "leq", [SPACES]),
    ("interned table: leq is memoized on the unordered pair", "spaces.py", "_interned",
     "question = (x, y)", "question = (x, y) if x < y else (y, x)", [SPACES]),
    ("interned table: the key is not reduced by the gcd", "spaces.py", "_interned",
     "canonical(*row)", "row", [SPACES]),
    ("interned table: the memo rule is inverted", "spaces.py", "_interned",
     "len(table) * (len(table) + 1) // 2 >= visits",
     "len(table) * (len(table) + 1) // 2 < visits", [SPACES, "tests/test_outer.py"]),
    ("interned table: the difference key is taken the wrong way round (p - q)", "spaces.py",
     "_interned", "row_sub(table[y], table[x])", "row_sub(table[x], table[y])", [SPACES]),
    ("row_sub, the interned table's difference key: two denominators are not "
     "cross-multiplied", "spaces.py", "row_sub", "p * dy - q * dx", "p - q", [SPACES]),
    ("Measure.row: an atom that meets the set counts as inside it", "measures.py",
     "Measure.row", "atom & mask == atom", "atom & mask", ["tests/test_measures.py"]),
    ("_columns: the null points are kept", "integral.py", "_columns",
     "not null >> x & 1", "True", [TAILS]),
    ("_at: the witness's key is dropped from the pointer", "scenarios.py", "_at",
     "path if key is None else _pointer(path, key)", "path", [SCENARIOS]),
    ("outer_values key: a point may have a leading zero", "scenarios.py", "_set_key",
     "_SET_KEY.fullmatch(key)", "re.fullmatch('[0-9]+(?:,[0-9]+)*', key)", [SCENARIOS]),
    ("refusal pointer: coordinate index off by one", "scenarios.py", "_scalars",
     "f'{path}/{len(out)}'", "f'{path}/{len(out) + 1}'", [SCENARIOS]),
    ("integer reader: zero denominator accepted", "rationals.py", "parse_rational",
     "not den", "False", ["tests/test_extended.py"]),
    ("integer reader: numerator sign dropped", "rationals.py", "parse_rational",
     "num = int(num)", "num = abs(int(num))", ["tests/test_extended.py"]),
    ("selector: a section may hold two selector keys", "scenarios.py", "_selector",
     "len(given) != 1", "not given", [SCENARIOS]),
    ("directive: a key outside the check table is ignored", "scenarios.py", "_kind",
     "_known(doc, (tag, *entry.keys, *extra), what or name, path)", "None", [SCENARIOS]),
    ("kind reader: a kind admits the keys of every kind of its table", "scenarios.py",
     "_kind", "(tag, *entry.keys, *extra)",
     "(tag, *(key for other in table.values() for key in other.keys), *extra)", [SCENARIOS]),
    ("kind reader: a required key takes its default", "scenarios.py", "_read_keys",
     "key not in doc and k.default is _REQUIRED", "False", [SCENARIOS]),
    ("_known: a key that nothing reads is ignored", "scenarios.py", "_known",
     "unknown is not None", "False", [SCENARIOS]),
    ("run_check: the options are not passed", "scenarios.py", "run_check",
     "{option: getattr(config, option) for option in spec.options}", "{}", [REFERENCE]),
    ("run_check: every check runs on the measure", "scenarios.py", "run_check",
     "{'measure': scenario.measure, 'outer_measure': scenario.outer, None: scenario}"
     "[spec.needs]", "scenario.measure", [REFERENCE]),
    ("run_check: the keys are passed in reverse table order", "scenarios.py", "run_check",
     "[directive.args[key] for key in spec.keys]",
     "[directive.args[key] for key in reversed(spec.keys)]", [REFERENCE]),
    ("MeasurableSpace.cover: only the atoms inside the set are kept", "measures.py",
     "MeasurableSpace.cover", "atom & mask", "atom & mask == atom",
     ["tests/test_measures.py"]),
    ("certify_gaps: the last sampled index is not scanned", "sequences.py", "certify_gaps",
     "range(1, count + 1)", "range(1, count)", [TAILS]),
    ("certify_divergence: the ladder tops out at h, not h - 1", "extended.py",
     "certify_divergence", "max(len(terms), 2) - 1", "len(terms)",
     ["tests/test_extended.py"]),
    ("refused: a certification refusal reports hypothesis-not-met", "reports.py", "refused",
     "NOT_CERTIFIABLE", "HYPOTHESIS_NOT_MET", [REFERENCE]),
    ("word: holds and fails swapped", "reports.py", "word", "HOLDS if ok else FAILS",
     "FAILS if ok else HOLDS", [REFERENCE]),
]


class _Replace(ast.NodeTransformer):
    """Replaces every node whose source text is `old` by the parse of `new`."""

    def __init__(self, old: str, new: str):
        self.old, self.new, self.count = old, new, 0

    def generic_visit(self, node):
        if isinstance(node, (ast.expr, ast.stmt)) and ast.unparse(node) == self.old:
            self.count += 1
            if isinstance(node, ast.expr):
                return ast.parse(self.new, mode="eval").body
            return ast.parse(self.new).body[0]
        return super().generic_visit(node)


def mutate(source: str, function: str, old: str, new: str) -> str:
    """`source` with the one node of `function` (``Class.method`` for a
    method) whose text is `old` made `new`."""
    tree = ast.parse(source)
    replace = _Replace(old, new)
    owner, _, name = function.rpartition(".")
    body = tree.body
    if owner:
        body = next(node.body for node in body
                    if isinstance(node, ast.ClassDef) and node.name == owner)
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            replace.visit(node)
    if replace.count != 1:
        raise LookupError(f"{old!r} matches {replace.count} nodes of {function}, not 1")
    return ast.unparse(ast.fix_missing_locations(tree))


def run_tests(copy: Path, files: list) -> bool:
    """Whether every test of `files` passes in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *files], cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "scenarios", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".work", ".out"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        files = sorted({f for m in chosen for f in m[5]})
        if not run_tests(copy, files):
            print(f"the unmutated copy fails {files}", file=sys.stderr)
            return 2
        survived = 0
        for name, module, function, old, new, tests in chosen:
            target = copy / PACKAGE / module
            source = target.read_text()
            try:
                target.write_text(mutate(source, function, old, new))
            except LookupError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            start = time.perf_counter()
            killed = not run_tests(copy, tests)
            target.write_text(source)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {time.perf_counter() - start:7.1f} s"
                  f"  {name}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
