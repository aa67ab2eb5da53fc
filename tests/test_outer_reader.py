"""The reader of an `outer_values` table against the former reader,
`outer_builders.ext_read_outer`.

On a valid table the row table that validation keeps is the oracle's, and
a table with one corrupted entry is refused by `validate` and `run` with
the oracle's message and pointer.  The tables spell their numbers with
repeated and unreduced strings ("2/4", "-0", "0/3").  The reader's counts
are pinned too: one `parse_rational` per distinct coordinate string, and
no extended element built for a table value.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import outer
from ordmeasure.cli import main as cli_main
from ordmeasure.errors import MAX_OUTER_GROUND_SIZE, SchemaError
from ordmeasure.measures import mask_to_points
from ordmeasure.scenarios import parse_scenario

from conftest import random_positive_element
from outer_builders import ext_read_outer

BACKENDS = {"reals": om.reals(), "coord": om.coord(2),
            "entrywise_mat": om.entrywise_mat(2, 2), "loewner_sym": om.loewner_sym(2)}
SPACE_DOCS = {"reals": {"kind": "reals"}, "coord": {"kind": "coord", "dim": 2},
              "entrywise_mat": {"kind": "entrywise_mat", "rows": 2, "cols": 2},
              "loewner_sym": {"kind": "loewner_sym", "dim": 2}}
PATH = "/outer_measure/outer_values"
CORRUPTIONS = ["bad key", "01", "1,0", "0,0", "outside", "non-string", "count",
               "asymmetric", "extra key", "missing", "sign"]


def key_of(mask: int) -> str:
    return ",".join(map(str, mask_to_points(mask)))


def spell(draw, q: Fraction) -> str:
    """A spelling of q: reduced, or numerator and denominator times 2 or 3;
    zero also as "-0", "0/3" or "-0/2"."""
    if q == 0:
        return draw(st.sampled_from(["0", "-0", "0/3", "-0/2"]))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    if k == 1 and q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator * k}/{q.denominator * k}"


@st.composite
def outer_documents(draw):
    """(document, values object, backend, n): a cover-sum outer measure on
    n = 1..3 points of one of four backends, its keys in a random order, its
    numbers spelled by `spell` from a few weights, so that strings repeat."""
    kind = draw(st.sampled_from(sorted(BACKENDS)))
    backend, n = BACKENDS[kind], draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    covers = []
    for _ in range(draw(st.integers(1, 3))):
        weight = (om.infinity(backend) if draw(st.integers(0, 4)) == 0
                  else om.finite(random_positive_element(rng, backend)))
        covers.append((draw(st.integers(1, (1 << n) - 1)), weight))
    masks = draw(st.permutations(range(1 << n)))
    values = {}
    for mask in masks:
        total = om.finite(om.zero(backend))
        for cover, weight in covers:
            if mask & cover:
                total = om.ext_add(total, weight)
        values[key_of(mask)] = ("infinity" if total.is_infinite else
                                {"finite": [spell(draw, q) for q in total.finite.coords]})
    doc = {"space": SPACE_DOCS[kind], "ground_size": n,
           "outer_measure": {"outer_values": values}}
    return doc, values, backend, n


def corrupt(draw, values: dict, n: int, how: str) -> dict:
    """`values` with one entry corrupted as `how` names, in its place."""
    items = list(values.items())
    i = draw(st.integers(0, len(items) - 1))
    key, value = items[i]
    finite = value != "infinity"
    coords = list(value["finite"]) if finite else ["1"] * (len(values[""]["finite"]))
    j = draw(st.integers(0, len(coords) - 1))
    if how == "bad key":
        key = draw(st.sampled_from(["x", "0,", " 0", "0,+1", "a/b", "~0"]))
    elif how in ("01", "1,0", "0,0"):
        key = how
    elif how == "outside":
        key = key_of((1 << n) | (1 << draw(st.integers(0, n - 1))))
    elif how == "non-string":
        coords[j] = draw(st.sampled_from([1, 0.5, None, True, ["1"], {"1": 1}]))
        value = {"finite": coords}
    elif how == "count":
        value = {"finite": coords + ["0"] if draw(st.booleans()) else coords[:-1]}
    elif how == "asymmetric":  # on LoewnerSym(2), entry (0, 1) differs from (1, 0)
        coords[min(1, len(coords) - 1)] = "7/5"
        value = {"finite": coords}
    elif how == "extra key":
        value = {"finite": coords, "extra": 1}
    elif how == "missing":
        return dict(items[:i] + items[i + 1:])
    else:  # "sign": a negative coordinate, read after its positive spelling
        coords[j] = "-" + coords[j].lstrip("-")
        value = {"finite": coords}
    items[i] = key, value
    return dict(items)


def read(doc: dict):
    """The row table that validation keeps, or the text of the refusal."""
    try:
        return parse_scenario(doc).outer.values
    except SchemaError as exc:
        return str(exc)


def oracle(values: dict, backend, n: int):
    try:
        return ext_read_outer(values, backend, n)
    except SchemaError as exc:
        return str(exc)


def cli(command: str, doc: dict) -> tuple:
    """The exit code and the standard error of one CLI call on `doc`."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main([command, str(path)])
    return code, err.getvalue()


class TestPinnedTables:
    """Single tables and their refusals; they run before the property tests
    below, so that a broken reader fails fast."""

    def test_a_missing_set_is_refused_at_the_table(self):
        values = {"": {"finite": ["0", "0"]}, "0": "infinity", "0,1": "infinity"}
        doc = {"space": SPACE_DOCS["coord"], "ground_size": 2,
               "outer_measure": {"outer_values": values}}
        expected = f"{PATH}: outer measure must be total on the power set"
        assert read(doc) == expected == oracle(values, om.coord(2), 2)

    @pytest.mark.parametrize("key, message", [
        ("01", "bad set key '01'"), ("1,0", "points of set key '1,0' are not strictly "
                                             "increasing"),
        ("0,16", "point outside ground set in '0,16'")])
    def test_a_bad_first_key_above_the_cap_is_refused_at_the_key(self, key, message):
        # no name table above the cap: every key takes `_set_key`, and the
        # first bad one is refused before the cap is
        values = {key: "infinity", "": {"finite": ["0", "0"]}, "15": "infinity"}
        doc = {"space": SPACE_DOCS["coord"], "ground_size": 16,
               "outer_measure": {"outer_values": values}}
        expected = f"{PATH}/{key}: {message}"
        assert read(doc) == expected == oracle(values, om.coord(2), 16)
        for command in ("validate", "run"):
            assert cli(command, doc) == (2, f"error: {expected}\n")

    def test_a_good_table_above_the_cap_is_refused_at_the_cap(self):
        values = {"15": "infinity", "": {"finite": ["0", "0"]}, "0,3": "infinity"}
        doc = {"space": SPACE_DOCS["coord"], "ground_size": 16,
               "outer_measure": {"outer_values": values}}
        assert read(doc) == (f"{PATH}: outer measure ground size limited to <= "
                             f"{MAX_OUTER_GROUND_SIZE}, got 16")

    def test_a_negative_spelling_is_not_read_as_its_positive_one(self):
        # "1" is read first and then "-1": the parse memo keeps the sign
        values = {"": {"finite": ["0", "0"]}, "0": {"finite": ["1", "1"]},
                  "1": {"finite": ["1", "-1"]}, "0,1": {"finite": ["2", "1"]}}
        doc = {"space": SPACE_DOCS["coord"], "ground_size": 2,
               "outer_measure": {"outer_values": values}}
        expected = f"{PATH}/1: outer value of [1] is outside the positive cone"
        assert read(doc) == expected == oracle(values, om.coord(2), 2)


class TestAgainstTheFormerReader:
    @given(outer_documents())
    @settings(max_examples=300, deadline=None)
    def test_a_valid_table_reads_as_the_oracle_rows(self, case):
        doc, values, backend, n = case
        expected = oracle(values, backend, n)
        assert not isinstance(expected, str)
        assert read(doc) == expected

    @pytest.mark.parametrize("how", CORRUPTIONS)
    @given(case=outer_documents(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_corrupted_entry_is_refused_as_the_oracle_refuses_it(self, how, case, data):
        doc, values, backend, n = case
        values = corrupt(data.draw, values, n, how)
        doc = dict(doc, outer_measure={"outer_values": values})
        expected = oracle(values, backend, n)
        assert read(doc) == expected
        if isinstance(expected, str):
            for command in ("validate", "run"):
                assert cli(command, doc) == (2, f"error: {expected}\n")


def count_reads(monkeypatch):
    """Count the `parse_rational` calls of the row reader and every
    extended element built, into the returned dict."""
    counts = {"parse": 0, "ext": 0}
    parse, init = outer.parse_rational, om.ExtElement.__init__

    def counted_parse(*args):
        counts["parse"] += 1
        return parse(*args)

    def counted_init(self, *args):
        counts["ext"] += 1
        init(self, *args)

    monkeypatch.setattr(outer, "parse_rational", counted_parse)
    monkeypatch.setattr(om.ExtElement, "__init__", counted_init)
    return counts


class TestReadCounts:
    @given(outer_documents())
    @settings(max_examples=100, deadline=None)
    def test_one_parse_per_distinct_string_and_no_element(self, case):
        doc, values, backend, n = case
        strings = {text for value in values.values() if value != "infinity"
                   for text in value["finite"]}
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = count_reads(monkeypatch)
            parse_scenario(doc)
        assert counts == {"parse": len(strings), "ext": 0}

    def test_a_nine_point_table(self, monkeypatch):
        # nu(A) = the weight of the last of three blocks of three points that
        # A meets, the weights increasing: 512 values written with 7 strings
        weights = [["1/2", "-0"], ["2/4", "3"], ["6/4", "3/1"]]
        values = {}
        for mask in range(1 << 9):
            hit = [w for i, w in enumerate(weights) if mask >> (3 * i) & 7]
            values[key_of(mask)] = {"finite": hit[-1] if hit else ["0", "0"]}
        doc = {"space": SPACE_DOCS["coord"], "ground_size": 9,
               "outer_measure": {"outer_values": values}}
        expected = oracle(values, om.coord(2), 9)
        counts = count_reads(monkeypatch)
        assert read(doc) == expected
        assert counts == {"parse": 7, "ext": 0}
