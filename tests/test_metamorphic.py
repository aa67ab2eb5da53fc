"""Metamorphic relations on the integral, through `parse_scenario` and
`run_scenario` on generated documents.

The two-route integral catches a disagreement between its routes, not a
fault in what both routes read.  Each relation here runs two or three
documents whose integrals must be related, so no expected value is needed
(T. Y. Chen, S. C. Cheung and S. M. Yiu, "Metamorphic testing: a new
approach for generating next test cases", HKUST-CS98-01, 1998):

- replacing mu by c * mu scales every integral by c;
- the integrals with respect to mu + nu are the sums of the two;
- splitting an atom into two whose values sum to its value, with every
  function constant across the split, changes no integral and no status;
- a `coord(d)` document placed on the diagonal of `LoewnerSym(d)` gives
  the diagonal integrals, and for d >= 2 the checks that need a lattice
  refuse there;
- the same document on `reals` gives what it gives on `coord(1)`, and on
  `entrywise_mat(r, c)` what it gives on `coord(r * c)`, the matrix read
  row by row;
- a permutation of the ground points of an outer measure, given by its
  `outer_values` or induced from a measure, permutes the `caratheodory`
  report's family, atoms and restricted measure, and changes neither its
  status nor its identity verdict.

Each integral document is on a power set of 1 to 4 points, with infinite,
null and positive atoms, and runs `integrate`, `integral_laws`, `ae`, `mct`,
`triangle` and `dct`.  Its sequences are explicit and end in their limit,
so every check decides exactly, by stabilization, and no certificate
depends on the scale of the measure.  Each relation has a fixed Hypothesis
budget, and each example a deadline.
"""

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmeasure import scenarios
from ordmeasure.measures import mask_to_points, points_to_mask
from ordmeasure.rationals import INFINITY, format_rational

BUDGET = settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True)
HORIZON = 8
# The detail of each check that is an integral with respect to the measure.
INTEGRAL_FIELDS = {"integrate": ["value"], "integral_laws": ["combination"],
                   "ae_analysis": ["integral"], "mct": ["limit_integral"],
                   "triangle": ["abs_of_integral", "integral_of_abs"],
                   "dct": ["limit_integral"]}
small = st.fractions(min_value=0, max_value=5, max_denominator=6)
signed = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def atom_value(draw, dim: int):
    """None for infinity, else a nonnegative coordinate list (sometimes 0)."""
    kind = draw(st.sampled_from(["infinite", "null", "positive", "positive"]))
    if kind == "infinite":
        return None
    if kind == "null":
        return [Fraction(0)] * dim
    return [draw(st.one_of(small, st.builds(Fraction, st.integers(0, 10**6),
                                            st.just(10**6 + 3))))
            for _ in range(dim)]


@st.composite
def models(draw, dims=st.integers(1, 3)):
    """The data of a document: dimension (drawn from `dims`), atom values
    (one atom per point), two extended functions, a signed function with a
    perturbation that vanish on infinite atoms unless `loose`, and two
    coefficients."""
    dim, ground = draw(dims), draw(st.integers(1, 4))
    atoms = [draw(atom_value(dim)) for _ in range(ground)]
    ext = st.one_of(st.just(Fraction(0)), small, st.just(INFINITY))
    loose = draw(st.booleans()) and draw(st.booleans())

    def finite_on_atoms():
        return [draw(signed) if loose or v is not None else Fraction(0) for v in atoms]
    return {"dim": dim, "atoms": atoms,
            "f": [draw(ext) for _ in atoms], "g": [draw(ext) for _ in atoms],
            "s": finite_on_atoms(), "b": finite_on_atoms(),
            "r1": draw(small), "r2": draw(small)}


def scalar(v) -> str:
    return "infinity" if v is INFINITY else format_rational(v)


def document(model: dict, loewner: bool = False) -> dict:
    """The document of `model` on `coord(dim)`, or with every atom value on
    the diagonal of `LoewnerSym(dim)`."""
    dim = model["dim"]

    def atom(v):
        if v is None:
            return "infinity"
        if loewner:
            v = [v[i] if i == j else 0 for i in range(dim) for j in range(dim)]
        return {"finite": [format_rational(Fraction(c)) for c in v]}

    def fn(values):
        return {"values": [scalar(v) for v in values]}

    f, s, b = model["f"], model["s"], model["b"]
    functions = {
        "f": fn(f), "g": fn(model["g"]), "s": fn(s),
        "dom": fn([abs(x) + abs(y) for x, y in zip(s, b)]),
        "f1": fn([Fraction(1) if v is INFINITY else min(v, 1) for v in f]),
        "f2": fn([Fraction(2) if v is INFINITY else min(v, 2) for v in f]),
        "t1": fn([x + y for x, y in zip(s, b)]),
        "t2": fn([x + y / 2 for x, y in zip(s, b)]),
    }
    return {
        "space": {"kind": "loewner_sym" if loewner else "coord", "dim": dim},
        "ground_size": len(model["atoms"]),
        "sigma_algebra": {"power_set": True},
        "measure": {"atom_values": {str(x): atom(v) for x, v in enumerate(model["atoms"])}},
        "functions": functions,
        "sequences": {"rising": {"kind": "explicit", "terms": ["f1", "f2", "f"]},
                      "settling": {"kind": "explicit", "terms": ["t1", "t2", "s"]}},
        "checks": [
            {"check": "integrate", "function": "f"},
            {"check": "integrate", "function": "g"},
            {"check": "integral_laws", "f": "f", "g": "g",
             "r1": format_rational(model["r1"]), "r2": format_rational(model["r2"])},
            {"check": "ae", "function": "f"},
            {"check": "mct", "sequence": "rising", "limit": "f"},
            {"check": "triangle", "function": "s"},
            {"check": "dct", "sequence": "settling", "limit": "s", "dominator": "dom"},
        ],
    }


def integrals(doc: dict) -> list:
    """Each check's name, status and integrals, from running `doc`: a value
    is None for infinity, else a tuple of Fractions."""
    report = scenarios.run_scenario(scenarios.parse_scenario(doc),
                                    scenarios.RunConfig(horizon=HORIZON))
    out = []
    for entry in report["checks"]:
        details = entry["details"]
        values = {}
        for key in INTEGRAL_FIELDS[entry["check"]]:
            if key in details:
                v = details[key]
                coords = v if isinstance(v, list) else None if v == "infinity" else v["finite"]
                values[key] = None if coords is None else tuple(map(Fraction, coords))
        out.append((entry["check"], entry["status"], values))
    return out


def mapped(result: list, op) -> list:
    """`result` with op applied to every finite integral."""
    return [(check, status, {k: None if v is None else op(v) for k, v in values.items()})
            for check, status, values in result]


class TestScaling:
    @given(models(), st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 5)]))
    @BUDGET
    def test_c_mu_scales_every_integral_by_c(self, model, c):
        scaled = dict(model, atoms=[None if v is None else [c * x for x in v]
                                    for v in model["atoms"]])
        expected = mapped(integrals(document(model)), lambda v: tuple(c * x for x in v))
        assert integrals(document(scaled)) == expected


class TestSums:
    @given(models(), st.data())
    @BUDGET
    def test_integrals_of_mu_plus_nu_add(self, model, data):
        nu = [data.draw(atom_value(model["dim"])) for _ in model["atoms"]]
        total = [None if a is None or b is None else [x + y for x, y in zip(a, b)]
                 for a, b in zip(model["atoms"], nu)]
        first, second, both = (integrals(document(dict(model, atoms=atoms)))
                               for atoms in (model["atoms"], nu, total))
        for (check, status, a), (_, _, b), (_, _, ab) in zip(first, second, both):
            if check == "integrate":
                assert status == "holds"
            for key in a.keys() & b.keys() & ab.keys() - {"abs_of_integral"}:
                x, y = a[key], b[key]
                assert ab[key] == (None if x is None or y is None
                                   else tuple(p + q for p, q in zip(x, y)))


class TestRefinement:
    @given(models(), st.data())
    @BUDGET
    def test_splitting_an_atom_changes_no_integral_or_status(self, model, data):
        k = data.draw(st.integers(0, len(model["atoms"]) - 1))
        v = model["atoms"][k]
        if v is None:  # infinity is infinity plus anything
            halves = (None, data.draw(st.one_of(st.none(), atom_value(model["dim"]))))
        else:
            t = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)]))
            halves = ([t * x for x in v], [(1 - t) * x for x in v])
        atoms = list(model["atoms"])
        atoms[k] = halves[0]
        split = dict(model, atoms=atoms + [halves[1]],
                     **{name: model[name] + [model[name][k]] for name in "fgsb"})
        assert integrals(document(split)) == integrals(document(model))


class TestDiagonalEmbedding:
    @given(models())
    @BUDGET
    def test_loewner_diagonal_gives_the_diagonal_integrals(self, model):
        dim = model["dim"]

        def diagonal(v):
            return tuple(v[i] if i == j else Fraction(0) for i in range(dim) for j in range(dim))

        # LoewnerSym(1) is the reals, a lattice; from d = 2 on it is not one.
        lattice_only = {"triangle", "dct"} if dim > 1 else set()
        expected = [(check, "hypothesis-not-met", {}) if check in lattice_only else entry
                    for check, entry in ((e[0], e) for e in mapped(
                        integrals(document(model)), diagonal))]
        assert integrals(document(model, loewner=True)) == expected


class TestSameCone:
    """Backends whose cones are the same ordered space give the same reports."""

    @given(models(dims=st.just(1)))
    @BUDGET
    def test_reals_is_coord_1(self, model):
        doc = document(model)
        assert integrals(dict(doc, space={"kind": "reals"})) == integrals(doc)

    @given(models(dims=st.sampled_from([1, 2, 3, 4, 6])), st.data())
    @BUDGET
    def test_entrywise_mat_is_coord_of_its_size(self, model, data):
        dim = model["dim"]
        rows = data.draw(st.sampled_from([r for r in range(1, dim + 1) if dim % r == 0]))
        doc = document(model)
        matrix = {"kind": "entrywise_mat", "rows": rows, "cols": dim // rows}
        assert integrals(dict(doc, space=matrix)) == integrals(doc)


@st.composite
def outer_models(draw, loewner: bool):
    """An outer measure on n = 1..4 points, with a permutation of them: a
    cover sum nu(A) = sum of the weights of the covers that A meets, given
    by its `outer_values`, or a measure on a partition of the points, to
    induce from.  A weight is None for infinity, else two coordinates, or
    on LoewnerSym(2) the entries of (p, q)(p, q)^T + r I over a denominator."""
    n = draw(st.integers(1, 4))

    def weight():
        if draw(st.integers(0, 4)) == 0:
            return None
        if not loewner:
            return [draw(small), draw(small)]
        p, q, r = draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), draw(st.integers(0, 2))
        den = draw(st.integers(1, 3))
        return [Fraction(x, den) for x in (p * p + r, p * q, p * q, q * q + r)]

    model = {"n": n, "perm": draw(st.permutations(range(n)))}
    if draw(st.booleans()):
        labels = [draw(st.integers(0, n - 1)) for _ in range(n)]
        model["blocks"] = [([p for p in range(n) if labels[p] == label], weight())
                           for label in sorted(set(labels))]
    else:
        model["covers"] = [(draw(st.integers(1, (1 << n) - 1)), weight())
                           for _ in range(draw(st.integers(1, 3)))]
    return model


def outer_document(model: dict, space: dict, perm) -> dict:
    """The `caratheodory` document of `model` on `space`, point p renamed
    perm[p]."""
    n, zero = model["n"], [Fraction(0)] * (2 if space["kind"] == "coord" else 4)

    def moved(points):
        return sorted(perm[p] for p in points)

    def element(v):
        return "infinity" if v is None else {"finite": [format_rational(x) for x in v]}

    doc = {"space": space, "ground_size": n, "checks": [{"check": "caratheodory"}]}
    if "blocks" in model:
        doc.update(sigma_algebra={"generators": [moved(b) for b, _ in model["blocks"]]},
                   measure={"atom_values": {str(moved(b)[0]): element(v)
                                            for b, v in model["blocks"]}},
                   outer_measure={"induced_from_measure": True})
        return doc
    values = {}
    for mask in range(1 << n):
        total = zero
        for cover, v in model["covers"]:
            if mask & cover:
                total = None if total is None or v is None else [
                    x + y for x, y in zip(total, v)]
        values[",".join(map(str, moved(mask_to_points(mask))))] = element(total)
    doc["outer_measure"] = {"outer_values": values}
    return doc


def caratheodory(doc: dict) -> tuple:
    """The status and details of the one `caratheodory` check of `doc`."""
    report = scenarios.run_scenario(scenarios.parse_scenario(doc),
                                    scenarios.RunConfig(horizon=HORIZON))
    [entry] = report["checks"]
    return entry["status"], entry["details"]


class TestRelabelling:
    @pytest.mark.parametrize("space", [{"kind": "coord", "dim": 2},
                                       {"kind": "loewner_sym", "dim": 2}],
                             ids=["coord", "loewner_sym"])
    @given(st.data())
    @BUDGET
    def test_a_permutation_of_the_points_permutes_the_caratheodory_report(self, space,
                                                                          data):
        model = data.draw(outer_models(space["kind"] == "loewner_sym"))
        perm = model["perm"]

        def relabelled(sets):
            return sorted((sorted(perm[p] for p in s) for s in sets), key=points_to_mask)

        status, details = caratheodory(outer_document(model, space, range(model["n"])))
        moved_status, moved = caratheodory(outer_document(model, space, perm))
        assert moved_status == status
        assert moved["restriction_identities"] == details["restriction_identities"]
        assert moved["measurable_family"] == relabelled(details["measurable_family"])
        assert moved["atoms"] == relabelled(details["atoms"])
        assert moved["restricted_measure"] == {
            str(min(perm[p] for p in atom)): details["restricted_measure"][str(atom[0])]
            for atom in details["atoms"]}
