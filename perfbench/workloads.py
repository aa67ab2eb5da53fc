"""Workload definitions: the items each workload runs, built from a seed.

An item is one unit of work taken to a verdict.  A ``run`` item is one
scenario document at one horizon: ``parse_scenario`` then ``run_scenario``
then ``canonical_dumps``.  A ``compare`` item is ``comparison_experiment``
plus ``canonical_dumps``.  The library only ever sees the generated
documents; the seed decides the documents (``ground``, ``loewner``) or only
the item order (``suite``).

The generated documents are valid by construction and carry their own
expected answers, computed here without the library:

* ``ground`` outer measures are cover sums, nu(A) = sum of the weights w_i
  of the cover sets S_i that A meets.  Such a nu is zero on the empty set,
  monotone and sub-additive.  One cover is a single point p with weight
  infinity.  A set D is Caratheodory measurable exactly when it splits no
  finite-weight cover outside p, so the measurable family is the set of
  unions of the blocks the covers connect, plus {p}.  The cover sets are
  fixed per ground size and only their weights come from the seed: where a
  non-measurable set first fails the exhaustive test depends on the cover
  sets, so random ones made the extraction work, and with it the item
  times, vary by about 10% from seed to seed.
* ``loewner`` atom values are B B^T for a lower-triangular integer B with
  nonzero diagonal, so every atom is positive definite.  Each order test
  then sees a positive definite or a zero difference at the same places for
  every seed, so the PSD work depends only on the fixed shape, not on the
  random entries.  Functions put their largest finite value at a fixed
  level and, in a pair, at the same point, which fixes the ladder length of
  every integral.  Integrate checks carry the expected value, computed here
  by the closed form.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

SUITE_HORIZONS = (64, 256)
DEFAULT_HORIZON = 64

# Each workload's reason to exist and the layer its traced run should show
# as dominant.  ``predicted`` names layers or self-time keys of
# tracing.LAYERS; the prediction holds when their summed self time exceeds
# that of every other layer.  A run makes one in-process pass per
# ``pass_seconds`` of --seconds.  At --seconds 30 that is four passes of
# ground and three of loewner, so that the tail order statistic, with ten
# samples beyond it, stays above the median, and two of suite, whose 46
# items give 92 samples; with the CLI pass each run then takes 30 to 50 s
# on a 2-core x86 machine.
WORKLOADS = {
    "suite": {
        "why": "all 23 shipped scenarios at horizons 64 and 256; the reference "
               "output users run, time mostly in the integral ladder and certifier",
        "rationale": (
            "This is the reference output users run.  Most of its time goes "
            "to integral: the truncation ladder, integrals repeated across "
            "sequence terms, and the DCT certifier, which is O(h^2) in the "
            "horizon h.  Very little goes to outer or PSD tests.  The seed "
            "only permutes the item order."
        ),
        "predicted": ["integral"],
        "pass_seconds": 15,
    },
    "ground": {
        "why": "seeded cover-sum outer measures on 8-9 points plus compare at "
               "n=16; time in outer-measure axioms, extraction and set building",
        "rationale": (
            "Validation costs about 4^n/2 pairs, extraction 4^n, and "
            "power_set_space(16) builds 65,536 sets.  All of this sits in "
            "outer and measures; integral and PSD tests are nearly absent."
        ),
        "predicted": ["outer", "measures"],
        "pass_seconds": 7.5,
    },
    "loewner": {
        "why": "seeded Loewner measures, d in 4..6, with one-shot distinct "
               "integrals near 100; every order test is an exact PSD test",
        "rationale": (
            "Every order test is an is_psd test computing 2^d-1 minors.  "
            "Its integrals are one-shot and distinct, and each ladder rung "
            "pays a PSD test, so a change that helps repeated small "
            "integrals but costs one-shot large ones shows here.  "
            "Magnitudes stay in the low hundreds."
        ),
        "predicted": ["spaces.is_psd"],
        "pass_seconds": 10,
    },
}

# Per-pass document shapes of the generated workloads.
# The comparison items cost the least and the one 9-point document the
# most, so over four passes both the median and the tail of the pooled item
# times, with ten samples beyond it, fall inside the block of 8-point
# documents, which all cost about the same.
GROUND_SIZES = (8, 8, 8, 8, 8, 8, 9)
GROUND_BLOCKS = {8: 4, 9: 5}  # finite-weight blocks besides {p}
COMPARE_N = 16
LOEWNER_DIMS = (4, 5, 6)
LOEWNER_POINTS = 4
LOEWNER_KINDS = ("order", "integrate", "laws")
LOEWNER_TOP = 100  # largest finite function value
LOEWNER_R = ("1/2", "1/3")


class Item:
    """One unit of work: a scenario run at a horizon, or a comparison."""

    def __init__(self, item_id: str, doc=None, horizon=None, compare=None,
                 seeded=False):
        self.id = item_id
        self.doc = doc
        self.horizon = horizon
        self.compare = compare  # (kind, n) for a compare item
        self.path = None  # CLI input file, set by write_inputs
        # Generated documents depend on the seed; the shipped scenarios and
        # the comparison experiments do not.
        self.seeded = seeded

    def cli_args(self) -> list:
        if self.compare is not None:
            kind, n = self.compare
            return ["compare", kind, "--n", str(n)]
        return ["run", str(self.path), "--output", "json",
                "--horizon", str(self.horizon)]


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _points(mask: int, n: int) -> list:
    return [p for p in range(n) if mask >> p & 1]


def ground_document(n: int, rng: random.Random, nblocks=None) -> dict:
    """A cover-sum outer measure on n points with a caratheodory check.

    The point p is 0 and the other points fall, in order, into ``nblocks``
    blocks of nearly equal size.  Each block is chained by its windows of
    two consecutive points (a one-point block is its own window), and the
    first window of every other block also holds p.  The seed draws the
    weights.
    """
    p = 0
    others = list(range(1, n))
    nblocks = nblocks or GROUND_BLOCKS[n]
    cuts = [round(len(others) * i / nblocks) for i in range(1, nblocks)]
    blocks = [others[a:b] for a, b in zip([0] + cuts, cuts + [len(others)])]

    covers = [(1 << p, None)]  # (mask, weight, or None for infinity)
    for b, block in enumerate(blocks):
        for i in range(max(1, len(block) - 1)):
            mask = sum(1 << x for x in block[i:i + 2])
            if i == 0 and b % 2 == 0:
                mask |= 1 << p
            weight = (Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                      Fraction(rng.randint(0, 9), rng.randint(1, 4)))
            covers.append((mask, weight))

    values = {}
    for a in range(1 << n):
        total = [Fraction(0), Fraction(0)]
        infinite = False
        for mask, weight in covers:
            if a & mask:
                if weight is None:
                    infinite = True
                    break
                total[0] += weight[0]
                total[1] += weight[1]
        values[",".join(map(str, _points(a, n)))] = (
            "infinity" if infinite else {"finite": [_q(total[0]), _q(total[1])]}
        )

    atoms = [1 << p] + [sum(1 << x for x in b) for b in blocks]
    family = sorted(
        sum(atoms[i] for i in range(len(atoms)) if combo >> i & 1)
        for combo in range(1 << len(atoms))
    )
    return {
        "space": {"kind": "coord", "dim": 2},
        "ground_size": n,
        "sigma_algebra": {"power_set": True},
        "outer_measure": {"outer_values": values},
        "checks": [{"check": "caratheodory",
                    "expected_family": [_points(m, n) for m in family]}],
    }


def _gram(b: list) -> list:
    d = len(b)
    return [[sum(b[i][k] * b[j][k] for k in range(d)) for j in range(d)]
            for i in range(d)]


def _ext_json(value, d: int):
    if value is None:
        return "infinity"
    return {"finite": [_q(Fraction(value[i][j])) for i in range(d) for j in range(d)]}


def _expected_integral(values: list, atoms: list, d: int):
    """Closed-form integral of values against the atom matrices (None = inf)."""
    total = [[Fraction(0)] * d for _ in range(d)]
    for v, m in zip(values, atoms):
        if v is None:
            return None  # every atom is positive definite, so inf * m = inf
        for i in range(d):
            for j in range(d):
                total[i][j] += v * m[i][j]
    return total


def _function(rng: random.Random, top: int, top_at: int, inf_at=None) -> list:
    """Random rationals in [0, top], exactly top at top_at, infinity at inf_at."""
    values = []
    for x in range(LOEWNER_POINTS):
        q = rng.choice((1, 2, 3))
        values.append(None if x == inf_at else Fraction(top) if x == top_at
                      else Fraction(rng.randint(0, top * q), q))
    return values


def loewner_document(d: int, kind: str, rng: random.Random,
                     top=LOEWNER_TOP) -> dict:
    """A Loewner measure on 4 points with one kind of check.

    ``order``: identities and bridge.  ``integrate``: one finite and one
    infinite integral with largest finite value ``top``, against expected
    values.  ``laws``: integral_laws on functions with top ``top / 2`` at
    the same point, so f + g reaches ``top``; f is not below g, so the
    check computes five integrals, four of them distinct.
    """
    atoms = []
    for _ in range(LOEWNER_POINTS):
        b = [[(rng.choice((1, 2)) if i == j else rng.randint(-2, 2)) if j <= i else 0
              for j in range(d)] for i in range(d)]
        atoms.append(_gram(b))
    doc = {
        "space": {"kind": "loewner_sym", "dim": d},
        "ground_size": LOEWNER_POINTS,
        "sigma_algebra": {"power_set": True},
        "measure": {"atom_values": {str(x): _ext_json(atoms[x], d)
                                    for x in range(LOEWNER_POINTS)}},
    }
    if kind == "order":
        order = list(range(LOEWNER_POINTS))
        rng.shuffle(order)
        split = rng.randint(1, LOEWNER_POINTS - 1)
        doc["checks"] = [{"check": "identities"},
                         {"check": "bridge",
                          "sets": [sorted(order[:split]), sorted(order[split:])]}]
        return doc

    top_at, inf_at, below_at = rng.sample(range(LOEWNER_POINTS), 3)
    top = top if kind == "integrate" else top // 2
    f = _function(rng, top, top_at)
    g = _function(rng, top, top_at, inf_at)
    if kind == "laws":
        f[below_at], g[below_at] = Fraction(rng.randint(1, top)), Fraction(0)
    doc["functions"] = {
        name: {"values": ["infinity" if v is None else _q(v) for v in vals]}
        for name, vals in (("f", f), ("g", g))
    }
    if kind == "integrate":
        doc["checks"] = [
            {"check": "integrate", "function": name,
             "expected": _ext_json(_expected_integral(vals, atoms, d), d)}
            for name, vals in (("f", f), ("g", g))
        ]
    else:
        doc["checks"] = [{"check": "integral_laws", "f": "f", "g": "g",
                          "r1": LOEWNER_R[0], "r2": LOEWNER_R[1]}]
    return doc


def build_items(workload: str, seed: int, root: Path) -> list:
    """The items of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suite":
        items = []
        paths = sorted((root / "scenarios").glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no scenario files under {root / 'scenarios'}")
        for path in paths:
            doc = json.loads(path.read_text(encoding="utf-8"))
            for h in SUITE_HORIZONS:
                items.append(Item(f"suite/{path.stem}@{h}", doc, h))
    elif workload == "ground":
        items = [Item(f"ground/n{n}-{i}", ground_document(n, rng),
                      DEFAULT_HORIZON, seeded=True)
                 for i, n in enumerate(GROUND_SIZES)]
        items += [Item(f"ground/compare-{kind}-{COMPARE_N}",
                       compare=(kind, COMPARE_N))
                  for kind in ("sup_measure", "series_measure")]
    elif workload == "loewner":
        items = [Item(f"loewner/d{d}-{kind}", loewner_document(d, kind, rng),
                      DEFAULT_HORIZON, seeded=True)
                 for d in LOEWNER_DIMS for kind in LOEWNER_KINDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def write_inputs(items: list, directory: Path):
    """Write each run item's document as the CLI input file."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(items):
        if item.doc is not None:
            item.path = directory / f"{i:03d}.json"
            item.path.write_text(json.dumps(item.doc, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
