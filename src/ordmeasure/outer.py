"""Cone-valued outer measures and the Caratheodory construction.

An outer measure is a total assignment on the power set of the ground set:
zero on the empty set, monotone, and sub-additive.  Countable unions of
subsets of a finite set are finite unions, so sigma-sub-additivity reduces
to the pairwise case (finite sub-additivity then follows by induction).

A set D is Caratheodory measurable when it splits every test set
additively; the measurable sets always form a sigma-algebra, and restricting
the outer measure to it yields a measure.  Both facts are verified
exhaustively here rather than assumed.

The exhaustive checks skip only cases that an axiom already checked
settles.  Once monotonicity holds, sub-additivity needs only disjoint
pairs: (3^n - 1)/2 order tests rather than one per pair a <= b.  A test set
inside D or inside its complement splits trivially because the empty set
has value zero, so measurability tests only the test sets that meet both.

The split test of D on a test set T, nu(T) = nu(T & D) + nu(T - D), depends
only on the disjoint pair (T & D, T - D), not on D.  So the one pass over
the disjoint pairs that tests sub-additivity also records which pairs split
non-additively, and every set's verdict is read from that record: each pair
is summed once, not once for every set that separates it.  The pass settles
what it already knows without a kernel call: after monotonicity, a pair
with an infinite side has an infinite union and splits as inf = inf, and
of a finite pair only an unequal one is asked the order, since equality
implies it.  A set's partners, the nonempty subsets of its complement as
one bitset, are read from a table built once per ground size
(`submask_bitsets`), as the set names are.

Every `OuterMeasure` comes out of one validating pass,
`validate_outer_measure` (`induce_outer` ends in it too), and holds that
pass's split record; no record is built later.  The pass takes a table of
rows by mask, integer numerators over a denominator or None for the point
at infinity, and runs on one integer table (`extended.common_den_rows`):
the 2^n rows over one common denominator.  The `OuterMeasure` keeps that
table, and `OuterMeasure.value` builds the element of a value only when
it is asked for, as a report prints an atom's value.  An `outer_values`
document is read straight into rows: each key is one lookup in the name
table of `set_names`, which also gives the JSON pointer of a refused set,
and each value one `row_reader` call, which parses each distinct
coordinate string once.  `induce_outer` builds its rows from
`Measure.row`, and extraction compares the restricted measure with the
table on rows.  Positivity, monotonicity and the pair pass take the
integer table and its kernels from one `spaces.table_kernels` call, given
the number of visits the pass makes: on a coordinatewise backend a table
of nonnegative numerators over one denominator is packed, one int per
value, and a sum is one integer add and a <= b one add, subtract and mask
test.  A Loewner table whose distinct values make fewer pairs than the
pass visits is interned: each value is an index, and each distinct sum
and each distinct ordered pair is decided once.  Otherwise a sum is an
integer add per coordinate and a <= b one positivity test of the row
b - a.  The passes keep their loops, their pair order and their witnesses
on every route, and build no element.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .errors import MAX_OUTER_GROUND_SIZE, Frozen, ValidationError, check_cap
from .extended import ExtElement, common_den_rows, ext_to_json, from_row
from .measures import (
    MeasurableSpace,
    Measure,
    check_measure_identities,
    full_mask,
    mask_to_points,
    validate_sigma_algebra,
)
from .rationals import parse_rational
from .reports import CheckResult, verdict
from .spaces import SpaceDescriptor, require_symmetric, row_eq, table_kernels


class OuterMeasure(Frozen):
    """A total map from the power set into the extended cone, as
    `validate_outer_measure` returns it: `values`, indexed by mask, is the
    integer table of its pass (`extended.common_den_rows`), and bit b of
    ``split_failures[a]`` is set when the disjoint pair (a, b) splits
    non-additively, nu(a | b) != nu(a) + nu(b)."""

    __slots__ = ("ground_size", "backend", "values", "split_failures")

    def value(self, mask: int) -> ExtElement:
        """The value of `mask`, built from its row."""
        return from_row(self.backend, self.values[mask])


@lru_cache(maxsize=None)
def set_names(ground_size: int) -> tuple:
    """``(names, index)``: the canonical name of each set of `ground_size`
    points, indexed by mask, and the mask of each name.  A name is the
    set's points in increasing order joined by commas, "" for the empty
    set: the name of a mask is the name of the mask without its top point,
    then "," and the top point.  Above the ground-size cap both are empty.
    The pair is built once per ground size and shared: callers only read it."""
    if ground_size > MAX_OUTER_GROUND_SIZE:
        return (), {}
    names = [""]
    for p in range(ground_size):
        top = str(p)
        names += [f"{name},{top}" if name else top for name in names]
    return tuple(names), {name: mask for mask, name in enumerate(names)}


def row_reader(backend: SpaceDescriptor):
    """A reader of the values of one table of JSON extended elements:
    ``read(doc)`` is None for "infinity", and for {"finite": [...]} with
    one coordinate string per coordinate of `backend` (a Loewner matrix
    symmetric) the canonical row ``(nums, den)``, nums over the lcm of the
    coordinates' denominators.  Each distinct coordinate string is parsed
    once per reader by `rationals.parse_rational`, and each distinct list
    of them is read once.  Any other `doc` raises a SchemaError, ValueError
    or TypeError, and is left to a reader that names the refusal."""
    ncoords, pairs, rows = backend.ncoords, {}, {}

    def read(doc):
        if doc == "infinity":
            return None
        coords = doc.get("finite") if type(doc) is dict and len(doc) == 1 else None
        if type(coords) is not list or len(coords) != ncoords:
            raise ValueError("not a finite element of the backend")
        key = tuple(coords)
        row = rows.get(key)
        if row is None:
            read_pairs = []
            for text in coords:
                pair = pairs.get(text)
                if pair is None:
                    pair = pairs[text] = parse_rational(text)
                read_pairs.append(pair)
            require_symmetric(backend, read_pairs)
            den = math.lcm(*[d for _, d in read_pairs])
            row = rows[key] = tuple([n * (den // d) for n, d in read_pairs]), den
        return row

    return read


def _power_set(ground_size: int) -> range:
    """The 2^n masks of the power set of n points; above the ground-size
    cap a DimensionLimitError, before any of them is built."""
    return range(1 << check_cap("outer measure ground size", ground_size,
                                MAX_OUTER_GROUND_SIZE))


def _split_table(values: list, add, leq, eq) -> List[int]:
    """Decide every unordered disjoint pair a < b once on the table `values`
    with its kernels (`spaces.table_kernels`): test sub-additivity,
    nu(a | b) <= nu(a) + nu(b), and record in both a's and b's bitset the
    pairs where the two sides differ.  A violation raises with the pair as
    its witness.

    The pass runs after monotonicity and asks no question whose answer it
    holds.  A pair with an infinite side (None on every route) splits
    additively: by the monotonicity already checked its union is infinite
    too, so both sides are infinity, and the pair costs no kernel call.  A
    pair of two finite sides is summed once and asked `eq` first; equality
    implies the order, so only an unequal pair is asked `leq`, which is the
    violation test.  A finite pair whose union is infinite is unequal and
    not below its sum, the violation it always was, and the pair order is
    unchanged, so the first witness is too.  At most (3^n - 1)/2 sums,
    equality tests and order tests."""
    full = len(values) - 1
    failures = [0] * len(values)
    for a in range(full + 1):
        va = values[a]
        if va is None:
            continue
        rest = full ^ a
        b = rest
        while b > a:
            vb = values[b]
            if vb is not None:
                joint, split = values[a | b], add(va, vb)
                if not eq(joint, split):
                    if not leq(joint, split):
                        raise ValidationError(
                            "sub-additivity violation",
                            witness={"pair": [mask_to_points(a), mask_to_points(b)]},
                        )
                    failures[a] |= 1 << b
                    failures[b] |= 1 << a
            b = (b - 1) & rest
    return failures


def validate_outer_measure(table: Dict[int, Optional[tuple]], backend: SpaceDescriptor,
                           ground_size: int) -> OuterMeasure:
    """Check the outer-measure axioms exhaustively and return the object.

    `table` maps each mask to the row of its value: ``(nums, den)``,
    integer numerators over a positive denominator, or None for infinity.
    The ground size is held to its cap first, then the table is checked to
    be total, zero on the empty set and of the coordinate count of
    `backend`.  Its rows are brought over one denominator
    (`extended.common_den_rows`).  Positivity, 0 <= nu(A) in the order of
    `table`, monotonicity and the pair pass
    then run on the table of one `spaces.table_kernels` call, for their
    2^n + n 2^(n-1) + (3^n - 1)/2 visits; the table and its memos are
    dropped when the pass returns.  Monotonicity is checked along
    single-point extensions (which implies it for arbitrary inclusions by
    chaining).  Sub-additivity is then checked on the disjoint pairs a < b
    only, b running over the submasks of the complement of a: (3^n - 1)/2
    order tests.  That suffices, since for any a and b

        nu(a | b) = nu(a | (b - a)) <= nu(a) + nu(b - a) <= nu(a) + nu(b),

    where the first inequality is the disjoint case and the second uses
    monotonicity, nu(b - a) <= nu(b), and the compatibility of addition
    with the order.  Axiom violations carry witness sets; a sub-additivity
    witness is a disjoint violating pair.  The same pass records the pairs
    that split non-additively, kept as `split_failures` for measurability.
    """
    masks = _power_set(ground_size)
    if table.keys() != set(masks):
        raise ValidationError("outer measure must be total on the power set")
    zero = table[0]
    if zero is None or any(zero[0]):
        raise ValidationError("outer measure of the empty set must be zero",
                              witness={"empty_value": repr(from_row(backend, zero))})
    if any(row is not None and len(row[0]) != backend.ncoords for row in table.values()):
        raise ValidationError("outer value in the wrong backend")
    rows, size = common_den_rows([table[mask] for mask in masks]), len(masks)
    kernels = table_kernels(backend, rows,
                            size + ground_size * size // 2 + (3 ** ground_size - 1) // 2)
    values, _, leq, _ = kernels
    for mask in table:
        if not leq(values[0], values[mask]):
            raise ValidationError(
                f"outer value of {mask_to_points(mask)} is outside the positive cone",
                witness={"set": mask_to_points(mask)},
            )
    for mask in masks:
        for p in range(ground_size):
            bigger = mask | (1 << p)
            if bigger != mask and not leq(values[mask], values[bigger]):
                raise ValidationError(
                    "monotonicity violation",
                    witness={"smaller": mask_to_points(mask),
                             "larger": mask_to_points(bigger)},
                )
    return OuterMeasure(ground_size, backend, rows, _split_table(*kernels))


def induce_outer(mu: Measure) -> OuterMeasure:
    """Outer measure induced by a measure via smallest measurable covers.

    On a finite algebra the infimum over measurable covers is attained at
    the union of the atoms that the subset meets, so the induced outer
    measure extends the measure exactly.  Its table, each set's row the
    `Measure.row` of its cover over the atom table's denominator, goes
    through `validate_outer_measure`, as an explicit table does, so its
    split record is that pass's; the cap is held before any row is built.
    """
    n, cover, den = mu.space.ground_size, mu.space.cover, mu.atom_table[0]
    masks = _power_set(n)
    rows = {union: mu.row(union) for union in mu.space.members()}
    rows = {union: None if row is None else (row, den) for union, row in rows.items()}
    return validate_outer_measure({mask: rows[cover(mask)] for mask in masks}, mu.backend, n)


@lru_cache(maxsize=None)
def submask_bitsets(ground_size: int) -> tuple:
    """For each mask m of `ground_size` points, the int whose bit b is set
    for every nonempty submask b of m.  With p the top point of m and
    m' = m without p, the nonempty submasks of m are those of m', each of
    them with p added, and {p} alone, so

        S(m) = S(m') | S(m') << 2^p | 1 << 2^p,

    one shift and one or per mask, as `set_names` builds its names.  Built
    once per ground size and shared: callers only read it."""
    bitsets = [0]
    for p in range(ground_size):
        top = 1 << p
        bitsets += [s | s << top | 1 << top for s in bitsets]
    return tuple(bitsets)


def caratheodory_measurable(nu: OuterMeasure, mask: int) -> bool:
    """True iff `mask` splits every test set additively (exhaustive).

    Only the test sets that meet both `mask` and its complement are
    decided, as the disjoint pairs (a, b) with a a nonempty submask of
    `mask` and b one of the complement: `mask` is measurable exactly when
    none of them is recorded in `nu.split_failures`.  Every other test set
    lies on one side and splits as itself plus the empty set, which passes
    because nu(empty) = 0, as the validating pass that built `nu` checked.
    The complement's partners are read from `submask_bitsets`.
    """
    n = nu.ground_size
    partners = submask_bitsets(n)[mask ^ full_mask(n)]
    failures = nu.split_failures
    a = mask
    while a:
        if failures[a] & partners:
            return False
        a = (a - 1) & mask
    return True


def extract_measurable_algebra(nu: OuterMeasure) -> Tuple[MeasurableSpace, Measure]:
    """Collect the Caratheodory measurable sets and restrict to a measure.

    The measurable family must come out a sigma-algebra and the restriction
    must agree with the outer measure on it, `Measure.row` against the row
    of the outer table; both are verified, and a failure of either is an
    implementation bug, not a property of the input.  Elements are built
    for the atoms' values only.
    """
    full = full_mask(nu.ground_size)
    family = [mask for mask in range(full + 1) if caratheodory_measurable(nu, mask)]
    space = validate_sigma_algebra(family, nu.ground_size)
    restricted = Measure(space, nu.backend, {atom: nu.value(atom) for atom in space.atoms})
    den = restricted.atom_table[0]
    for mask in family:
        row = restricted.row(mask)
        if not row_eq(None if row is None else (row, den), nu.values[mask]):
            raise ValidationError(
                "restriction disagrees with the outer measure on a measurable set",
                witness={"set": mask_to_points(mask)},
            )
    return space, restricted


def caratheodory_report(nu: OuterMeasure,
                        expected_family: Optional[List[int]] = None) -> CheckResult:
    """The `caratheodory` check: the measurable family, its atoms and the
    restricted measure (keyed by each atom's smallest point), with the
    status of the identity suite run on the restricted measure.  It holds
    when that suite holds and, given `expected_family` (masks), the family
    is exactly the expected one."""
    space, restricted = extract_measurable_algebra(nu)
    identities = check_measure_identities(restricted)
    family = space.members()
    ok = identities.ok and (expected_family is None or sorted(expected_family) == family)
    return verdict(
        "caratheodory", ok,
        measurable_family=[mask_to_points(m) for m in family],
        atoms=[mask_to_points(a) for a in space.atoms],
        restriction_identities=identities.status,
        restricted_measure={str(min(mask_to_points(a))): ext_to_json(v)
                            for a, v in restricted.atom_values.items()})
