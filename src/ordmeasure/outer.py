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
is summed once, not once for every set that separates it.

Every exhaustive pass runs on one integer table (`extended.ext_rows`): the
2^n values as rows of integer numerators over one common denominator, with
None for the point at infinity.  Positivity is one test of each row
(`spaces.row_leq`).  Monotonicity and the pair pass then take the table and
its kernels from `spaces.table_kernels`, given the number of pairs the
pass visits: on a coordinatewise backend a table of nonnegative numerators
over one denominator is packed, one int per value, and a sum is one integer
add and a <= b one add, subtract and mask test.  A Loewner table whose
distinct values make fewer pairs than the pass visits is interned: each
value is an index, and each distinct sum and each distinct ordered pair is
decided once.  Otherwise a sum is an integer add per coordinate and a <= b
one positivity test of the row b - a.  The passes keep their loops, their
pair order and their witnesses on every route, and build no element.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

from .errors import MAX_OUTER_GROUND_SIZE, ValidationError, check_cap
from .extended import ExtElement, ext_rows, ext_to_json
from .measures import (
    MeasurableSpace,
    Measure,
    check_measure_identities,
    full_mask,
    mask_to_points,
    validate_sigma_algebra,
)
from .reports import CheckResult
from .spaces import SpaceDescriptor, row_leq, table_kernels


class OuterMeasure:
    """A validated total map from the power set into the extended cone."""

    def __init__(self, ground_size: int, backend: SpaceDescriptor,
                 values: Dict[int, ExtElement]):
        self.ground_size = check_cap("outer measure ground size", ground_size,
                                     MAX_OUTER_GROUND_SIZE)
        self.backend = backend
        self.values = dict(values)

    def value(self, mask: int) -> ExtElement:
        return self.values[mask]

    @cached_property
    def split_failures(self) -> List[int]:
        """Bitsets over the power set: bit b of entry a is set when the
        disjoint pair (a, b) splits non-additively, nu(a | b) != nu(a) + nu(b).

        `validate_outer_measure` stores the table of its own pair pass; an
        induced outer measure builds it here, on first use."""
        return _split_table(*table_kernels(self.backend,
                                           _table(self.values, self.ground_size),
                                           _disjoint_pairs(self.ground_size)))


def _table(values: Dict[int, ExtElement], ground_size: int) -> list:
    """The integer rows of the 2^n values, indexed by mask."""
    return ext_rows([values[mask] for mask in range(full_mask(ground_size) + 1)])


def _disjoint_pairs(ground_size: int) -> int:
    """The (3^n - 1)/2 unordered disjoint pairs a < b of the pair pass."""
    return (3 ** ground_size - 1) // 2


def _split_table(values: list, add, leq, eq) -> List[int]:
    """Decide every unordered disjoint pair a < b once on the table `values`
    with its kernels (`spaces.table_kernels`): test sub-additivity,
    nu(a | b) <= nu(a) + nu(b), and record in both a's and b's bitset the
    pairs where the two sides differ.  A violation raises with the pair as
    its witness.  (3^n - 1)/2 sums and order tests."""
    full = len(values) - 1
    failures = [0] * len(values)
    for a in range(full + 1):
        rest, va = full ^ a, values[a]
        b = rest
        while b > a:
            joint, split = values[a | b], add(va, values[b])
            if not leq(joint, split):
                raise ValidationError(
                    "sub-additivity violation",
                    witness={"pair": [mask_to_points(a), mask_to_points(b)]},
                )
            if not eq(joint, split):
                failures[a] |= 1 << b
                failures[b] |= 1 << a
            b = (b - 1) & rest
    return failures


def validate_outer_measure(values: Dict[int, ExtElement], backend: SpaceDescriptor,
                           ground_size: int) -> OuterMeasure:
    """Check the outer-measure axioms exhaustively and return the object.

    Positivity is decided on the integer rows, and monotonicity and the
    pair pass on the table of `spaces.table_kernels` built after it, for
    their n 2^(n-1) + (3^n - 1)/2 visits; the table and its memos are
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
    nu = OuterMeasure(ground_size, backend, values)
    full = full_mask(ground_size)
    if set(values) != set(range(full + 1)):
        raise ValidationError("outer measure must be total on the power set")
    zero_v = values[0]
    if not (zero_v.is_finite and zero_v.finite.is_zero()):
        raise ValidationError("outer measure of the empty set must be zero",
                              witness={"empty_value": repr(zero_v)})
    rows, zero = _table(values, ground_size), ((0,) * backend.ncoords, 1)
    for mask, v in values.items():
        if v.space != backend:
            raise ValidationError("outer value in the wrong backend")
        if not row_leq(backend, zero, rows[mask]):
            raise ValidationError(
                f"outer value of {mask_to_points(mask)} is outside the positive cone",
                witness={"set": mask_to_points(mask)},
            )
    kernels = table_kernels(backend, rows, ground_size * (full + 1) // 2
                            + _disjoint_pairs(ground_size))
    table, _, leq, _ = kernels
    for mask in range(full + 1):
        for p in range(ground_size):
            bigger = mask | (1 << p)
            if bigger != mask and not leq(table[mask], table[bigger]):
                raise ValidationError(
                    "monotonicity violation",
                    witness={"smaller": mask_to_points(mask),
                             "larger": mask_to_points(bigger)},
                )
    nu.split_failures = _split_table(*kernels)
    return nu


def induce_outer(mu: Measure) -> OuterMeasure:
    """Outer measure induced by a measure via smallest measurable covers.

    On a finite algebra the infimum over measurable covers is attained at
    the union of the atoms that the subset meets, so the induced outer
    measure extends the measure exactly.
    """
    nu = OuterMeasure(mu.space.ground_size, mu.backend, {})
    for mask in range(full_mask(nu.ground_size) + 1):
        nu.values[mask] = mu.evaluate(mu.space.cover(mask))
    return nu


def caratheodory_measurable(nu: OuterMeasure, mask: int) -> bool:
    """True iff `mask` splits every test set additively (exhaustive).

    Only the test sets that meet both `mask` and its complement are
    decided, as the disjoint pairs (a, b) with a a nonempty submask of
    `mask` and b one of the complement: `mask` is measurable exactly when
    none of them is recorded in `nu.split_failures`.  Every other test set
    lies on one side and splits as itself plus the empty set, which passes
    because nu(empty) = 0: an `OuterMeasure` is built only by
    `validate_outer_measure`, which checks that value, or by `induce_outer`,
    whose empty cover has measure zero.
    """
    co = mask ^ full_mask(nu.ground_size)
    partners = 0  # bit b set for every nonempty submask b of the complement
    for p in mask_to_points(co):
        partners |= (partners << (1 << p)) | (1 << (1 << p))
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
    must agree with the outer measure on it; both are verified, and a
    failure of either is an implementation bug, not a property of the input.
    """
    full = full_mask(nu.ground_size)
    family = [mask for mask in range(full + 1) if caratheodory_measurable(nu, mask)]
    space = validate_sigma_algebra(family, nu.ground_size)
    atom_values = {atom: nu.value(atom) for atom in space.atoms}
    restricted = Measure(space, nu.backend, atom_values)
    for mask in family:
        if restricted.evaluate(mask) != nu.value(mask):
            raise ValidationError(
                "restriction disagrees with the outer measure on a measurable set",
                witness={"set": mask_to_points(mask)},
            )
    return space, restricted


def caratheodory_report(nu: OuterMeasure) -> Tuple[dict, CheckResult]:
    """The Caratheodory report of an outer measure, and the identity suite
    run on its restricted measure (keyed in the report by smallest point)."""
    space, restricted = extract_measurable_algebra(nu)
    identities = check_measure_identities(restricted)
    report = {
        "measurable_family": [mask_to_points(m) for m in space.members()],
        "atoms": [mask_to_points(a) for a in space.atoms],
        "restriction_identities": identities.status,
        "restricted_measure": {
            str(min(mask_to_points(a))): ext_to_json(v)
            for a, v in restricted.atom_values.items()
        },
    }
    return report, identities
