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

Every `OuterMeasure` comes out of one validating pass,
`validate_outer_measure` (`induce_outer` ends in it too), and holds that
pass's split record; no record is built later.  The pass runs on
one integer table (`extended.ext_rows`): the 2^n values as rows of integer
numerators over one common denominator, with None for the point at
infinity.  Positivity, monotonicity and the pair pass take that table and
its kernels from one `spaces.table_kernels` call, given the number of
visits the pass makes: on a coordinatewise backend a table of nonnegative
numerators over one denominator is packed, one int per value, and a sum is
one integer add and a <= b one add, subtract and mask test.  A Loewner
table whose distinct values make fewer pairs than the pass visits is
interned: each value is an index, and each distinct sum and each distinct
ordered pair is decided once.  Otherwise a sum is an integer add per
coordinate and a <= b one positivity test of the row b - a.  The passes
keep their loops, their pair order and their witnesses on every route, and
build no element.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import MAX_OUTER_GROUND_SIZE, Frozen, ValidationError, check_cap
from .extended import ExtElement, ext_rows, ext_to_json
from .measures import (
    MeasurableSpace,
    Measure,
    check_measure_identities,
    full_mask,
    mask_to_points,
    validate_sigma_algebra,
)
from .reports import CheckResult, verdict
from .spaces import SpaceDescriptor, table_kernels


class OuterMeasure(Frozen):
    """A total map from the power set into the extended cone, as
    `validate_outer_measure` returns it, with the split record of its pair
    pass: bit b of ``split_failures[a]`` is set when the disjoint pair
    (a, b) splits non-additively, nu(a | b) != nu(a) + nu(b)."""

    __slots__ = ("ground_size", "backend", "values", "split_failures")

    def value(self, mask: int) -> ExtElement:
        return self.values[mask]


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

    The ground size is held to its cap first, then the values are checked
    to be total, zero on the empty set and in `backend`.  Positivity,
    0 <= nu(A) in the order of `values`, monotonicity and the pair pass
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
    if values.keys() != set(masks):
        raise ValidationError("outer measure must be total on the power set")
    zero_v = values[0]
    if not (zero_v.is_finite and zero_v.finite.is_zero()):
        raise ValidationError("outer measure of the empty set must be zero",
                              witness={"empty_value": repr(zero_v)})
    if any(v.space != backend for v in values.values()):
        raise ValidationError("outer value in the wrong backend")
    size = len(masks)
    kernels = table_kernels(backend, ext_rows([values[mask] for mask in masks]),
                            size + ground_size * size // 2 + (3 ** ground_size - 1) // 2)
    table, _, leq, _ = kernels
    for mask in values:
        if not leq(table[0], table[mask]):
            raise ValidationError(
                f"outer value of {mask_to_points(mask)} is outside the positive cone",
                witness={"set": mask_to_points(mask)},
            )
    for mask in masks:
        for p in range(ground_size):
            bigger = mask | (1 << p)
            if bigger != mask and not leq(table[mask], table[bigger]):
                raise ValidationError(
                    "monotonicity violation",
                    witness={"smaller": mask_to_points(mask),
                             "larger": mask_to_points(bigger)},
                )
    return OuterMeasure(ground_size, backend, dict(values), _split_table(*kernels))


def induce_outer(mu: Measure) -> OuterMeasure:
    """Outer measure induced by a measure via smallest measurable covers.

    On a finite algebra the infimum over measurable covers is attained at
    the union of the atoms that the subset meets, so the induced outer
    measure extends the measure exactly.  Its values go through
    `validate_outer_measure`, as an explicit table does, so its split
    record is that pass's; the cap is held before any value is built.
    """
    n, cover = mu.space.ground_size, mu.space.cover
    return validate_outer_measure({mask: mu.evaluate(cover(mask)) for mask in _power_set(n)},
                                  mu.backend, n)


def caratheodory_measurable(nu: OuterMeasure, mask: int) -> bool:
    """True iff `mask` splits every test set additively (exhaustive).

    Only the test sets that meet both `mask` and its complement are
    decided, as the disjoint pairs (a, b) with a a nonempty submask of
    `mask` and b one of the complement: `mask` is measurable exactly when
    none of them is recorded in `nu.split_failures`.  Every other test set
    lies on one side and splits as itself plus the empty set, which passes
    because nu(empty) = 0, as the validating pass that built `nu` checked.
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
