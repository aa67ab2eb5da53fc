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
"""

from __future__ import annotations

from typing import Dict, Tuple

from . import extended
from .errors import MAX_OUTER_GROUND_SIZE, ValidationError, check_cap
from .extended import ExtElement, ext_add, ext_leq, ext_to_json
from .measures import (
    MeasurableSpace,
    Measure,
    check_measure_identities,
    full_mask,
    mask_to_points,
    validate_sigma_algebra,
)
from .reports import CheckResult
from .spaces import SpaceDescriptor


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


def validate_outer_measure(values: Dict[int, ExtElement], backend: SpaceDescriptor,
                           ground_size: int) -> OuterMeasure:
    """Check the outer-measure axioms exhaustively and return the object.

    Monotonicity is checked along single-point extensions (which implies it
    for arbitrary inclusions by chaining).  Sub-additivity is then checked
    on the disjoint pairs a < b only, b running over the submasks of the
    complement of a: (3^n - 1)/2 order tests.  That suffices, since for any
    a and b

        nu(a | b) = nu(a | (b - a)) <= nu(a) + nu(b - a) <= nu(a) + nu(b),

    where the first inequality is the disjoint case and the second uses
    monotonicity, nu(b - a) <= nu(b), and the compatibility of `ext_add`
    with the order.  Axiom violations carry witness sets; a sub-additivity
    witness is a disjoint violating pair.
    """
    nu = OuterMeasure(ground_size, backend, values)
    full = full_mask(ground_size)
    if set(values) != set(range(full + 1)):
        raise ValidationError("outer measure must be total on the power set")
    zero_v = values[0]
    if not (zero_v.is_finite and zero_v.finite.is_zero()):
        raise ValidationError("outer measure of the empty set must be zero",
                              witness={"empty_value": repr(zero_v)})
    for mask, v in values.items():
        if v.space != backend:
            raise ValidationError("outer value in the wrong backend")
        if not extended.is_ext_positive(v):
            raise ValidationError(
                f"outer value of {mask_to_points(mask)} is outside the positive cone",
                witness={"set": mask_to_points(mask)},
            )
    for mask in range(full + 1):
        for p in range(ground_size):
            bigger = mask | (1 << p)
            if bigger != mask and not ext_leq(values[mask], values[bigger]):
                raise ValidationError(
                    "monotonicity violation",
                    witness={"smaller": mask_to_points(mask),
                             "larger": mask_to_points(bigger)},
                )
    for a in range(full + 1):
        rest, va = full ^ a, values[a]
        b = rest
        while b > a:
            if not ext_leq(values[a | b], ext_add(va, values[b])):
                raise ValidationError(
                    "sub-additivity violation",
                    witness={"pair": [mask_to_points(a), mask_to_points(b)]},
                )
            b = (b - 1) & rest
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
    enumerated, as a | b with a a nonempty submask of `mask` and b one of
    the complement, largest first, so the whole ground set comes first.
    Every other test set lies on one side and splits as itself plus the
    empty set, which passes because nu(empty) = 0: an `OuterMeasure` is
    built only by `validate_outer_measure`, which checks that value, or by
    `induce_outer`, whose empty cover has measure zero.
    """
    co = mask ^ full_mask(nu.ground_size)
    a = mask
    while a:
        va, b = nu.value(a), co
        while b:
            if nu.value(a | b) != ext_add(va, nu.value(b)):
                return False
            b = (b - 1) & co
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
