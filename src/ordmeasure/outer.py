"""Cone-valued outer measures and the Caratheodory construction.

An outer measure is a total assignment on the power set of the ground set:
zero on the empty set, monotone, and sub-additive.  Countable unions of
subsets of a finite set are finite unions, so sigma-sub-additivity reduces
to the pairwise case (finite sub-additivity then follows by induction).

A set D is Caratheodory measurable when it splits every test set
additively; the measurable sets always form a sigma-algebra, and restricting
the outer measure to it yields a measure.  Both facts are verified
exhaustively here rather than assumed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from . import extended
from .errors import DimensionLimitError, ValidationError
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

MAX_OUTER_GROUND_SIZE = 12


class OuterMeasure:
    """A validated total map from the power set into the extended cone."""

    def __init__(self, ground_size: int, backend: SpaceDescriptor,
                 values: Dict[int, ExtElement]):
        self.ground_size = ground_size
        self.backend = backend
        self.values = dict(values)

    def value(self, mask: int) -> ExtElement:
        return self.values[mask]


def validate_outer_measure(values: Dict[int, ExtElement], backend: SpaceDescriptor,
                           ground_size: int) -> OuterMeasure:
    """Check the outer-measure axioms exhaustively and return the object.

    Monotonicity is checked along single-point extensions (which implies it
    for arbitrary inclusions by chaining) and sub-additivity over all pairs.
    Axiom violations carry witness sets.
    """
    if not 1 <= ground_size <= MAX_OUTER_GROUND_SIZE:
        raise DimensionLimitError(
            f"outer measures support ground size 1..{MAX_OUTER_GROUND_SIZE}, "
            f"got {ground_size}"
        )
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
        for b in range(a, full + 1):
            if not ext_leq(values[a | b], ext_add(values[a], values[b])):
                raise ValidationError(
                    "sub-additivity violation",
                    witness={"pair": [mask_to_points(a), mask_to_points(b)]},
                )
    return OuterMeasure(ground_size, backend, values)


def induce_outer(mu: Measure) -> OuterMeasure:
    """Outer measure induced by a measure via smallest measurable covers.

    On a finite algebra the infimum over measurable covers is attained at
    the union of the atoms that the subset meets, so the induced outer
    measure extends the measure exactly.
    """
    n = mu.space.ground_size
    if n > MAX_OUTER_GROUND_SIZE:
        raise DimensionLimitError(
            f"outer measures support ground size <= {MAX_OUTER_GROUND_SIZE}"
        )
    values: Dict[int, ExtElement] = {}
    for mask in range(full_mask(n) + 1):
        cover = 0
        for atom in mu.space.atoms:
            if atom & mask:
                cover |= atom
        values[mask] = mu.evaluate(cover)
    return OuterMeasure(n, mu.backend, values)


def caratheodory_measurable(nu: OuterMeasure, mask: int) -> bool:
    """True iff `mask` splits every test set additively (exhaustive)."""
    full = full_mask(nu.ground_size)
    co = mask ^ full
    for gamma in range(full + 1):
        split = ext_add(nu.value(gamma & mask), nu.value(gamma & co))
        if nu.value(gamma) != split:
            return False
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


def null_sets(nu: OuterMeasure) -> Iterable[int]:
    for mask in range(full_mask(nu.ground_size) + 1):
        v = nu.value(mask)
        if v.is_finite and v.finite.is_zero():
            yield mask
