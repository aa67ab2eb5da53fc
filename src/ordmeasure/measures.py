"""Measurable spaces on finite ground sets and cone-valued measures.

Subsets of the ground set {0, .., n-1} are encoded as bitmasks.  A family
closed under complements and pairwise unions on a finite ground set is
automatically a sigma-algebra.  A space stores only its atoms (minimal
nonempty members), which partition the ground set; a set is measurable
exactly when it is a union of atoms.  A measure is stored by its atom
values alone, since finite additivity determines it everywhere else.
Values live in the extended positive cone of a backend; the value on a set
is the sum of its atoms' values, with the point at infinity absorbing.
Continuity, the Borel-Cantelli lemma and the operator bridge are checked
in `ordmeasure.measure_checks`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Sequence

from . import extended
from .errors import (
    MAX_EXHAUSTIVE_ATOMS,
    Frozen,
    ValidationError,
    check_cap,
)
from .extended import ExtElement, ext_add, ext_leq, ext_sum
from .reports import CheckResult, fails, holds
from .spaces import SpaceDescriptor


def full_mask(ground_size: int) -> int:
    return (1 << ground_size) - 1


def mask_to_points(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def points_to_mask(points: Iterable[int]) -> int:
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


class MeasurableSpace(Frozen):
    """A finite ground set with a sigma-algebra, stored by its atoms: the
    sorted bitmasks of the minimal nonempty members.

    The ``__dict__`` holds only the cached `atom_points`.
    """

    __slots__ = ("ground_size", "atoms", "__dict__")

    def __init__(self, ground_size: int, atoms: tuple):
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "atoms", atoms)

    @cached_property
    def atom_points(self) -> Dict[int, tuple]:
        """Each atom's points in increasing order, keyed by the atom, listed once."""
        return {atom: tuple(mask_to_points(atom)) for atom in self.atoms}

    def cover(self, mask: int) -> int:
        """The union of the atoms that `mask` meets: its smallest measurable cover."""
        cover = 0
        for atom in self.atoms:
            if atom & mask:
                cover |= atom
        return cover

    def __contains__(self, mask: int) -> bool:
        return self.cover(mask) == mask

    def require_measurable(self, mask: int, what: str = "set"):
        if mask not in self:
            raise ValidationError(
                f"{what} {sorted(mask_to_points(mask))} is not measurable",
                witness={"set": mask_to_points(mask)},
            )

    def atoms_inside(self, mask: int) -> List[int]:
        return [a for a in self.atoms if a & mask == a]

    def members(self) -> List[int]:
        """Every measurable set, in increasing order: the 2^k unions of atoms."""
        return sorted(_atom_unions(self.atoms))

    @property
    def sets(self) -> frozenset:  # built on each access; the benchmark's tracer counts it
        return frozenset(self.members())


def _atom_partition(ground_size: int, sets: Iterable[int]) -> tuple:
    """Partition the ground set by membership signature across the family."""
    if ground_size < 1:
        raise ValidationError(f"ground size must be positive, got {ground_size}")
    members = list(sets)
    signature: Dict[tuple, int] = {}
    for point in range(ground_size):
        sig = tuple((s >> point) & 1 for s in members)
        signature[sig] = signature.get(sig, 0) | (1 << point)
    return tuple(sorted(signature.values()))


def _atom_unions(atoms: Sequence[int]) -> List[int]:
    """All 2^k unions of the k atoms, the empty union included."""
    unions = [0]
    for atom in atoms:
        unions += [u | atom for u in unions]
    return unions


def validate_sigma_algebra(sets: Iterable[int], ground_size: int) -> MeasurableSpace:
    """Validate a family of bitmasks as a sigma-algebra, or report a witness.

    On a finite ground set it suffices that the family contains the empty
    set and the whole set and is closed under complements and pairwise
    unions.  Every member is a union of the k membership-signature blocks,
    so it is closed exactly when it has 2^k members; if not, a concrete
    union witness is searched for.
    """
    family = frozenset(sets)
    atoms = _atom_partition(ground_size, family)
    full = full_mask(ground_size)
    for s in family:
        if s < 0 or s > full:
            raise ValidationError(
                f"set {s} is outside the ground set", witness={"set": s}
            )
    if 0 not in family:
        raise ValidationError("family does not contain the empty set",
                              witness={"missing": []})
    if full not in family:
        raise ValidationError("family does not contain the ground set",
                              witness={"missing": mask_to_points(full)})
    for s in family:
        if (s ^ full) not in family:
            raise ValidationError(
                f"family not closed under complement of {mask_to_points(s)}",
                witness={"complement_of": mask_to_points(s)},
            )
    if len(family) != 1 << len(atoms):
        _raise_union_witness(family)
    return MeasurableSpace(ground_size=ground_size, atoms=atoms)


def _raise_union_witness(family: frozenset):
    members = sorted(family)
    for a in members:
        for b in members:
            if (a | b) not in family:
                raise ValidationError(
                    f"family not closed under union: "
                    f"{mask_to_points(a)} | {mask_to_points(b)} missing",
                    witness={"pair": [mask_to_points(a), mask_to_points(b)]},
                )
    raise ValidationError("family is not closed", witness=None)


def generate_sigma_algebra(generators: Iterable[int], ground_size: int) -> MeasurableSpace:
    """Close a generating family under complements and unions."""
    return MeasurableSpace(ground_size, _atom_partition(ground_size, generators))


def power_set_space(ground_size: int) -> MeasurableSpace:
    return generate_sigma_algebra([1 << i for i in range(ground_size)], ground_size)


class Measure:
    """An extended-positive-cone-valued measure stored on the atoms.

    On a finite algebra, additivity over the atom partition determines the
    measure; storing atom values eliminates redundant and possibly
    inconsistent input.  Atom values may be the point at infinity.
    """

    def __init__(self, space: MeasurableSpace, backend: SpaceDescriptor,
                 atom_values: Dict[int, ExtElement]):
        self.space = space
        self.backend = backend
        if set(atom_values) != set(space.atoms):
            raise ValidationError(
                "atom values must be given exactly on the atom partition",
                witness={"expected_atoms": [mask_to_points(a) for a in space.atoms]},
            )
        for atom, value in atom_values.items():
            if value.space != backend:
                raise ValidationError("atom value in the wrong backend")
            if not extended.is_ext_positive(value):
                raise ValidationError(
                    f"atom {mask_to_points(atom)} has a value outside the positive cone",
                    witness={"atom": mask_to_points(atom)},
                )
        self.atom_values = dict(atom_values)
        self._memo: Dict[int, ExtElement] = {}
        # integral.integrate_extended's reports, keyed by (function space, values)
        self.integral_memo: dict = {}

    def evaluate(self, mask: int) -> ExtElement:
        """Measure of a measurable set: the sum of its atoms' values."""
        if mask not in self._memo:
            self.space.require_measurable(mask)
            parts = [self.atom_values[a] for a in self.space.atoms_inside(mask)]
            self._memo[mask] = ext_sum(parts, self.backend)
        return self._memo[mask]

    @property
    def null_mask(self) -> int:
        """Union of the null atoms; the largest null set of the algebra."""
        mask = 0
        for atom, value in self.atom_values.items():
            if value.is_finite and value.finite.is_zero():
                mask |= atom
        return mask

    def is_null_exception(self, mask: int) -> bool:
        """True when `mask` is contained in a measurable null set."""
        return mask & ~self.null_mask == 0

    def is_finite(self) -> bool:
        return self.evaluate(full_mask(self.space.ground_size)).is_finite

    def classification(self) -> dict:
        # On a finite ground set a measure is sigma-finite iff it is finite:
        # any countable cover contains a finite subcover of the atoms.
        fin = self.is_finite()
        return {
            "kind": "finite" if fin else "infinite",
            "sigma_finite": fin,
        }


def require_exhaustive(space: MeasurableSpace):
    """Admit a space to a check that enumerates all pairs of its members."""
    check_cap("atoms of an exhaustive check", len(space.atoms), MAX_EXHAUSTIVE_ATOMS)


def check_measure_identities(mu: Measure, name: str = "identities") -> CheckResult:
    """Exhaustive verification of the derived measure identities.

    Over all pairs of measurable sets: monotonicity under inclusion,
    modularity, sub-additivity, and subtractivity when the subtracted set
    has finite measure.  These are theorems, so any violation reported here
    indicates an implementation bug rather than bad input.
    """
    require_exhaustive(mu.space)
    members = mu.space.members()
    violations = []
    checked = 0
    for d1 in members:
        v1 = mu.evaluate(d1)
        for d2 in members:
            v2 = mu.evaluate(d2)
            checked += 1
            if d1 & d2 == d1 and not ext_leq(v1, v2):
                violations.append({"identity": "monotonicity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            lhs = ext_add(v1, v2)
            rhs = ext_add(mu.evaluate(d1 & d2), mu.evaluate(d1 | d2))
            if lhs != rhs:
                violations.append({"identity": "modularity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            if not ext_leq(mu.evaluate(d1 | d2), lhs):
                violations.append({"identity": "sub-additivity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            if d2 & d1 == d2 and v2.is_finite:
                diff = mu.evaluate(d1 & ~d2)
                if diff != extended.ext_sub_finite(v1, v2):
                    violations.append({"identity": "subtractivity",
                                       "pair": [mask_to_points(d1), mask_to_points(d2)]})
    if violations:
        return fails(name, violations=violations, pairs_checked=checked)
    return holds(name, pairs_checked=checked,
                 classification=mu.classification())
