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

import math
from functools import cached_property
from typing import Dict, Iterable, List, Sequence

from . import extended
from .errors import (
    MAX_EXHAUSTIVE_ATOMS,
    Frozen,
    ValidationError,
    check_cap,
)
from .extended import ExtElement, ext_rows
from .reports import CheckResult, verdict
from .spaces import SpaceDescriptor, table_kernels


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
                    witness={"set": mask_to_points(atom)},
                )
        self.atom_values = dict(atom_values)
        self._memo: Dict[int, ExtElement] = {}
        # the two-route integrals' reports, keyed by a function's (nums, den, inf)
        self.integral_memo: dict = {}

    @cached_property
    def atom_table(self) -> tuple:
        """The atom values as one integer table, built on first use:
        ``(D, rows)``, where D is the lcm of the finite atom values'
        denominators and `rows` holds, for each atom in order, its first
        point and its value's integer numerators over D, or None for an
        infinite atom.  The truncation ladder of `ordmeasure.integral` sums
        its rungs on it."""
        values = [(points[0], self.atom_values[atom].finite)
                  for atom, points in self.space.atom_points.items()]
        den = math.lcm(*(v.den for _, v in values if v is not None))
        return den, tuple((x, None if v is None else
                           tuple([n * (den // v.den) for n in v.nums]))
                          for x, v in values)

    def row(self, mask: int):
        """The numerators over the atom table's D of the sum of the values
        of the atoms inside `mask`, or None when one of them is infinite."""
        rows = [r for atom, (_, r) in zip(self.space.atoms, self.atom_table[1])
                if atom & mask == atom]
        if None in rows:
            return None
        return tuple(map(sum, zip((0,) * self.backend.ncoords, *rows)))

    def evaluate(self, mask: int) -> ExtElement:
        """Measure of a measurable set: its `row` over D, or infinity."""
        if mask not in self._memo:
            self.space.require_measurable(mask)
            row = self.row(mask)
            self._memo[mask] = extended.from_row(
                self.backend, None if row is None else (row, self.atom_table[0]))
        return self._memo[mask]

    @cached_property
    def null_mask(self) -> int:
        """Union of the null atoms; the largest null set of the algebra."""
        return sum(atom for atom, (_, r) in zip(self.space.atoms, self.atom_table[1])
                   if r is not None and not any(r))  # the atoms are disjoint

    def is_null_exception(self, mask: int) -> bool:
        """True when `mask` is contained in a measurable null set."""
        return mask & ~self.null_mask == 0

    @cached_property
    def is_finite(self) -> bool:
        """Whether no atom, so no set, has infinite measure."""
        return all(r is not None for _, r in self.atom_table[1])

    def classification(self) -> dict:
        # On a finite ground set a measure is sigma-finite iff it is finite:
        # any countable cover contains a finite subcover of the atoms.
        fin = self.is_finite
        return {
            "kind": "finite" if fin else "infinite",
            "sigma_finite": fin,
        }


def require_exhaustive(space: MeasurableSpace):
    """Admit a space to a check that enumerates all pairs of its members."""
    check_cap("atoms of an exhaustive check", len(space.atoms), MAX_EXHAUSTIVE_ATOMS)


def check_measure_identities(mu: Measure) -> CheckResult:
    """Exhaustive verification of the derived measure identities.

    Over all pairs of measurable sets: monotonicity under inclusion,
    modularity, sub-additivity, and subtractivity when the subtracted set
    has finite measure.  These are theorems, so any violation reported here
    indicates an implementation bug rather than bad input.

    The measure is evaluated once on each of the 2^k members, and the pairs
    are decided on those values as one integer table (`extended.ext_rows`:
    integer numerators over one common denominator, None for infinity),
    with the kernels of `spaces.table_kernels` for its 4^k visits: on a
    coordinatewise backend a table of nonnegative numerators is packed, one
    int per value; a Loewner table whose distinct values make fewer than
    4^k pairs is interned, so that each distinct sum and ordered pair is
    decided once; otherwise a sum is an integer add per coordinate and an
    order test one positivity test of a difference row.  No element is
    built per pair.
    Subtractivity is decided as mu(D1 - D2) + mu(D2) = mu(D1), the same
    statement as mu(D1 - D2) = mu(D1) - mu(D2) when mu(D2) is finite, so
    the kernels need no difference.
    """
    require_exhaustive(mu.space)
    members = mu.space.members()
    values, add, leq, eq = table_kernels(mu.backend,
                                         ext_rows([mu.evaluate(m) for m in members]),
                                         len(members) ** 2)
    row = dict(zip(members, values))
    violations = []
    for d1 in members:
        v1 = row[d1]
        for d2 in members:
            v2 = row[d2]
            if d1 & d2 == d1 and not leq(v1, v2):
                violations.append({"identity": "monotonicity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            lhs = add(v1, v2)
            if not eq(lhs, add(row[d1 & d2], row[d1 | d2])):
                violations.append({"identity": "modularity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            if not leq(row[d1 | d2], lhs):
                violations.append({"identity": "sub-additivity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            if d2 & d1 == d2 and v2 is not None:
                if not eq(add(row[d1 & ~d2], v2), v1):
                    violations.append({"identity": "subtractivity",
                                       "pair": [mask_to_points(d1), mask_to_points(d2)]})
    checked = len(members) ** 2
    if violations:
        return verdict("identities", False, violations=violations, pairs_checked=checked)
    return verdict("identities", True, pairs_checked=checked,
                   classification=mu.classification())
