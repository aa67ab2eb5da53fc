"""Families of valid outer measures for randomized suites, and the slower
methods kept as oracles: measurability tests, and the outer-measure axioms,
split record, set evaluation and measure identities decided on Fraction
coordinates (`frac_ext_add`, `frac_ext_leq`, `frac_sub`) rather than on the
library's integer table and row kernels."""

from fractions import Fraction

from conftest import random_positive_element
from integral_oracles import frac_ext, frac_ext_add, frac_ext_leq, frac_sub, frac_to_ext

import ordmeasure as om
from ordmeasure.errors import ValidationError
from ordmeasure.measures import full_mask, mask_to_points, require_exhaustive
from ordmeasure.reports import verdict
from ordmeasure.spaces import SpaceKind


def hitting_outer(rng, ground, backend):
    """Sum of weights over a family of target sets that the subset meets;
    a Loewner weight is B^T B."""

    def weight():
        if backend.kind is SpaceKind.LOEWNER_SYM:
            return random_positive_element(rng, backend)
        return om.element(backend, [Fraction(rng.randint(0, 3), rng.randint(1, 3))
                                    for _ in range(backend.ncoords)])

    full = full_mask(ground)
    targets = [(rng.randint(1, full), om.finite(weight()))
               for _ in range(rng.randint(1, 3))]
    values = {}
    for mask in range(full + 1):
        total = om.finite(om.zero(backend))
        for target, weight in targets:
            if mask & target:
                total = om.ext_add(total, weight)
        values[mask] = total
    return om.validate_outer_measure(values, backend, ground)


def pointwise_sup_outer(rng, ground, backend):
    """Coordinatewise supremum of per-point weights over the subset."""
    weights = [
        om.element(backend, [Fraction(rng.randint(0, 3), rng.randint(1, 2))
                             for _ in range(backend.ncoords)])
        for _ in range(ground)
    ]
    values = {0: om.finite(om.zero(backend))}
    for mask in range(1, full_mask(ground) + 1):
        acc = om.zero(backend)
        for p in mask_to_points(mask):
            acc = om.sup_pair(acc, weights[p])
        values[mask] = om.finite(acc)
    return om.validate_outer_measure(values, backend, ground)


def constant_outer(rng, ground, backend):
    """Zero on the empty set, one fixed positive value on everything else."""
    c = om.finite(om.element(
        backend, [Fraction(rng.randint(1, 3)) for _ in range(backend.ncoords)]))
    values = {0: om.finite(om.zero(backend))}
    for mask in range(1, full_mask(ground) + 1):
        values[mask] = c
    return om.validate_outer_measure(values, backend, ground)


def null_sets(nu):
    """The masks whose outer value is zero."""
    for mask in range(full_mask(nu.ground_size) + 1):
        v = nu.value(mask)
        if v.is_finite and v.finite.is_zero():
            yield mask


def full_test_set_measurable(nu, mask):
    """Caratheodory measurability tested on all 2^n test sets (oracle for
    `caratheodory_measurable`)."""
    full = full_mask(nu.ground_size)
    co, values = mask ^ full, [frac_ext(nu.value(m)) for m in range(full + 1)]
    return all(values[gamma] == frac_ext_add(values[gamma & mask], values[gamma & co])
               for gamma in range(full + 1))


def split_test_measurable(nu, mask):
    """Caratheodory measurability tested on the test sets that meet both
    `mask` and its complement, each split summed afresh (oracle for the
    split record behind `caratheodory_measurable`)."""
    co = mask ^ full_mask(nu.ground_size)
    a = mask
    while a:
        va, b = frac_ext(nu.value(a)), co
        while b:
            if frac_ext(nu.value(a | b)) != frac_ext_add(va, frac_ext(nu.value(b))):
                return False
            b = (b - 1) & co
        a = (a - 1) & mask
    return True


def ext_split_table(values, ground_size):
    """The split record of `outer.OuterMeasure.split_failures`, each disjoint
    pair summed with `frac_ext_add` and ordered with `frac_ext_leq` (oracle
    for the integer pair pass)."""
    full, backend = full_mask(ground_size), values[0].space
    coords = {mask: frac_ext(v) for mask, v in values.items()}
    failures = [0] * (full + 1)
    for a in range(full + 1):
        rest, va = full ^ a, coords[a]
        b = rest
        while b > a:
            joint, split = coords[a | b], frac_ext_add(va, coords[b])
            if not frac_ext_leq(backend, joint, split):
                raise ValidationError(
                    "sub-additivity violation",
                    witness={"pair": [mask_to_points(a), mask_to_points(b)]},
                )
            if joint != split:
                failures[a] |= 1 << b
                failures[b] |= 1 << a
            b = (b - 1) & rest
    return failures


def ext_validate_outer_measure(values, backend, ground_size):
    """`outer.validate_outer_measure` on Fraction coordinates, in the same
    order and with the same messages and witnesses; returns the split
    record (oracle for the integer table)."""
    full = full_mask(ground_size)
    if set(values) != set(range(full + 1)):
        raise ValidationError("outer measure must be total on the power set")
    zero_v = values[0]
    if not (zero_v.is_finite and zero_v.finite.is_zero()):
        raise ValidationError("outer measure of the empty set must be zero",
                              witness={"empty_value": repr(zero_v)})
    if any(v.space != backend for v in values.values()):
        raise ValidationError("outer value in the wrong backend")
    zero = (Fraction(0),) * backend.ncoords
    for mask, v in values.items():
        if not frac_ext_leq(backend, zero, frac_ext(v)):
            raise ValidationError(
                f"outer value of {mask_to_points(mask)} is outside the positive cone",
                witness={"set": mask_to_points(mask)},
            )
    for mask in range(full + 1):
        for p in range(ground_size):
            bigger = mask | (1 << p)
            if bigger != mask and not frac_ext_leq(backend, frac_ext(values[mask]),
                                                   frac_ext(values[bigger])):
                raise ValidationError(
                    "monotonicity violation",
                    witness={"smaller": mask_to_points(mask),
                             "larger": mask_to_points(bigger)},
                )
    return ext_split_table(values, ground_size)


def ext_sum_evaluate(mu, mask):
    """The measure of a measurable set as the pairwise `frac_ext_add` fold of
    its atoms' values (oracle for `Measure.evaluate`)."""
    mu.space.require_measurable(mask)
    total = (Fraction(0),) * mu.backend.ncoords
    for atom in mu.space.atoms_inside(mask):
        total = frac_ext_add(total, frac_ext(mu.atom_values[atom]))
    return frac_to_ext(mu.backend, total)


def ext_measure_identities(mu):
    """`measures.check_measure_identities` with every pair decided on the
    Fraction coordinates of `mu.evaluate` (oracle for the integer table)."""
    require_exhaustive(mu.space)
    members, backend = mu.space.members(), mu.backend
    values = {d: frac_ext(mu.evaluate(d)) for d in members}
    violations = []
    checked = 0
    for d1 in members:
        v1 = values[d1]
        for d2 in members:
            v2 = values[d2]
            checked += 1
            if d1 & d2 == d1 and not frac_ext_leq(backend, v1, v2):
                violations.append({"identity": "monotonicity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            lhs = frac_ext_add(v1, v2)
            if lhs != frac_ext_add(values[d1 & d2], values[d1 | d2]):
                violations.append({"identity": "modularity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            if not frac_ext_leq(backend, values[d1 | d2], lhs):
                violations.append({"identity": "sub-additivity",
                                   "pair": [mask_to_points(d1), mask_to_points(d2)]})
            if d2 & d1 == d2 and v2 is not None:
                if values[d1 & ~d2] != (None if v1 is None else frac_sub(v1, v2)):
                    violations.append({"identity": "subtractivity",
                                       "pair": [mask_to_points(d1), mask_to_points(d2)]})
    if violations:
        return verdict("identities", False, violations=violations, pairs_checked=checked)
    return verdict("identities", True, pairs_checked=checked,
                   classification=mu.classification())
