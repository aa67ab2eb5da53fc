"""Families of valid outer measures for randomized suites, and the slower
measurability tests kept as oracles."""

from fractions import Fraction

import ordmeasure as om
from ordmeasure.measures import full_mask, mask_to_points


def hitting_outer(rng, ground, backend):
    """Sum of weights over a family of target sets that the subset meets."""
    full = full_mask(ground)
    targets = [
        (rng.randint(1, full), om.finite(
            om.element(backend, [Fraction(rng.randint(0, 3), rng.randint(1, 3))
                                 for _ in range(backend.ncoords)])))
        for _ in range(rng.randint(1, 3))
    ]
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
    co = mask ^ full
    for gamma in range(full + 1):
        split = om.ext_add(nu.value(gamma & mask), nu.value(gamma & co))
        if nu.value(gamma) != split:
            return False
    return True


def split_test_measurable(nu, mask):
    """Caratheodory measurability tested on the test sets that meet both
    `mask` and its complement, each split summed afresh (oracle for the
    split record behind `caratheodory_measurable`)."""
    co = mask ^ full_mask(nu.ground_size)
    a = mask
    while a:
        va, b = nu.value(a), co
        while b:
            if nu.value(a | b) != om.ext_add(va, nu.value(b)):
                return False
            b = (b - 1) & co
        a = (a - 1) & mask
    return True
