"""Continuity of a measure, the Borel-Cantelli lemma and the operator bridge,
loaded by the checks that run them.

Each check takes a measure of `ordmeasure.measures` and a sequence or list
of measurable sets, and decides its statement exactly from the tail that
a set sequence declares (`sequences.declared_cycle`): a monotone one
stabilizes, and a periodic one has exactly computable tail unions.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import accumulate
from typing import Optional, Sequence

from . import extended
from .errors import CertificationError, HypothesisError, ValidationError
from .extended import ext_add, ext_leq, ext_sum, ext_to_json, ext_zero
from .measures import Measure, mask_to_points
from .reports import CheckResult, verdict, word
from .sequences import SequenceSpec, declared_cycle
from .spaces import Element, SpaceKind


def _continuity(name: str, mu: Measure, seq: SequenceSpec, horizon: Optional[int],
                increasing: bool) -> CheckResult:
    """Continuity of the measure in the direction `increasing` names: the
    values of increasing (decreasing) sets reach the measure of their union
    (intersection), the sum of the atom values under it.  Increasing values
    are tested before the sets stabilize; decreasing needs a finite first
    value, which is tested first.  The sets must declare where they
    stabilize: a declared period above 1 is not monotone."""
    sets = seq.sample(horizon)
    direction = "increasing" if increasing else "decreasing"
    for n in range(1, len(sets)):
        inner, outer = (sets[n - 1], sets[n]) if increasing else (sets[n], sets[n - 1])
        if inner & outer != inner:
            raise CertificationError(f"set sequence not {direction} at n={n}")
    values = [mu.evaluate(s) for s in sets]
    if increasing:
        for n in range(1, len(values)):
            if not ext_leq(values[n - 1], values[n]):
                return verdict(name, False, reason="values not increasing", index=n)
    elif values[0].is_infinite:
        raise HypothesisError("continuity from above requires the first set to have "
                              "finite measure")
    _, pre, period = declared_cycle(seq, horizon)
    if period > 1:
        raise CertificationError(f"set sequence not {direction}: it declares period {period}")
    # The limit set is the declared final set; its value is summed from its
    # atoms rather than read from `evaluate`, so that the comparison can fail.
    limit = sets[pre]
    limit_value = ext_sum([mu.atom_values[a] for a in mu.space.atoms_inside(limit)],
                          mu.backend)
    limit_key, bound_key = (("union", "sup_of_values") if increasing
                            else ("intersection", "inf_of_values"))
    if values[-1] == limit_value:
        return verdict(name, True, **{limit_key: mask_to_points(limit),
                                      "value": ext_to_json(limit_value)})
    return verdict(name, False, **{bound_key: ext_to_json(values[-1]),
                                   f"{limit_key}_value": ext_to_json(limit_value)})


def continuity_from_below(mu: Measure, seq: SequenceSpec,
                          horizon: Optional[int] = None) -> CheckResult:
    """Increasing sets: the supremum of the values equals the measure of the union."""
    return _continuity("continuity_below", mu, seq, horizon, increasing=True)


def continuity_from_above(mu: Measure, seq: SequenceSpec,
                          horizon: Optional[int] = None) -> CheckResult:
    """Decreasing sets with a finite first value: values decrease to the
    measure of the intersection.  The finiteness hypothesis is essential."""
    return _continuity("continuity_above", mu, seq, horizon, increasing=False)


def borel_cantelli(mu: Measure, seq: SequenceSpec, x: Optional[Element] = None,
                   horizon: Optional[int] = None) -> CheckResult:
    """Both halves of the Borel-Cantelli lemma on a sequence of sets that
    declares its cycle (`declared_cycle`).

    Part one applies when the partial sums of the values stay finite, which
    on an eventually periodic sequence means every set in the cycle is null;
    the limit superior set must then be null.  Part two applies when the
    union minus the limit superior set has finite measure and a uniform
    lower bound x for the values is supplied; the limit superior set must
    then carry at least x.
    """
    sets, pre, period = declared_cycle(seq, horizon)
    union_all = reduce(operator.or_, sets, 0)
    gamma = reduce(operator.or_, sets[pre:pre + period], 0)  # every tail's union, eventually
    details: dict = {"limsup_set": mask_to_points(gamma)}

    cycle_values = [mu.evaluate(s) for s in sets[pre:pre + period]]
    pre_values = [mu.evaluate(s) for s in sets[:pre]]
    sums_finite = (
        all(v.is_finite for v in pre_values)
        and all(v.is_finite and v.finite.is_zero() for v in cycle_values)
    )
    if sums_finite:
        total = ext_sum(pre_values, mu.backend)
        details["partial_sum_bound"] = ext_to_json(total)
        gamma_value = mu.evaluate(gamma)
        part1 = gamma_value.is_finite and gamma_value.finite.is_zero()
        details["part1"] = word(part1)
        if not part1:
            return verdict("borel_cantelli", False, **details)
    else:
        details["part1"] = "not-applicable: partial sums not certified finite"

    if x is not None:
        rest = mu.evaluate(union_all & ~gamma)
        if not rest.is_finite:
            raise HypothesisError(
                "borel-cantelli part two requires the union minus the limsup "
                "set to have finite measure"
            )
        bound = extended.finite(x)
        for n, s in enumerate(sets, start=1):
            if not ext_leq(bound, mu.evaluate(s)):
                raise HypothesisError(
                    f"lower bound x is not below the value of set {n}"
                )
        part2 = ext_leq(bound, mu.evaluate(gamma))
        details["part2"] = word(part2)
        if not part2:
            return verdict("borel_cantelli", False, **details)
    else:
        details["part2"] = "not-applicable: no lower bound supplied"
    return verdict("borel_cantelli", True, **details)


def operator_measure_bridge(mu: Measure, disjoint_sets: Sequence[int]) -> CheckResult:
    """Order sigma-additivity versus vector-wise evaluation for matrix backends.

    For a finite-valued measure on a matrix backend, the supremum of the
    increasing partial sums must equal the measure of the union, and for
    every standard basis vector the partial-sum applications must reach the
    union's application exactly; in finite dimension the strong operator
    topology is entrywise, so both routes are exact finite computations.
    """
    if mu.backend.kind not in (SpaceKind.ENTRYWISE_MAT, SpaceKind.LOEWNER_SYM):
        raise HypothesisError(
            "the operator bridge needs a matrix-typed backend "
            f"(got {mu.backend.describe()})"
        )
    if not mu.is_finite:
        raise HypothesisError("the operator bridge requires a finite measure")
    union = 0
    for s in disjoint_sets:
        mu.space.require_measurable(s)
        if s & union:
            raise ValidationError("sets are not pairwise disjoint",
                                  witness={"overlap": mask_to_points(s & union)})
        union |= s
    values = [mu.evaluate(s) for s in disjoint_sets]

    partials = list(accumulate(values, ext_add, initial=ext_zero(mu.backend)))
    if not all(map(ext_leq, partials, partials[1:])):
        return verdict("bridge", False, reason="partial sums not increasing")
    union_value = mu.evaluate(union)
    order_ok = partials[-1] == union_value

    if mu.backend.kind is SpaceKind.LOEWNER_SYM:
        nrows = ncols = mu.backend.dim
    else:
        nrows, ncols = mu.backend.rows, mu.backend.cols
    # A matrix applied to the basis vector e_j is its j-th column.
    target = union_value.payload()
    vector_ok = all(sum(v.payload().entry(i, j) for v in values) == target.entry(i, j)
                    for j in range(ncols) for i in range(nrows))
    if order_ok and vector_ok:
        return verdict("bridge", True, union=mask_to_points(union), partial_sums=len(values))
    return verdict("bridge", False, order_route=order_ok, vector_route=vector_ok)
