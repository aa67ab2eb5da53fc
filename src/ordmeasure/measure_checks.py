"""Continuity of a measure, the Borel-Cantelli lemma and the operator bridge,
loaded by the checks that run them.

Each check takes a measure of `ordmeasure.measures` and a sequence or list
of measurable sets, and decides its statement exactly: increasing and
decreasing set sequences stabilize on a finite ground set, and an
eventually periodic one has exactly computable tail unions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import extended
from .errors import CertificationError, HypothesisError, ValidationError
from .extended import ext_add, ext_leq, ext_sum, ext_to_json, ext_zero
from .measures import Measure, full_mask, mask_to_points
from .reports import CheckResult, fails, holds
from .sequences import SequenceSpec, detect_cycle, detect_stable_tail
from .spaces import Element, SpaceKind


def continuity_from_below(mu: Measure, seq: SequenceSpec,
                          horizon: Optional[int] = None) -> CheckResult:
    """Increasing sets: the supremum of the values equals the measure of the union."""
    sets = seq.sample(horizon)
    for n in range(1, len(sets)):
        if sets[n - 1] & sets[n] != sets[n - 1]:
            raise CertificationError(f"set sequence not increasing at n={n}")
    union = 0
    for s in sets:
        union |= s
    values = [mu.evaluate(s) for s in sets]
    for n in range(1, len(values)):
        if not ext_leq(values[n - 1], values[n]):
            return fails("continuity_below", reason="values not increasing",
                         index=n)
    # Increasing sets on a finite ground set stabilize inside the window.
    stable = detect_stable_tail(sets)
    if stable is None and len(sets) > 1:
        raise CertificationError("set sequence did not stabilize within horizon")
    sup_of_values = values[-1]
    union_value = mu.evaluate(union)
    if sup_of_values == union_value:
        return holds("continuity_below",
                     union=mask_to_points(union),
                     value=ext_to_json(union_value))
    return fails("continuity_below",
                 sup_of_values=ext_to_json(sup_of_values),
                 union_value=ext_to_json(union_value))


def continuity_from_above(mu: Measure, seq: SequenceSpec,
                          horizon: Optional[int] = None) -> CheckResult:
    """Decreasing sets with a finite first value: values decrease to the
    measure of the intersection.  The finiteness hypothesis is essential."""
    sets = seq.sample(horizon)
    for n in range(1, len(sets)):
        if sets[n] & sets[n - 1] != sets[n]:
            raise CertificationError(f"set sequence not decreasing at n={n}")
    first = mu.evaluate(sets[0])
    if first.is_infinite:
        raise HypothesisError(
            "continuity from above requires the first set to have finite measure"
        )
    stable = detect_stable_tail(sets)
    if stable is None and len(sets) > 1:
        raise CertificationError("set sequence did not stabilize within horizon")
    intersection = full_mask(mu.space.ground_size)
    for s in sets:
        intersection &= s
    values = [mu.evaluate(s) for s in sets]
    inf_of_values = values[-1]
    inter_value = mu.evaluate(intersection)
    if inf_of_values == inter_value:
        return holds("continuity_above",
                     intersection=mask_to_points(intersection),
                     value=ext_to_json(inter_value))
    return fails("continuity_above",
                 inf_of_values=ext_to_json(inf_of_values),
                 intersection_value=ext_to_json(inter_value))


def borel_cantelli(mu: Measure, seq: SequenceSpec, x: Optional[Element] = None,
                   horizon: Optional[int] = None) -> CheckResult:
    """Both halves of the Borel-Cantelli lemma on an eventually periodic
    sequence of sets.

    Part one applies when the partial sums of the values stay finite, which
    on an eventually periodic sequence means every set in the cycle is null;
    the limit superior set must then be null.  Part two applies when the
    union minus the limit superior set has finite measure and a uniform
    lower bound x for the values is supplied; the limit superior set must
    then carry at least x.
    """
    sets = seq.sample(horizon)
    cycle = detect_cycle(sets)
    if cycle is None:
        raise CertificationError(
            "set sequence is not eventually periodic within the horizon; "
            "tail unions are not certifiable"
        )
    pre, period = cycle
    union_all = 0
    for s in sets:
        union_all |= s
    gamma = 0
    for s in sets[pre:pre + period]:
        gamma |= s  # tail unions are eventually this cycle union
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
        details["part1"] = "holds" if part1 else "fails"
        if not part1:
            return fails("borel_cantelli", **details)
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
        details["part2"] = "holds" if part2 else "fails"
        if not part2:
            return fails("borel_cantelli", **details)
    else:
        details["part2"] = "not-applicable: no lower bound supplied"
    return holds("borel_cantelli", **details)


def operator_measure_bridge(mu: Measure, disjoint_sets: Sequence[int],
                            name: str = "bridge") -> CheckResult:
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
    if not mu.is_finite():
        raise HypothesisError("the operator bridge requires a finite measure")
    seen = 0
    for s in disjoint_sets:
        mu.space.require_measurable(s)
        if s & seen:
            raise ValidationError("sets are not pairwise disjoint",
                                  witness={"overlap": mask_to_points(s & seen)})
        seen |= s
    union = seen
    values = [mu.evaluate(s) for s in disjoint_sets]

    partial = ext_zero(mu.backend)
    partials = []
    for v in values:
        nxt = ext_add(partial, v)
        if not ext_leq(partial, nxt):
            return fails(name, reason="partial sums not increasing")
        partial = nxt
        partials.append(partial)
    union_value = mu.evaluate(union)
    order_ok = partial == union_value

    if mu.backend.kind is SpaceKind.LOEWNER_SYM:
        nrows = ncols = mu.backend.dim
    else:
        nrows, ncols = mu.backend.rows, mu.backend.cols
    vector_ok = True
    for j in range(ncols):
        total = [Fraction(0)] * nrows
        for v in values:
            m = v.payload()
            for i in range(nrows):
                total[i] += m.entry(i, j)
        target = union_value.payload()
        if any(total[i] != target.entry(i, j) for i in range(nrows)):
            vector_ok = False
            break
    if order_ok and vector_ok:
        return holds(name, union=mask_to_points(union),
                     partial_sums=len(partials))
    return fails(name, order_route=order_ok, vector_route=vector_ok)
