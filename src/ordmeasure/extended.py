"""The extension of a backend by an adjoined point at infinity.

``ExtElement`` is either a finite element of a fixed backend or the top
point, which dominates everything and absorbs addition.  The extended
nonnegative scalars act on the extended positive cone with the familiar
conventions ``0 * inf = 0``, ``inf * 0 = 0`` and ``inf * x = inf`` for
``x != 0``.  This makes the extension an ordered abelian monoid on which
both the additive and the multiplicative monoid of extended nonnegative
scalars act by monoid homomorphisms.

Arithmetic and order run on integer rows, (nums, den) for a finite value
and None for infinity, through the row kernels of `spaces`.  `ext_add`,
`ext_leq` and `ext_sub_finite` are one kernel call each on their
operands' rows (`_row`), exhaustive passes and sequence checks call the
kernels on whole tables (`ext_rows`), and `from_row` builds the value of
a row.  The supremum of an increasing sequence (the paper's
sigma-monotone completeness) and the infimum of a decreasing one are
decided in one place, on rows, `certify_monotone_limit`, with which the
monotone convergence theorems certify their integrals.  Divergence to
infinity is certified on one ladder of bounds, `certify_divergence`, for
those integrals and for the samples at each point where a limit is
infinite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import spaces
from .errors import CertificationError, Frozen, SpaceMismatchError
from .rationals import ExtScalar, format_rational, is_infinite
from .sequences import certify_gaps, stable_from
from .spaces import Element, SpaceDescriptor


class ExtElement(Frozen):
    """A finite backend element, or the adjoined point at infinity.

    The space descriptor is carried even by the infinite point so that the
    zero element of the right backend can always be produced (the action
    ``0 * inf`` needs it) and space mismatches stay detectable.
    """

    __slots__ = ("space", "finite")

    def __init__(self, space: SpaceDescriptor, finite: Optional[Element]):
        if finite is not None and finite.space is not space and finite.space != space:
            raise SpaceMismatchError("payload space differs from declared space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "finite", finite)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.finite == other.finite and self.space == other.space

    def __hash__(self):
        return hash((self.space, self.finite))

    @property
    def is_finite(self) -> bool:
        return self.finite is not None

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def payload(self) -> Element:
        if self.finite is None:
            raise ValueError("the point at infinity has no finite payload")
        return self.finite

    def __repr__(self):
        if self.finite is None:
            return f"<{self.space.describe()} infinity>"
        return repr(self.finite)


def finite(el: Element) -> ExtElement:
    return ExtElement(el.space, el)


def infinity(space: SpaceDescriptor) -> ExtElement:
    return ExtElement(space, None)


def ext_zero(space: SpaceDescriptor) -> ExtElement:
    return finite(spaces.zero(space))


def element_to_json(el: Element) -> list:
    """The JSON form of a finite element: its coordinates as exact rationals."""
    return [format_rational(c) for c in el.coords]


def ext_to_json(v: ExtElement):
    """The JSON form of an extended element: {"finite": [coords]} or "infinity"."""
    if v.is_infinite:
        return "infinity"
    return {"finite": element_to_json(v.finite)}


def ext_add(a: ExtElement, b: ExtElement) -> ExtElement:
    spaces.require_same_space(a, b)
    return from_row(a.space, spaces.row_add(_row(a), _row(b)))


def ext_sum(items: Sequence[ExtElement], space: SpaceDescriptor) -> ExtElement:
    total = ext_zero(space)
    for item in items:
        total = ext_add(total, item)
    return total


def ext_leq(a: ExtElement, b: ExtElement) -> bool:
    spaces.require_same_space(a, b)
    return spaces.row_leq(a.space, _row(a), _row(b))


def _row(v: ExtElement):
    """The row of one value: (nums, den), or None for infinity."""
    el = v.finite
    return None if el is None else (el.nums, el.den)


def ext_rows(values: Sequence[ExtElement]) -> list:
    """The values as one integer table: each finite value as a row
    ``(nums, den)`` of integer numerators over a positive denominator, the
    point at infinity as None.  Every row is brought over the lcm of the
    denominators, so that rows add and subtract without a multiplication
    and equal values are equal rows.  A table of many unrelated
    denominators, whose lcm has more than twice the bits of the largest one
    (plus 64), keeps each value over its own denominator instead: then the
    row kernels cross-multiply, and no number outgrows the few values an
    operation reads."""
    dens = [v.finite.den for v in values if v.finite is not None]
    common = math.lcm(*dens)
    if common.bit_length() > 2 * max(dens, default=1).bit_length() + 64:
        common = None
    rows = []
    for v in values:
        row = _row(v)
        if row is not None and common is not None and row[1] != common:
            factor = common // row[1]
            row = tuple([x * factor for x in row[0]]), common
        rows.append(row)
    return rows


def from_row(space: SpaceDescriptor, row) -> ExtElement:
    return infinity(space) if row is None else finite(spaces._element(space, *row))


def is_ext_positive(a: ExtElement) -> bool:
    return ext_leq(ext_zero(a.space), a)


def ext_scale(r: ExtScalar, a: ExtElement) -> ExtElement:
    """Action of the extended nonnegative scalar r on the extended cone."""
    if is_infinite(r):
        if not is_ext_positive(a):
            raise ValueError("infinite scalars act on the extended positive cone only")
        if a.is_finite and a.finite.is_zero():
            return ext_zero(a.space)
        return infinity(a.space)
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    if r < 0:
        raise ValueError("extended scaling requires a nonnegative scalar")
    if a.is_infinite:
        return ext_zero(a.space) if r == 0 else infinity(a.space)
    return finite(spaces.scale(r, a.finite))


def ext_sub_finite(a: ExtElement, b: ExtElement) -> ExtElement:
    """a - b for finite b; infinite a stays infinite (cancellation trick)."""
    spaces.require_same_space(a, b)
    if b.is_infinite:
        raise ValueError("cannot subtract the point at infinity")
    return from_row(a.space, spaces.row_sub(_row(a), _row(b)))


def certify_divergence(space: SpaceDescriptor, terms: Sequence,
                       message: str = "divergence not certified: all samples below {k} * unit"
                       ) -> int:
    """Certify unboundedness against the ladder of bounds k * unit, and
    return its top rung.

    `terms` are the rows of h >= 1 samples of a sequence in `space`, the
    unit its order unit.  For each k the sampled terms must contain one
    that is *not* below ``k * unit``.  The ladder stops at h - 1 (1 when h
    is 1), as a sequence growing one unit per step can never overtake the
    bound with the same index inside its own window.  This is the one
    ladder: the integrals of the monotone convergence theorems and their
    samples at each point where the limit is infinite climb it.

    Being below every sample is monotone in k: a term below k * unit is
    below every larger bound too.  So the ladder holds exactly when its top
    rung does, which one pass over the terms decides; when it fails, the
    first failing k is found by bisection, and the CertificationError is
    `message` formatted with that k.
    """
    def all_below(k: int) -> bool:
        bound = spaces.scaled_unit(space, k)
        return all(spaces.row_leq(space, t, bound) for t in terms)

    top = max(len(terms), 2) - 1
    if not all_below(top):
        return top
    lo, hi = 0, top  # some sample escapes every k <= lo, none escapes hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if all_below(mid):
            hi = mid
        else:
            lo = mid
    raise CertificationError(message.format(k=hi))


def certify_monotone_limit(space: SpaceDescriptor, values: Sequence, target,
                           epsilons: Sequence[Fraction], increasing: bool = True) -> dict:
    """Certify that `target` is the supremum of the increasing integrals
    `values`, or the infimum of the decreasing ones: rows of `space`, equal
    rows for equal values.  This is the one certifier of a monotone limit.

    The terms must be monotone and on the target's side of it.  The limit
    is then

    * stabilized, when the last term is the target;
    * divergence-certified (`certify_divergence`), when the target is the
      point at infinity;
    * gap-certified otherwise: for each epsilon some term comes within
      epsilon times the order unit of the target (`certify_gaps`).

    The mode is returned with its evidence.
    """
    def precedes(a, b):
        return spaces.row_leq(space, a, b) if increasing else spaces.row_leq(space, b, a)

    direction = "increasing" if increasing else "decreasing"
    for n in range(1, len(values)):
        if not precedes(values[n - 1], values[n]):
            raise CertificationError(f"integral sequence not {direction} at {n}")
    crossing = "exceeds" if increasing else "dips below"
    for n, v in enumerate(values, start=1):
        if not precedes(v, target):
            raise CertificationError(f"integral sequence {crossing} the target at {n}")
    if spaces.row_eq(values[-1], target):
        return {"mode": "stabilized", "at": stable_from(values).index}
    if target is None:
        return {"mode": "divergence-certified", "ladder_top": certify_divergence(space, values)}

    def probe(eps):  # the term is within eps * unit of the target, on its side
        bump = spaces.scaled_unit(space, eps)
        edge = spaces.row_sub(target, bump) if increasing else spaces.row_add(target, bump)
        return lambda i: precedes(edge, values[i - 1])

    gaps = certify_gaps(epsilons, len(values), probe, "integral gap {eps} not certified")
    return {"mode": "gap-certified", "gaps": gaps}
