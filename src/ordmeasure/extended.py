"""The extension of a backend by an adjoined point at infinity.

``ExtElement`` is either a finite element of a fixed backend or the top
point, which dominates everything and absorbs addition.  The extended
nonnegative scalars act on the extended positive cone with the familiar
conventions ``0 * inf = 0``, ``inf * 0 = 0`` and ``inf * x = inf`` for
``x != 0``.  This makes the extension an ordered abelian monoid on which
both the additive and the multiplicative monoid of extended nonnegative
scalars act by monoid homomorphisms.

The supremum of an increasing sequence (the paper's sigma-monotone
completeness) and the infimum of a decreasing one are decided in one
place, `certify_monotone_limit`, against the limit the sequence declares.
The library API that applies it to a sequence spec (`sup_increasing`,
`ext_sup`, `ext_liminf_limsup`) is in `ordmeasure.limits`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from . import spaces
from .errors import CertificationError, Frozen, SpaceMismatchError
from .rationals import ExtScalar, format_rational, is_infinite
from .sequences import certify_gaps, detect_stable_tail
from .spaces import Element, NoSupremum, SpaceDescriptor


class ExtElement(Frozen):
    """A finite backend element, or the adjoined point at infinity.

    The space descriptor is carried even by the infinite point so that the
    zero element of the right backend can always be produced (the action
    ``0 * inf`` needs it) and space mismatches stay detectable.
    """

    __slots__ = ("space", "finite")

    def __init__(self, space: SpaceDescriptor, finite: Optional[Element]):
        if finite is not None and finite.space != space:
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
    if a.is_infinite or b.is_infinite:
        return infinity(a.space)
    return finite(spaces.add(a.finite, b.finite))


def ext_sum(items: Sequence[ExtElement], space: SpaceDescriptor) -> ExtElement:
    total = ext_zero(space)
    for item in items:
        total = ext_add(total, item)
    return total


def ext_leq(a: ExtElement, b: ExtElement) -> bool:
    spaces.require_same_space(a, b)
    if b.is_infinite:
        return True
    if a.is_infinite:
        return False
    return spaces.leq(a.finite, b.finite)


def is_ext_positive(a: ExtElement) -> bool:
    return ext_leq(ext_zero(a.space), a)


def ext_scale(r: ExtScalar, a: ExtElement) -> ExtElement:
    """Action of an extended nonnegative scalar on the extended cone."""
    if is_infinite(r):
        if not is_ext_positive(a):
            raise ValueError("infinite scalars act on the extended positive cone only")
        if a.is_finite and a.finite.is_zero():
            return ext_zero(a.space)
        return infinity(a.space)
    if not isinstance(r, Fraction):
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
    if a.is_infinite:
        return a
    return finite(spaces.sub(a.finite, b.finite))


def ext_inf_finite_list(items: Sequence[ExtElement]) -> Union[ExtElement, NoSupremum]:
    """Infimum in the extended space: infinite entries are discarded unless
    the whole collection is infinite."""
    if not items:
        raise ValueError("infimum of an empty collection is undefined")
    space = items[0].space
    for item in items:
        spaces.require_same_space(items[0], item)
    finite_items = [item.finite for item in items if item.is_finite]
    if not finite_items:
        return infinity(space)
    current = finite_items[0]
    for el in finite_items[1:]:
        nxt = spaces.inf_pair(current, el)
        if isinstance(nxt, NoSupremum):
            return nxt
        current = nxt
    return finite(current)


def certify_divergence(
    terms: Sequence[ExtElement],
    space: SpaceDescriptor,
    horizon: int,
) -> None:
    """Certify unboundedness against the ladder of bounds k * unit.

    For each k the sampled terms must contain one that is *not* below
    ``k * unit``.  The ladder stops at horizon - 1: a sequence growing one
    unit per step can never overtake the bound with the same index inside
    its own sampling window.

    Being below every sample is monotone in k: a term below k * unit is
    below every larger bound too.  So the ladder holds exactly when its top
    rung does, which one pass over the terms decides; when it fails, the
    first failing k is found by bisection.
    """
    unit = spaces.order_unit(space)

    def all_below(k: int) -> bool:
        bound = finite(spaces.scale(Fraction(k), unit))
        return all(ext_leq(t, bound) for t in terms)

    top = max(horizon, 2) - 1
    if not all_below(top):
        return
    lo, hi = 0, top  # some sample escapes every k <= lo, none escapes hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if all_below(mid):
            hi = mid
        else:
            lo = mid
    raise CertificationError(f"divergence not certified: all samples below {hi} * unit")


def certify_monotone_limit(values: Sequence[ExtElement], target: Optional[ExtElement],
                           epsilons: Sequence[Fraction], increasing: bool = True,
                           prefix: str = "") -> Optional[dict]:
    """Certify that `target` is the supremum of the increasing `values`, or
    the infimum of the decreasing ones.  This is the one certifier of a
    monotone limit.

    The terms must be monotone and on the target's side of it.  The limit
    is then

    * stabilized, when the last term is the target;
    * divergence-certified (`certify_divergence`), when the target is the
      point at infinity;
    * gap-certified otherwise: for each epsilon some term comes within
      epsilon times the order unit of the target (`certify_gaps`).

    The mode is returned with its evidence.  With no target only the order
    of the terms is certified, and None is returned.  Every message starts
    with `prefix`.
    """
    def precedes(a, b):
        return ext_leq(a, b) if increasing else ext_leq(b, a)

    direction = "increasing" if increasing else "decreasing"
    for n in range(1, len(values)):
        if not precedes(values[n - 1], values[n]):
            raise CertificationError(f"{prefix}sequence not {direction} at {n}")
    if target is None:
        return None
    crossing = "exceeds" if increasing else "dips below"
    for n, v in enumerate(values, start=1):
        if not precedes(v, target):
            raise CertificationError(f"{prefix}sequence {crossing} the target at {n}")
    if values[-1] == target:
        return {"mode": "stabilized", "at": detect_stable_tail(values) or len(values)}
    if target.is_infinite:
        certify_divergence(values, target.space, len(values))
        return {"mode": "divergence-certified", "ladder_top": len(values) - 1}
    unit = spaces.order_unit(target.space)

    def probe(eps):
        bump = finite(spaces.scale(eps, unit))
        if increasing:
            return lambda i: ext_leq(target, ext_add(values[i - 1], bump))
        ceiling = ext_add(target, bump)
        return lambda i: ext_leq(values[i - 1], ceiling)

    gaps = certify_gaps(epsilons, len(values), probe, prefix + "gap {eps} not certified")
    return {"mode": "gap-certified", "gaps": gaps}
