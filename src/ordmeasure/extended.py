"""The extension of a backend by an adjoined point at infinity.

``ExtElement`` is either a finite element of a fixed backend or the top
point, which dominates everything and absorbs addition.  The extended
nonnegative scalars act on the extended positive cone with the familiar
conventions ``0 * inf = 0``, ``inf * 0 = 0`` and ``inf * x = inf`` for
``x != 0``.  This makes the extension an ordered abelian monoid on which
both the additive and the multiplicative monoid of extended nonnegative
scalars act by monoid homomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import spaces
from .errors import CertificationError, SpaceMismatchError
from .rationals import ExtScalar, format_rational, is_infinite
from .sequences import (
    DEFAULT_EPSILONS,
    DEFAULT_HORIZON,
    DeclaredLimit,
    DivergesToInfinity,
    SequenceSpec,
    detect_cycle,
)
from .spaces import Element, GapReport, NoSupremum, SpaceDescriptor


@dataclass(frozen=True)
class ExtElement:
    """A finite backend element, or the adjoined point at infinity.

    The space descriptor is carried even by the infinite point so that the
    zero element of the right backend can always be produced (the action
    ``0 * inf`` needs it) and space mismatches stay detectable.
    """

    space: SpaceDescriptor
    finite: Optional[Element]

    def __post_init__(self):
        if self.finite is not None and self.finite.space != self.space:
            raise SpaceMismatchError("payload space differs from declared space")

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


def ext_to_json(v: ExtElement):
    """The JSON form of an extended element: {"finite": [coords]} or "infinity"."""
    if v.is_infinite:
        return "infinity"
    return {"finite": [format_rational(c) for c in v.finite.coords]}


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


def ext_sup_finite_list(items: Sequence[ExtElement]) -> Union[ExtElement, NoSupremum]:
    """Supremum of a nonempty finite set in the extended space."""
    if not items:
        raise ValueError("supremum of an empty collection is undefined")
    space = items[0].space
    for item in items:
        spaces.require_same_space(items[0], item)
    if any(item.is_infinite for item in items):
        return infinity(space)
    current = items[0].finite
    for item in items[1:]:
        nxt = spaces.sup_pair(current, item.finite)
        if isinstance(nxt, NoSupremum):
            return nxt
        current = nxt
    return finite(current)


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
    """
    unit = spaces.order_unit(space)
    for k in range(1, max(horizon, 2)):
        bound = finite(spaces.scale(Fraction(k), unit))
        if not any(not ext_leq(t, bound) for t in terms):
            raise CertificationError(
                f"divergence not certified: all samples below {k} * unit"
            )


def ext_sup(
    items: Union[Sequence[ExtElement], SequenceSpec],
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Union[ExtElement, NoSupremum, GapReport]:
    """Supremum in the extended space of a finite list or an increasing sequence.

    A sequence must be declared increasing; its supremum is the point at
    infinity when a sampled term is infinite or when declared-divergence
    metadata is certified against the bound ladder, and otherwise delegates
    to the finite-element machinery (stabilization or declared limit).
    """
    if not isinstance(items, SequenceSpec):
        return ext_sup_finite_list(list(items))

    seq = items
    h = horizon if horizon is not None else (seq.horizon or DEFAULT_HORIZON)
    eps = epsilons if epsilons is not None else DEFAULT_EPSILONS
    terms = [seq.term(n) for n in range(1, h + 1)]
    space = terms[0].space
    for n in range(1, h):
        if not ext_leq(terms[n - 1], terms[n]):
            raise CertificationError(f"monotonicity violation: term {n} > term {n + 1}")
    if any(t.is_infinite for t in terms):
        return infinity(space)
    if isinstance(seq.metadata, DivergesToInfinity):
        certify_divergence(terms, space, h)
        return infinity(space)

    metadata = seq.metadata
    if isinstance(metadata, DeclaredLimit) and isinstance(metadata.value, ExtElement):
        if metadata.value.is_infinite:
            certify_divergence(terms, space, h)
            return infinity(space)
        metadata = DeclaredLimit(metadata.value.finite)
    finite_seq = SequenceSpec(
        generator=lambda n: seq.term(n).finite,
        horizon=h,
        metadata=metadata,
        monotonicity="increasing",
    )
    result = spaces.sup_increasing(finite_seq, horizon=h, epsilons=eps)
    if isinstance(result, Element):
        return finite(result)
    return result


def ext_liminf_limsup(
    seq: SequenceSpec, horizon: Optional[int] = None
) -> tuple:
    """Exact (liminf, limsup) of an order-bounded lattice-valued sequence.

    Requires a lattice backend (tail infima and suprema must exist) and a
    sampled window that is eventually periodic or stabilizing, so the tails
    are exactly computable from one cycle.  A declared limit on a monotone
    sequence is accepted as the stabilizing description.
    """
    h = horizon if horizon is not None else (seq.horizon or DEFAULT_HORIZON)
    terms = [seq.term(n) for n in range(1, h + 1)]
    space = terms[0].space
    if not space.is_lattice:
        raise CertificationError(
            "liminf/limsup needs a lattice backend; "
            f"{space.describe()} is not sigma-Dedekind complete"
        )

    if isinstance(seq.metadata, DeclaredLimit) and seq.monotonicity in (
        "increasing",
        "decreasing",
    ):
        limit = seq.metadata.value
        if isinstance(limit, ExtElement):
            limit = limit.finite
        if seq.monotonicity == "increasing":
            value = spaces.sup_increasing(seq, horizon=h)
        else:
            flipped = SequenceSpec(
                generator=lambda n: spaces.neg(seq.term(n)),
                horizon=h,
                metadata=DeclaredLimit(spaces.neg(limit)),
                monotonicity="increasing",
            )
            value = spaces.sup_increasing(flipped, horizon=h)
            if isinstance(value, Element):
                value = spaces.neg(value)
        if not isinstance(value, Element):
            raise CertificationError("declared limit could not be certified")
        return value, value

    cycle = detect_cycle(terms)
    if cycle is None:
        raise CertificationError(
            f"tails not exactly computable within horizon {h}: "
            "no eventual periodicity detected"
        )
    pre, period = cycle
    cycle_vals = terms[pre : pre + period]
    lo = cycle_vals[0]
    hi = cycle_vals[0]
    for v in cycle_vals[1:]:
        lo = spaces.inf_pair(lo, v)
        hi = spaces.sup_pair(hi, v)
    return lo, hi
