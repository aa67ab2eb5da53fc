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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from . import spaces
from .errors import CertificationError, Frozen, SpaceMismatchError
from .rationals import ExtScalar, format_rational, is_infinite
from .sequences import (
    DEFAULT_EPSILONS,
    DeclaredLimit,
    DivergesToInfinity,
    SequenceSpec,
    StabilizesAt,
    certify_gaps,
    detect_cycle,
    detect_stable_tail,
)
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


class GapReport(Frozen):
    """Residual evidence when a sequence supremum cannot be certified."""

    __slots__ = ("horizon", "last_value", "bound", "residual", "message")

    def __init__(self, horizon: int, last_value: Element,
                 bound: Optional[Element] = None, residual: Optional[Element] = None,
                 message: str = "no limit declared; samples alone certify none"):
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "last_value", last_value)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "message", message)


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


def _as_ext(value) -> ExtElement:
    return value if isinstance(value, ExtElement) else finite(value)


def _declared_limit(seq: SequenceSpec, terms: Sequence[ExtElement]) -> Optional[ExtElement]:
    """The limit of `seq` that its sampled `terms` and metadata declare.

    An infinite term or `DivergesToInfinity` declares the point at
    infinity, `StabilizesAt(k)` declares term k and `DeclaredLimit` its
    value.  Otherwise nothing is declared and the result is None: a
    constant sampled tail is not a limit.
    """
    metadata = seq.metadata
    if isinstance(metadata, DivergesToInfinity) or any(t.is_infinite for t in terms):
        return infinity(terms[0].space)
    if isinstance(metadata, StabilizesAt):
        return _as_ext(seq.term(metadata.index))
    if isinstance(metadata, DeclaredLimit):
        if not isinstance(metadata.value, (Element, ExtElement)):
            raise CertificationError("declared limit must be an element")
        return _as_ext(metadata.value)
    return None


def _sequence_sup(seq: SequenceSpec, terms: Sequence[ExtElement],
                  epsilons: Optional[Sequence[Fraction]],
                  bound: Optional[Element] = None) -> Union[ExtElement, GapReport]:
    """The certified declared limit of the increasing `terms` of `seq`, or a
    `GapReport` on the last term when nothing is declared."""
    target = _declared_limit(seq, terms)
    certify_monotone_limit(terms, target,
                           epsilons if epsilons is not None else DEFAULT_EPSILONS)
    if target is not None:
        return target
    last = terms[-1].finite
    residual = spaces.sub(bound, last) if bound is not None else None
    return GapReport(len(terms), last, bound, residual)


def sup_increasing(
    seq: SequenceSpec,
    bound: Optional[Element] = None,
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Union[Element, ExtElement, GapReport]:
    """Supremum of an increasing sequence of elements, certified from samples.

    The terms up to the horizon must increase, and stay below `bound` when
    one is given.  The supremum is the limit the metadata declares, certified
    by `certify_monotone_limit`: an element, or the point at infinity for a
    certified divergence.  With nothing declared the result is a `GapReport`.
    """
    terms = seq.sample(horizon)
    if bound is not None:
        for n, t in enumerate(terms, start=1):
            if not spaces.leq(t, bound):
                raise CertificationError(f"bound violated at n={n}")
    result = _sequence_sup(seq, [finite(t) for t in terms], epsilons, bound)
    if isinstance(result, ExtElement) and result.is_finite:
        return result.finite
    return result


def ext_sup(
    items: Union[Sequence[ExtElement], SequenceSpec],
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Union[ExtElement, NoSupremum, GapReport]:
    """Supremum in the extended space of a finite list or an increasing sequence.

    The supremum of a sequence is the limit its metadata or an infinite term
    declares, certified by `certify_monotone_limit`, or a `GapReport` when
    nothing is declared.
    """
    if not isinstance(items, SequenceSpec):
        return ext_sup_finite_list(list(items))
    return _sequence_sup(items, items.sample(horizon), epsilons)


def ext_liminf_limsup(
    seq: SequenceSpec, horizon: Optional[int] = None
) -> tuple:
    """Exact (liminf, limsup) of an order-bounded lattice-valued sequence.

    Requires a lattice backend (tail infima and suprema must exist) and a
    sampled window that is eventually periodic or stabilizing, so the tails
    are exactly computable from one cycle.  A monotone sequence may declare
    its limit instead, which `certify_monotone_limit` certifies.
    """
    terms = seq.sample(horizon)
    h = len(terms)
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
        ext_terms = [finite(t) for t in terms]
        target = _declared_limit(seq, ext_terms)
        if target.is_infinite:
            raise CertificationError("liminf/limsup needs an order-bounded sequence")
        certify_monotone_limit(ext_terms, target, DEFAULT_EPSILONS,
                               seq.monotonicity == "increasing")
        return target.finite, target.finite

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
